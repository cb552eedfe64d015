//! Appendix E: routing on expanders of arbitrary degree through the
//! expander split `G⋄`, plus the unknown-load doubling trick.

use crate::router::{Router, RouterConfig};
use crate::token::{InstanceError, RoutingInstance, RoutingOutcome};
use expander_decomp::BuildError;
use expander_graphs::{Graph, SplitGraph};

/// A router for expanders with arbitrary degrees: tokens are mapped to
/// ports of the constant-degree split graph `G⋄`, routed there, and
/// mapped back (Appendix E).
#[derive(Debug, Clone)]
pub struct GeneralRouter {
    graph: Graph,
    split: SplitGraph,
    inner: Router,
}

impl GeneralRouter {
    /// Preprocesses an arbitrary-degree expander.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the split graph is too small or
    /// disconnected.
    pub fn preprocess(graph: &Graph, config: RouterConfig) -> Result<GeneralRouter, BuildError> {
        let split = SplitGraph::build(graph, config.hierarchy.seed);
        let inner = Router::preprocess(split.graph(), config)?;
        Ok(GeneralRouter { graph: graph.clone(), split, inner })
    }

    /// The base graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The expander split.
    pub fn split(&self) -> &SplitGraph {
        &self.split
    }

    /// The constant-degree router underneath.
    pub fn inner(&self) -> &Router {
        &self.inner
    }

    /// Routes a general-graph instance: each vertex may source and
    /// sink up to `deg(v)` tokens (the classic CONGEST load regime).
    ///
    /// Destination ports are assigned by the local-propagation +
    /// local-serialization recipe of Appendix E (`SID mod deg(v)`),
    /// charged as two inner sorts.
    ///
    /// # Errors
    ///
    /// Errors if a vertex sources or sinks more than `deg(v)` tokens.
    pub fn route(&self, inst: &RoutingInstance) -> Result<RoutingOutcome, InstanceError> {
        let base_n = self.graph.n();
        let mut src_count = vec![0u32; base_n];
        let mut dst_count = vec![0u32; base_n];
        let mut triples = Vec::with_capacity(inst.tokens.len());
        for t in &inst.tokens {
            if t.src as usize >= base_n || t.dst as usize >= base_n {
                return Err(InstanceError::new("token endpoint outside the base graph"));
            }
            let sdeg = self.split.base_degree(t.src);
            let ddeg = self.split.base_degree(t.dst);
            let s_port = src_count[t.src as usize];
            let d_port = dst_count[t.dst as usize];
            if s_port >= sdeg {
                return Err(InstanceError::new(format!(
                    "vertex {} sources more than deg = {sdeg} tokens",
                    t.src
                )));
            }
            if d_port >= ddeg {
                return Err(InstanceError::new(format!(
                    "vertex {} sinks more than deg = {ddeg} tokens",
                    t.dst
                )));
            }
            src_count[t.src as usize] += 1;
            dst_count[t.dst as usize] += 1;
            triples.push((
                self.split.port_vertex(t.src, s_port),
                self.split.port_vertex(t.dst, d_port),
                t.payload,
            ));
        }
        let split_inst = RoutingInstance::from_triples(&triples);
        let mut out = self.inner.route(&split_inst)?;
        // Appendix E label reassignment: one propagation + one
        // serialization, each two inner sorts at unit load.
        let root = self.inner.hierarchy().root();
        out.ledger.charge("query/general/port-labels", 2 * self.inner.cost_model().tsort(root, 1));
        // Map positions back to base vertices.
        for p in &mut out.positions {
            *p = self.split.owner(*p);
        }
        out.destinations = inst.tokens.iter().map(|t| t.dst).collect();
        Ok(out)
    }

    /// The unknown-`L` doubling trick (Appendix E remark): try load
    /// caps `1, 2, 4, …`; a failed attempt charges its partial run.
    /// Returns the final outcome plus the number of attempts.
    ///
    /// # Errors
    ///
    /// Propagates [`GeneralRouter::route`] errors from the final
    /// attempt.
    pub fn route_with_doubling(
        &self,
        inst: &RoutingInstance,
    ) -> Result<(RoutingOutcome, u32), InstanceError> {
        let mut attempts = 0u32;
        let mut wasted = congest_sim::RoundLedger::new();
        let mut cap = 1usize;
        loop {
            attempts += 1;
            // Truncate to the per-vertex cap: the run "halts" once some
            // vertex exceeds its allowance.
            let mut src_seen = vec![0usize; self.graph.n()];
            let mut dst_seen = vec![0usize; self.graph.n()];
            let mut truncated = Vec::new();
            let mut overflow = false;
            for t in &inst.tokens {
                let sdeg = self.split.base_degree(t.src) as usize;
                let ddeg = self.split.base_degree(t.dst) as usize;
                if src_seen[t.src as usize] + 1 > cap.min(sdeg)
                    || dst_seen[t.dst as usize] + 1 > cap.min(ddeg)
                {
                    overflow = true;
                    continue;
                }
                src_seen[t.src as usize] += 1;
                dst_seen[t.dst as usize] += 1;
                truncated.push(*t);
            }
            if !overflow {
                let mut out = self.route(inst)?;
                out.ledger.merge(&wasted);
                return Ok((out, attempts));
            }
            // Failed attempt: charge the partial run, double, retry.
            let partial = self.route(&RoutingInstance { tokens: truncated })?;
            wasted.charge("query/general/doubling-waste", partial.rounds());
            cap *= 2;
            assert!(cap <= 2 * self.graph.n(), "doubling runaway");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn general_router(seed: u64) -> GeneralRouter {
        // A non-constant-degree expander with hubs.
        let g = generators::hub_expander(96, 2, seed).expect("generator");
        GeneralRouter::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn routes_on_varying_degrees() {
        let r = general_router(1);
        let inst = RoutingInstance::permutation(96, 2);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(out.ledger.phase("query/general/port-labels") > 0);
    }

    #[test]
    fn hub_can_sink_degree_many_tokens() {
        let r = general_router(2);
        // Hub 0 has high degree; send it many tokens.
        let deg0 = r.split().base_degree(0);
        assert!(deg0 > 8);
        let triples: Vec<(u32, u32, u64)> = (1..=deg0.min(16)).map(|i| (i, 0, i as u64)).collect();
        let inst = RoutingInstance::from_triples(&triples);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
    }

    #[test]
    fn rejects_overloaded_vertices() {
        let r = general_router(3);
        // Find a degree-4 vertex and overload it as a destination.
        let v =
            (0..96u32).find(|&v| r.split().base_degree(v) == 4).expect("base vertex of degree 4");
        let triples: Vec<(u32, u32, u64)> =
            (0..5).map(|i| ((v + 1 + i) % 96, v, i as u64)).collect();
        assert!(r.route(&RoutingInstance::from_triples(&triples)).is_err());
    }

    #[test]
    fn doubling_trick_converges() {
        let r = general_router(4);
        let inst = RoutingInstance::from_triples(&[(1, 0, 0), (2, 0, 1), (3, 0, 2), (4, 0, 3)]);
        let (out, attempts) = r.route_with_doubling(&inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(attempts >= 2, "destination load 4 needs doubling");
        assert!(out.ledger.phase("query/general/doubling-waste") > 0);
    }
}
