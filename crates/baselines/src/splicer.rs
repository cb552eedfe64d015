//! Splicer routing: union of seeded spanning trees (arXiv:0807.1496).
//!
//! Goyal–Rademacher–Vempala show that the union of a few random
//! spanning trees of an expander is itself a sparse expander-like
//! *splicer*. The routing baseline built on that observation keeps `k`
//! deterministically-seeded spanning forests and sends every token
//! along the unique tree path of the forest that currently looks
//! cheapest — least-loaded first, shortest second — while a flat
//! per-edge array indexed by [`Graph::edge_id`] accounts the load.
//!
//! The charge model is Fact 2.2: a path set with congestion `c` and
//! dilation `d` schedules in `c · d` rounds, charged to
//! `baseline/splicer/route`. Tree construction is preprocessing and is
//! deliberately *not* in the query ledger, mirroring how the
//! hierarchical router keeps `Router::preprocess` off the query path.
//!
//! The forests come from seeded-shuffle Kruskal
//! ([`SpanningForest::random`]) rather than a uniform-spanning-tree
//! sampler: the baseline needs diverse deterministic trees that exist
//! even on disconnected graphs, not exact uniformity (see
//! `expander_graphs::trees`). Tokens whose endpoints no forest
//! connects — exactly the cross-component pairs, since every forest
//! spans every component — are reported undelivered.

use congest_sim::cost;
use expander_core::token::InstanceError;
use expander_core::{
    RoutingAlgorithm, RoutingInstance, RoutingOutcome, Undeliverable, UndeliverableReason,
};
use expander_graphs::trees::SpanningForest;
use expander_graphs::Graph;

/// The splicer baseline: `k` seeded spanning forests, tokens greedily
/// assigned to the least-loaded tree path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplicerRouting {
    /// Number of spanning forests in the splicer (the paper's `k`;
    /// a handful suffices for expanders).
    pub trees: usize,
    /// Seed deterministically deriving every forest.
    pub seed: u64,
}

impl Default for SplicerRouting {
    fn default() -> Self {
        SplicerRouting { trees: 4, seed: 0xBA5E }
    }
}

impl SplicerRouting {
    /// A splicer with `trees` forests derived from `seed`.
    pub fn new(trees: usize, seed: u64) -> Self {
        assert!(trees >= 1, "a splicer needs at least one tree");
        SplicerRouting { trees, seed }
    }

    /// The forests this configuration derives on `g` (exposed for
    /// tests and diagnostics; `route_instance` rebuilds them per call
    /// so the algorithm stays a pure function of `(graph, instance)`).
    pub fn forests(&self, g: &Graph) -> Vec<SpanningForest> {
        (0..self.trees)
            .map(|i| {
                let mixed = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                SpanningForest::random(g, mixed)
            })
            .collect()
    }
}

impl RoutingAlgorithm for SplicerRouting {
    fn name(&self) -> &'static str {
        "splicer"
    }

    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError> {
        crate::validate(g, inst)?;
        let forests = self.forests(g);
        let mut out = RoutingOutcome::at_sources(inst);
        let mut loads = vec![0u32; g.edge_id_count()];
        let mut dilation = 0u64;

        for (i, t) in inst.tokens.iter().enumerate() {
            if t.src == t.dst {
                continue;
            }
            // Candidate = the unique tree path in each forest; pick the
            // one minimizing (current peak load, hops, forest index) —
            // an online greedy choice, deterministic in token order.
            let mut best: Option<(u32, usize, usize, Vec<u32>)> = None;
            for (fi, f) in forests.iter().enumerate() {
                let Some(p) = f.path(t.src, t.dst) else { continue };
                let ids: Vec<u32> = p
                    .edges()
                    .map(|(a, b)| g.edge_id(a, b).expect("forest edge exists in host"))
                    .collect();
                let peak = ids.iter().map(|&e| loads[e as usize]).max().unwrap_or(0);
                let key = (peak, ids.len(), fi);
                if best.as_ref().is_none_or(|b| key < (b.0, b.1, b.2)) {
                    best = Some((peak, ids.len(), fi, ids));
                }
            }
            match best {
                Some((_, hops, _, ids)) => {
                    for &e in &ids {
                        loads[e as usize] += 1;
                    }
                    dilation = dilation.max(hops as u64);
                    out.positions[i] = t.dst;
                }
                None => out.undeliverable.push(Undeliverable {
                    token: i,
                    reason: UndeliverableReason::NoPath { src: t.src, dst: t.dst },
                }),
            }
        }

        let congestion = u64::from(loads.iter().copied().max().unwrap_or(0));
        let rounds = cost::route_batched_cd(congestion, dilation, 1);
        if rounds > 0 {
            out.ledger.charge("baseline/splicer/route", rounds);
        }
        out.edge_loads = loads;
        out.stats.max_congestion = congestion;
        out.stats.max_dilation = dilation;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    #[test]
    fn delivers_permutation_on_expander() {
        let g = generators::random_regular(128, 4, 7).expect("generator");
        let inst = RoutingInstance::permutation(g.n(), 3);
        let out = SplicerRouting::default().route_instance(&g, &inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
        assert!(out.stats.max_congestion > 0 && out.stats.max_dilation > 0);
        assert_eq!(out.rounds(), out.stats.max_congestion * out.stats.max_dilation);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::margulis(8);
        let inst = RoutingInstance::hotspot(g.n(), 3, 8, 5);
        let s = SplicerRouting::default();
        let a = s.route_instance(&g, &inst).expect("valid");
        let b = s.route_instance(&g, &inst).expect("valid");
        assert_eq!(a, b, "same config, same outcome, ledger included");
    }

    #[test]
    fn reports_cross_component_tokens() {
        let g = generators::disconnected_expanders(2, 32, 4, 5).expect("generator");
        let inst = RoutingInstance::from_triples(&[(0, 40, 0), (40, 1, 1), (2, 9, 2)]);
        let out = SplicerRouting::default().route_instance(&g, &inst).expect("valid");
        let reported: Vec<usize> = out.undeliverable.iter().map(|u| u.token).collect();
        assert_eq!(reported, vec![0, 1]);
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
    }

    #[test]
    fn more_trees_never_hurt_congestion_much() {
        // Not a theorem, just a sanity check that the least-loaded
        // choice actually spreads load: with 4 trees the permutation's
        // congestion should not exceed the single-tree congestion.
        let g = generators::random_regular(256, 4, 9).expect("generator");
        let inst = RoutingInstance::permutation(g.n(), 11);
        let one = SplicerRouting::new(1, 0xBA5E).route_instance(&g, &inst).expect("valid");
        let four = SplicerRouting::new(4, 0xBA5E).route_instance(&g, &inst).expect("valid");
        assert!(
            four.stats.max_congestion <= one.stats.max_congestion,
            "4 trees {} vs 1 tree {}",
            four.stats.max_congestion,
            one.stats.max_congestion
        );
    }

    #[test]
    fn rejects_out_of_range_tokens() {
        let g = generators::ring(8);
        let inst = RoutingInstance::from_triples(&[(0, 99, 0)]);
        assert!(SplicerRouting::default().route_instance(&g, &inst).is_err());
    }
}
