//! The baseline arena: a common trait for rival routing algorithms.
//!
//! The paper's title claim — "faster and more versatile" — is a
//! *comparison*, so the repository needs something to compare against.
//! This module defines the shared contract: [`RoutingAlgorithm`] routes
//! a [`RoutingInstance`] on a [`Graph`] and returns the one
//! [`RoutingOutcome`] every router produces, with congestion/dilation
//! in its stats and rounds on the same `RoundLedger` charge model as
//! the hierarchical router, so a harness can line up rounds columns
//! across algorithms without unit conversion, and one
//! [`RoutingOutcome::verify`] checks them all.
//!
//! Three in-crate adapters put the paper's machinery behind the trait:
//! the Theorem 1.1 [`Router`] (certified expanders), the Appendix E
//! [`GeneralRouter`] (arbitrary-degree expanders), and the
//! Corollary 1.4 [`RoutedDecomposition`] (any graph, structured
//! undeliverable reports). The rival implementations — splicer routing
//! over unions of seeded spanning trees (arXiv:0807.1496) and greedy
//! deterministic local routing (in the spirit of arXiv:2403.07410) —
//! live in the `expander-baselines` crate. `tests/baseline_differential.rs`
//! uses them as *independent oracles*: different mechanisms, one
//! instance, shared invariants.

use crate::decomposed::RoutedDecomposition;
use crate::general::GeneralRouter;
use crate::router::Router;
use crate::token::{InstanceError, RoutingInstance, RoutingOutcome};
use expander_graphs::Graph;

/// A routing algorithm competing in the baseline arena.
///
/// Implementations must be *deterministic*: the outcome may depend only
/// on `(graph, instance)` plus the implementation's own seeded
/// configuration — never on thread count, wall-clock, or iteration
/// order of unordered containers. The differential suite enforces this
/// by byte-comparing repeated runs.
pub trait RoutingAlgorithm {
    /// Short stable name for report tables (e.g. `"hierarchical"`).
    fn name(&self) -> &'static str;

    /// Routes `inst` on `g`, delivering or reporting every token.
    ///
    /// Returns `Err` only for malformed input: tokens outside the
    /// vertex range, a load the router does not accept (the
    /// [`GeneralRouter`] takes at most `deg(v)` tokens per vertex), or
    /// (for preprocessed adapters) a graph that is not the one the
    /// algorithm was built for. Inability to deliver —
    /// disconnected endpoints, cross-piece tokens — is *not* an error;
    /// it is reported per token in [`RoutingOutcome::undeliverable`].
    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError>;
}

/// Cheap identity check for preprocessed adapters: the arena passes
/// the graph explicitly, but the paper's routers bake it in at
/// preprocessing time, so reject calls against a different graph.
fn check_same_graph(built: &Graph, g: &Graph) -> Result<(), InstanceError> {
    if built.n() != g.n() || built.m() != g.m() || built.epoch() != g.epoch() {
        return Err(InstanceError::new(
            "arena graph differs from the preprocessed graph (n/m/epoch mismatch)",
        ));
    }
    Ok(())
}

impl RoutingAlgorithm for Router {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError> {
        check_same_graph(self.graph(), g)?;
        self.route(inst)
    }
}

impl RoutingAlgorithm for GeneralRouter {
    fn name(&self) -> &'static str {
        "general"
    }

    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError> {
        check_same_graph(self.graph(), g)?;
        self.route(inst)
    }
}

impl RoutingAlgorithm for RoutedDecomposition {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError> {
        check_same_graph(self.graph(), g)?;
        self.route(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposed::DecomposedConfig;
    use crate::router::RouterConfig;
    use expander_graphs::generators;

    #[test]
    fn router_adapter_roundtrips() {
        let g = generators::random_regular(128, 4, 7).expect("generator");
        let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
        let inst = RoutingInstance::permutation(g.n(), 3);
        let out = router.route_instance(&g, &inst).expect("valid");
        assert_eq!(router.name(), "hierarchical");
        assert!(out.fully_delivered());
        assert_eq!(out.delivered_count(), inst.tokens.len());
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
        assert_eq!(out, router.route(&inst).expect("valid"), "the adapter is the router");
    }

    #[test]
    fn router_adapter_rejects_wrong_graph() {
        let g = generators::random_regular(128, 4, 7).expect("generator");
        let other = generators::random_regular(256, 4, 7).expect("generator");
        let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
        let inst = RoutingInstance::permutation(other.n(), 3);
        assert!(router.route_instance(&other, &inst).is_err());
    }

    #[test]
    fn decomposition_adapter_reports_undelivered() {
        let g = generators::disconnected_expanders(2, 64, 4, 5).expect("generator");
        let dec = RoutedDecomposition::preprocess(&g, DecomposedConfig::default());
        // Tokens 0 and 1 cross the components; token 2 stays inside one.
        let inst = RoutingInstance::from_triples(&[(0, 100, 0), (70, 3, 1), (5, 60, 2)]);
        let out = dec.route_instance(&g, &inst).expect("valid");
        let reported: Vec<usize> = out.undeliverable.iter().map(|u| u.token).collect();
        assert_eq!(reported, vec![0, 1]);
        assert_eq!(out.delivered_count(), 1);
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
    }
}
