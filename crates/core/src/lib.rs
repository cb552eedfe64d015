#![deny(missing_docs)]

//! The deterministic expander-routing engine of Chang–Huang–Su
//! (PODC 2024), built on the hierarchical decomposition and shufflers
//! of [`expander_decomp`].
//!
//! # Paper map
//!
//! Where each concept of Chang–Huang–Su (arXiv:2405.03908) lives; see
//! `docs/ARCHITECTURE.md` at the repository root for the full
//! crate-level map.
//!
//! | Paper concept | Module |
//! |---------------|--------|
//! | Theorem 1.1 preprocessing/query API | [`router`] |
//! | Task 1 routing (Definition 4.1), Appendix D reduction | [`router`], [`exec`] |
//! | Task 2 recursion (Definition 4.2), §6.4 leaf case | [`exec`] |
//! | Task 3 dispersal (Definition 4.3) — §6, Lemmas 6.2/6.6 | [`exec`] |
//! | Portal routing §6.2, merge §6.3 charges | [`exec`], [`cost_model`] |
//! | §6.5 cost recurrences (measured `Q(·)`) | [`cost_model`] |
//! | Expander sorting (Theorem 5.6) | [`router`], [`exec`] |
//! | Sorting applications (Theorem 5.7, Lemma 5.8, Cor. 5.9/5.10) | [`ops`] |
//! | Sorting networks (§6.4's `I_AKS`, substituted by Batcher) | [`network`] |
//! | Routing ⇄ sorting equivalence (Appendix F) | [`equivalence`] |
//! | Arbitrary degrees via the expander split `G⋄` (Appendix E) | [`general`] |
//! | Instances, the one routing outcome and its verifier, load `L`, query statistics | [`token`] |
//! | Batched multi-query amortization (Theorem 1.1 at scale) | [`engine`] |
//! | Streaming admission over the batch engine (beyond the paper) | [`service`] |
//! | Corollary 1.4 general graphs via expander decomposition | [`decomposed`] |
//! | §1.2 comparison baselines (GKS17, CS20) | [`baselines`] |
//! | Rival-router arena ("faster and more versatile", measured) | [`arena`] |
//! | Dynamic-topology degradation ladder (beyond the paper) | [`churn`] |
//!
//! # What lives here
//!
//! * [`Router`] — the public preprocessing/query API (Theorem 1.1):
//!   [`Router::preprocess`] builds the hierarchy, lowers one shuffler
//!   per internal node into the tables queries read and each leaf's
//!   sorting network into its pass cost, and walks the best-delegate
//!   chains; [`Router::route`] answers a Task 1 instance in
//!   `poly(ψ⁻¹)·log^{O(1/ε)} n` charged rounds; [`Router::sort`]
//!   answers an expander-sorting instance (Theorem 5.6).
//! * [`engine`] — the batched multi-query engine: [`QueryEngine`]
//!   shards a batch of routing/sorting jobs across a deterministic
//!   worker pool over one preprocessed router, each job running alone
//!   on a pooled per-worker scratch with cross-query dummy-dispersal
//!   caching; outcomes are byte-identical to individual queries at
//!   every thread count.
//! * [`service`] — the streaming front end over the engine:
//!   [`RoutingService`] accepts a continuous job stream through one
//!   FIFO intake, executes each job on the engine as it arrives, and
//!   streams outcomes back through per-tenant completion queues under
//!   a bounded in-flight budget; [`service::ArrivalSchedule`] is the seeded replayable
//!   workload for its determinism contract and benchmarks.
//! * [`exec`] — the physical query execution: Task 2/Task 3 recursion,
//!   shuffler-driven dispersal (Definition 6.1, Lemmas 6.2/6.6), the
//!   meet-in-the-middle merge (§6.3), and the leaf case (§6.4).
//! * [`ops`] — token ranking, local propagation, serialization, and
//!   aggregation (Theorem 5.7, Lemma 5.8, Corollaries 5.9/5.10).
//! * [`equivalence`] — the routing ⇄ sorting reductions of Appendix F.
//! * [`general`] — routing on arbitrary-degree expanders through the
//!   expander split `G⋄` (Appendix E), including the unknown-load
//!   doubling trick.
//! * [`token`] — instances and outcomes. [`RoutingOutcome`] is the one
//!   outcome of every router: final positions, structured
//!   [`Undeliverable`] reports, optional flat per-edge loads, the round
//!   ledger, and the query statistics. [`RoutingOutcome::verify`] is
//!   the one check of the route-or-report contract.
//! * [`baselines`] — the round costs of the GKS17 randomized
//!   random-walk router and a CS20-style per-query-recomputation
//!   router, for the comparison experiments.
//! * [`arena`] — the baseline arena: the [`RoutingAlgorithm`] trait
//!   (`route_instance(graph, instance) →` [`RoutingOutcome`] on the
//!   shared charge model), with [`Router`], [`GeneralRouter`] and
//!   [`RoutedDecomposition`] behind it; the competing algorithms live
//!   in the `expander-baselines` crate.
//! * [`decomposed`] — graceful degradation on general graphs
//!   (Corollary 1.4): [`RoutedDecomposition`] splits a non-expander
//!   into expander pieces, routes within each, and reports
//!   cross-piece tokens as structured [`Undeliverable`] reports
//!   instead of panicking.
//! * [`churn`] — churn-tolerant routing: [`ChurnRouter`] absorbs
//!   graph edits through one [`Router::preprocess`] of the live graph,
//!   decomposition routing, and charged BFS — a deterministic
//!   degradation ladder that keeps every query on the route-or-report
//!   contract; [`churn::ChurnDriver`] is the seeded fault-injection
//!   harness.
//!
//! A query reads and writes only its router and its scratch. A scratch
//! borrows the router it serves, so none outlives a [`Router::repair`],
//! and the crate holds no process-global state.
//!
//! # Example
//!
//! ```
//! use expander_core::{Router, RouterConfig, RoutingInstance};
//! use expander_graphs::generators;
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
//! // A random permutation: every vertex sends one token to a distinct target.
//! let inst = RoutingInstance::permutation(g.n(), 3);
//! let outcome = router.route(&inst).expect("valid instance");
//! assert!(outcome.fully_delivered());
//! ```

pub mod arena;
pub mod baselines;
pub mod churn;
pub mod cost_model;
pub mod decomposed;
pub mod engine;
pub mod equivalence;
pub mod exec;
pub mod general;
pub mod network;
pub mod ops;
pub mod router;
pub mod service;
pub mod token;

pub use arena::RoutingAlgorithm;
pub use churn::{ChurnConfig, ChurnOutcome, ChurnRouter, DeliveryMode};
pub use decomposed::{DecomposedConfig, FallbackReason, RoutedDecomposition};
pub use engine::{BatchOutcome, BatchStats, Job, JobOutcome, JobRef, QueryEngine};
pub use general::GeneralRouter;
pub use router::{Router, RouterConfig};
pub use service::{
    ArrivalSchedule, RoutingService, ServiceConfig, ServiceHandle, ServiceStats, SubmitError,
    TenantCounters, Ticket,
};
pub use token::{
    RoutingInstance, RoutingOutcome, SortInstance, SortOutcome, Undeliverable, UndeliverableReason,
};

/// Nearest-rank `[p50, p95, p99]` of a sample (zeros when empty): the
/// latency and congestion percentiles of the service and churn reports.
pub(crate) fn percentiles(values: impl Iterator<Item = u64>) -> [u64; 3] {
    let mut v: Vec<u64> = values.collect();
    if v.is_empty() {
        return [0; 3];
    }
    v.sort_unstable();
    let rank = |p: f64| v[(((v.len() as f64) * p).ceil() as usize).clamp(1, v.len()) - 1];
    [rank(0.50), rank(0.95), rank(0.99)]
}

#[cfg(test)]
mod tests {
    use super::percentiles;

    #[test]
    fn percentiles_are_nearest_rank() {
        let vals = (1..=100u64).rev();
        assert_eq!(percentiles(vals), [50, 95, 99]);
        assert_eq!(percentiles(std::iter::empty()), [0; 3]);
        assert_eq!(percentiles([7u64].into_iter()), [7, 7, 7]);
    }
}
