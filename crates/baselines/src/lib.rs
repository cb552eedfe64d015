#![deny(missing_docs)]

//! Rival expander routers for the baseline arena.
//!
//! The paper's title — *faster and more versatile* — is a comparison,
//! and this crate supplies the competition: two routing algorithms
//! built on entirely different mechanisms than the hierarchical
//! decomposition, both behind [`expander_core::arena::RoutingAlgorithm`]
//! and both on the workspace's shared charge model, so their
//! congestion/rounds columns line up with the paper's router in the
//! `baseline_comparison` harness and serve as independent oracles in
//! `tests/baseline_differential.rs`.
//!
//! * [`SplicerRouting`] — union of `k` deterministically-seeded
//!   spanning trees (*splicers*, Goyal–Rademacher–Vempala,
//!   arXiv:0807.1496); each token takes the least-loaded tree path,
//!   with flat per-edge load accounting and a Fact 2.2
//!   congestion × dilation round charge.
//! * [`GreedyLocalRouting`] — deadlock-free deterministic local
//!   forwarding (in the spirit of polylog-competitive local routing,
//!   arXiv:2403.07410): synchronous rounds, unit per-direction edge
//!   capacity, distance-priority buffers, rounds counted directly.
//!
//! Both are deterministic by construction — outcomes depend only on
//! `(graph, instance, seed)`, never on thread count — and both degrade
//! gracefully on non-expanders: unreachable tokens come back as
//! [`UndeliverableReason::NoPath`](expander_core::UndeliverableReason)
//! reports in the shared [`RoutingOutcome`](expander_core::RoutingOutcome),
//! on the decomposition router's route-or-report contract.

pub mod local;
pub mod splicer;

pub use local::GreedyLocalRouting;
pub use splicer::SplicerRouting;

use expander_core::token::InstanceError;
use expander_core::RoutingInstance;
use expander_graphs::Graph;

/// Rejects tokens outside the vertex range (shared by both baselines;
/// same malformed-instance contract as the in-core routers).
pub(crate) fn validate(g: &Graph, inst: &RoutingInstance) -> Result<(), InstanceError> {
    let n = g.n();
    for t in &inst.tokens {
        if t.src as usize >= n || t.dst as usize >= n {
            return Err(InstanceError::new(format!(
                "token ({}, {}) outside vertex range",
                t.src, t.dst
            )));
        }
    }
    Ok(())
}
