#![warn(missing_docs)]

//! A synchronous CONGEST-model simulator and the round-cost ledger used
//! by the deterministic expander-routing engine.
//!
//! Two complementary facilities live here:
//!
//! 1. [`Simulator`] — a faithful message-passing simulator: vertices run
//!    a [`VertexProgram`], exchange one `O(log n)`-bit message per edge
//!    per round, and the harness counts rounds/messages/words. Library
//!    programs (BFS, broadcast, convergecast, leader election) and the
//!    store-and-forward [`path_sched`] scheduler live on top of it.
//! 2. [`RoundLedger`] — the *charged* cost model the routing engine uses
//!    at scale. Every engine operation charges rounds derived from
//!    measured congestion/dilation (Fact 2.2 and the `Q(f⁰)²` virtual
//!    round simulation cost). The message-passing simulator is used in
//!    tests to validate that the charges dominate real executions.
//!
//! The [`parallel`] module carries the deterministic task runner the
//! staged preprocessing pipeline uses: independent build tasks execute
//! on a bounded worker pool ([`ThreadBudget`]), a cut-matching game's
//! iterations run as a pipeline whose cells wait for the cells they
//! read, results and private ledgers merge in canonical order, and
//! thread count never changes a single output byte.
//!
//! # Example
//!
//! ```
//! use congest_sim::{programs, Simulator};
//! use expander_graphs::generators;
//!
//! let g = generators::hypercube(4);
//! let sim = Simulator::new(&g);
//! let (dist, stats) = programs::bfs(&sim, 0);
//! assert_eq!(dist, g.bfs_distances(0));
//! assert!(stats.rounds as u32 >= g.eccentricity(0));
//! ```

pub mod cost;
pub mod forwarding;
pub mod ledger;
pub mod parallel;
pub mod path_sched;
pub mod programs;
pub mod simulator;

pub use ledger::RoundLedger;
pub use parallel::ThreadBudget;
pub use simulator::{Outbox, RunStats, Simulator, Status, VertexProgram};
