#![warn(missing_docs)]

//! # Deterministic Expander Routing
//!
//! A from-scratch Rust reproduction of *Deterministic Expander Routing:
//! Faster and More Versatile* (Chang–Huang–Su, PODC 2024,
//! arXiv:2405.03908): a deterministic CONGEST-model routing engine for
//! expander graphs with a preprocessing/query tradeoff, plus every
//! substrate it stands on and the applications it enables.
//!
//! ## Layout
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`graphs`] | `expander-graphs` | graph types, expander generators, conductance/spectral metrics, paths, embeddings, the expander split `G⋄` |
//! | [`congest`] | `congest-sim` | CONGEST message-passing simulator, vertex programs, Fact 2.2 path scheduling, the round ledger |
//! | [`decomp`] | `expander-decomp` | cut-matching game, hierarchical decomposition (Property 3.1), shufflers (Definition 5.4) |
//! | [`core`] | `expander-core` | the router (Theorem 1.1), Tasks 1/2/3, expander sorting, routing⇄sorting equivalence (Appendix F), general-degree reduction (Appendix E), baselines |
//! | [`apps`] | `expander-apps` | MST (Corollary 1.3), k-clique enumeration (Corollary 1.4), data summarization |
//! | [`baselines`] | `expander-baselines` | rival routers for the baseline arena: splicer spanning-tree routing, greedy deterministic local routing |
//!
//! ## Quickstart
//!
//! ```
//! use expander_routing::prelude::*;
//!
//! // A 4-regular random expander on 256 vertices.
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//!
//! // Preprocess once (Theorem 1.1's n^{O(ε)} phase)…
//! let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander");
//!
//! // …then answer routing queries in polylog^{O(1/ε)} charged rounds.
//! let inst = RoutingInstance::permutation(g.n(), 42);
//! let outcome = router.route(&inst).expect("valid instance");
//! assert!(outcome.fully_delivered());
//! println!("query rounds: {}", outcome.rounds());
//! ```

pub use congest_sim as congest;
pub use expander_apps as apps;
pub use expander_baselines as baselines;
pub use expander_core as core;
pub use expander_decomp as decomp;
pub use expander_graphs as graphs;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use expander_apps::{cliques, mst, summarize};
    pub use expander_baselines::{GreedyLocalRouting, SplicerRouting};
    pub use expander_core::{
        ArrivalSchedule, BatchOutcome, BatchStats, DecomposedConfig, GeneralRouter, Job,
        JobOutcome, JobRef, QueryEngine, RoutedDecomposition, Router, RouterConfig,
        RoutingAlgorithm, RoutingInstance, RoutingOutcome, RoutingService, ServiceConfig,
        ServiceStats, SortInstance, SortOutcome,
    };
    pub use expander_decomp::{Hierarchy, HierarchyParams};
    pub use expander_graphs::{generators, metrics, Graph};
}
