#![warn(missing_docs)]

//! Hierarchical decomposition and shufflers for deterministic expander
//! routing (Chang–Huang–Su, PODC 2024, §3/§5/Appendices A–B).
//!
//! The pipeline this crate implements:
//!
//! 1. [`Hierarchy::build`] constructs the one-shot hierarchical
//!    decomposition of a constant-degree expander: `O(1/ε)` levels of
//!    `k = n^ε`-way partitions, each part carrying an embedded virtual
//!    expander (Property 3.1), plus the `Mroot` matching covering
//!    `V ∖ W` (Lemma 3.5).
//! 2. [`build_shuffler`] equips every internal node with a *shuffler*
//!    (Definition 5.4): matchings of `X` whose fractional projections
//!    on the cluster graph `Y` mix a lazy random walk, verified through
//!    the exact potential of Definition 5.3.
//!
//! The cut player, matching player, and host-graph machinery are public
//! for tests and for the routing engine's own use.
//!
//! # Example
//!
//! ```
//! use expander_decomp::{Hierarchy, HierarchyParams};
//! use expander_graphs::generators;
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("expander input");
//! assert!(h.validate().is_empty());
//! assert!(h.node(h.root()).vertices.len() * 3 >= 2 * g.n());
//! ```

pub mod cut_player;
pub mod decomposition;
pub mod hierarchy;
pub mod host;
pub mod packing;
pub mod shuffler;

pub use decomposition::{decomposition_for_epsilon, expander_decomposition, ExpanderDecomposition};
pub use hierarchy::{
    BuildError, Hierarchy, HierarchyNode, HierarchyParams, HierarchyPart, NodeId, RepairReport,
};
pub use host::HostGraph;
pub use packing::{pack_matching, EscalationConfig, MatchingPacking, Packer};
pub use shuffler::{build_shuffler, CutStrategy, Shuffler, ShufflerParams, ShufflerRound};
