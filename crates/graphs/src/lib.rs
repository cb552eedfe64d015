#![deny(missing_docs)]

//! Graph substrate for the deterministic expander-routing reproduction.
//!
//! This crate provides everything the routing engine needs to talk about
//! graphs:
//!
//! * [`Graph`] — a compact CSR undirected (multi)graph with BFS helpers.
//! * [`generators`] — seeded generators for expander families (random
//!   regular, hypercube, Margulis), low-conductance negative controls
//!   (ring, torus, barbell), and the adversarial topology zoo
//!   (power-law, near-threshold bridged expanders, disconnected
//!   pieces, bridge-heavy clique trees).
//! * [`ingest`] — text/CSV edge-list parsing with canonical
//!   deterministic vertex renumbering, for real-world snapshots.
//! * [`metrics`] — conductance/sparsity, exact for tiny graphs, spectral
//!   (Cheeger) estimates for large ones.
//! * [`Path`], [`PathSet`] — path collections with the paper's
//!   congestion/dilation/quality accounting (§2, "Quality of Paths").
//! * [`FlatPaths`] — path collections lowered to one contiguous
//!   edge-id arena over [`Graph::edge_id`]'s dense space, for
//!   allocation-free hot-path congestion accounting.
//! * [`Embedding`] — virtual-edge-to-host-path embeddings with
//!   composition and union (§2, "Embeddings"), used to flatten the
//!   hierarchical decomposition (Definition 3.3).
//! * [`split`] — the expander split `G⋄` (Preliminaries + Appendix E)
//!   reducing arbitrary-degree expanders to constant degree.
//! * [`SpanningForest`] — deterministically-seeded spanning forests
//!   with unique-tree-path queries, the substrate of the splicer
//!   baseline (arXiv:0807.1496) in `expander-baselines`.
//!
//! # Example
//!
//! ```
//! use expander_graphs::{generators, metrics};
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! assert!(g.is_connected());
//! let gap = metrics::spectral_gap(&g, 11);
//! assert!(gap > 0.05, "random 4-regular graphs are expanders");
//! ```

pub mod embedding;
pub mod flat;
pub mod generators;
pub mod graph;
pub mod ingest;
pub mod metrics;
pub mod paths;
pub mod split;
pub mod trees;
pub mod union_find;

pub use embedding::Embedding;
pub use flat::FlatPaths;
pub use graph::{BfsScratch, Graph, GraphEdit, TreeWalkScratch, VertexId};
pub use ingest::{parse_edge_list, write_edge_list, IngestOptions, LabeledGraph, ParseError};
pub use paths::{Path, PathSet};
pub use split::SplitGraph;
pub use trees::SpanningForest;
pub use union_find::UnionFind;
