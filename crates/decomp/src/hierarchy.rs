//! The one-shot hierarchical decomposition (paper §3, Appendix A).
//!
//! Construction summary (substitution 4 in `docs/ARCHITECTURE.md`
//! documents how this differs from the literal CS20 recursion):
//!
//! 1. Partition the current node's vertex set into `k ≈ n^ε` ID-ordered
//!    parts.
//! 2. Play a cut-matching game *simultaneously* for all parts inside the
//!    node's virtual graph `H_X` (the root plays inside the base graph
//!    `G`): each iteration, a seeded-projection cut player picks a
//!    bisection of each part's matchings-so-far, and the shared-budget
//!    matching player packs saturating paths. Sources that cannot be
//!    matched are deactivated.
//! 3. Surviving vertices `U_i` form the good child `X_i` with virtual
//!    graph `H_i` = union of its matchings; deactivated/failed vertices
//!    are matched back into the good children as the bad sets `X'_i`
//!    (Property 3.1(3)); at the root, stragglers become `V ∖ W`,
//!    covered by the `Mroot` matching (Lemma 3.5).
//! 4. Recurse on each good child until the leaf threshold.
//!
//! # Staged parallel construction
//!
//! A cut-matching game's cell (iteration, part) reads only its own
//! iteration's packer and the state its part's previous cell left, and
//! sibling subtrees share nothing but round accounting.
//! [`Hierarchy::build`] therefore runs as a staged pipeline: a game's
//! iterations run as pipelined rows across the build threads, each cell
//! waiting for exactly the cells it reads, and sibling subtrees build
//! into private node arenas with private [`RoundLedger`]s that splice
//! back in part order. The arena splice reproduces the sequential DFS
//! numbering exactly, so the output is byte-identical for every thread
//! count ([`HierarchyParams::threads`]).

use crate::cut_player::{deviation_mass, median_split, probe_vector, replay_walk};
use crate::host::HostGraph;
use crate::packing::{pack_matching_with, EscalationConfig, MatchingPacking, Packer};
use congest_sim::{cost, parallel, RoundLedger, ThreadBudget};
use expander_graphs::{Embedding, Graph, GraphEdit, Path, VertexId};
use std::error::Error;
use std::fmt;
use std::sync::Mutex;

/// Index of a node inside a [`Hierarchy`].
pub type NodeId = usize;

/// Cut-matching iterations per part: `⌈LAMBDA_FACTOR · log₂ n⌉`, at
/// least 6.
const LAMBDA_FACTOR: f64 = 1.5;

/// Safety cap on hierarchy depth.
const MAX_LEVELS: u32 = 8;

/// The part count `k = ⌈n^ε⌉`, clamped to `3..=96`. An `n^ε` within
/// rounding of an integer counts as that integer: `1024^0.4` evaluates
/// to 16.000000000000004, and its ceiling would be 17.
fn parts_per_node(n: usize, epsilon: f64) -> usize {
    let x = (n as f64).powf(epsilon);
    let nearest = x.round();
    let k = if (x - nearest).abs() <= 1e-9 * x { nearest } else { x.ceil() };
    (k as usize).clamp(3, 96)
}

/// Tuning knobs for [`Hierarchy::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyParams {
    /// The paper's `ε`: nodes split into `k = ⌈n^ε⌉` parts, clamped to
    /// `3..=96`.
    pub epsilon: f64,
    /// Nodes of at most this size become leaves; `None` picks
    /// `max(4k, 48)`.
    pub leaf_size: Option<usize>,
    /// Parts whose surviving set is smaller than this fail outright.
    pub min_child: usize,
    /// Base seed for all derandomized projections.
    pub seed: u64,
    /// Initial packing caps (escalated geometrically).
    pub escalation: EscalationConfig,
    /// Worker threads for the staged parallel build. `None` defers to
    /// the `EXPANDER_BUILD_THREADS` environment variable and then
    /// [`std::thread::available_parallelism`]; `Some(1)` forces the
    /// sequential path. The built hierarchy (node tables, embeddings,
    /// ledger) is byte-identical for every thread count.
    pub threads: Option<usize>,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            epsilon: 0.33,
            leaf_size: None,
            min_child: 6,
            seed: 0xE5CA1ADE,
            escalation: EscalationConfig::default(),
            threads: None,
        }
    }
}

impl HierarchyParams {
    /// Parameters with a given `ε`, everything else default.
    pub fn for_epsilon(epsilon: f64) -> Self {
        HierarchyParams { epsilon, ..HierarchyParams::default() }
    }
}

/// Error from [`Hierarchy::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The input graph is disconnected (routing is undefined).
    Disconnected,
    /// The input graph is too small for the requested parameters.
    TooSmall {
        /// Number of vertices supplied.
        n: usize,
    },
    /// The construction could not cover enough of the graph — either
    /// the input is too far from an expander or the packing budget
    /// (escalation caps) is too tight for Lemma 3.5's premise
    /// `|W| ≥ (2/3)|V|`.
    RootCoverage {
        /// Vertices the root covers.
        covered: usize,
        /// Vertices left outside and unmatched.
        unmatched: usize,
    },
    /// The force-attach stage (Property 3.1(1), substitution 5 in
    /// `docs/ARCHITECTURE.md`) could not connect a leftover vertex to
    /// any surviving part: the node's virtual graph stranded it. Weak
    /// expanders off the certification happy path can reach this; it
    /// was an `assert!` before the robustness audit.
    Stranded {
        /// The vertex that could not be attached.
        vertex: VertexId,
        /// Hierarchy level of the node whose attach failed (root = 0).
        level: u32,
    },
    /// A repair's edit names a vertex outside the graph or inserts a
    /// self-loop ([`Graph::check_edit`] rejected it).
    InvalidEdit(GraphEdit),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Disconnected => write!(f, "input graph is disconnected"),
            BuildError::TooSmall { n } => write!(f, "input graph too small (n = {n})"),
            BuildError::RootCoverage { covered, unmatched } => write!(
                f,
                "root covers only {covered} vertices; {unmatched} stragglers cannot be \
                 matched in (weak expander or packing caps too tight)"
            ),
            BuildError::Stranded { vertex, level } => write!(
                f,
                "vertex {vertex} stranded at level {level}: the virtual graph disconnects \
                 it from every surviving part during force-attach"
            ),
            BuildError::InvalidEdit(edit) => {
                write!(f, "edit {edit} names a vertex out of range or inserts a self-loop")
            }
        }
    }
}

impl Error for BuildError {}

/// What [`Hierarchy::repair`] did. A repair is a rebuild of the
/// edited graph, so nothing carries over from the old hierarchy; the
/// report keeps the shape the benchmark's repair probe reads
/// (`decomp.repair.reuse_frac` in `perfbench/`) until the next
/// benchmark revision drops that metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Nodes carried over from the old hierarchy: always 0.
    pub reused_nodes: usize,
    /// Total nodes of the repaired hierarchy.
    pub total_nodes: usize,
}

/// One part `X*_i = X_i ∪ X'_i` of an internal node.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyPart {
    /// Node id of the good child `X_i`.
    pub child: NodeId,
    /// The bad set `X'_i` (sorted).
    pub bad: Vec<VertexId>,
    /// Paths in this node's `H_X` realizing the matching `M*_i`.
    pub matching_embedding: Embedding,
    /// All vertices `X*_i` (sorted).
    pub all: Vec<VertexId>,
}

impl HierarchyPart {
    /// Matching `M*_i`: `(bad vertex, good mate)` pairs, the virtual
    /// edges of [`HierarchyPart::matching_embedding`].
    pub fn matching(&self) -> &[(VertexId, VertexId)] {
        self.matching_embedding.virtual_edges()
    }
}

/// A node of the hierarchical decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyNode {
    /// This node's id.
    pub id: NodeId,
    /// Parent id (`None` at the root).
    pub parent: Option<NodeId>,
    /// Depth (root = 0).
    pub level: u32,
    /// Sorted global vertex ids of `X`.
    pub vertices: Vec<VertexId>,
    /// Edges of the virtual graph `H_X` (global ids). At the root this
    /// is the full base graph (`H_root = G`, identity embedding).
    pub virtual_edges: Vec<(VertexId, VertexId)>,
    /// Flattened embedding `f⁰_X : H_X → G` (Definition 3.3); `None`
    /// at the root. It is the node's only embedding of `H_X`: at level
    /// 1 it is the game's embedding into `G` itself, and deeper it is
    /// the game's embedding into the parent's `H_X` composed with the
    /// parent's `flat`, after which the uncomposed embedding is
    /// dropped. Its virtual edges are `virtual_edges`, in order.
    pub flat: Option<Embedding>,
    /// `Q(f⁰_X(H_X))`, the flattened quality (2 at the root: identity).
    pub flat_quality: usize,
    /// Parts of an internal node (empty for leaves).
    pub parts: Vec<HierarchyPart>,
    /// `X_best`: union of good-leaf descendants (sorted).
    pub best: Vec<VertexId>,
    /// Double-sweep diameter estimate of `H_X`
    /// ([`Graph::diameter_estimate`]; `u32::MAX` when `H_X` is
    /// disconnected, which makes the node a leaf).
    pub diameter: u32,
}

impl HierarchyNode {
    /// Whether this node is a leaf (good terminal node).
    pub fn is_leaf(&self) -> bool {
        self.parts.is_empty()
    }

    /// Number of parts `t`.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }
}

/// The hierarchical decomposition of a constant-degree expander,
/// satisfying (a relaxed-constant form of) Property 3.1.
///
/// Comparison (`PartialEq`) is exact — field-for-field byte identity,
/// including the ledgers — which is what the thread-count-invariance
/// and repair tests assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    graph: Graph,
    k: usize,
    lambda: u32,
    nodes: Vec<HierarchyNode>,
    root: NodeId,
    outside: Vec<VertexId>,
    mroot_embedding: Embedding,
    rho_best: f64,
    ledger: RoundLedger,
    params: HierarchyParams,
}

impl Hierarchy {
    /// Builds the decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the graph is disconnected or has fewer
    /// than 16 vertices.
    pub fn build(graph: &Graph, params: HierarchyParams) -> Result<Hierarchy, BuildError> {
        let n = graph.n();
        if n < 16 {
            return Err(BuildError::TooSmall { n });
        }
        if !graph.is_connected() {
            return Err(BuildError::Disconnected);
        }
        let k = parts_per_node(n, params.epsilon);
        let leaf_size = params.leaf_size.unwrap_or_else(|| (4 * k).max(48));
        let lambda = ((n as f64).log2() * LAMBDA_FACTOR).ceil().max(6.0) as u32;

        let threads = parallel::build_threads(params.threads);
        let ctx = BuildCtx {
            graph,
            k,
            leaf_size,
            lambda,
            params: params.clone(),
            budget: ThreadBudget::new(threads),
        };
        let mut builder = Builder::new(&ctx);

        // Top-level game inside G itself.
        let root_host = HostGraph::from_graph(graph);
        let root_diameter = graph.diameter_estimate();
        let outcome = builder.partition_game(&root_host, root_diameter, 0, 2);
        if outcome.parts.len() < 2 {
            return Err(BuildError::RootCoverage { covered: 0, unmatched: n });
        }

        let root_id = builder.nodes.len();
        let root_edges: Vec<(u32, u32)> = graph.edges().collect();
        builder.nodes.push(HierarchyNode {
            id: root_id,
            parent: None,
            level: 0,
            vertices: Vec::new(), // filled below
            virtual_edges: root_edges,
            flat: None,
            flat_quality: 2,
            parts: Vec::new(),
            best: Vec::new(),
            diameter: root_diameter,
        });

        let attached = builder.attach_parts(root_id, &root_host, outcome, true)?;
        let AttachedParts { parts, outside, mroot_embedding } = attached;
        let mut root_vertices: Vec<VertexId> = Vec::new();
        for p in &parts {
            root_vertices.extend_from_slice(&p.all);
        }
        root_vertices.sort_unstable();
        builder.nodes[root_id].vertices = root_vertices;
        builder.nodes[root_id].parts = parts;

        // Best sets, bottom-up.
        let mut best_cache: Vec<Option<Vec<VertexId>>> = vec![None; builder.nodes.len()];
        let root_best = builder.compute_best(root_id, &mut best_cache);
        for (id, best) in best_cache.into_iter().enumerate() {
            builder.nodes[id].best = best.unwrap_or_default();
        }
        builder.nodes[root_id].best = root_best;

        let rho_best = builder
            .nodes
            .iter()
            .filter(|nd| !nd.best.is_empty())
            .map(|nd| nd.vertices.len() as f64 / nd.best.len() as f64)
            .fold(1.0f64, f64::max);

        Ok(Hierarchy {
            graph: graph.clone(),
            k,
            lambda,
            nodes: builder.nodes,
            root: root_id,
            outside,
            mroot_embedding,
            rho_best,
            ledger: builder.ledger,
            params,
        })
    }

    /// Repairs the hierarchy after a batch of graph edits: the edits
    /// are applied to a copy of the hierarchy's graph snapshot, which
    /// is then built from scratch, so the result equals
    /// [`build`](Hierarchy::build) on the edited graph at any thread
    /// count. The report's `reused_nodes` is always 0.
    ///
    /// On error the hierarchy is left untouched, so a failed repair
    /// (e.g. an edit disconnected the graph) can be retried after
    /// further edits.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidEdit`] for the first edit that
    /// [`Graph::check_edit`] rejects on the copy edited so far, and
    /// otherwise the failure modes of [`build`](Hierarchy::build),
    /// evaluated against the edited graph.
    pub fn repair(&mut self, edits: &[GraphEdit]) -> Result<RepairReport, BuildError> {
        let mut graph = self.graph.clone();
        for &e in edits {
            graph.check_edit(e).map_err(BuildError::InvalidEdit)?;
            graph.apply_edit(e);
        }
        *self = Hierarchy::build(&graph, self.params.clone())?;
        Ok(RepairReport { reused_nodes: 0, total_nodes: self.nodes.len() })
    }

    /// The base graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The paper's `k = ⌈n^ε⌉` (clamped).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Cut-matching iterations per part used during construction.
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// Parameters the hierarchy was built with.
    pub fn params(&self) -> &HierarchyParams {
        &self.params
    }

    /// All nodes (index = [`NodeId`]).
    pub fn nodes(&self) -> &[HierarchyNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &HierarchyNode {
        &self.nodes[id]
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Vertices outside the root (`V ∖ W`), each matched into `W` by
    /// [`Hierarchy::mroot`].
    pub fn outside(&self) -> &[VertexId] {
        &self.outside
    }

    /// The `Mroot` matching `(outside vertex, root mate)` (Lemma 3.5),
    /// the virtual edges of [`Hierarchy::mroot_embedding`].
    pub fn mroot(&self) -> &[(VertexId, VertexId)] {
        self.mroot_embedding.virtual_edges()
    }

    /// Paths in `G` realizing [`Hierarchy::mroot`].
    pub fn mroot_embedding(&self) -> &Embedding {
        &self.mroot_embedding
    }

    /// `ρ_best = max_X |X| / |X_best|` (Definition 3.7).
    pub fn rho_best(&self) -> f64 {
        self.rho_best
    }

    /// Rounds charged during construction (Theorem 3.2's preprocessing).
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Maximum depth (root = 0).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|nd| nd.level).max().unwrap_or(0)
    }

    /// Flattens embeddings whose paths live in `node`'s virtual graph
    /// down to paths in `G` (Definition 3.3 / Corollary 3.4), one
    /// result per embedding in batch order. The whole batch composes
    /// through one index of the node's flatten embedding, and each
    /// result equals flattening its embedding alone
    /// ([`Embedding::compose_after`]).
    pub fn flatten_from<'a>(
        &self,
        node: NodeId,
        batch: impl IntoIterator<Item = &'a Embedding>,
    ) -> Vec<Embedding> {
        match &self.nodes[node].flat {
            None => batch.into_iter().cloned().collect(),
            Some(flat) => flat.compose_after(batch),
        }
    }

    /// The part index of `v` within internal node `node`, if any.
    pub fn part_of(&self, node: NodeId, v: VertexId) -> Option<usize> {
        self.nodes[node].parts.iter().position(|p| p.all.binary_search(&v).is_ok())
    }

    /// Checks the Property 3.1 invariants (with relaxed constants
    /// suitable for laptop-scale `n`); returns human-readable
    /// violations, empty when all hold.
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let n = self.graph.n();
        // Root coverage (Property 3.1 root: |W| >= (2/3)|V|).
        let w = self.nodes[self.root].vertices.len();
        if (w as f64) < 0.66 * n as f64 {
            issues.push(format!("root covers {w}/{n} < 2/3"));
        }
        if self.outside.len() != self.mroot().len() {
            issues.push("Mroot does not saturate V \\ W".to_owned());
        }
        for nd in &self.nodes {
            if nd.is_leaf() {
                if nd.best != nd.vertices {
                    issues.push(format!("leaf {} best != vertices", nd.id));
                }
                continue;
            }
            // Children partition the node.
            let mut union: Vec<VertexId> = Vec::new();
            for p in &nd.parts {
                union.extend_from_slice(&p.all);
            }
            union.sort_unstable();
            if union != nd.vertices {
                issues.push(format!("node {}: parts do not partition X", nd.id));
            }
            // Good children are ID-ordered.
            let mut last_max = None;
            for p in &nd.parts {
                let child = &self.nodes[p.child];
                let lo = *child.vertices.first().expect("non-empty child");
                let hi = *child.vertices.last().expect("non-empty child");
                if let Some(lm) = last_max {
                    if lo < lm {
                        issues.push(format!("node {}: good children not ID-ordered", nd.id));
                    }
                }
                last_max = Some(hi);
                // |X'_i| <= |X_i| and matching saturates the bad set.
                if p.bad.len() > child.vertices.len() {
                    issues.push(format!("node {}: |X'| > |X| in a part", nd.id));
                }
                if p.matching().len() != p.bad.len() {
                    issues.push(format!("node {}: matching does not saturate X'", nd.id));
                }
                let mut mates: Vec<VertexId> = p.matching().iter().map(|&(_, g)| g).collect();
                mates.sort_unstable();
                let pre_dedup = mates.len();
                mates.dedup();
                if mates.len() != pre_dedup {
                    issues.push(format!("node {}: M* is not a matching", nd.id));
                }
                for &(b, g) in p.matching() {
                    if child.vertices.binary_search(&g).is_err() {
                        issues.push(format!("node {}: mate {g} outside good child", nd.id));
                    }
                    if p.bad.binary_search(&b).is_err() {
                        issues.push(format!("node {}: matched vertex {b} not in X'", nd.id));
                    }
                }
            }
            // Good coverage >= 1/2 (Property 3.1(3) consequence).
            let good: usize = nd.parts.iter().map(|p| self.nodes[p.child].vertices.len()).sum();
            if 2 * good < nd.vertices.len() {
                issues.push(format!("node {}: good cover {}/{}", nd.id, good, nd.vertices.len()));
            }
            // Part size balance (relaxed 3.1(1)).
            let t = nd.parts.len();
            if t >= 2 {
                let max = nd.parts.iter().map(|p| p.all.len()).max().expect("non-empty");
                let min = nd.parts.iter().map(|p| p.all.len()).min().expect("non-empty");
                if max > 8 * min.max(1) {
                    issues.push(format!("node {}: part sizes {min}..{max} unbalanced", nd.id));
                }
            }
        }
        issues
    }
}

/// Immutable context shared by every build task: the inputs, the
/// resolved parameters, and the worker-thread permit pool.
struct BuildCtx<'g> {
    graph: &'g Graph,
    k: usize,
    leaf_size: usize,
    lambda: u32,
    params: HierarchyParams,
    budget: ThreadBudget,
}

/// Per-task mutable build state: a node arena (ids local to this
/// builder) and a private round ledger. Sibling subtrees each get a
/// fresh `Builder`; [`Builder::attach_parts`] splices their arenas and
/// merges their ledgers in part order.
struct Builder<'g, 'c> {
    ctx: &'c BuildCtx<'g>,
    nodes: Vec<HierarchyNode>,
    ledger: RoundLedger,
}

impl<'g, 'c> Builder<'g, 'c> {
    fn new(ctx: &'c BuildCtx<'g>) -> Builder<'g, 'c> {
        Builder { ctx, nodes: Vec::new(), ledger: RoundLedger::new() }
    }
}

/// Raw result of the simultaneous per-part cut-matching game.
struct GameOutcome {
    /// Per surviving part: (U_i, H_i edges, H_i embedding paths-in-host).
    parts: Vec<GamePart>,
    /// Vertices not covered by any surviving part.
    leftover: Vec<VertexId>,
}

/// Result of attaching one node's parts.
struct AttachedParts {
    /// The built [`HierarchyPart`]s, one per surviving game part.
    parts: Vec<HierarchyPart>,
    /// Root only: vertices left outside `W` (empty for internal nodes).
    outside: Vec<VertexId>,
    /// Root only: the `Mroot` matching of `outside`, as its embedding.
    mroot_embedding: Embedding,
}

struct GamePart {
    survivors: Vec<VertexId>,
    edges: Vec<(VertexId, VertexId)>,
    embedding: Embedding,
}

/// One part's state in the cut-matching game, carried from iteration
/// to iteration.
struct PartState {
    /// Host-locals still active: the sources a failed match
    /// deactivated are gone.
    active: Vec<u32>,
    /// The matchings so far, as host-local pairs, for the probe's
    /// replay.
    history: Vec<Vec<(u32, u32)>>,
    /// The union of the part's matchings, as its embedding in the host.
    embedding: Embedding,
    /// The part's deviation mass vanished; it plays no further cell.
    mixed: bool,
}

impl Builder<'_, '_> {
    /// Plays the simultaneous cut-matching game over the vertices of
    /// `host`, whose diameter estimate is `diameter` (finite: the host
    /// is connected), charging construction rounds at flattened
    /// quality `flat_quality`.
    ///
    /// Iteration `i` plays its parts in the rotated order
    /// `p = (j + i) mod t`, `j = 0..t`, so no part always packs last;
    /// cell `(i, j)` probes part `p`, bisects it and packs the matching
    /// on iteration `i`'s own [`Packer`], whose edge budget the parts
    /// share (the games run "simultaneously" in the paper). A cell reads
    /// only the loads the cells before it left in that packer and part
    /// `p`'s state after cell `(i - 1, (j + 1) mod t)`, so the
    /// iterations run as [`parallel::run_pipeline`]'s rows across the
    /// thread budget, each charging its own ledger, merged in iteration
    /// order. Every cell sees what it would see in a sequential loop,
    /// so the outcome is the same at every thread count. A mixed part
    /// skips its later cells without a charge, so the game needs no
    /// early exit once every part has mixed.
    fn partition_game(
        &mut self,
        host: &HostGraph,
        diameter: u32,
        level: u32,
        flat_quality: usize,
    ) -> GameOutcome {
        let ctx = self.ctx;
        let vertices = host.vertices();
        let host_n = vertices.len();
        let n_part = host_n.div_ceil(ctx.k);
        let parts: Vec<Vec<VertexId>> =
            vertices.chunks(n_part.max(1)).map(<[VertexId]>::to_vec).collect();
        let t = parts.len();
        let host_diam = u64::from(diameter);
        let quality = flat_quality as u64;
        let mut cfg = ctx.params.escalation;
        cfg.dilation_cap = cfg.dilation_cap.max(2 * host_diam as u32 + 2);

        // A part's state is touched only by its own cells, one at a
        // time in iteration order (the pipeline's waits), so each lock
        // is uncontended.
        let states: Vec<Mutex<PartState>> = parts
            .iter()
            .map(|p| {
                Mutex::new(PartState {
                    active: p.iter().map(|&v| host.to_local(v)).collect(),
                    history: Vec::new(),
                    embedding: Embedding::new(),
                    mixed: false,
                })
            })
            .collect();

        let ledgers = parallel::run_pipeline(&ctx.budget, ctx.lambda as usize, t, |iter, cells| {
            let mut packer = Packer::new(host);
            let mut ledger = RoundLedger::new();
            // Scratch for the dead-source sweep (reset between uses).
            let mut dead_mark = vec![false; host_n];
            for j in cells {
                let pi = (j + iter) % t;
                let mut part = states[pi].lock().expect("no cell panics holding its part");
                if part.mixed || part.active.len() < 4 {
                    continue;
                }
                // Fresh probe, replayed through this part's history
                // (exactly R_{i-1}·r, see cut_player docs).
                let seed = ctx
                    .params
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(iter as u64 + 1))
                    .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(pi as u64 + 1))
                    .wrapping_add((level as u64) << 48);
                let mut probe = vec![0.0f64; host_n];
                let fresh = probe_vector(parts[pi].len(), seed);
                for (i, &v) in parts[pi].iter().enumerate() {
                    probe[host.to_local(v) as usize] = fresh[i];
                }
                replay_walk(&part.history, &mut probe);
                if deviation_mass(&probe, &part.active) < 1e-12 {
                    part.mixed = true;
                    continue;
                }
                let mu: Vec<f64> = part.active.iter().map(|&l| probe[l as usize]).collect();
                let sep = median_split(&mu);
                let sources: Vec<u32> = sep.al.iter().map(|&i| part.active[i]).collect();
                let mut sink_cap = vec![0u32; host_n];
                for &i in &sep.ar {
                    sink_cap[part.active[i] as usize] = 1;
                }
                let m = pack_matching_with(&mut packer, &sources, &mut sink_cap, cfg);
                // Charge: cut player replays `iter` matchings (one H_X
                // round each) plus a diameter-bounded selection, then
                // the matching player's BFS phases and the path test.
                ledger.charge(
                    "pre/hierarchy/cut-player",
                    cost::virtual_rounds(quality, iter as u64 + 1)
                        + cost::diameter_primitive(host_diam, quality),
                );
                ledger.charge(
                    "pre/hierarchy/matching-player",
                    cost::virtual_rounds(quality, m.phases as u64 * m.final_dilation_cap as u64)
                        + cost::route_once(&m.embedding.to_path_set()) * quality.pow(2),
                );
                let MatchingPacking { embedding, unmatched, .. } = m;
                let local_pairs: Vec<(u32, u32)> = embedding
                    .virtual_edges()
                    .iter()
                    .map(|&(a, b)| (host.to_local(a), host.to_local(b)))
                    .collect();
                part.history.push(local_pairs);
                part.embedding = std::mem::take(&mut part.embedding).union(embedding);
                // Deactivate unmatched sources (sparse-cut side) with a
                // mark sweep over host-locals.
                if !unmatched.is_empty() {
                    for &v in &unmatched {
                        dead_mark[host.to_local(v) as usize] = true;
                    }
                    part.active.retain(|&l| !dead_mark[l as usize]);
                    for &v in &unmatched {
                        dead_mark[host.to_local(v) as usize] = false;
                    }
                }
            }
            ledger
        });
        for ledger in &ledgers {
            self.ledger.merge(ledger);
        }

        // Collect survivors and the leftover pool.
        let mut out_parts = Vec::new();
        let mut leftover: Vec<VertexId> = Vec::new();
        for (pi, state) in states.into_iter().enumerate() {
            let PartState { active, embedding: part_embedding, .. } =
                state.into_inner().expect("no cell panics holding its part");
            let survivors: Vec<VertexId> = {
                let mut s: Vec<VertexId> = active.iter().map(|&l| host.to_global(l)).collect();
                s.sort_unstable();
                s
            };
            let failed = survivors.len() < (2 * parts[pi].len()).div_ceil(3)
                || survivors.len() < ctx.params.min_child;
            if failed {
                leftover.extend_from_slice(&parts[pi]);
                continue;
            }
            leftover.extend(parts[pi].iter().filter(|v| survivors.binary_search(v).is_err()));
            // H_i restricted to survivors; paths move, they are not
            // cloned.
            let mut edges = Vec::new();
            let mut embedding = Embedding::new();
            let (vedges, vpaths) = part_embedding.into_parts();
            for ((a, b), p) in vedges.into_iter().zip(vpaths) {
                if survivors.binary_search(&a).is_ok() && survivors.binary_search(&b).is_ok() {
                    edges.push((a, b));
                    embedding.push(a, b, p);
                }
            }
            out_parts.push(GamePart { survivors, edges, embedding });
        }
        leftover.sort_unstable();
        GameOutcome { parts: out_parts, leftover }
    }

    /// Matches the leftover pool into the surviving parts, builds the
    /// [`HierarchyPart`]s (recursing into children), and returns the
    /// root-only unmatched set plus its `Mroot` embedding.
    fn attach_parts(
        &mut self,
        node_id: NodeId,
        host: &HostGraph,
        outcome: GameOutcome,
        is_root: bool,
    ) -> Result<AttachedParts, BuildError> {
        let GameOutcome { parts: game_parts, leftover } = outcome;
        let host_n = host.graph().n();
        // Sink capacity 1 on every survivor: M* must be a matching.
        let mut sink_cap = vec![0u32; host_n];
        let mut part_of_survivor: Vec<usize> = vec![usize::MAX; host_n];
        for (pi, gp) in game_parts.iter().enumerate() {
            for &v in &gp.survivors {
                let l = host.to_local(v) as usize;
                sink_cap[l] = 1;
                part_of_survivor[l] = pi;
            }
        }
        let sources: Vec<u32> = leftover.iter().map(|&v| host.to_local(v)).collect();
        let mut packer = Packer::new(host);
        let mut cfg = self.ctx.params.escalation;
        cfg.max_escalations += 4; // leftover matching must try hard
        let m = pack_matching_with(&mut packer, &sources, &mut sink_cap, cfg);
        self.ledger.charge("pre/hierarchy/leftover", cost::route_once(&m.embedding.to_path_set()));

        let mut bad_per_part: Vec<Vec<VertexId>> = vec![Vec::new(); game_parts.len()];
        let mut paths_per_part: Vec<Embedding> = vec![Embedding::new(); game_parts.len()];
        let (pairs, paths) = m.embedding.into_parts();
        for ((b, g), p) in pairs.into_iter().zip(paths) {
            let pi = part_of_survivor[host.to_local(g) as usize];
            bad_per_part[pi].push(b);
            paths_per_part[pi].push(b, g, p);
        }

        let (outside, mroot_embedding) = if is_root {
            // Stragglers live outside W; Lemma 3.5 matches them in.
            let mut outside = m.unmatched.clone();
            outside.sort_unstable();
            let mut emb = Embedding::new();
            // Re-pack against all survivors (capacity refreshed): the
            // earlier failure was under shared caps; Mroot gets its own.
            if !outside.is_empty() {
                let mut cap2 = vec![0u32; host_n];
                for gp in &game_parts {
                    for &v in &gp.survivors {
                        let l = host.to_local(v) as usize;
                        if sink_cap[l] > 0 {
                            cap2[l] = 1;
                        }
                    }
                }
                let mut p2 = Packer::new(host);
                let src2: Vec<u32> = outside.iter().map(|&v| host.to_local(v)).collect();
                let mut cfg2 = self.ctx.params.escalation;
                cfg2.max_escalations += 6;
                let m2 = pack_matching_with(&mut p2, &src2, &mut cap2, cfg2);
                self.ledger
                    .charge("pre/hierarchy/mroot", cost::route_once(&m2.embedding.to_path_set()));
                if !m2.unmatched.is_empty() {
                    // Lemma 3.5's premise failed: W is too small to
                    // absorb the stragglers as a matching.
                    return Err(BuildError::RootCoverage {
                        covered: host_n - outside.len(),
                        unmatched: m2.unmatched.len(),
                    });
                }
                emb = m2.embedding;
            }
            (outside, emb)
        } else {
            // Internal nodes must cover X exactly (Property 3.1(1));
            // force-attach stragglers via shortest paths (substitution
            // 5 in docs/ARCHITECTURE.md). A straggler the virtual graph
            // disconnects from every surviving part is a structured
            // build failure, not a panic: hostile (non-expander)
            // inputs do reach this stage.
            let level = self.nodes[node_id].level;
            for &v in &m.unmatched {
                let dist = host.graph().bfs_distances(host.to_local(v));
                let target = (0..host_n)
                    .filter(|&u| sink_cap[u] > 0 && dist[u] != u32::MAX)
                    .min_by_key(|&u| dist[u]);
                let Some(target) = target else {
                    // No surviving part has free capacity reachable
                    // from `v`; fall back to part 0's first survivor if
                    // the host still connects them.
                    let g = game_parts[0].survivors[0];
                    let Some(path) = shortest_in_host(host, v, g) else {
                        return Err(BuildError::Stranded { vertex: v, level });
                    };
                    bad_per_part[0].push(v);
                    paths_per_part[0].push(v, g, path);
                    continue;
                };
                sink_cap[target] -= 1;
                let g = host.to_global(target as u32);
                let pi = part_of_survivor[target];
                let Some(path) = shortest_in_host(host, v, g) else {
                    return Err(BuildError::Stranded { vertex: v, level });
                };
                bad_per_part[pi].push(v);
                paths_per_part[pi].push(v, g, path);
            }
            (Vec::new(), Embedding::new())
        };

        // Recurse into the children and assemble the parts. Sibling
        // subtrees are independent, so each builds into a private
        // arena with a private ledger; splicing the arenas back in part
        // order reproduces the sequential DFS numbering byte for byte.
        let level = self.nodes[node_id].level;
        let ctx = self.ctx;
        // Per-task results stay `Result`s until the splice loop below
        // consumes them in part order, so the *first* failing part (in
        // canonical order, not thread completion order) reports — the
        // surfaced error is thread-count invariant.
        let built: Vec<Result<Builder<'_, '_>, BuildError>> = {
            let parent_flat = self.nodes[node_id].flat.as_ref();
            parallel::map_tasks(&ctx.budget, game_parts, |_, gp| {
                let mut sub = Builder::new(ctx);
                let local_root = sub.build_subtree(None, parent_flat, gp, level + 1)?;
                debug_assert_eq!(local_root, 0, "subtree root leads its arena");
                Ok(sub)
            })
        };
        let mut parts = Vec::new();
        for (pi, built_part) in built.into_iter().enumerate() {
            let sub = built_part?;
            let offset = self.nodes.len();
            for mut nd in sub.nodes {
                nd.id += offset;
                nd.parent = Some(nd.parent.map_or(node_id, |p| p + offset));
                for part in &mut nd.parts {
                    part.child += offset;
                }
                self.nodes.push(nd);
            }
            self.ledger.merge(&sub.ledger);
            let child = offset;
            let mut bad = std::mem::take(&mut bad_per_part[pi]);
            bad.sort_unstable();
            let mut all = self.nodes[child].vertices.clone();
            all.extend_from_slice(&bad);
            all.sort_unstable();
            parts.push(HierarchyPart {
                child,
                bad,
                matching_embedding: std::mem::take(&mut paths_per_part[pi]),
                all,
            });
        }
        Ok(AttachedParts { parts, outside, mroot_embedding })
    }

    /// Builds the subtree rooted at `gp` into this builder's arena and
    /// returns its arena id. `parent` is the parent's id *within this
    /// arena* (`None` when the parent lives in the caller's arena — the
    /// splice in [`Builder::attach_parts`] rewrites it); `parent_flat`
    /// is the parent's flatten embedding (`None` at the root, whose
    /// virtual graph is `G` itself).
    fn build_subtree(
        &mut self,
        parent: Option<NodeId>,
        parent_flat: Option<&Embedding>,
        gp: GamePart,
        level: u32,
    ) -> Result<NodeId, BuildError> {
        let id = self.nodes.len();
        let GamePart { survivors: vertices, edges: virtual_edges, embedding } = gp;

        // Flatten through the parent. A level-1 node's game played in
        // `G`, so its embedding already is `f⁰_X`; deeper, the
        // embedding into the parent's `H_X` is dropped once composed,
        // before the subtree below is built.
        let flat = match parent_flat {
            None => embedding,
            Some(parent_flat) => {
                let flat = parent_flat.compose_after([&embedding]).remove(0);
                drop(embedding);
                flat
            }
        };
        let flat_quality = flat.quality().max(2);

        // H_X, built once: its diameter decides whether the node
        // splits, and the node's own game plays inside it.
        let host = HostGraph::from_edges(self.ctx.graph.n(), vertices.clone(), &virtual_edges);
        let diameter = host.graph().diameter_estimate();

        self.nodes.push(HierarchyNode {
            id,
            parent,
            level,
            vertices,
            virtual_edges,
            flat: Some(flat),
            flat_quality,
            parts: Vec::new(),
            best: Vec::new(),
            diameter,
        });

        let n_here = host.vertices().len();
        let splittable = n_here > self.ctx.leaf_size
            && level < MAX_LEVELS
            && n_here / self.ctx.k >= self.ctx.params.min_child.max(4)
            && diameter != u32::MAX;
        if splittable {
            let outcome = self.partition_game(&host, diameter, level, flat_quality);
            if outcome.parts.len() >= 2 {
                // Both the root and recursive attaches can fail on
                // hostile input (RootCoverage at the root, Stranded
                // anywhere); propagate instead of expecting.
                let attached = self.attach_parts(id, &host, outcome, false)?;
                self.nodes[id].parts = attached.parts;
            }
        }
        Ok(id)
    }

    fn compute_best(&self, id: NodeId, cache: &mut Vec<Option<Vec<VertexId>>>) -> Vec<VertexId> {
        let nd = &self.nodes[id];
        let best = if nd.is_leaf() {
            nd.vertices.clone()
        } else {
            let mut b: Vec<VertexId> = Vec::new();
            for p in &nd.parts {
                let child_best = self.compute_best(p.child, cache);
                b.extend_from_slice(&child_best);
            }
            b.sort_unstable();
            b
        };
        cache[id] = Some(best.clone());
        best
    }
}

/// BFS shortest path between two host vertices, `None` when the host
/// graph disconnects them (reachable with hostile, non-expander input —
/// callers surface [`BuildError::Stranded`] instead of panicking).
fn shortest_in_host(host: &HostGraph, from: VertexId, to: VertexId) -> Option<Path> {
    let lf = host.to_local(from);
    let lt = host.to_local(to);
    // BFS with parents.
    let graph = host.graph();
    let mut parent = vec![u32::MAX; graph.n()];
    let mut queue = std::collections::VecDeque::from([lf]);
    parent[lf as usize] = lf;
    while let Some(u) = queue.pop_front() {
        if u == lt {
            break;
        }
        for &v in graph.neighbors(u) {
            if parent[v as usize] == u32::MAX {
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    if parent[lt as usize] == u32::MAX {
        return None;
    }
    let mut walk = vec![lt];
    let mut cur = lt;
    while cur != lf {
        cur = parent[cur as usize];
        walk.push(cur);
    }
    walk.reverse();
    Some(host.path_to_global(&walk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn build(n: usize, eps: f64, seed: u64) -> Hierarchy {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        let params = HierarchyParams { epsilon: eps, seed, ..HierarchyParams::default() };
        Hierarchy::build(&g, params).expect("hierarchy")
    }

    #[test]
    fn part_count_is_the_exact_ceiling() {
        // 1024^0.4 and 32768^0.4 are 16 and 64, a few ulps high in f64.
        for (n, eps, k) in [(1024, 0.4, 16), (32768, 0.4, 64), (8192, 0.4, 37), (4096, 0.4, 28)] {
            assert_eq!(parts_per_node(n, eps), k, "n = {n}, ε = {eps}");
        }
        assert_eq!(parts_per_node(64, 0.1), 3, "clamped below");
        assert_eq!(parts_per_node(1 << 20, 0.5), 96, "clamped above");
    }

    #[test]
    fn small_expander_hierarchy_is_valid() {
        let h = build(256, 0.4, 1);
        let issues = h.validate();
        assert!(issues.is_empty(), "violations: {issues:?}");
        assert!(h.depth() >= 1, "must split at least once");
    }

    #[test]
    fn root_covers_most_vertices() {
        let h = build(256, 0.4, 2);
        let w = h.node(h.root()).vertices.len();
        assert!(w * 3 >= 2 * 256, "root covers {w}/256");
        assert_eq!(w + h.outside().len(), 256);
    }

    #[test]
    fn mroot_saturates_outside() {
        let h = build(256, 0.4, 3);
        assert_eq!(h.outside().len(), h.mroot().len());
        for (i, &(o, w)) in h.mroot().iter().enumerate() {
            assert!(h.outside().binary_search(&o).is_ok());
            assert!(h.node(h.root()).vertices.binary_search(&w).is_ok());
            let p = h.mroot_embedding().path(i);
            assert!(p.is_valid_in(h.graph()), "Mroot path invalid in G");
        }
    }

    #[test]
    fn flat_embeds_exactly_the_virtual_edges() {
        let h = build(512, 0.12, 4);
        assert!(h.depth() >= 2, "want nodes below level 1");
        for nd in h.nodes() {
            if nd.parent.is_none() {
                assert!(nd.flat.is_none(), "the root embeds nothing");
                continue;
            }
            let flat = nd.flat.as_ref().expect("non-root node has f⁰");
            assert_eq!(flat.virtual_edges(), &nd.virtual_edges[..], "node {}", nd.id);
        }
    }

    #[test]
    fn flatten_paths_are_valid_in_g() {
        let h = build(256, 0.4, 5);
        for nd in h.nodes() {
            if let Some(flat) = &nd.flat {
                for (_, _, p) in flat.iter() {
                    assert!(p.is_valid_in(h.graph()), "flattened path invalid in G");
                }
            }
        }
    }

    #[test]
    fn virtual_graphs_are_expanders() {
        let h = build(512, 0.4, 6);
        for nd in h.nodes() {
            if nd.parent.is_some() && nd.vertices.len() >= 24 {
                let host =
                    HostGraph::from_edges(h.graph().n(), nd.vertices.clone(), &nd.virtual_edges);
                let gap = expander_graphs::metrics::spectral_gap(host.graph(), 7);
                assert!(gap > 0.01, "node {} (|X|={}) gap {gap}", nd.id, nd.vertices.len());
            }
        }
    }

    #[test]
    fn best_sets_and_rho() {
        let h = build(256, 0.4, 7);
        let root = h.node(h.root());
        assert!(!root.best.is_empty());
        for &b in &root.best {
            assert!(root.vertices.binary_search(&b).is_ok());
        }
        assert!(h.rho_best() >= 1.0);
        assert!(h.rho_best() < 8.0, "rho_best {} too lossy", h.rho_best());
    }

    #[test]
    fn leaves_hold_all_best_vertices() {
        let h = build(256, 0.4, 8);
        let mut from_leaves: Vec<VertexId> = h
            .nodes()
            .iter()
            .filter(|nd| nd.is_leaf() && is_descendant_of_root(&h, nd.id))
            .flat_map(|nd| nd.vertices.clone())
            .collect();
        from_leaves.sort_unstable();
        assert_eq!(from_leaves, h.node(h.root()).best);
    }

    fn is_descendant_of_root(h: &Hierarchy, mut id: NodeId) -> bool {
        loop {
            if id == h.root() {
                return true;
            }
            match h.node(id).parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Repaired hierarchies must be indistinguishable from a
    /// from-scratch build on the mutated graph — not "equivalent", but
    /// field-for-field equal, ledgers included.
    fn assert_byte_identical(repaired: &Hierarchy, fresh: &Hierarchy) {
        assert_eq!(repaired.nodes().len(), fresh.nodes().len(), "node counts differ");
        for (a, b) in repaired.nodes().iter().zip(fresh.nodes()) {
            assert_eq!(a, b, "node {} differs", a.id);
        }
        assert_eq!(repaired, fresh);
    }

    #[test]
    fn repair_single_edge_removal_matches_fresh_build() {
        let g = generators::random_regular(512, 4, 11).expect("generator");
        let params = HierarchyParams { epsilon: 0.33, seed: 11, ..HierarchyParams::default() };
        let mut h = Hierarchy::build(&g, params.clone()).expect("hierarchy");

        // Remove one edge that is not a bridge so the graph stays
        // connected; 4-regular expanders have none, but be explicit.
        let (u, v) = g.edges().find(|&(u, v)| g.degree(u) > 3 && g.degree(v) > 3).expect("edge");
        let edits = [GraphEdit::RemoveEdge(u, v)];
        let report = h.repair(&edits).expect("repair");

        let mut g2 = g.clone();
        g2.apply_edit(edits[0]);
        let fresh = Hierarchy::build(&g2, params).expect("fresh build");
        assert_byte_identical(&h, &fresh);
        assert_eq!(report, RepairReport { reused_nodes: 0, total_nodes: h.nodes().len() });
    }

    #[test]
    fn repair_is_thread_count_invariant() {
        let g = generators::random_regular(256, 4, 12).expect("generator");
        let base = HierarchyParams { epsilon: 0.33, seed: 12, ..HierarchyParams::default() };
        let edits = [GraphEdit::RemoveEdge(0, g.neighbors(0)[0]), GraphEdit::InsertEdge(10, 200)];

        let mut repaired = Vec::new();
        for threads in [1usize, 4] {
            let params = HierarchyParams { threads: Some(threads), ..base.clone() };
            let mut h = Hierarchy::build(&g, params).expect("hierarchy");
            h.repair(&edits).expect("repair");
            repaired.push(h);
        }
        // Thread count must not leak into the repaired structure; the
        // params field legitimately differs, so compare the rest.
        let (a, b) = (&repaired[0], &repaired[1]);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.ledger(), b.ledger());
        assert_eq!(a.outside(), b.outside());
        assert_eq!(a.mroot(), b.mroot());
    }

    #[test]
    fn repair_error_leaves_hierarchy_unchanged() {
        let g = generators::random_regular(256, 4, 14).expect("generator");
        let params = HierarchyParams { epsilon: 0.4, seed: 14, ..HierarchyParams::default() };
        let mut h = Hierarchy::build(&g, params).expect("hierarchy");
        let before = h.clone();
        // Cutting all of vertex 0's edges disconnects the graph.
        let edits: Vec<GraphEdit> =
            g.neighbors(0).iter().map(|&v| GraphEdit::RemoveEdge(0, v)).collect();
        let err = h.repair(&edits).expect_err("disconnected graph must fail");
        assert_eq!(err, BuildError::Disconnected);
        assert_eq!(h, before, "failed repair must not mutate the hierarchy");
    }

    #[test]
    fn repair_rejects_invalid_edits_and_leaves_hierarchy_unchanged() {
        let g = generators::random_regular(64, 4, 15).expect("generator");
        let mut h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
        let before = h.clone();
        let bad = GraphEdit::RemoveVertex(99);
        for edits in [vec![bad], vec![GraphEdit::RemoveEdge(0, g.neighbors(0)[0]), bad]] {
            assert_eq!(h.repair(&edits), Err(BuildError::InvalidEdit(bad)));
            assert_eq!(h, before, "rejected edit must not mutate the hierarchy");
        }
    }

    #[test]
    fn rejects_disconnected_and_tiny_graphs() {
        let g = Graph::from_edges(20, &[(0, 1), (2, 3)]);
        assert_eq!(
            Hierarchy::build(&g, HierarchyParams::default()).unwrap_err(),
            BuildError::Disconnected
        );
        let g2 = generators::ring(8);
        assert!(matches!(
            Hierarchy::build(&g2, HierarchyParams::default()).unwrap_err(),
            BuildError::TooSmall { .. }
        ));
    }

    #[test]
    fn hostile_inputs_build_or_error_structurally() {
        // Off-the-happy-path topologies: the build must return a
        // structured BuildError (or succeed), never panic — the
        // contract the graceful-decomposition fallback layer rests on.
        let zoo: Vec<(&str, Graph)> = vec![
            ("barbell", generators::barbell(40)),
            ("bridge_tree", generators::bridge_tree(5, 16)),
            ("ring", generators::ring(128)),
            ("path", generators::path(96)),
            ("ring_of_cliques", generators::ring_of_cliques(6, 12)),
            ("power_law", generators::power_law(128, 2, 3).expect("generator")),
            ("thin_bridge", generators::bridged_expanders(64, 4, 1, 5).expect("generator")),
        ];
        for (name, g) in zoo {
            match Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)) {
                Ok(h) => assert!(!h.nodes().is_empty(), "{name}: built an empty hierarchy"),
                Err(e) => {
                    let msg = format!("{e}");
                    assert!(!msg.is_empty(), "{name}: error must render");
                }
            }
        }
    }

    #[test]
    fn hierarchy_is_deterministic() {
        let a = build(128, 0.4, 9);
        let b = build(128, 0.4, 9);
        assert_eq!(a.nodes().len(), b.nodes().len());
        for (x, y) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(x.vertices, y.vertices);
            assert_eq!(x.virtual_edges, y.virtual_edges);
        }
    }

    #[test]
    fn preprocessing_ledger_is_populated() {
        let h = build(128, 0.4, 10);
        assert!(h.ledger().total() > 0);
        assert!(h.ledger().phase("pre/hierarchy/matching-player") > 0);
    }

    #[test]
    fn margulis_also_decomposes() {
        let g = generators::margulis(16); // 256 vertices, 8-regular
        let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
        let issues = h.validate();
        assert!(issues.is_empty(), "violations: {issues:?}");
    }
}
