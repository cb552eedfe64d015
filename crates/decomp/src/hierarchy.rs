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
//! The recursion decomposes into independent tasks: within one
//! cut-matching iteration the per-part probe/replay/split work touches
//! only that part's state, and sibling subtrees share nothing but round
//! accounting. [`Hierarchy::build`] therefore runs as a staged
//! pipeline: probe proposals execute in parallel (packing stays
//! sequential per iteration — the parts share the host's edge budget),
//! and sibling subtrees build into private node arenas with forked
//! [`RoundLedger`]s that splice back in part order. The arena splice
//! reproduces the sequential DFS numbering exactly, so the output is
//! byte-identical for every thread count
//! ([`HierarchyParams::threads`]).

use crate::cut_player::{deviation_mass, median_split, probe_vector, replay_walk};
use crate::host::HostGraph;
use crate::packing::{pack_matching_with, EscalationConfig, MatchingPacking, Packer};
use congest_sim::{cost, parallel, RoundLedger, ThreadBudget};
use expander_graphs::{metrics, Embedding, Graph, GraphEdit, Path, VertexId};
use std::error::Error;
use std::fmt;

/// Index of a node inside a [`Hierarchy`].
pub type NodeId = usize;

/// Tuning knobs for [`Hierarchy::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyParams {
    /// The paper's `ε`: nodes split into `k = ⌈n^ε⌉` parts.
    pub epsilon: f64,
    /// Cut-matching iterations per part = `⌈lambda_factor · log₂ n⌉`.
    pub lambda_factor: f64,
    /// Nodes of at most this size become leaves; `None` picks
    /// `max(4k, 48)`.
    pub leaf_size: Option<usize>,
    /// Parts whose surviving set is smaller than this fail outright.
    pub min_child: usize,
    /// Base seed for all derandomized projections.
    pub seed: u64,
    /// Safety cap on hierarchy depth.
    pub max_levels: u32,
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
            lambda_factor: 1.5,
            leaf_size: None,
            min_child: 6,
            seed: 0xE5CA1ADE,
            max_levels: 8,
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
    /// Matching `M*_i`: `(bad vertex, good mate)` pairs.
    pub matching: Vec<(VertexId, VertexId)>,
    /// Paths in this node's `H_X` realizing the matching.
    pub matching_embedding: Embedding,
    /// All vertices `X*_i` (sorted).
    pub all: Vec<VertexId>,
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
    /// Embedding of `H_X` into the parent's virtual graph (`None` at
    /// the root: identity).
    pub embedding_to_parent: Option<Embedding>,
    /// Flattened embedding `f⁰_X : H_X → G` (Definition 3.3); `None`
    /// at the root.
    pub flat: Option<Embedding>,
    /// `Q(f⁰_X(H_X))`, the flattened quality (2 at the root: identity).
    pub flat_quality: usize,
    /// Parts of an internal node (empty for leaves).
    pub parts: Vec<HierarchyPart>,
    /// `X_best`: union of good-leaf descendants (sorted).
    pub best: Vec<VertexId>,
    /// Diameter estimate of `H_X`.
    pub diameter: u32,
    /// Spectral gap of `H_X` (quality witness for the embedding).
    pub spectral_gap: f64,
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
    mroot: Vec<(VertexId, VertexId)>,
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
        let k = (n as f64).powf(params.epsilon).ceil() as usize;
        let k = k.clamp(3, 96);
        let leaf_size = params.leaf_size.unwrap_or_else(|| (4 * k).max(48));
        let lambda = ((n as f64).log2() * params.lambda_factor).ceil().max(6.0) as u32;

        let threads = parallel::build_threads(params.threads);
        let ctx = BuildCtx {
            graph,
            k,
            leaf_size,
            lambda,
            params: params.clone(),
            budget: ThreadBudget::new(threads),
        };
        let mut builder = Builder::new(&ctx, RoundLedger::new());

        // Top-level game inside G itself.
        let root_host = HostGraph::from_graph(graph);
        let all: Vec<VertexId> = (0..n as u32).collect();
        let outcome = builder.partition_game(&root_host, &all, 0, 2);
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
            embedding_to_parent: None,
            flat: None,
            flat_quality: 2,
            parts: Vec::new(),
            best: Vec::new(),
            diameter: graph.diameter_estimate(),
            spectral_gap: metrics::spectral_gap(graph, params.seed),
        });

        let attached = builder.attach_parts(root_id, &root_host, outcome, true)?;
        let AttachedParts { parts, outside, mroot, mroot_embedding } = attached;
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
            mroot,
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
    /// Same failure modes as [`build`](Hierarchy::build), evaluated
    /// against the edited graph.
    pub fn repair(&mut self, edits: &[GraphEdit]) -> Result<RepairReport, BuildError> {
        let mut graph = self.graph.clone();
        for &e in edits {
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

    /// The `Mroot` matching `(outside vertex, root mate)` (Lemma 3.5).
    pub fn mroot(&self) -> &[(VertexId, VertexId)] {
        &self.mroot
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
        if self.outside.len() != self.mroot.len() {
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
                if p.matching.len() != p.bad.len() {
                    issues.push(format!("node {}: matching does not saturate X'", nd.id));
                }
                let mut mates: Vec<VertexId> = p.matching.iter().map(|&(_, g)| g).collect();
                mates.sort_unstable();
                let pre_dedup = mates.len();
                mates.dedup();
                if mates.len() != pre_dedup {
                    issues.push(format!("node {}: M* is not a matching", nd.id));
                }
                for &(b, g) in &p.matching {
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
/// absorbs their ledgers in part order.
struct Builder<'g, 'c> {
    ctx: &'c BuildCtx<'g>,
    nodes: Vec<HierarchyNode>,
    ledger: RoundLedger,
}

impl<'g, 'c> Builder<'g, 'c> {
    fn new(ctx: &'c BuildCtx<'g>, ledger: RoundLedger) -> Builder<'g, 'c> {
        Builder { ctx, nodes: Vec::new(), ledger }
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
    /// Root only: the `Mroot` matching pairs for `outside`.
    mroot: Vec<(VertexId, VertexId)>,
    /// Root only: embedding of the `Mroot` pairs.
    mroot_embedding: Embedding,
}

struct GamePart {
    survivors: Vec<VertexId>,
    edges: Vec<(VertexId, VertexId)>,
    embedding: Embedding,
}

/// One part's cut proposal for an iteration, produced by the parallel
/// probe stage and consumed by the sequential packing stage.
enum Proposal {
    /// The part's deviation mass vanished: it is mixed.
    Mixed,
    /// A bisection of the active set, ready for the matching player.
    Cut { sources: Vec<u32>, sinks: Vec<u32> },
}

impl Builder<'_, '_> {
    /// Plays the simultaneous cut-matching game over `vertices` inside
    /// `host`, charging construction rounds at flattened quality
    /// `flat_quality`.
    ///
    /// Each iteration runs in two stages. The *probe* stage computes
    /// every part's replayed projection and cut proposal — work that
    /// depends only on that part's own history, so it fans out across
    /// the thread budget. The *packing* stage then consumes the
    /// proposals strictly sequentially in the rotated part order: the
    /// parts share one [`Packer`]'s edge budget (the games run
    /// "simultaneously" in the paper), so capacity consumption must
    /// stay ordered.
    fn partition_game(
        &mut self,
        host: &HostGraph,
        vertices: &[VertexId],
        level: u32,
        flat_quality: usize,
    ) -> GameOutcome {
        let ctx = self.ctx;
        let n_part = vertices.len().div_ceil(ctx.k);
        let parts: Vec<Vec<VertexId>> =
            vertices.chunks(n_part.max(1)).map(<[VertexId]>::to_vec).collect();
        let t = parts.len();
        let host_diam = host.diameter_estimate().min(host.n() as u32) as u64;

        // Per-part state.
        let mut active: Vec<Vec<u32>> =
            parts.iter().map(|p| p.iter().map(|&v| host.to_local(v)).collect()).collect();
        let mut history: Vec<Vec<Vec<(u32, u32)>>> = vec![Vec::new(); t]; // local pairs
        let mut embeddings: Vec<Embedding> = vec![Embedding::new(); t];
        let mut mixed = vec![false; t];
        // Scratch for the dead-source sweep (reset between uses).
        let mut dead_mark = vec![false; host.n()];

        for iter in 0..ctx.lambda {
            // Probe stage: per-part proposals, in parallel. A part's
            // probe is a pure function of its own history/active state
            // from previous iterations, so the fan-out is exact.
            let mut proposals: Vec<Option<Proposal>> = parallel::run_tasks(&ctx.budget, t, |pi| {
                if mixed[pi] || active[pi].len() < 4 {
                    return None;
                }
                // Fresh probe, replayed through this part's history
                // (exactly R_{i-1}·r, see cut_player docs).
                let seed = ctx
                    .params
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(iter as u64 + 1))
                    .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(pi as u64 + 1))
                    .wrapping_add((level as u64) << 48);
                let mut probe = vec![0.0f64; host.n()];
                let fresh = probe_vector(parts[pi].len(), seed);
                for (i, &v) in parts[pi].iter().enumerate() {
                    probe[host.to_local(v) as usize] = fresh[i];
                }
                replay_walk(&history[pi], &mut probe);
                let mass = deviation_mass(&probe, &active[pi]);
                if mass < 1e-12 {
                    return Some(Proposal::Mixed);
                }
                let mu: Vec<f64> = active[pi].iter().map(|&l| probe[l as usize]).collect();
                let sep = median_split(&mu);
                let sources: Vec<u32> = sep.al.iter().map(|&i| active[pi][i]).collect();
                let sinks: Vec<u32> = sep.ar.iter().map(|&i| active[pi][i]).collect();
                Some(Proposal::Cut { sources, sinks })
            });

            // Packing stage: strictly sequential, shared edge budget.
            let mut packer = Packer::new(host);
            let mut progress = false;
            for pi_raw in 0..t {
                // Rotate processing order so no part always packs last.
                let pi = (pi_raw + iter as usize) % t;
                let (sources, sinks) = match proposals[pi].take() {
                    None => continue,
                    Some(Proposal::Mixed) => {
                        mixed[pi] = true;
                        continue;
                    }
                    Some(Proposal::Cut { sources, sinks }) => (sources, sinks),
                };
                let mut sink_cap = vec![0u32; host.n()];
                for &s in &sinks {
                    sink_cap[s as usize] = 1;
                }
                let mut cfg = ctx.params.escalation;
                cfg.dilation_cap = cfg.dilation_cap.max(2 * host_diam as u32 + 2);
                let m = pack_matching_with(&mut packer, &sources, &mut sink_cap, cfg);
                // Charge: cut player replays `iter` matchings (one H_X
                // round each) plus a diameter-bounded selection, then
                // the matching player's BFS phases and the path test.
                self.ledger.charge(
                    "pre/hierarchy/cut-player",
                    cost::virtual_rounds(flat_quality as u64, iter as u64 + 1)
                        + cost::diameter_primitive(host_diam, flat_quality as u64),
                );
                self.ledger.charge(
                    "pre/hierarchy/matching-player",
                    cost::virtual_rounds(
                        flat_quality as u64,
                        m.phases as u64 * m.final_dilation_cap as u64,
                    ) + cost::route_once(&m.embedding.to_path_set()) * (flat_quality as u64).pow(2),
                );
                if !m.pairs.is_empty() {
                    progress = true;
                }
                let MatchingPacking { pairs, embedding, unmatched, .. } = m;
                let local_pairs: Vec<(u32, u32)> =
                    pairs.iter().map(|&(a, b)| (host.to_local(a), host.to_local(b))).collect();
                history[pi].push(local_pairs);
                embeddings[pi] = std::mem::take(&mut embeddings[pi]).union(embedding);
                // Deactivate unmatched sources (sparse-cut side) with a
                // mark sweep over host-locals.
                if !unmatched.is_empty() {
                    for &v in &unmatched {
                        dead_mark[host.to_local(v) as usize] = true;
                    }
                    active[pi].retain(|&l| !dead_mark[l as usize]);
                    for &v in &unmatched {
                        dead_mark[host.to_local(v) as usize] = false;
                    }
                }
            }
            if !progress && mixed.iter().all(|&m| m) {
                break;
            }
        }

        // Collect survivors and the leftover pool.
        let mut out_parts = Vec::new();
        let mut leftover: Vec<VertexId> = Vec::new();
        for pi in 0..t {
            let survivors: Vec<VertexId> = {
                let mut s: Vec<VertexId> = active[pi].iter().map(|&l| host.to_global(l)).collect();
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
            let (vedges, vpaths) = std::mem::take(&mut embeddings[pi]).into_parts();
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
        // Sink capacity 1 on every survivor: M* must be a matching.
        let mut sink_cap = vec![0u32; host.n()];
        let mut part_of_survivor: Vec<usize> = vec![usize::MAX; host.n()];
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
        let mut matching_per_part: Vec<Vec<(VertexId, VertexId)>> =
            vec![Vec::new(); game_parts.len()];
        let mut paths_per_part: Vec<Embedding> = vec![Embedding::new(); game_parts.len()];
        for (i, &(b, g)) in m.pairs.iter().enumerate() {
            let pi = part_of_survivor[host.to_local(g) as usize];
            bad_per_part[pi].push(b);
            matching_per_part[pi].push((b, g));
            let p = m.embedding.path(i);
            paths_per_part[pi].push(b, g, p.clone());
        }

        let (outside, mroot, mroot_embedding) = if is_root {
            // Stragglers live outside W; Lemma 3.5 matches them in.
            let mut outside = m.unmatched.clone();
            outside.sort_unstable();
            let mut pairs = Vec::new();
            let mut emb = Embedding::new();
            // Re-pack against all survivors (capacity refreshed): the
            // earlier failure was under shared caps; Mroot gets its own.
            if !outside.is_empty() {
                let mut cap2 = vec![0u32; host.n()];
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
                for (i, &(s, t)) in m2.pairs.iter().enumerate() {
                    pairs.push((s, t));
                    emb.push(s, t, m2.embedding.path(i).clone());
                }
                if !m2.unmatched.is_empty() {
                    // Lemma 3.5's premise failed: W is too small to
                    // absorb the stragglers as a matching.
                    return Err(BuildError::RootCoverage {
                        covered: host.n() - outside.len(),
                        unmatched: m2.unmatched.len(),
                    });
                }
            }
            (outside, pairs, emb)
        } else {
            // Internal nodes must cover X exactly (Property 3.1(1));
            // force-attach stragglers via shortest paths (substitution
            // 5 in docs/ARCHITECTURE.md). A straggler the virtual graph
            // disconnects from every surviving part is a structured
            // build failure, not a panic: hostile (non-expander)
            // inputs do reach this stage.
            let level = self.nodes[node_id].level;
            for &v in &m.unmatched {
                let l = host.to_local(v);
                let dist = host.bfs_local(&[l]);
                let target = (0..host.n())
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
                    matching_per_part[0].push((v, g));
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
                matching_per_part[pi].push((v, g));
                paths_per_part[pi].push(v, g, path);
            }
            (Vec::new(), Vec::new(), Embedding::new())
        };

        // Recurse into the children and assemble the parts. Sibling
        // subtrees are independent, so each builds into a private
        // arena with a forked ledger; splicing the arenas back in part
        // order reproduces the sequential DFS numbering byte for byte.
        let level = self.nodes[node_id].level;
        let ctx = self.ctx;
        // Per-task results stay `Result`s until the splice loop below
        // consumes them in part order, so the *first* failing part (in
        // canonical order, not thread completion order) reports — the
        // surfaced error is thread-count invariant.
        let built: Vec<Result<Builder<'_, '_>, BuildError>> = {
            let parent_flat = self.nodes[node_id].flat.as_ref();
            let parent_ledger = &self.ledger;
            parallel::map_tasks(&ctx.budget, game_parts, |_, gp| {
                let mut sub = Builder::new(ctx, parent_ledger.fork());
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
                matching: std::mem::take(&mut matching_per_part[pi]),
                matching_embedding: std::mem::take(&mut paths_per_part[pi]),
                all,
            });
        }
        Ok(AttachedParts { parts, outside, mroot, mroot_embedding })
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
        let mut embedding_to_parent = gp.embedding;
        let vertices = gp.survivors;
        let virtual_edges = gp.edges;

        // Flatten through the parent.
        let flat = match parent_flat {
            None => embedding_to_parent.clone(),
            Some(parent_flat) => parent_flat.compose_after([&embedding_to_parent]).remove(0),
        };
        let flat_quality = flat.quality().max(2);

        // Diameter + gap of H_X.
        let host = HostGraph::from_edges(self.ctx.graph.n(), vertices.clone(), &virtual_edges);
        let diameter = host.diameter_estimate();
        let spectral_gap = gap_of_virtual(&host);

        // Normalize the parent-embedding direction (u, v, path u->v).
        embedding_to_parent = normalize_embedding(embedding_to_parent);

        self.nodes.push(HierarchyNode {
            id,
            parent,
            level,
            vertices,
            virtual_edges,
            embedding_to_parent: Some(embedding_to_parent),
            flat: Some(flat),
            flat_quality,
            parts: Vec::new(),
            best: Vec::new(),
            diameter,
            spectral_gap,
        });

        let n_here = self.nodes[id].vertices.len();
        let splittable = n_here > self.ctx.leaf_size
            && level < self.ctx.params.max_levels
            && n_here / self.ctx.k >= self.ctx.params.min_child.max(4)
            && diameter != u32::MAX;
        if splittable {
            let vertices = self.nodes[id].vertices.clone();
            let edges = self.nodes[id].virtual_edges.clone();
            let host = HostGraph::from_edges(self.ctx.graph.n(), vertices.clone(), &edges);
            let fq = self.nodes[id].flat_quality;
            let outcome = self.partition_game(&host, &vertices, level, fq);
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
    let n = host.n();
    let mut parent = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::from([lf]);
    parent[lf as usize] = lf;
    while let Some(u) = queue.pop_front() {
        if u == lt {
            break;
        }
        for &v in host.neighbors_local(u) {
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

fn gap_of_virtual(host: &HostGraph) -> f64 {
    if host.n() < 2 || host.m() == 0 {
        return 0.0;
    }
    // Re-index to a dense local graph; isolated vertices get a self
    // countweight via a star fallback to keep the estimate defined.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(host.m());
    for l in 0..host.n() as u32 {
        for &u in host.neighbors_local(l) {
            if l < u {
                edges.push((l, u));
            }
        }
    }
    let g = Graph::from_edges(host.n(), &edges);
    if (0..g.n() as u32).any(|v| g.degree(v) == 0) {
        return 0.0;
    }
    metrics::spectral_gap(&g, 7)
}

/// Ensures every embedded path runs `u -> v` for its stored pair.
fn normalize_embedding(e: Embedding) -> Embedding {
    // Embedding::push enforces the invariant at insertion; packing
    // already produces source->sink order. Kept for clarity.
    e
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
    fn children_embeddings_live_in_parent() {
        let h = build(256, 0.4, 4);
        for nd in h.nodes() {
            let Some(parent) = nd.parent else { continue };
            let parent_host = HostGraph::from_edges(
                h.graph().n(),
                if parent == h.root() {
                    (0..h.graph().n() as u32).collect()
                } else {
                    h.node(parent).vertices.clone()
                },
                &h.node(parent).virtual_edges,
            );
            let emb = nd.embedding_to_parent.as_ref().expect("non-root");
            for (u, v, p) in emb.iter() {
                assert_eq!(p.source(), u);
                assert_eq!(p.target(), v);
                for w in p.vertices().windows(2) {
                    let a = parent_host.to_local(w[0]);
                    assert!(
                        parent_host.neighbors_local(a).contains(&parent_host.to_local(w[1])),
                        "embedding path hop not in parent H_X"
                    );
                }
            }
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
                assert!(
                    nd.spectral_gap > 0.01,
                    "node {} (|X|={}) gap {}",
                    nd.id,
                    nd.vertices.len(),
                    nd.spectral_gap
                );
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
