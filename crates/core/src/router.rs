//! The public preprocessing/query API (Theorem 1.1).

use crate::cost_model::CostModel;
use crate::engine::{JobOutcome, JobRef};
use crate::exec::{self, DenseGroups, Scratch};
use crate::network::EmbeddedNetwork;
use crate::token::{InstanceError, RoutingInstance, RoutingOutcome, SortInstance, SortOutcome};
use congest_sim::{cost, parallel, RoundLedger};
use expander_decomp::{
    build_shuffler, BuildError, Hierarchy, HierarchyNode, HierarchyParams, NodeId, ShufflerParams,
    ShufflerRound,
};
use expander_graphs::{Embedding, FlatPaths, Graph, GraphEdit, Path, VertexId};

/// One outgoing dispersal entry of a [`RoundTable`] row: the fractional
/// mass `m_ij` towards one target part plus the range of its portal
/// edge refs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RoundEntry {
    /// The natural fractional matching mass `x_ij` of this part pair.
    pub(crate) m_ij: f64,
    lo: u32,
    hi: u32,
}

/// One shuffler round's dispersal table: for each source part `i`, the
/// outgoing [`RoundEntry`]s in increasing target-part order, each
/// pointing at packed portal edge refs `(path index << 1) | reversed`.
/// A dense, orientation-resolved replacement for the former
/// `HashMap<(part, part), Vec<edge>>` portal index.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RoundTable {
    /// Entry ranges per source part: row `i` owns
    /// `entries[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<u32>,
    entries: Vec<RoundEntry>,
    edge_refs: Vec<u32>,
    /// Per packed edge ref: the pre-oriented landing vertex (the path
    /// endpoint on the *target* part's side), so the dispersal loop
    /// reads a u32 instead of unpacking and branching per token.
    ref_target: Vec<u32>,
    /// Per row: the smallest token-group length whose largest entry
    /// floors to a nonzero move count (`u32::MAX` for empty rows) —
    /// the dispersal loop's integer early-out. Derived from the
    /// largest `m_ij / 2` of the row: IEEE multiplication by a
    /// nonnegative constant is monotone in `len`, so the threshold is
    /// exact and `len < row_min_len` proves `⌊len · m_ij / 2⌋ = 0`
    /// for every entry of the row.
    row_min_len: Vec<u32>,
    /// The smallest `row_min_len` over all rows: a token group shorter
    /// than this moves nothing anywhere in the round, so a job whose
    /// largest bucket is below it skips the round's scan outright.
    min_move_len: u32,
}

impl RoundTable {
    /// Builds the table for one shuffler round of a `t`-part node.
    /// `flat` is the round's flattened path arena (same index space as
    /// the packed refs), consulted to pre-orient each ref's landing
    /// vertex.
    fn build(round: &ShufflerRound, t: usize, flat: &FlatPaths) -> RoundTable {
        // The matched pairs grouped once by unordered part pair, in
        // ascending matching index within a pair, so a round costs
        // `O(t² + |M|)`.
        let pair = |a: usize, b: usize| a.min(b) * t + a.max(b);
        let mut by_pair = DenseGroups::default();
        by_pair.build(t * t, round.endpoint_parts.iter().map(|&(a, b)| pair(a, b) as u32));
        let mut table = RoundTable::default();
        for i in 0..t {
            table.row_start.push(table.entries.len() as u32);
            let mut half_max = 0.0f64;
            for j in 0..t {
                if j == i || round.fractional[i][j] <= 0.0 {
                    continue;
                }
                let lo = table.edge_refs.len() as u32;
                for &ei in by_pair.group(pair(i, j)) {
                    let reversed = round.endpoint_parts[ei as usize].0 != i;
                    table.edge_refs.push((ei << 1) | u32::from(reversed));
                    // Orient the path from part i towards part j.
                    let ei = ei as usize;
                    table.ref_target.push(if reversed { flat.source(ei) } else { flat.target(ei) });
                }
                let hi = table.edge_refs.len() as u32;
                debug_assert!(hi > lo, "fractional mass without portal edges");
                half_max = half_max.max(round.fractional[i][j] / 2.0);
                table.entries.push(RoundEntry { m_ij: round.fractional[i][j], lo, hi });
            }
            table.row_min_len.push(min_len_for_half(half_max));
        }
        table.row_start.push(table.entries.len() as u32);
        table.min_move_len = table.row_min_len.iter().copied().min().unwrap_or(u32::MAX);
        table
    }

    /// The outgoing entries of source part `i`, in increasing
    /// target-part order.
    pub(crate) fn row(&self, i: usize) -> &[RoundEntry] {
        &self.entries[self.row_start[i] as usize..self.row_start[i + 1] as usize]
    }

    /// The smallest group length row `i` moves any token for (see
    /// `row_min_len`).
    pub(crate) fn row_min_len(&self, i: usize) -> u32 {
        self.row_min_len[i]
    }

    /// The smallest group length any row moves a token for (see
    /// `min_move_len`).
    pub(crate) fn min_move_len(&self) -> u32 {
        self.min_move_len
    }

    /// The packed portal edge refs of `entry`.
    pub(crate) fn edge_refs(&self, entry: &RoundEntry) -> &[u32] {
        &self.edge_refs[entry.lo as usize..entry.hi as usize]
    }

    /// The pre-oriented landing vertices of `entry`'s refs (parallel
    /// to [`RoundTable::edge_refs`]).
    pub(crate) fn ref_targets(&self, entry: &RoundEntry) -> &[u32] {
        &self.ref_target[entry.lo as usize..entry.hi as usize]
    }
}

/// The smallest `len` with `(len as f64) * half >= 1.0`, or `u32::MAX`
/// if no u32 length reaches it. Binary search on the exact IEEE
/// predicate (u32 values convert to f64 losslessly and multiplication
/// by a nonnegative constant is monotone), so the result reproduces
/// the former per-bucket float guard bit for bit.
fn min_len_for_half(half: f64) -> u32 {
    if (f64::from(u32::MAX)) * half < 1.0 {
        return u32::MAX;
    }
    let (mut lo, mut hi) = (1u32, u32::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f64::from(mid) * half >= 1.0 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// What queries and the cost model read of one internal hierarchy
/// node, built by that node's preprocessing task. The task lowers the
/// node's shuffler into `rounds_flat` and `round_tables`, reads the
/// three numbers below off it, and drops it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeTables {
    /// Per shuffler round (`λ` of them, as in `round_tables`): the
    /// matching paths as a base-graph edge-id arena.
    pub(crate) rounds_flat: Vec<FlatPaths>,
    /// Per round: the dense dispersal table (fractional rows plus
    /// orientation-resolved portal edge refs).
    pub(crate) round_tables: Vec<RoundTable>,
    /// Dense `global vertex -> part index` (`u16::MAX` when absent).
    pub(crate) part_of: Vec<u16>,
    /// Per part: flattened `M*` path arena.
    pub(crate) mstar_flat: Vec<FlatPaths>,
    /// Dense `bad vertex -> M* edge index within its part` (`u32::MAX`
    /// elsewhere).
    pub(crate) mstar_edge: Vec<u32>,
    /// Prefix counts of best vertices per part
    /// (`prefix[j] = Σ_{j' < j} |best ∩ X*_{j'}|`, length `t + 1`).
    pub(crate) best_prefix: Vec<u32>,
    /// Dense `best rank -> part index` (the inverse of `best_prefix`,
    /// length = total best count).
    pub(crate) rank_part: Vec<u16>,
    /// The shuffler's final potential `Π(λ)` (Lemma 6.2's envelope).
    pub(crate) final_potential: f64,
    /// The shuffler's flattened union quality
    /// ([`Shuffler::quality_flat`](expander_decomp::Shuffler::quality_flat)).
    pub(crate) quality_flat: usize,
    /// The worst flattened per-round quality
    /// ([`Shuffler::round_qualities_flat`](expander_decomp::Shuffler::round_qualities_flat)),
    /// 2 without rounds.
    pub(crate) round_quality: usize,
}

impl NodeTables {
    /// Lowers internal node `id`'s shuffler and parts to dense ids,
    /// charging the shuffler's construction to `ledger`. Returns the
    /// record, the worst `Q(flat M*)²` over the parts (at least 4) and
    /// the parts' flattened `M*` embeddings, which only the chain walk
    /// reads.
    fn build(
        hier: &Hierarchy,
        id: NodeId,
        params: &ShufflerParams,
        ledger: &mut RoundLedger,
    ) -> (NodeTables, u64, Vec<Embedding>) {
        let graph = hier.graph();
        let nd = hier.node(id);
        let t = nd.part_count();
        let sh = build_shuffler(hier, id, params, ledger);
        let mut part_of = vec![u16::MAX; graph.n()];
        for (pi, p) in nd.parts.iter().enumerate() {
            for &v in &p.all {
                part_of[v as usize] = pi as u16;
            }
        }
        // One flatten batch per node: the shuffler rounds, then the
        // parts' M* embeddings.
        let mut round_embs = hier.flatten_from(
            id,
            sh.rounds
                .iter()
                .map(|r| &r.embedding)
                .chain(nd.parts.iter().map(|p| &p.matching_embedding)),
        );
        let part_embs = round_embs.split_off(sh.rounds.len());
        let mut rounds_flat = Vec::with_capacity(sh.rounds.len());
        let mut round_tables = Vec::with_capacity(sh.rounds.len());
        for (round, flat) in sh.rounds.iter().zip(round_embs) {
            let flat = FlatPaths::from_embedding(graph, &flat);
            round_tables.push(RoundTable::build(round, t, &flat));
            rounds_flat.push(flat);
        }
        let mut worst_mstar = 4u64;
        let mut mstar_flat = Vec::with_capacity(nd.parts.len());
        let mut mstar_edge = vec![u32::MAX; graph.n()];
        for flat in &part_embs {
            let q = flat.quality().max(2) as u64;
            worst_mstar = worst_mstar.max(q * q);
            for (i, &(b, _)) in flat.virtual_edges().iter().enumerate() {
                mstar_edge[b as usize] = i as u32;
            }
            mstar_flat.push(FlatPaths::from_embedding(graph, flat));
        }
        // Best-prefix table for the Task 2 marker rewrite, plus the
        // inverse `rank -> part` lookup so the rewrite reads a u16
        // instead of binary-searching the prefix per token.
        let mut best_prefix = Vec::with_capacity(t + 1);
        best_prefix.push(0u32);
        for p in &nd.parts {
            let last = *best_prefix.last().expect("non-empty");
            best_prefix.push(last + hier.node(p.child).best.len() as u32);
        }
        let mut rank_part = vec![0u16; *best_prefix.last().expect("non-empty") as usize];
        for (j, w) in best_prefix.windows(2).enumerate() {
            rank_part[w[0] as usize..w[1] as usize].fill(j as u16);
        }
        let tables = NodeTables {
            rounds_flat,
            round_tables,
            part_of,
            mstar_flat,
            mstar_edge,
            best_prefix,
            rank_part,
            final_potential: sh.final_potential(),
            quality_flat: sh.quality_flat,
            round_quality: sh.round_qualities_flat.iter().copied().max().unwrap_or(2),
        };
        (tables, worst_mstar, part_embs)
    }
}

/// Configuration for [`Router::preprocess`].
///
/// The staged parallel build reads its worker-thread count from
/// [`HierarchyParams::threads`] (`hierarchy.threads`, falling back to
/// `EXPANDER_BUILD_THREADS` and then `available_parallelism`); the same
/// knob governs hierarchy construction, the per-node shuffler/flatten
/// fan-out, and the delegate-chain walk. Preprocessing output is
/// byte-identical for every thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouterConfig {
    /// Hierarchy construction parameters (Theorem 3.2).
    pub hierarchy: HierarchyParams,
    /// Shuffler construction parameters (Lemma 5.5).
    pub shuffler: ShufflerParams,
}

impl RouterConfig {
    /// A configuration with the given `ε` (preprocessing/query
    /// tradeoff knob of Theorem 1.1) and defaults elsewhere.
    pub fn for_epsilon(epsilon: f64) -> Self {
        RouterConfig {
            hierarchy: HierarchyParams::for_epsilon(epsilon),
            shuffler: ShufflerParams::default(),
        }
    }
}

/// The preprocessed deterministic expander router.
///
/// Built once per graph by [`Router::preprocess`]
/// (`n^{O(ε)} + poly·log^{O(1/ε)} n` charged rounds), then each
/// [`Router::route`] query costs `L·poly(log^{1/ε} n)` charged rounds
/// (Theorem 1.1). See the crate docs for an end-to-end example.
///
/// When the graph mutates, [`Router::repair`] preprocesses the edited
/// graph from scratch. `PartialEq` compares every derived structure
/// exactly, so tests can check that two routers are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    pub(crate) hier: Hierarchy,
    /// Per node: what queries read of it (`None` at leaves).
    pub(crate) tables: Vec<Option<NodeTables>>,
    /// Per graph vertex: its best-node delegate (§1.3, Appendix D).
    pub(crate) delegate: Vec<VertexId>,
    /// Per graph vertex: explicit base-graph path `v -> delegate(v)`
    /// (the `Mroot` leg plus the per-level `M*` legs).
    pub(crate) chain: Vec<Path>,
    /// The chains as one edge-id arena, indexed by vertex.
    pub(crate) chain_flat: FlatPaths,
    /// Dense `vertex -> Mroot matching index` (`u32::MAX` when the
    /// vertex is not an Mroot origin).
    pub(crate) mroot_of: Vec<u32>,
    /// The Mroot embedding as an edge-id arena.
    pub(crate) mroot_flat: FlatPaths,
    /// Per graph vertex: rank within the root best set (`u32::MAX` for
    /// non-best vertices).
    pub(crate) best_rank: Vec<u32>,
    /// Maximum part count over internal nodes (query scratch sizing).
    pub(crate) max_parts: usize,
    pub(crate) cost: CostModel,
    pre_ledger: RoundLedger,
    config: RouterConfig,
}

impl Router {
    /// Preprocesses `graph` (a constant-degree expander): builds the
    /// hierarchy, lowers each internal node's shuffler into the tables
    /// queries read and each leaf's sorting network into its pass cost,
    /// then walks the delegate chains and builds the cost model. The
    /// router keeps neither the shufflers nor the leaf networks.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the graph is disconnected or too small
    /// (`n < 64`).
    pub fn preprocess(graph: &Graph, config: RouterConfig) -> Result<Router, BuildError> {
        if graph.n() < 64 {
            return Err(BuildError::TooSmall { n: graph.n() });
        }
        let hier = Hierarchy::build(graph, config.hierarchy.clone())?;
        Router::from_hierarchy(hier, config.shuffler)
    }

    /// Repairs the router after `edits` mutated its graph: the edits
    /// are applied to a copy of the router's graph snapshot, which is
    /// then preprocessed from scratch, so the result is byte-identical
    /// to [`Router::preprocess`] on the edited graph. On error the
    /// router is left unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::InvalidEdit`] for the first edit that
    /// [`Graph::check_edit`] rejects on the copy edited so far, and
    /// [`BuildError`] if the edited graph is disconnected or otherwise
    /// refused by [`Router::preprocess`].
    pub fn repair(&mut self, edits: &[GraphEdit]) -> Result<(), BuildError> {
        let mut graph = self.graph().clone();
        for &e in edits {
            graph.check_edit(e).map_err(BuildError::InvalidEdit)?;
            graph.apply_edit(e);
        }
        *self = Router::preprocess(&graph, self.config.clone())?;
        Ok(())
    }

    /// Whether `graph` has mutated past the snapshot this router was
    /// derived from — the staleness signal the churn ladder acts on.
    pub fn is_stale(&self, graph: &Graph) -> bool {
        graph.epoch() != self.graph().epoch()
    }

    /// Derives the router from a built hierarchy: everything
    /// [`Router::preprocess`] does after its hierarchy build, so a caller
    /// that builds (or times) the hierarchy itself does not pay for a
    /// second build. The router's hierarchy configuration is
    /// `hier.params()`, so [`Router::repair`] rebuilds with the
    /// parameters the hierarchy was built with.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::TooSmall`] if the graph has fewer than 64
    /// vertices, as [`Router::preprocess`] does.
    pub fn from_hierarchy(hier: Hierarchy, shuffler: ShufflerParams) -> Result<Router, BuildError> {
        let n = hier.graph().n();
        if n < 64 {
            return Err(BuildError::TooSmall { n });
        }
        let config = RouterConfig { hierarchy: hier.params().clone(), shuffler };
        let graph = hier.graph();
        let mut pre_ledger = RoundLedger::new();
        pre_ledger.merge(hier.ledger());

        // Per-node preprocessing (a leaf's network pass cost; an
        // internal node's shuffler, flattening and dense lowering into
        // its `NodeTables`) reads only the immutable hierarchy, so the
        // nodes fan out across the thread budget. Each task charges a
        // private ledger; merging the task ledgers in node order as
        // they come back keeps the preprocessing ledger byte-identical
        // to the sequential build.
        let n_nodes = hier.nodes().len();
        let budget = parallel::ThreadBudget::new(parallel::build_threads(config.hierarchy.threads));
        let prepped = parallel::run_tasks(&budget, n_nodes, |id| {
            let mut ledger = RoundLedger::new();
            let nd = hier.node(id);
            if nd.is_leaf() {
                let pass_cost = EmbeddedNetwork::build(&hier, id).pass_cost(1);
                // §6.4 preprocessing: gather the leaf topology and
                // lay down the routable network.
                ledger.charge(
                    "pre/leaf",
                    cost::diameter_primitive(
                        nd.vertices.len() as u64 + nd.diameter.min(1 << 16) as u64,
                        nd.flat_quality as u64,
                    ) + pass_cost,
                );
                return (ledger, None, pass_cost, 4, Vec::new());
            }
            let (tables, worst_mstar, mstar_embs) =
                NodeTables::build(&hier, id, &config.shuffler, &mut ledger);
            (ledger, Some(tables), 0, worst_mstar, mstar_embs)
        });
        let mut tables = Vec::with_capacity(n_nodes);
        let mut leaf_pass = Vec::with_capacity(n_nodes);
        let mut mstar_sq = Vec::with_capacity(n_nodes);
        // Per node, per part: the flattened `M*` embeddings. Only the
        // chain walk below reads them; they die with this frame.
        let mut mstar_embs = Vec::with_capacity(n_nodes);
        for (ledger, node_tables, pass_cost, worst_mstar, embs) in prepped {
            pre_ledger.merge(&ledger);
            tables.push(node_tables);
            leaf_pass.push(pass_cost);
            mstar_sq.push(worst_mstar);
            mstar_embs.push(embs);
        }
        let max_parts = hier.nodes().iter().map(HierarchyNode::part_count).fold(1, usize::max);

        // Delegates and chains (Appendix D's all-to-best delegation).
        let root = hier.root();
        let root_best = hier.node(root).best.clone();
        let mut best_rank = vec![u32::MAX; graph.n()];
        for (r, &b) in root_best.iter().enumerate() {
            best_rank[b as usize] = r as u32;
        }
        let mut mroot_of = vec![u32::MAX; graph.n()];
        for (i, &(o, _)) in hier.mroot().iter().enumerate() {
            mroot_of[o as usize] = i as u32;
        }
        let mroot_flat = FlatPaths::from_embedding(graph, hier.mroot_embedding());
        // Each vertex's chain walks immutable per-node tables, so the
        // vertices fan out across the thread budget too.
        let mut delegate = vec![u32::MAX; graph.n()];
        let mut chain: Vec<Path> = Vec::with_capacity(graph.n());
        let walked = parallel::run_tasks(&budget, graph.n(), |vi| {
            let v = vi as u32;
            let mut segs: Vec<Path> = Vec::new();
            let mut cur = v;
            if mroot_of[v as usize] != u32::MAX {
                let idx = mroot_of[v as usize] as usize;
                segs.push(hier.mroot_embedding().path(idx).clone());
                cur = hier.mroot()[idx].1;
            }
            let mut node = root;
            while let Some(tab) = &tables[node] {
                let pi = tab.part_of[cur as usize] as usize;
                let child = hier.node(node).parts[pi].child;
                if hier.node(child).vertices.binary_search(&cur).is_err() {
                    // Bad vertex: hop to its good mate.
                    let ei = tab.mstar_edge[cur as usize] as usize;
                    let p = mstar_embs[node][pi].path(ei).clone();
                    let mate = p.target();
                    segs.push(p);
                    cur = mate;
                }
                node = child;
            }
            (cur, concat_paths(v, segs))
        });
        for (v, (dele, path)) in walked.into_iter().enumerate() {
            delegate[v] = dele;
            chain.push(path);
        }
        let chain_flat = FlatPaths::from_paths(graph, chain.iter());
        // Charge the all-to-best preprocessing run (Appendix D): one
        // token per vertex travels its chain.
        pre_ledger.charge(
            "pre/all-to-best",
            cost::route_batched_cd(chain_flat.congestion() as u64, chain_flat.dilation() as u64, 1),
        );

        let cost_model = CostModel::build(&hier, &tables, &leaf_pass, mstar_sq);

        // §6.5 preprocessing recurrences: laying down the routable
        // sorting networks costs `O(log n)·T₂(X, 1)` per internal node
        // (Theorem 5.6's `T_pre_sort`), which dominates the
        // preprocessing alongside the hierarchy/shuffler construction.
        for id in 0..n_nodes {
            if !hier.node(id).is_leaf() {
                pre_ledger
                    .charge("pre/routable-networks", cost_model.c_logn * cost_model.t2_unit[id]);
            }
        }

        Ok(Router {
            hier,
            tables,
            delegate,
            chain,
            chain_flat,
            mroot_of,
            mroot_flat,
            best_rank,
            max_parts,
            cost: cost_model,
            pre_ledger,
            config,
        })
    }

    /// The base graph: the snapshot the hierarchy was built from.
    pub fn graph(&self) -> &Graph {
        self.hier.graph()
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// The tables of internal node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a leaf.
    pub(crate) fn tables(&self, node: NodeId) -> &NodeTables {
        self.tables[node].as_ref().expect("internal node has tables")
    }

    /// Rounds charged during preprocessing (Theorem 1.1's first term).
    pub fn preprocessing_ledger(&self) -> &RoundLedger {
        &self.pre_ledger
    }

    /// The query-time cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The configuration the router was built with.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// The best-node delegate of a vertex (Appendix D).
    pub fn delegate_of(&self, v: VertexId) -> VertexId {
        self.delegate[v as usize]
    }

    /// The explicit base-graph path from `v` to its delegate (the
    /// `Mroot` leg plus the per-level `M*` legs).
    pub fn chain_of(&self, v: VertexId) -> &Path {
        &self.chain[v as usize]
    }

    /// Validates a job's tokens against the graph's vertex range — the
    /// shared precondition of [`Router::route`], [`Router::sort`], and
    /// every engine batch.
    pub(crate) fn validate(&self, job: JobRef<'_>) -> Result<(), InstanceError> {
        match job {
            JobRef::Route(inst) => inst.validate(self.graph().n()),
            JobRef::Sort(inst) => inst.validate(self.graph().n()),
        }
    }

    /// Validates `job` and runs it alone on a fresh scratch: the body of
    /// [`Router::route`] and [`Router::sort`].
    fn run_solo(&self, job: JobRef<'_>) -> Result<JobOutcome, InstanceError> {
        self.validate(job)?;
        Ok(exec::run_single(&mut Scratch::new(self), job))
    }

    /// Answers a Task 1 routing query (Definition 4.1).
    ///
    /// Each call builds a private scratch; batch workloads should go
    /// through [`QueryEngine`](crate::engine::QueryEngine), which pools
    /// scratches and amortizes the shared dispersal work.
    ///
    /// # Example
    ///
    /// ```
    /// use expander_core::{Router, RouterConfig, RoutingInstance};
    /// use expander_graphs::generators;
    ///
    /// let g = generators::random_regular(256, 4, 7).expect("generator");
    /// let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
    /// let outcome = router.route(&RoutingInstance::permutation(256, 42)).expect("valid");
    /// assert!(outcome.fully_delivered());
    /// assert!(outcome.rounds() > 0, "queries charge CONGEST rounds");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error if a token references a vertex outside the
    /// graph.
    pub fn route(&self, inst: &RoutingInstance) -> Result<RoutingOutcome, InstanceError> {
        let out = self.run_solo(JobRef::Route(inst))?;
        Ok(out.into_route().expect("route job yields route outcome"))
    }

    /// Answers an expander-sorting query (Theorem 5.6 /
    /// `ExpanderSorting` of Appendix F).
    ///
    /// Each call builds a private scratch; batch workloads should go
    /// through [`QueryEngine`](crate::engine::QueryEngine), which pools
    /// scratches and amortizes the shared dispersal work.
    ///
    /// # Errors
    ///
    /// Returns an error if a token references a vertex outside the
    /// graph.
    pub fn sort(&self, inst: &SortInstance) -> Result<SortOutcome, InstanceError> {
        let out = self.run_solo(JobRef::Sort(inst))?;
        Ok(out.into_sort().expect("sort job yields sort outcome"))
    }
}

/// Concatenates path segments starting at `start`, asserting
/// continuity.
fn concat_paths(start: VertexId, segs: Vec<Path>) -> Path {
    let mut verts = vec![start];
    for s in segs {
        assert_eq!(
            s.source(),
            *verts.last().expect("non-empty"),
            "chain segments must be contiguous"
        );
        verts.extend_from_slice(&s.vertices()[1..]);
    }
    Path::new(verts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn preprocess_builds_all_structures() {
        let r = router(256, 1);
        let internal: Vec<_> = r.hierarchy().nodes().iter().filter(|nd| !nd.is_leaf()).collect();
        assert!(!internal.is_empty());
        for nd in &internal {
            let tab = r.tables(nd.id);
            assert!(!tab.rounds_flat.is_empty());
            assert_eq!(tab.round_tables.len(), tab.rounds_flat.len());
            assert_eq!(tab.mstar_flat.len(), nd.parts.len());
            assert_eq!(tab.best_prefix.len(), nd.parts.len() + 1);
        }
        for nd in r.hierarchy().nodes() {
            if nd.is_leaf() {
                assert!(r.tables[nd.id].is_none(), "leaf {} keeps tables", nd.id);
                assert!(r.cost_model().leafnet_unit[nd.id] > 0);
            }
        }
        assert!(r.preprocessing_ledger().total() > 0);
    }

    #[test]
    fn delegates_are_best_vertices_with_bounded_fan_in() {
        let r = router(256, 2);
        let root_best = &r.hierarchy().node(r.hierarchy().root()).best;
        let mut fan_in = std::collections::HashMap::new();
        for v in 0..256u32 {
            let d = r.delegate_of(v);
            assert!(root_best.binary_search(&d).is_ok(), "delegate {d} not best");
            *fan_in.entry(d).or_insert(0usize) += 1;
        }
        let max_fan = *fan_in.values().max().expect("non-empty");
        let rho = r.hierarchy().rho_best().ceil() as usize;
        assert!(max_fan <= 4 * rho.max(1) + 2, "fan-in {max_fan} vs rho {rho}");
    }

    #[test]
    fn chains_connect_vertex_to_delegate() {
        let r = router(256, 3);
        for v in 0..256u32 {
            let c = r.chain_of(v);
            assert_eq!(c.source(), v);
            assert_eq!(c.target(), r.delegate_of(v));
            assert!(c.is_valid_in(r.graph()) || c.hops() == 0, "chain invalid for {v}");
        }
    }

    #[test]
    fn best_prefix_sums_match_best_counts() {
        let r = router(256, 4);
        for nd in r.hierarchy().nodes() {
            if nd.is_leaf() {
                continue;
            }
            let tab = r.tables(nd.id);
            let prefix = &tab.best_prefix;
            assert_eq!(
                *prefix.last().expect("non-empty") as usize,
                nd.best.len(),
                "prefix total mismatches best count"
            );
            assert_eq!(tab.rank_part.len(), nd.best.len());
        }
    }

    /// The round-table builder before it grouped the matched pairs: per
    /// ordered part pair with positive mass, a rescan of the round's
    /// whole matching.
    fn rescanned_round_table(round: &ShufflerRound, t: usize, flat: &FlatPaths) -> RoundTable {
        let mut table = RoundTable::default();
        for i in 0..t {
            table.row_start.push(table.entries.len() as u32);
            let mut half_max = 0.0f64;
            for j in 0..t {
                if j == i || round.fractional[i][j] <= 0.0 {
                    continue;
                }
                let lo = table.edge_refs.len() as u32;
                for (ei, &(a, b)) in round.endpoint_parts.iter().enumerate() {
                    if (a == i && b == j) || (a == j && b == i) {
                        table.edge_refs.push(((ei as u32) << 1) | u32::from(a != i));
                        table.ref_target.push(if a != i {
                            flat.source(ei)
                        } else {
                            flat.target(ei)
                        });
                    }
                }
                let hi = table.edge_refs.len() as u32;
                half_max = half_max.max(round.fractional[i][j] / 2.0);
                table.entries.push(RoundEntry { m_ij: round.fractional[i][j], lo, hi });
            }
            table.row_min_len.push(min_len_for_half(half_max));
        }
        table.row_start.push(table.entries.len() as u32);
        table.min_move_len = table.row_min_len.iter().copied().min().unwrap_or(u32::MAX);
        table
    }

    #[test]
    fn tables_keep_what_queries_read_of_the_shuffler() {
        // ε = 0.12 gives a depth-3 hierarchy at n = 512.
        for (n, eps) in [(512, 0.12), (1024, 0.4)] {
            let g = generators::random_regular(n, 4, 1).expect("generator");
            let r = Router::preprocess(&g, RouterConfig::for_epsilon(eps)).expect("router");
            check_tables_against_shufflers(&r);
        }
    }

    /// Rebuilds every internal node's shuffler and checks what the
    /// router kept of it, each round table against the rescanning
    /// builder included.
    fn check_tables_against_shufflers(r: &Router) {
        let mut internal = 0;
        for nd in r.hierarchy().nodes() {
            let Some(tab) = &r.tables[nd.id] else { continue };
            internal += 1;
            let mut ledger = RoundLedger::new();
            let sh = build_shuffler(r.hierarchy(), nd.id, &r.config().shuffler, &mut ledger);
            assert_eq!(tab.round_tables.len(), sh.len(), "node {}: λ", nd.id);
            assert_eq!(tab.rounds_flat.len(), sh.len(), "node {}: flat rounds", nd.id);
            for (q, round) in sh.rounds.iter().enumerate() {
                assert_eq!(
                    tab.round_tables[q],
                    rescanned_round_table(round, nd.part_count(), &tab.rounds_flat[q]),
                    "node {}: round {q}'s table",
                    nd.id
                );
            }
            assert_eq!(
                tab.final_potential.to_bits(),
                sh.final_potential().to_bits(),
                "node {}: Π(λ)",
                nd.id
            );
            assert_eq!(tab.quality_flat, sh.quality_flat, "node {}: union quality", nd.id);
            assert_eq!(
                tab.round_quality,
                sh.round_qualities_flat.iter().copied().max().unwrap_or(2),
                "node {}: worst round quality",
                nd.id
            );
        }
        assert!(internal > 0);
    }

    #[test]
    fn cost_model_units_are_positive_and_monotone() {
        let r = router(256, 5);
        let root = r.hierarchy().root();
        assert!(r.cost_model().t2_unit[root] > 0);
        assert!(r.cost_model().t3_unit[root] > 0);
        assert!(r.cost_model().tsort_unit[root] > 0);
        // Root units dominate child units (costs accumulate upward).
        for p in &r.hierarchy().node(root).parts {
            assert!(r.cost_model().t2_unit[root] >= r.cost_model().t2_unit[p.child]);
        }
    }

    #[test]
    fn rejects_small_graphs() {
        let g = generators::ring(32);
        assert!(Router::preprocess(&g, RouterConfig::default()).is_err());
    }

    #[test]
    fn from_hierarchy_equals_preprocess() {
        let g = generators::random_regular(512, 4, 11).expect("generator");
        let config = RouterConfig::for_epsilon(0.4);
        let hier = Hierarchy::build(&g, config.hierarchy.clone()).expect("hierarchy");
        let derived = Router::from_hierarchy(hier, config.shuffler.clone()).expect("router");
        assert_eq!(derived, Router::preprocess(&g, config).expect("router"));

        let small = generators::random_regular(32, 4, 1).expect("generator");
        let hier = Hierarchy::build(&small, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
        assert_eq!(
            Router::from_hierarchy(hier, ShufflerParams::default()),
            Err(BuildError::TooSmall { n: 32 })
        );
    }

    #[test]
    fn rejects_out_of_range_tokens() {
        let r = router(128, 6);
        let inst = RoutingInstance::from_triples(&[(0, 9999, 0)]);
        assert!(r.route(&inst).is_err());
    }

    #[test]
    fn repair_matches_fresh_preprocess() {
        let g = generators::random_regular(1024, 4, 13).expect("generator");
        let config = RouterConfig::for_epsilon(0.33);
        let mut r = Router::preprocess(&g, config.clone()).expect("router");
        let (u, v) = g.edges().next().expect("edge");
        let edits = [GraphEdit::RemoveEdge(u, v)];
        r.repair(&edits).expect("repair");

        let mut g2 = g.clone();
        for &e in &edits {
            g2.apply_edit(e);
        }
        let fresh = Router::preprocess(&g2, config).expect("fresh router");
        assert_eq!(r, fresh, "repaired router must be byte-identical to a fresh preprocess");
        assert!(r.is_stale(&g), "pre-edit graph is behind the repaired router");
        assert!(!r.is_stale(&g2), "post-edit graph matches the repaired router");
    }

    #[test]
    fn repair_error_leaves_router_unchanged() {
        let g = generators::random_regular(256, 4, 23).expect("generator");
        let mut r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
        let snapshot = r.clone();
        // Cutting vertex 0 free disconnects the graph.
        let cut: Vec<GraphEdit> =
            g.neighbors(0).iter().map(|&v| GraphEdit::RemoveEdge(0, v)).collect();
        assert!(r.repair(&cut).is_err());
        assert_eq!(r, snapshot, "failed repair must not corrupt the router");
    }

    #[test]
    fn repair_rejects_invalid_edits_and_leaves_router_unchanged() {
        let mut r = router(64, 24);
        let snapshot = r.clone();
        for bad in [GraphEdit::InsertEdge(0, 64), GraphEdit::InsertEdge(3, 3)] {
            assert_eq!(r.repair(&[bad]), Err(BuildError::InvalidEdit(bad)));
            assert_eq!(r, snapshot, "rejected edit {bad} must not touch the router");
        }
        // The check runs on the edited copy: vertex 64 exists once the
        // batch has inserted it, vertex 65 never does.
        let late =
            [GraphEdit::InsertVertex, GraphEdit::InsertEdge(64, 0), GraphEdit::InsertEdge(64, 65)];
        assert_eq!(r.repair(&late), Err(BuildError::InvalidEdit(late[2])));
        assert_eq!(r, snapshot);
    }
}
