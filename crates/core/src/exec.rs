//! Physical query execution: Task 2 / Task 3, shuffler dispersal,
//! meet-in-the-middle merging, and the leaf case.
//!
//! Token positions are simulated exactly: every movement follows an
//! explicit precomputed embedded path (shuffler matchings, `M*`
//! matchings, `Mroot`, delegate chains) and charges its measured
//! `congestion × dilation` (Fact 2.2). The expander-sort subcalls the
//! paper makes *inside* Task 3 (portal routing §6.2, merge §6.3) are
//! charged through the [`CostModel`](crate::cost_model::CostModel)
//! units and their net effect (balanced portal placement, real/dummy
//! pairing) is applied directly; the meet-in-the-middle correctness
//! argument is §6.2–§6.3's. The one movement charged by a proven bound
//! instead of a measurement is the merge fallback's shortest-path legs
//! (substitution 6 in `docs/ARCHITECTURE.md`): each merge charges
//! `legs × 2·D̂`, `D̂` being the root node's eccentricity estimate.
//!
//! The hot path runs entirely on dense integer ids: paths are walked
//! through [`FlatPaths`] edge-id arenas, congestion is accumulated in
//! [`FlatMoveCost`]'s flat vectors, and token grouping uses counting
//! sort over `part · t + mark` keys — all backed by a per-query
//! scratch (`Scratch`) so the steady-state dispersal round loop
//! performs no heap allocation and iterates in deterministic order.
//!
//! Every query runs alone through one pipeline, `run_single`: a solo
//! [`Router::route`]/[`Router::sort`] call on a fresh scratch, and each
//! job of an engine batch or a service stream on a pooled one. A
//! scratch borrows the router it serves for its whole life and is sized
//! for it once, when built, so a job reads and writes only that router
//! and its scratch. The pooled scratch carries one accelerator, the
//! dummy-dispersal cache, so an outcome never depends on which scratch
//! served it (`tests/batch_determinism`, `tests/property`).
//!
//! # Paper map
//!
//! | Paper concept | Here |
//! |---------------|------|
//! | Task 2 recursion (Definition 4.2) | `task2` |
//! | §6.4 leaf delivery (three `I_AKS` passes) | leaf arm of the same |
//! | Task 3 meet-in-the-middle (Definition 4.3, §6.3) | `task3` |
//! | Lazy-walk dispersal (§6.1, Definition 6.1) | `disperse` |
//! | Dispersion envelope (Lemma 6.2) | the `check` epilogue of the same |
//! | Per-round max-load trace (Lemma 6.6) | `QueryStats::max_load_trace` upkeep |
//! | Portal routing charges (§6.2) | the per-round portal charge in `disperse` |
//! | Real/dummy pairing and escort-back (§6.3) | `merge`, `DummyEntry` |

use crate::engine::{JobOutcome, JobRef};
use crate::router::{RoundEntry, RoundTable, Router};
use crate::token::{QueryStats, RoutingInstance, RoutingOutcome, SortInstance, SortOutcome};
use congest_sim::RoundLedger;
use expander_decomp::{HierarchyNode, NodeId};
use expander_graphs::{FlatPaths, Graph};

/// Dense movement cost accumulator over a graph's canonical edge-id
/// space (see [`Graph::edge_id`]).
///
/// Load lives in a reusable `Vec<u32>` indexed by edge id — the
/// accumulator is reset per movement leg, and a single leg's per-edge
/// load is bounded by the leg's total token-hops (far below `2³²` for
/// any supported instance; debug builds assert it). Halving the cell
/// width halves the hot-path bandwidth of every congestion scan. A
/// touched list makes [`reset`](FlatMoveCost::reset) cost `O(touched)`
/// rather than `O(m)`, so one accumulator serves every dispersal round
/// of a query without reallocation. Produces exactly the same
/// `max load × max hops` value as a hash-map reference keyed by vertex
/// pairs (`tests/property.rs`; `tests/overflow_bounds.rs` checks
/// agreement near the bound).
#[derive(Debug, Clone, Default)]
pub struct FlatMoveCost {
    edge_load: Vec<u32>,
    touched: Vec<u32>,
    max_hops: u64,
}

impl FlatMoveCost {
    /// An empty accumulator over `edge_space` edge ids.
    pub fn new(edge_space: usize) -> Self {
        FlatMoveCost { edge_load: vec![0; edge_space], touched: Vec::new(), max_hops: 0 }
    }

    /// Clears all accumulated load in `O(touched)`.
    pub fn reset(&mut self) {
        for &e in &self.touched {
            self.edge_load[e as usize] = 0;
        }
        self.touched.clear();
        self.max_hops = 0;
    }

    /// Charges `times` traversals of the edge-id sequence `ids`
    /// (one path of `ids.len()` hops).
    ///
    /// Per-edge loads saturate at `u32::MAX` (debug builds assert the
    /// bound is never reached; a single reset-delimited leg would need
    /// over four billion traversals of one edge to hit it).
    pub fn add_edge_ids(&mut self, ids: &[u32], times: u64) {
        if ids.is_empty() || times == 0 {
            return;
        }
        let times = u32::try_from(times).unwrap_or(u32::MAX);
        for &e in ids {
            if self.edge_load[e as usize] == 0 {
                self.touched.push(e);
            }
            let load = self.edge_load[e as usize].saturating_add(times);
            debug_assert!(load < u32::MAX, "edge load overflows the u32 accumulator");
            self.edge_load[e as usize] = load;
        }
        self.max_hops = self.max_hops.max(ids.len() as u64);
    }

    /// Charges `times` traversals of path `i` of `paths`.
    pub fn add_flat(&mut self, paths: &FlatPaths, i: usize, times: u64) {
        self.add_edge_ids(paths.edge_ids(i), times);
    }

    /// Charges `times` traversals of an explicit vertex walk (a path
    /// given as its vertex sequence), resolving edge ids through `g`.
    /// The query path charges edge-id walks through
    /// [`add_edge_ids`](Self::add_edge_ids); this form serves the
    /// tests, which hold their paths as vertex sequences.
    ///
    /// # Panics
    ///
    /// Panics if some hop of the walk is not an edge of `g`.
    pub fn add_walk(&mut self, g: &Graph, verts: &[u32], times: u64) {
        if verts.len() < 2 || times == 0 {
            return;
        }
        let times = u32::try_from(times).unwrap_or(u32::MAX);
        for w in verts.windows(2) {
            let e = g.edge_id(w[0], w[1]).expect("path hop outside the graph");
            if self.edge_load[e as usize] == 0 {
                self.touched.push(e);
            }
            let load = self.edge_load[e as usize].saturating_add(times);
            debug_assert!(load < u32::MAX, "edge load overflows the u32 accumulator");
            self.edge_load[e as usize] = load;
        }
        self.max_hops = self.max_hops.max((verts.len() - 1) as u64);
    }

    /// The maximum per-edge load accumulated since the last reset.
    pub fn congestion(&self) -> u64 {
        u64::from(self.touched.iter().map(|&e| self.edge_load[e as usize]).max().unwrap_or(0))
    }

    /// The maximum hop count of any charged path since the last reset.
    pub fn dilation(&self) -> u64 {
        self.max_hops
    }

    /// The accumulated `congestion × dilation` bound.
    pub fn cost(&self) -> u64 {
        self.congestion() * self.max_hops
    }
}

/// Folds an accumulator's observed congestion/dilation maxima into the
/// query stats and returns its `congestion × dilation` cost — one
/// congestion scan serves both (called after each measured movement
/// leg).
fn observe_mc(stats: &mut QueryStats, mc: &FlatMoveCost) -> u64 {
    let congestion = mc.congestion();
    let dilation = mc.dilation();
    stats.max_congestion = stats.max_congestion.max(congestion);
    stats.max_dilation = stats.max_dilation.max(dilation);
    congestion * dilation
}

/// Counting-sort buckets over dense keys: stable within a key, keys
/// iterated in increasing order — the deterministic replacement for the
/// per-round `HashMap<(part, mark), Vec<_>>` builds.
#[derive(Debug, Default)]
pub(crate) struct DenseGroups {
    keys: Vec<u32>,
    start: Vec<u32>,
    cursor: Vec<u32>,
    items: Vec<u32>,
}

impl DenseGroups {
    /// Rebuilds the buckets from one key per item; reuses capacity, so
    /// steady-state rebuilds allocate nothing.
    pub(crate) fn build(&mut self, n_keys: usize, item_keys: impl Iterator<Item = u32>) {
        self.keys.clear();
        self.keys.extend(item_keys);
        self.start.clear();
        self.start.resize(n_keys + 1, 0);
        for &k in &self.keys {
            self.start[k as usize + 1] += 1;
        }
        for i in 0..n_keys {
            self.start[i + 1] += self.start[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..n_keys]);
        self.items.clear();
        self.items.resize(self.keys.len(), 0);
        for (idx, &k) in self.keys.iter().enumerate() {
            let slot = &mut self.cursor[k as usize];
            self.items[*slot as usize] = idx as u32;
            *slot += 1;
        }
    }

    /// Item indices carrying `key`, in insertion order.
    pub(crate) fn group(&self, key: usize) -> &[u32] {
        &self.items[self.start[key] as usize..self.start[key + 1] as usize]
    }

    /// The bucket offset of `key` (`start_of(n_keys)` is the total item
    /// count) — contiguous partition boundaries without rescanning keys.
    fn start_of(&self, key: usize) -> u32 {
        self.start[key]
    }
}

/// One cached dummy-flock dispersal: everything `task3` derives from a
/// `(node, load)` pair independently of the real tokens.
///
/// The dummy flock (2L tokens per vertex of the node, marked with
/// their home part) is a pure function of the node and the observed
/// load `L` — its dispersal trajectory, the final `(part, mark)`
/// grouping the merge consumes, the per-vertex landing loads, and
/// every round charge are identical on every query. A batch of queries
/// against one router therefore pays the dummy dispersal once per
/// `(node, load)` instead of once per query; replaying the recorded
/// charges keeps outcomes byte-identical to the uncached execution.
#[derive(Debug)]
struct DummyEntry {
    /// Birth vertices of the dummies (the escort-back targets), laid
    /// out contiguously by final `part · t + mark` key: group `key`
    /// owns `origin_by_rank[group_start[key]..group_start[key + 1]]`,
    /// in dummy-index order within the group. The merge pairs real
    /// token `k` of a bucket with `origin_by_rank[start + k]` — one
    /// sequential streamed read instead of a double indirection
    /// through per-group index lists.
    origin_by_rank: Vec<u32>,
    /// Group boundaries into `origin_by_rank` (`t² + 1` entries).
    group_start: Vec<u32>,
    /// `(vertex, dummy count)` landing loads, ascending by vertex.
    /// Counts are per-vertex flock loads — far below `2³²`.
    loads: Vec<(u32, u32)>,
    /// The dispersal's returned movement cost (charged again for the
    /// escort-back trip).
    cost: u64,
    /// Round charges made while dispersing (portal + disperse phases).
    ledger: RoundLedger,
    /// Expander-sort subcalls charged while dispersing.
    charged_sorts: u64,
    /// Congestion/dilation maxima observed while dispersing.
    max_congestion: u64,
    max_dilation: u64,
    /// Per-round max-load trace contribution (Lemma 6.6 quantity).
    trace: Vec<u32>,
}

impl DummyEntry {
    /// The number of dummy tokens the entry summarizes.
    fn len(&self) -> usize {
        self.origin_by_rank.len()
    }

    /// The escort-back origins of group `key`, in dummy order.
    fn group(&self, key: usize) -> &[u32] {
        &self.origin_by_rank[self.group_start[key] as usize..self.group_start[key + 1] as usize]
    }
}

/// Per-worker cache of [`DummyEntry`]s keyed `(node, load)`.
///
/// Purely an accelerator: entries are deterministic functions of the
/// router, so hit/miss patterns (batch order, thread count, pool
/// reuse) cannot change any query's output.
#[derive(Debug, Default)]
struct DummyCache {
    /// Entries per node, linearly probed by load key.
    nodes: Vec<Vec<(u64, DummyEntry)>>,
    /// Lookups served from the cache since it was created (read by the
    /// pool tests only).
    #[cfg(test)]
    hits: u64,
}

/// Cached dummy dispersals kept per node before the oldest is evicted
/// (distinct observed loads per node are few in practice).
const DUMMY_CACHE_WAYS: usize = 8;

/// Per-node cached-token budget, in multiples of the node's `L = 1`
/// dummy flock (`2·|X|` tokens): entries are O(L·|X|) each, so the
/// count cap alone would let a long-lived engine observing varied
/// loads retain unbounded bytes. Oldest entries evict until the new
/// entry fits (it is always admitted).
const DUMMY_CACHE_TOKEN_BUDGET: u64 = 32;

impl DummyCache {
    /// An empty cache over `n_nodes` hierarchy nodes.
    fn new(n_nodes: usize) -> DummyCache {
        let mut cache = DummyCache::default();
        cache.nodes.resize_with(n_nodes, Vec::new);
        cache
    }

    fn take(&mut self, node: NodeId, l: u64) -> Option<DummyEntry> {
        let slot = &mut self.nodes[node];
        let i = slot.iter().position(|&(key, _)| key == l)?;
        #[cfg(test)]
        {
            self.hits += 1;
        }
        // Order-preserving removal: the slot stays sorted oldest-first
        // so `put`'s front eviction really discards the oldest entry
        // (a take/put round trip refreshes the entry to newest).
        Some(slot.remove(i).1)
    }

    fn put(&mut self, node: NodeId, l: u64, entry: DummyEntry) {
        let slot = &mut self.nodes[node];
        // Byte-ish bound: entry tokens = 2·l·|X|, so the base flock is
        // `len / l` tokens and the budget is a fixed multiple of it.
        let len = entry.len() as u64;
        // Budget scales with the node's base flock but always leaves
        // room for twice the incoming entry, so one oversized (high-L)
        // entry cannot drain the node's smaller cached loads.
        let budget = ((len / l.max(1)).max(1) * DUMMY_CACHE_TOKEN_BUDGET).max(2 * len);
        let mut total: u64 = slot.iter().map(|(_, e)| e.len() as u64).sum();
        while !slot.is_empty() && (slot.len() >= DUMMY_CACHE_WAYS || total + len > budget) {
            total -= slot.remove(0).1.len() as u64;
        }
        slot.push((l, entry));
    }
}

/// Reusable query buffers over one router, shared across every
/// `disperse`/`merge`/`task2` round of a query and — through the
/// engine's scratch pool — across the queries of a batch: dense
/// per-vertex load counters, counting-sort group buckets, per-part load
/// vectors, the flat movement-cost accumulator, the flock position
/// arrays, and the cross-query dummy-dispersal cache.
///
/// The scratch borrows the router it serves for its whole life, so its
/// buffers are sized once, when it is built, and its dummy cache can
/// never outlive the router it describes: a [`Router::repair`] takes
/// the router mutably and so cannot run while one of its scratches
/// lives.
#[derive(Debug)]
pub(crate) struct Scratch<'r> {
    /// The router every job on this scratch runs against.
    r: &'r Router,
    /// Dense per-vertex token counts plus the touched list that resets
    /// them in `O(touched)`. `u32` cells: a vertex's count is bounded
    /// by the flock size (≤ instance tokens + dummy tokens), far below
    /// `2³²`; debug builds assert the bound.
    vertex_load: Vec<u32>,
    vertex_touched: Vec<u32>,
    /// Per-part observed load, sized to the widest node (`u32` for the
    /// same bound as `vertex_load`: part loads are vertex-load maxima,
    /// possibly combined real + dummy).
    part_load: Vec<u32>,
    /// Token groups keyed `part · t + mark` (reals / leaf targets).
    groups: DenseGroups,
    /// Movement-cost accumulator of the walked legs.
    mc: FlatMoveCost,
    /// Round-robin fallback cursors per part, each kept below its
    /// part's vertex count.
    fallback_rr: Vec<usize>,
    /// Partition staging buffer for the Task 2 worklist.
    toks_tmp: Vec<usize>,
    /// Stack of child slice bounds for the Task 2 recursion: each
    /// internal node pushes its partition's `t + 1` offsets, recurses
    /// into the children, and pops them again.
    child_bounds: Vec<u32>,
    /// Per mark: its token total, then its Lemma 6.2 envelope bound.
    env_bound: Vec<f64>,
    /// Cached dummy dispersals, reused across the queries of a batch.
    dummies: DummyCache,
    /// The query's incremental dispersal state.
    job_state: DisperseState,
    /// Dedicated incremental state for dummy-flock builds (the query's
    /// state is checked out by the caller while a build runs).
    dummy_state: DisperseState,
}

impl<'r> Scratch<'r> {
    /// A scratch sized for `r`.
    pub(crate) fn new(r: &'r Router) -> Scratch<'r> {
        Scratch {
            r,
            vertex_load: vec![0; r.graph().n()],
            vertex_touched: Vec::new(),
            part_load: vec![0; r.max_parts],
            groups: DenseGroups::default(),
            mc: FlatMoveCost::new(r.graph().edge_id_count()),
            fallback_rr: vec![0; r.max_parts],
            toks_tmp: Vec::new(),
            child_bounds: Vec::new(),
            env_bound: Vec::new(),
            dummies: DummyCache::new(r.hier.nodes().len()),
            job_state: DisperseState::default(),
            dummy_state: DisperseState::default(),
        }
    }

    /// Estimated heap bytes this scratch retains (dense buffers, the
    /// dummy cache and the dispersal states) — the scratch pool drops a
    /// returning scratch whose footprint exceeds the engine's cap.
    pub(crate) fn footprint_bytes(&self) -> usize {
        let mut b = (self.vertex_load.capacity()
            + self.vertex_touched.capacity()
            + self.part_load.capacity()
            + self.groups.keys.capacity()
            + self.groups.start.capacity()
            + self.groups.cursor.capacity()
            + self.groups.items.capacity()
            + self.mc.edge_load.capacity()
            + self.mc.touched.capacity()
            + self.child_bounds.capacity())
            * 4
            + (self.fallback_rr.capacity() + self.toks_tmp.capacity() + self.env_bound.capacity())
                * 8
            + self.job_state.approx_bytes()
            + self.dummy_state.approx_bytes();
        for node in &self.dummies.nodes {
            for (_, e) in node {
                b += (e.origin_by_rank.capacity() + e.group_start.capacity() + e.trace.capacity())
                    * 4
                    + e.loads.capacity() * 8;
            }
        }
        b
    }

    /// Counts one token at vertex `v`.
    fn bump_vertex(&mut self, v: u32) {
        if self.vertex_load[v as usize] == 0 {
            self.vertex_touched.push(v);
        }
        debug_assert!(self.vertex_load[v as usize] < u32::MAX, "vertex load overflows u32");
        self.vertex_load[v as usize] += 1;
    }

    /// Maximum per-vertex count since the last reset.
    fn max_vertex_load(&self) -> u64 {
        u64::from(
            self.vertex_touched.iter().map(|&v| self.vertex_load[v as usize]).max().unwrap_or(0),
        )
    }

    /// Clears the per-vertex counts in `O(touched)`.
    fn reset_vertices(&mut self) {
        for &v in &self.vertex_touched {
            self.vertex_load[v as usize] = 0;
        }
        self.vertex_touched.clear();
    }
}

/// Per-query execution state over a preprocessed [`Router`]: the
/// job's token positions and markers plus the ledger and stats it
/// charges into. The shared mutable buffers live in a caller-provided
/// (possibly pooled) [`Scratch`] passed into each method.
struct Exec<'r> {
    r: &'r Router,
    ledger: RoundLedger,
    stats: QueryStats,
    pos: Vec<u32>,
    marker: Vec<u32>,
    /// Per-token current part mark within the active Task 2 node.
    mark_of: Vec<u16>,
    /// The §6.4 leaf passes' rounds summed over the job's leaves,
    /// charged to `query/task2/leaf` once Task 2 returns: each leaf's
    /// charge is positive, so the sum leaves the ledger byte-identical
    /// to one charge per leaf.
    leaf_rounds: u64,
}

impl<'r> Exec<'r> {
    fn new(r: &'r Router) -> Self {
        Exec {
            r,
            ledger: RoundLedger::new(),
            stats: QueryStats::default(),
            pos: Vec::new(),
            marker: Vec::new(),
            mark_of: Vec::new(),
            leaf_rounds: 0,
        }
    }

    /// Everything of a route job before Task 2: the translate charge,
    /// the `Mroot` ingress, and the marker assignment. Returns the Task
    /// 2 worklist, or `None` for an empty instance (job already done).
    fn route_prologue(
        &mut self,
        scratch: &mut Scratch<'_>,
        inst: &RoutingInstance,
    ) -> Option<Vec<usize>> {
        let root = self.r.hier.root();
        self.pos = inst.tokens.iter().map(|t| t.src).collect();
        if inst.tokens.is_empty() {
            return None;
        }
        // L: max per-vertex source/destination count, computed through
        // the scratch's dense counters — same value as
        // [`RoutingInstance::load`], no per-job allocation.
        let mut load = 0u64;
        for t in &inst.tokens {
            scratch.bump_vertex(t.src);
        }
        load = load.max(scratch.max_vertex_load());
        scratch.reset_vertices();
        for t in &inst.tokens {
            scratch.bump_vertex(t.dst);
        }
        load = load.max(scratch.max_vertex_load());
        scratch.reset_vertices();
        let load = load.max(1);

        // Appendix D: translate destination IDs to ranks with one
        // charged expander sort (IDs are dense here, so the effect is
        // the identity).
        self.ledger.charge("query/translate", self.r.cost.tsort(root, load));

        // Ingress: tokens starting outside W hop in along Mroot.
        scratch.mc.reset();
        for i in 0..self.pos.len() {
            let idx = self.r.mroot_of[self.pos[i] as usize];
            if idx != u32::MAX {
                scratch.mc.add_flat(&self.r.mroot_flat, idx as usize, 1);
                self.pos[i] = self.r.mroot_flat.target(idx as usize);
            }
        }
        let ingress_cost = observe_mc(&mut self.stats, &scratch.mc);
        self.ledger.charge("query/ingress", ingress_cost);

        // Markers: rank of the destination's delegate in the root best
        // set.
        self.marker = inst
            .tokens
            .iter()
            .map(|t| self.r.best_rank[self.r.delegate[t.dst as usize] as usize])
            .collect();
        debug_assert!(self.marker.iter().all(|&m| m != u32::MAX));

        self.mark_of.resize(inst.tokens.len(), 0);
        Some((0..inst.tokens.len()).collect())
    }

    /// Everything of a route job after Task 2: the chain egress and the
    /// outcome assembly.
    fn route_epilogue(
        mut self,
        scratch: &mut Scratch<'_>,
        inst: &RoutingInstance,
    ) -> RoutingOutcome {
        let destinations: Vec<u32> = inst.tokens.iter().map(|t| t.dst).collect();
        if inst.tokens.is_empty() {
            return RoutingOutcome {
                positions: Vec::new(),
                destinations,
                undeliverable: Vec::new(),
                edge_loads: Vec::new(),
                ledger: self.ledger,
                stats: self.stats,
            };
        }
        // Sanity: every token now sits at its destination's delegate.
        for (i, t) in inst.tokens.iter().enumerate() {
            debug_assert_eq!(
                self.pos[i], self.r.delegate[t.dst as usize],
                "token {i} missed its delegate"
            );
        }

        // Egress: reversed delegate chains deliver to the final
        // destinations (the precomputed all-to-best routes, reversed).
        scratch.mc.reset();
        for (i, t) in inst.tokens.iter().enumerate() {
            scratch.mc.add_flat(&self.r.chain_flat, t.dst as usize, 1);
            self.pos[i] = t.dst;
        }
        let delivery_cost = observe_mc(&mut self.stats, &scratch.mc);
        self.ledger.charge("query/delivery", delivery_cost);

        RoutingOutcome {
            positions: self.pos,
            destinations,
            undeliverable: Vec::new(),
            edge_loads: Vec::new(),
            ledger: self.ledger,
            stats: self.stats,
        }
    }

    /// Everything of a sort job before Task 2: the chain leg into
    /// `X_best`, the charged network pass, and the owner/marker
    /// assignment. Returns the Task 2 worklist plus each token's final
    /// owner vertex, or `None` for an empty instance.
    fn sort_prologue(
        &mut self,
        scratch: &mut Scratch<'_>,
        inst: &SortInstance,
    ) -> Option<(Vec<usize>, Vec<u32>)> {
        let n = self.r.graph().n();
        let hier = &self.r.hier;
        let root = hier.root();
        if inst.tokens.is_empty() {
            return None;
        }
        let total = inst.tokens.len();
        self.pos = inst.tokens.iter().map(|t| t.src).collect();

        // Step 1: forward chains into X_best (load-balanced by the
        // bounded delegate fan-in).
        scratch.mc.reset();
        for (i, t) in inst.tokens.iter().enumerate() {
            scratch.mc.add_flat(&self.r.chain_flat, t.src as usize, 1);
            self.pos[i] = self.r.delegate[t.src as usize];
        }
        let to_best_cost = observe_mc(&mut self.stats, &scratch.mc);
        self.ledger.charge("query/sort/to-best", to_best_cost);

        // Step 2: the precomputed routable network over X_best
        // (§6.4 / Theorem 5.6 proof). Effect: a stable global sort
        // laid out across the best vertices; charge: per layer,
        // 2·cap tokens per comparator at the network's quality.
        let best = &hier.node(root).best;
        let b = best.len().max(1);
        let cap = total.div_ceil(b) as u64;
        let layers = crate::network::odd_even_depth(b.max(2)) as u64;
        let q_net = hier
            .node(root)
            .flat_quality
            .max(self.r.tables[root].as_ref().map_or(2, |tab| tab.quality_flat))
            as u64;
        self.ledger.charge("query/sort/network", layers * 2 * cap * q_net * q_net);
        let mut order: Vec<usize> = (0..total).collect();
        order.sort_by_key(|&i| (inst.tokens[i].key, i));
        for (rank, &i) in order.iter().enumerate() {
            self.pos[i] = best[rank / cap as usize];
        }

        // Step 3 markers: route each token to its final owner (rank r
        // goes to the vertex of rank ⌊r/L_out⌋), a Task 2 instance plus
        // chain egress — this is what makes the result order-preserving.
        let l_out = total.div_ceil(n).max(1);
        let owner: Vec<u32> = {
            let mut o = vec![0u32; total];
            for (rank, &i) in order.iter().enumerate() {
                o[i] = (rank / l_out) as u32;
            }
            o
        };
        self.marker =
            owner.iter().map(|&w| self.r.best_rank[self.r.delegate[w as usize] as usize]).collect();
        self.mark_of.resize(total, 0);
        Some(((0..total).collect(), owner))
    }

    /// Everything of a sort job after Task 2: the chain egress to the
    /// owner vertices and the outcome assembly.
    fn sort_epilogue(mut self, scratch: &mut Scratch<'_>, owner: &[u32]) -> SortOutcome {
        scratch.mc.reset();
        for (i, &w) in owner.iter().enumerate() {
            scratch.mc.add_flat(&self.r.chain_flat, w as usize, 1);
            self.pos[i] = w;
        }
        let delivery_cost = observe_mc(&mut self.stats, &scratch.mc);
        self.ledger.charge("query/sort/delivery", delivery_cost);

        SortOutcome { positions: self.pos, ledger: self.ledger, stats: self.stats }
    }

    /// Replays a cached dummy dispersal's charges into this query's
    /// ledger and stats — byte-identical to having dispersed inline.
    fn apply_dummy_entry(&mut self, entry: &DummyEntry) {
        self.ledger.merge(&entry.ledger);
        self.stats.charged_sorts += entry.charged_sorts;
        self.stats.max_congestion = self.stats.max_congestion.max(entry.max_congestion);
        self.stats.max_dilation = self.stats.max_dilation.max(entry.max_dilation);
        self.stats.absorb_trace_maxima(&entry.trace);
    }
}

/// Constructs and disperses the `(node, l)` dummy flock, capturing its
/// charges and stats into a cacheable [`DummyEntry`] instead of a
/// query (the caller applies entries uniformly on hit and miss alike).
/// The flock runs on the incremental dispersal state reserved for
/// builds (the query's state is checked out by the caller while a
/// build runs), so a build pays moved-tokens-proportional work instead
/// of per-round full rescans.
fn build_dummy_entry(r: &Router, scratch: &mut Scratch<'_>, node: NodeId, l: u64) -> DummyEntry {
    let nd = r.hier.node(node);
    let t = nd.part_count();
    let part_of = &r.tables(node).part_of;
    let mut st = std::mem::take(&mut scratch.dummy_state);
    st.prepare(r.graph().n(), t);
    // 2L dummies per vertex of X*_j, marked j, born at home. Birth
    // vertices double as the escort-back targets of every future merge
    // against this entry.
    let mut origins: Vec<u32> = Vec::new();
    for (j, part) in nd.parts.iter().enumerate() {
        for &v in &part.all {
            for _ in 0..2 * l {
                st.push_token(t, v, j as u16, part_of);
                origins.push(v);
            }
        }
    }

    // A throwaway query is the charge sink: the dispersal's effects
    // land in the entry (from a zero baseline), not in any query.
    let mut sink = Exec::new(r);
    disperse(r, scratch, &mut sink, &mut st, node, false);
    let Exec { ledger, stats, .. } = sink;

    // Final (part, mark) buckets and per-vertex landing loads — the
    // dummy-side inputs of every future merge at this key — read
    // straight off the incremental state: the live buckets hold token
    // indices ascending per key (exactly the stable counting sort's
    // concatenated rank order), and the live per-vertex loads are the
    // landing loads of the final positions.
    let mut group_start: Vec<u32> = Vec::with_capacity(t * t + 1);
    let mut origin_by_rank: Vec<u32> = Vec::with_capacity(origins.len());
    group_start.push(0);
    for key in 0..t * t {
        origin_by_rank.extend(st.buckets[key].iter().map(|&d| origins[d as usize]));
        group_start.push(origin_by_rank.len() as u32);
    }
    let mut loads: Vec<(u32, u32)> = st
        .vtouched
        .iter()
        .map(|&v| (v, st.vload[v as usize]))
        .filter(|&(_, load)| load > 0)
        .collect();
    loads.sort_unstable_by_key(|&(v, _)| v);
    let cost = st.total_cost;
    st.teardown(t);
    scratch.dummy_state = st;

    DummyEntry {
        origin_by_rank,
        group_start,
        loads,
        cost,
        ledger,
        charged_sorts: stats.charged_sorts,
        max_congestion: stats.max_congestion,
        max_dilation: stats.max_dilation,
        trace: stats.max_load_trace,
    }
}

/// A flock's incrementally maintained dispersal state over one Task 3
/// call.
///
/// A round only moves the `⌊(m_ij/2)·|T_il|⌋` tokens the dispersal
/// tables select, so instead of rebuilding the `(part, mark)` counting
/// sort and rescanning every token's vertex load each shuffler round,
/// the state keeps the grouping and load accounting *live* across
/// rounds:
///
/// * `buckets[part · t + mark]` holds the flock's token indices in
///   ascending order — exactly the bucket a per-round counting sort
///   would produce, because that sort is stable over the ascending
///   token scan. Moved tokens are drained from their bucket's consumed
///   prefix and re-inserted in index order.
/// * `occupied` marks the non-empty buckets of each part's row and
///   `row_max` bounds the longest one, so the sweeps of a sparse flock
///   visit only occupied buckets and the round scan skips rows that
///   cannot emit a token.
/// * `vload`/`hist`/`pmax` maintain per-vertex loads and the per-part
///   load maxima (the Lemma 6.6 quantities) under single-token
///   increments/decrements, so round charges read them in `O(t)`.
///
/// Every maintained value is byte-identical to what a full rescan
/// computes; only the work to obtain it changes — proportional to the
/// moved tokens and the buckets they leave or enter, instead of
/// `O(tokens)` every round.
#[derive(Debug, Default)]
struct DisperseState {
    /// Flock positions, aligned with the query's Task 2 worklist slice.
    pos: Vec<u32>,
    /// Flock marks (constant during a dispersal).
    mark: Vec<u16>,
    /// Token indices per `part · t + mark` key, ascending. Every bucket
    /// is empty at rest: `teardown` clears the ones a flock filled.
    buckets: Vec<Vec<u32>>,
    /// Per part `i`: bit `l` is set exactly when bucket `i · t + l`
    /// holds tokens. One `u128` covers a row because `t ≤ k ≤ 96`, the
    /// clamp of `k` in `Hierarchy::build`.
    occupied: Vec<u128>,
    /// Per part `i`: an upper bound on the longest bucket of row `i`,
    /// exact after a scan of the row and raised by pushes and merges in
    /// between. A row whose bound is below the round table's
    /// `row_min_len(i)` cannot emit a token, so the scan skips it.
    row_max: Vec<u32>,
    /// This round's consumed bucket prefixes, as `(key, tokens)`.
    drained: Vec<(u32, u32)>,
    /// This round's deferred `(token, new position)` moves.
    moves: Vec<(u32, u32)>,
    /// Staging buffer for the moves regrouped as `(new key, token)`.
    pending: Vec<(u32, u32)>,
    /// Per-vertex real-token load, live across all rounds.
    vload: Vec<u32>,
    /// Vertices whose `vload` went nonzero — the teardown list.
    vtouched: Vec<u32>,
    /// Per part: count of vertices currently at each load value ≥ 1.
    hist: Vec<Vec<u32>>,
    /// Per part: current maximum vertex load.
    pmax: Vec<u32>,
    /// Accumulated dispersal movement cost across rounds.
    total_cost: u64,
    /// Accumulated portal-routing charges across rounds (flushed as
    /// one ledger charge per dispersal; per-phase sums make that
    /// byte-identical to charging every round separately).
    portal_total: u64,
    /// Upper bound on the longest bucket (the largest `row_max`) — the
    /// quiescence early-out of [`disperse`] compares it against the
    /// round table's smallest moving length.
    max_bucket: u32,
    /// Sweep every bucket even when the flock is sparse (the sweep tests
    /// compare both paths).
    #[cfg(test)]
    force_dense: bool,
    /// Tokens moved by flocks on the sparse path (read by the sweep
    /// tests).
    #[cfg(test)]
    sparse_moved: u64,
}

impl DisperseState {
    /// Estimated heap bytes the pooled state retains.
    fn approx_bytes(&self) -> usize {
        let mut b = (self.pos.capacity()
            + self.row_max.capacity()
            + self.vload.capacity()
            + self.vtouched.capacity()
            + self.pmax.capacity())
            * 4
            + self.mark.capacity() * 2
            + (self.drained.capacity() + self.moves.capacity() + self.pending.capacity()) * 8
            + self.occupied.capacity() * 16
            + (self.buckets.capacity() + self.hist.capacity()) * std::mem::size_of::<Vec<u32>>();
        for v in self.buckets.iter().chain(&self.hist) {
            b += v.capacity() * 4;
        }
        b
    }

    /// Readies the state for a node with `t` parts over an `n`-vertex
    /// graph. Grow-only, and `O(t)` on top of the growth: the buckets
    /// come back empty from `teardown`. A pooled state re-prepares
    /// without allocating once warm.
    fn prepare(&mut self, n: usize, t: usize) {
        debug_assert!(t <= 128, "a row of {t} buckets overflows the u128 occupancy mask");
        self.pos.clear();
        self.mark.clear();
        if self.vload.len() < n {
            self.vload.resize(n, 0);
        }
        if self.buckets.len() < t * t {
            self.buckets.resize_with(t * t, Vec::new);
        }
        debug_assert!(self.buckets.iter().all(Vec::is_empty), "prepare on a torn-down state");
        self.occupied.clear();
        self.occupied.resize(t, 0);
        self.row_max.clear();
        self.row_max.resize(t, 0);
        self.drained.clear();
        self.moves.clear();
        if self.hist.len() < t {
            self.hist.resize_with(t, Vec::new);
        }
        self.pmax.clear();
        self.pmax.resize(t, 0);
        self.total_cost = 0;
        self.portal_total = 0;
        self.max_bucket = 0;
        debug_assert!(self.vtouched.is_empty(), "prepare on a torn-down state");
    }

    /// Whether the flock has fewer tokens than its `t²` buckets. The
    /// sweeps of a sparse flock visit only the occupied buckets; those
    /// of a dense flock walk every bucket in a plain loop, which beats
    /// walking the occupancy bits when most buckets hold tokens.
    fn is_sparse(&self, t: usize) -> bool {
        #[cfg(test)]
        if self.force_dense {
            return false;
        }
        self.pos.len() < t * t
    }

    /// Appends one token to the flock, bucketing it and counting its
    /// load. Tokens must arrive in worklist order so every bucket stays
    /// ascending.
    fn push_token(&mut self, t: usize, pos: u32, mark: u16, part_of: &[u16]) {
        let p = part_of[pos as usize];
        debug_assert!(p != u16::MAX, "token outside the node");
        let p = usize::from(p);
        let key = p * t + usize::from(mark);
        let idx = self.pos.len() as u32;
        self.pos.push(pos);
        self.mark.push(mark);
        let bucket = &mut self.buckets[key];
        bucket.push(idx);
        let len = bucket.len() as u32;
        self.occupied[p] |= 1 << mark;
        self.row_max[p] = self.row_max[p].max(len);
        self.max_bucket = self.max_bucket.max(len);
        self.inc_load(pos, p);
    }

    /// Counts one token landing on `v` (in part `p`).
    fn inc_load(&mut self, v: u32, p: usize) {
        let x = self.vload[v as usize];
        self.vload[v as usize] = x + 1;
        if x == 0 {
            self.vtouched.push(v);
        } else {
            self.hist[p][x as usize] -= 1;
        }
        let hp = &mut self.hist[p];
        if hp.len() <= (x + 1) as usize {
            hp.resize(x as usize + 2, 0);
        }
        hp[(x + 1) as usize] += 1;
        self.pmax[p] = self.pmax[p].max(x + 1);
    }

    /// Counts one token leaving `v` (in part `p`), stepping the part
    /// maximum down when its last top-loaded vertex empties.
    fn dec_load(&mut self, v: u32, p: usize) {
        let x = self.vload[v as usize];
        debug_assert!(x > 0, "decrement of an unloaded vertex");
        self.vload[v as usize] = x - 1;
        self.hist[p][x as usize] -= 1;
        if x > 1 {
            self.hist[p][(x - 1) as usize] += 1;
        }
        if self.pmax[p] == x && self.hist[p][x as usize] == 0 {
            let mut m = x - 1;
            while m > 0 && self.hist[p][m as usize] == 0 {
                m -= 1;
            }
            self.pmax[p] = m;
        }
    }

    /// Applies the round's deferred moves: drains every consumed bucket
    /// prefix (the scan's round-start view must not shift underneath
    /// it), then re-homes the moved tokens — load cells one by one,
    /// bucket membership by staging each destination's arrivals and
    /// folding them in with one backward in-place merge per touched
    /// bucket. Work is proportional to the moved tokens and the
    /// buckets they leave or enter, never the whole flock.
    fn apply_moves(&mut self, t: usize, part_of: &[u16]) {
        for &(key, cnt) in &self.drained {
            let bucket = &mut self.buckets[key as usize];
            bucket.drain(..cnt as usize);
            if bucket.is_empty() {
                self.occupied[key as usize / t] &= !(1 << (key as usize % t));
            }
        }
        self.drained.clear();
        #[cfg(test)]
        {
            self.sparse_moved += self.moves.len() as u64 * u64::from(self.is_sparse(t));
        }
        let moves = std::mem::take(&mut self.moves);
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for &(tok, new_pos) in &moves {
            let old_pos = self.pos[tok as usize];
            let old_p = part_of[old_pos as usize] as usize;
            let new_p = part_of[new_pos as usize];
            debug_assert!(new_p != u16::MAX, "token strayed outside the node");
            self.dec_load(old_pos, old_p);
            self.inc_load(new_pos, new_p as usize);
            self.pos[tok as usize] = new_pos;
            let new_key = u32::from(new_p) * t as u32 + u32::from(self.mark[tok as usize]);
            pending.push((new_key, tok));
        }
        // Group arrivals by destination bucket, ascending token index
        // within each (the bucket invariant), then merge each run into
        // its — still sorted — destination from the back.
        pending.sort_unstable();
        let mut lo = 0usize;
        while lo < pending.len() {
            let key = pending[lo].0;
            let mut hi = lo + 1;
            while hi < pending.len() && pending[hi].0 == key {
                hi += 1;
            }
            let bucket = &mut self.buckets[key as usize];
            let old_len = bucket.len();
            let new = &pending[lo..hi];
            bucket.resize(old_len + new.len(), 0);
            let (mut i, mut j, mut k) = (old_len, new.len(), bucket.len());
            let grown = bucket.len() as u32;
            while j > 0 {
                if i > 0 && bucket[i - 1] > new[j - 1].1 {
                    bucket[k - 1] = bucket[i - 1];
                    i -= 1;
                } else {
                    bucket[k - 1] = new[j - 1].1;
                    j -= 1;
                }
                k -= 1;
            }
            let (p, l) = (key as usize / t, key as usize % t);
            self.occupied[p] |= 1 << l;
            self.row_max[p] = self.row_max[p].max(grown);
            self.max_bucket = self.max_bucket.max(grown);
            lo = hi;
        }
        self.pending = pending;
        self.moves = moves;
        self.moves.clear();
    }

    /// Returns the state to its pooled resting shape: the flock's
    /// buckets and dense arrays emptied through the occupancy masks and
    /// touched lists, histograms emptied.
    fn teardown(&mut self, t: usize) {
        let sparse = self.is_sparse(t);
        for i in 0..t {
            let row = &mut self.buckets[i * t..(i + 1) * t];
            for_each_col(self.occupied[i], t, sparse, |l| row[l].clear());
        }
        for &v in &self.vtouched {
            self.vload[v as usize] = 0;
        }
        self.vtouched.clear();
        for hp in &mut self.hist[..t] {
            hp.clear();
        }
    }
}

/// Calls `f(l)`, in ascending order, for every mark `l` whose bucket
/// in a row with occupancy mask `occupied` may hold tokens: the set
/// bits for a sparse flock, all `t` marks for a dense one (see
/// [`DisperseState::is_sparse`]).
#[inline(always)]
fn for_each_col(occupied: u128, t: usize, sparse: bool, mut f: impl FnMut(usize)) {
    if sparse {
        let mut bits = occupied;
        while bits != 0 {
            f(bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    } else {
        (0..t).for_each(f);
    }
}

/// Runs one job alone through the pipeline on `scratch`, against the
/// router the scratch serves — the single execution path behind
/// [`Router::route`]/[`Router::sort`] (a fresh scratch) and every
/// engine and service job (a pooled one). Only the per-job accumulators
/// are reset; the buffers were sized when the scratch was built.
pub(crate) fn run_single(scratch: &mut Scratch<'_>, job: JobRef<'_>) -> JobOutcome {
    let r = scratch.r;
    // Transient state is reset-before-use everywhere, but a pooled
    // checkout should never depend on the previous job's epilogue.
    scratch.mc.reset();
    scratch.reset_vertices();
    let mut exec = Exec::new(r);
    match job {
        JobRef::Route(inst) => {
            if let Some(mut toks) = exec.route_prologue(scratch, inst) {
                task2_root(scratch, &mut exec, &mut toks);
            }
            JobOutcome::Route(exec.route_epilogue(scratch, inst))
        }
        JobRef::Sort(inst) => {
            let owner = match exec.sort_prologue(scratch, inst) {
                Some((mut toks, owner)) => {
                    task2_root(scratch, &mut exec, &mut toks);
                    owner
                }
                None => Vec::new(),
            };
            JobOutcome::Sort(exec.sort_epilogue(scratch, &owner))
        }
    }
}

/// Task 2 over the whole worklist at the root, then the job's one
/// leaf charge.
fn task2_root(scratch: &mut Scratch<'_>, exec: &mut Exec<'_>, toks: &mut [usize]) {
    let r = scratch.r;
    task2(r, scratch, exec, toks, r.hier.root());
    exec.ledger.charge("query/task2/leaf", exec.leaf_rounds);
}

/// Task 2 over the worklist slice `toks` at `node`: marker rewrite,
/// Task 3, the `M*` hop and a stable partition by part, then recursion
/// into each part's contiguous slice.
fn task2(
    r: &Router,
    scratch: &mut Scratch<'_>,
    exec: &mut Exec<'_>,
    toks: &mut [usize],
    node: NodeId,
) {
    let nd = r.hier.node(node);
    if nd.is_leaf() {
        // §6.4 leaf case: three meet-in-the-middle passes over the
        // precomputed leaf network; effect: exact delivery by rank.
        for &t in toks.iter() {
            let target = nd.vertices[exec.marker[t] as usize];
            exec.pos[t] = target;
            scratch.bump_vertex(target);
        }
        let lc = scratch.max_vertex_load().max(1);
        scratch.reset_vertices();
        exec.leaf_rounds += 6 * lc * r.cost.leafnet_unit[node];
        exec.stats.charged_sorts += 3;
        return;
    }

    // Marker rewrite: global best rank -> (part, local rank), through
    // the precomputed rank → part table.
    let tab = r.tables(node);
    let (prefix, rank_part) = (&tab.best_prefix, &tab.rank_part);
    for &t in toks.iter() {
        let iz = exec.marker[t];
        let j = rank_part[iz as usize] as usize;
        debug_assert!(j < nd.parts.len(), "marker {iz} beyond best count");
        exec.mark_of[t] = j as u16;
        exec.marker[t] = iz - prefix[j];
    }

    task3(r, scratch, exec, toks, node);

    // M* hop (Property 3.1(3)): tokens that landed on bad vertices
    // follow the matching into the good child. A vertex of part j is
    // bad exactly when it carries an `M*` edge, so the dense
    // `mstar_edge` map doubles as the membership test.
    scratch.mc.reset();
    for &t in toks.iter() {
        let j = exec.mark_of[t] as usize;
        let v = exec.pos[t];
        let ei = tab.mstar_edge[v as usize];
        debug_assert_eq!(
            ei != u32::MAX,
            r.hier.node(nd.parts[j].child).vertices.binary_search(&v).is_err(),
            "M* edge map disagrees with child membership"
        );
        if ei != u32::MAX {
            let fp = &tab.mstar_flat[j];
            scratch.mc.add_flat(fp, ei as usize, 1);
            exec.pos[t] = fp.target(ei as usize);
        }
    }
    let mstar_cost = observe_mc(&mut exec.stats, &scratch.mc);
    exec.ledger.charge("query/task2/mstar", mstar_cost);

    // Stable partition by part. The counting sort's bucket offsets are
    // the child slice bounds; they go on the scratch's bounds stack,
    // because the recursion rebuilds the buckets.
    let t_parts = nd.parts.len();
    let mut tmp = std::mem::take(&mut scratch.toks_tmp);
    tmp.clear();
    tmp.extend_from_slice(toks);
    scratch.groups.build(t_parts, tmp.iter().map(|&t| u32::from(exec.mark_of[t])));
    let mut w = 0;
    for j in 0..t_parts {
        for &i in scratch.groups.group(j) {
            toks[w] = tmp[i as usize];
            w += 1;
        }
    }
    debug_assert_eq!(w, toks.len());
    scratch.toks_tmp = tmp;
    let base = scratch.child_bounds.len();
    scratch.child_bounds.extend((0..=t_parts).map(|j| scratch.groups.start_of(j)));
    for (j, part) in nd.parts.iter().enumerate() {
        let (lo, hi) =
            (scratch.child_bounds[base + j] as usize, scratch.child_bounds[base + j + 1] as usize);
        if hi > lo {
            task2(r, scratch, exec, &mut toks[lo..hi], part.child);
        }
    }
    scratch.child_bounds.truncate(base);
}

/// Task 3 at `node` for the worklist slice `toks`: the flock disperses
/// through [`disperse`], then merges against the dummy dispersal
/// cached for its observed load `L`.
fn task3(r: &Router, scratch: &mut Scratch<'_>, exec: &mut Exec<'_>, toks: &[usize], node: NodeId) {
    let nd = r.hier.node(node);
    let t = nd.part_count();
    exec.stats.task3_calls += 1;

    let mut st = std::mem::take(&mut scratch.job_state);
    st.prepare(r.graph().n(), t);
    let part_of = &r.tables(node).part_of;
    for &tk in toks {
        st.push_token(t, exec.pos[tk], exec.mark_of[tk], part_of);
    }
    // L: max real load on any vertex of X — read straight off the
    // freshly built incremental accounting (the per-part maxima cover
    // every loaded vertex), replacing a separate count pass.
    let l = u64::from(st.pmax[..t].iter().copied().max().unwrap_or(0)).max(1);

    let entry = match scratch.dummies.take(node, l) {
        Some(entry) => entry,
        None => build_dummy_entry(r, scratch, node, l),
    };
    disperse(r, scratch, exec, &mut st, node, true);
    exec.apply_dummy_entry(&entry);
    merge(r, scratch, exec, &mut st, node, &entry);
    exec.ledger.charge("query/task3/reverse", entry.cost);
    for (&tk, &p) in toks.iter().zip(&st.pos) {
        exec.pos[tk] = p;
    }
    st.teardown(t);
    scratch.dummies.put(node, l, entry);
    scratch.job_state = st;
}

/// What a dispersal round reads off the flock's per-part load maxima at
/// its start. Only a round that moves tokens changes the maxima, so
/// [`disperse`] reads them once up front and again after each such
/// round, and an idle round costs `O(1)`.
struct RoundStart {
    /// The largest part maximum: the previous round's post-move load
    /// trace (Lemma 6.6).
    max_load: u32,
    /// Portal routing (§6.2), charged as two expander sorts per part at
    /// the part's current load. Parts are parallel CONGEST instances,
    /// so the round cost is the worst part, not the sum.
    portal_charge: u64,
    /// Parts holding tokens (each charges its two sorts).
    loaded_parts: u64,
}

impl RoundStart {
    /// Folds the maxima branch-free: an unloaded part contributes 0 to
    /// every field.
    fn read(r: &Router, nd: &HierarchyNode, pmax: &[u32]) -> RoundStart {
        let mut start = RoundStart { max_load: 0, portal_charge: 0, loaded_parts: 0 };
        for (part, &load) in nd.parts.iter().zip(pmax) {
            start.max_load = start.max_load.max(load);
            start.portal_charge =
                start.portal_charge.max(2 * u64::from(load) * r.cost.tsort_unit[part.child]);
            start.loaded_parts += u64::from(load > 0);
        }
        start
    }
}

/// The dispersal round loop (§6.1, Lemma 6.2): all `λ` rounds run back
/// to back over the flock's incremental state (buckets and per-part
/// load maxima maintained move by move, not rescanned), so the state
/// stays cache-resident for the whole dispersal and the merge that
/// follows. A round costs what its tokens cost: an idle round reuses
/// the [`RoundStart`] of the last round that moved tokens and skips its
/// scan when no bucket is long enough to move, a scanned round skips
/// the rows whose buckets are all too short, and a sparse flock's scan
/// visits only its occupied buckets. Charges land in `exec`'s ledger;
/// congestion and dilation accumulate through the scratch accumulator,
/// reset per round.
fn disperse(
    r: &Router,
    scratch: &mut Scratch<'_>,
    exec: &mut Exec<'_>,
    st: &mut DisperseState,
    node: NodeId,
    check: bool,
) {
    let nd = r.hier.node(node);
    let t = nd.part_count();
    let tab = r.tables(node);
    let part_of = &tab.part_of;
    let lambda = tab.round_tables.len();
    let sparse = st.is_sparse(t);
    if exec.stats.max_load_trace.len() < lambda {
        exec.stats.max_load_trace.resize(lambda, 0);
    }

    let mut start = RoundStart::read(r, nd, &st.pmax[..t]);
    for (q, table) in tab.round_tables.iter().enumerate() {
        if q > 0 {
            let slot = &mut exec.stats.max_load_trace[q - 1];
            *slot = (*slot).max(start.max_load);
        }
        exec.stats.charged_sorts += 2 * start.loaded_parts;
        st.portal_total += start.portal_charge;

        // Quiescence early-out: when even the flock's largest bucket is
        // below the round's smallest moving length, every entry's move
        // count floors to zero — the whole scan (and its table reads)
        // is a no-op, and skipping it leaves costs, stats, and state
        // untouched exactly as the full scan would. `st.max_bucket` is
        // an upper bound (drains never lower it); each scan re-tightens
        // it.
        if st.max_bucket < table.min_move_len() {
            continue;
        }

        // Move ⌊(m_ij/2)·|T_il|⌋ tokens from part i to part j,
        // scanning the round-start buckets.
        let flat = &tab.rounds_flat[q];
        scratch.mc.reset();
        let mut max_bucket = 0u32;
        for i in 0..t {
            // Integer form of the `len · m_ij/2 ≥ 1` floor guard:
            // buckets below the row's precomputed threshold cannot
            // emit a token from any entry, so a row whose longest
            // bucket is below it is skipped whole.
            let min_len = table.row_min_len(i);
            if st.row_max[i] >= min_len {
                let row = table.row(i);
                let buckets = &st.buckets[i * t..(i + 1) * t];
                let mut row_max = 0u32;
                for_each_col(st.occupied[i], t, sparse, |l| {
                    let bucket = &buckets[l];
                    row_max = row_max.max(bucket.len() as u32);
                    if bucket.len() >= min_len as usize {
                        let cnt = emit(table, row, flat, bucket, &mut scratch.mc, &mut st.moves);
                        if cnt > 0 {
                            st.drained.push(((i * t + l) as u32, cnt));
                        }
                    }
                });
                st.row_max[i] = row_max;
            } else {
                debug_assert!(
                    st.buckets[i * t..(i + 1) * t].iter().all(|b| b.len() < min_len as usize),
                    "row {i}'s bound skips a bucket that moves"
                );
            }
            max_bucket = max_bucket.max(st.row_max[i]);
        }
        st.max_bucket = max_bucket;
        if !st.moves.is_empty() {
            st.total_cost += observe_mc(&mut exec.stats, &scratch.mc);
            st.apply_moves(t, part_of);
            start = RoundStart::read(r, nd, &st.pmax[..t]);
        }
    }

    // Epilogue: final-round trace, the dispersal charge, and the
    // Lemma 6.2 dispersion-envelope check.
    debug_assert!(
        (0..t * t).all(|key| {
            let bit = st.occupied[key / t] >> (key % t) & 1 == 1;
            bit != st.buckets[key].is_empty()
        }),
        "occupancy masks disagree with the buckets"
    );
    if lambda > 0 {
        let slot = &mut exec.stats.max_load_trace[lambda - 1];
        *slot = (*slot).max(start.max_load);
    }
    exec.ledger.charge("query/task3/portal", st.portal_total);
    exec.ledger.charge("query/task3/disperse", st.total_cost);
    if check && t >= 2 {
        // Every `(part, mark)` cell of a mark with tokens is checked.
        // Marks are fixed during a dispersal, so a mark's total is the
        // sum of its final buckets, and only occupied cells are compared:
        // an empty cell never exceeds its positive bound.
        let lambda = lambda as f64;
        let err = tab.final_potential.sqrt();
        let bound = &mut scratch.env_bound;
        bound.clear();
        bound.resize(t, 0.0);
        for i in 0..t {
            let row = &st.buckets[i * t..(i + 1) * t];
            for_each_col(st.occupied[i], t, sparse, |l| bound[l] += row[l].len() as f64);
        }
        let mut marks = 0u64;
        for b in bound.iter_mut() {
            let tot = *b;
            if tot > 0.0 {
                marks += 1;
                *b = tot / t as f64 + tot * err + lambda * t as f64 + 1.0;
            }
        }
        exec.stats.dispersion_checked += marks * t as u64;
        for i in 0..t {
            let row = &st.buckets[i * t..(i + 1) * t];
            for_each_col(st.occupied[i], t, sparse, |l| {
                exec.stats.dispersion_violations += u64::from(row[l].len() as f64 > bound[l]);
            });
        }
    }
}

/// Emits one round-start bucket of row `row`: `⌊(m_ij/2)·len⌋` tokens
/// per entry, taken from the bucket's front and sent along the entry's
/// portal edges round-robin. Emit counts are clamped to the tokens
/// left, so the emit loop has no per-token exhaustion branch. Returns
/// the tokens consumed.
fn emit(
    table: &RoundTable,
    row: &[RoundEntry],
    flat: &FlatPaths,
    bucket: &[u32],
    mc: &mut FlatMoveCost,
    moves: &mut Vec<(u32, u32)>,
) -> u32 {
    let mut cursor = 0usize;
    for entry in row {
        let cnt = (entry.m_ij / 2.0 * bucket.len() as f64).floor() as usize;
        let cnt = cnt.min(bucket.len() - cursor);
        if cnt == 0 {
            continue;
        }
        let refs = table.edge_refs(entry);
        let targets = table.ref_targets(entry);
        debug_assert!(!refs.is_empty(), "portal entry without edges");
        for (c, &tok) in bucket[cursor..cursor + cnt].iter().enumerate() {
            let ri = c % refs.len();
            let ei = (refs[ri] >> 1) as usize;
            mc.add_flat(flat, ei, 1);
            // Path pre-oriented from the bucket's part towards the
            // entry's.
            moves.push((tok, targets[ri]));
        }
        cursor += cnt;
    }
    cursor as u32
}

/// §6.3 merge: pair reals with dummies per (part, mark); dummies
/// escort reals to their birth vertices. Reals that exceed the local
/// dummy supply (substitution 6 in `docs/ARCHITECTURE.md`) fall back to
/// a shortest-path leg to a round-robin target vertex of their marked
/// part, counted in `fallback_tokens` and charged by a bound instead of
/// walked: each leg is a simple shortest path, so the merge's legs have
/// congestion ≤ `legs` and dilation ≤ D ≤ 2·D̂, where D̂ is the root
/// node's `diameter` — the eccentricity of one vertex, and D ≤
/// 2·ecc(v) for every v. The charge is `legs × 2·D̂`. Group iteration
/// runs in ascending dense-key order, over the occupied buckets only
/// for a sparse flock — the fallback round-robin counters are shared
/// across groups with the same mark, so the order must be
/// deterministic or target choices vary run to run. The
/// real-token groups and per-part load maxima come from the flock's
/// incremental dispersal state (no rescan of the flock); the dummy side
/// (final buckets, landing loads, origins) comes precomputed from the
/// cached [`DummyEntry`].
fn merge(
    r: &Router,
    scratch: &mut Scratch<'_>,
    exec: &mut Exec<'_>,
    st: &mut DisperseState,
    node: NodeId,
    dummy: &DummyEntry,
) {
    let nd = r.hier.node(node);
    let t = nd.part_count();
    let part_of = &r.tables(node).part_of;

    // Combined per-part load for the merge-sort charge: dummy landings
    // joined with the live real loads, then the real-only maxima. The
    // `max` over both passes reproduces the exact combined per-part
    // maximum — dummy-heavy vertices appear in the first pass,
    // real-only vertices through the incremental maxima.
    for pl in &mut scratch.part_load[..t] {
        *pl = 0;
    }
    for &(v, dummies_here) in &dummy.loads {
        let p = part_of[v as usize] as usize;
        let combined = dummies_here + st.vload[v as usize];
        scratch.part_load[p] = scratch.part_load[p].max(combined);
    }
    for (p, &m) in st.pmax[..t].iter().enumerate() {
        scratch.part_load[p] = scratch.part_load[p].max(m);
    }
    // Parallel per-part sorts: charge the worst part (branch-free
    // fold — an unloaded part contributes 0 to both).
    let mut merge_charge = 0u64;
    let mut merge_parts = 0u64;
    for (j, part) in nd.parts.iter().enumerate() {
        let load = u64::from(scratch.part_load[j]);
        merge_charge = merge_charge.max(load * r.cost.tsort_unit[part.child]);
        merge_parts += u64::from(load > 0);
    }
    exec.stats.charged_sorts += merge_parts;
    exec.ledger.charge("query/task3/merge", merge_charge);

    for rr in &mut scratch.fallback_rr[..t] {
        *rr = 0;
    }
    let mut legs = 0u64;
    let sparse = st.is_sparse(t);
    for i in 0..t {
        let row = &st.buckets[i * t..(i + 1) * t];
        for_each_col(st.occupied[i], t, sparse, |lp| {
            let reals = &row[lp];
            if reals.is_empty() {
                return;
            }
            // Two-pointer split: the dummy-paired prefix streams the
            // entry's group-contiguous origins in rank order — one
            // sequential pass over two contiguous u32 slices; the
            // dummy-starved suffix takes fallback legs.
            let origins = dummy.group(i * t + lp);
            let paired = reals.len().min(origins.len());
            for (&ri, &origin) in reals[..paired].iter().zip(origins) {
                st.pos[ri as usize] = origin;
            }
            let starved = &reals[paired..];
            let target_part = &nd.parts[lp].all;
            let rr = &mut scratch.fallback_rr[lp];
            for &ri in starved {
                st.pos[ri as usize] = target_part[*rr];
                *rr = if *rr + 1 == target_part.len() { 0 } else { *rr + 1 };
            }
            legs += starved.len() as u64;
        });
    }
    exec.stats.fallback_tokens += legs;
    let d_hat = u64::from(r.hier.node(r.hier.root()).diameter);
    exec.ledger.charge("query/task3/fallback", legs * 2 * d_hat);

    // Postcondition: every real token is inside its marked part.
    debug_assert!((0..st.pos.len()).all(|i| part_of[st.pos[i] as usize] == st.mark[i]));
}

#[cfg(test)]
impl Scratch<'_> {
    /// What the pool tests observe of the dummy cache: entries held and
    /// hits so far.
    pub(crate) fn dummy_probe(&self) -> (usize, u64) {
        (self.dummies.nodes.iter().map(Vec::len).sum(), self.dummies.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use crate::token::{RoutingInstance, SortInstance};
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn permutation_is_delivered() {
        let r = router(256, 1);
        let inst = RoutingInstance::permutation(256, 9);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(out.rounds() > 0);
        assert!(out.stats.task3_calls >= 1);
    }

    #[test]
    fn higher_load_is_delivered() {
        let r = router(256, 2);
        let inst = RoutingInstance::uniform_load(256, 4, 3);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
    }

    #[test]
    fn all_to_one_style_load_is_delivered() {
        // Skewed: many sources target a small set (respecting load L=8).
        let r = router(256, 3);
        let mut triples = Vec::new();
        for v in 0..64u32 {
            for i in 0..2u64 {
                triples.push((v, 200 + (v % 8), i));
            }
        }
        // Destination load = 16 at 8 vertices; source load 2.
        let inst = RoutingInstance::from_triples(&triples);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
    }

    #[test]
    fn query_rounds_are_far_below_preprocessing() {
        let r = router(512, 4);
        let inst = RoutingInstance::permutation(512, 5);
        let out = r.route(&inst).expect("valid");
        assert!(
            out.rounds() < r.preprocessing_ledger().total(),
            "query {} vs preprocessing {}",
            out.rounds(),
            r.preprocessing_ledger().total()
        );
    }

    #[test]
    fn query_is_deterministic() {
        let r = router(256, 5);
        let inst = RoutingInstance::permutation(256, 6);
        let a = r.route(&inst).expect("valid");
        let b = r.route(&inst).expect("valid");
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.rounds(), b.rounds());
    }

    #[test]
    fn dispersion_mostly_within_envelope() {
        let r = router(512, 6);
        let inst = RoutingInstance::uniform_load(512, 2, 7);
        let out = r.route(&inst).expect("valid");
        assert!(out.stats.dispersion_checked > 0);
        let ratio = out.stats.dispersion_violations as f64 / out.stats.dispersion_checked as f64;
        assert!(ratio < 0.05, "violations {ratio}");
    }

    #[test]
    fn load_trace_stays_bounded() {
        let r = router(256, 7);
        let inst = RoutingInstance::uniform_load(256, 2, 8);
        let out = r.route(&inst).expect("valid");
        let max = out.stats.max_load_trace.iter().copied().max().unwrap_or(0) as usize;
        // Lemma 6.6: O(L log n) with L including the 2L dummy flock.
        let bound = 19 * 6 * (256f64).log2() as usize;
        assert!(max <= bound, "max load {max} vs bound {bound}");
    }

    #[test]
    fn sort_sorts_with_load_preserved() {
        let r = router(256, 8);
        let inst = SortInstance::random(256, 2, 9);
        let out = r.sort(&inst).expect("valid");
        assert!(out.is_sorted(&inst, 256, 2));
        assert!(out.rounds() > 0);
    }

    #[test]
    fn sort_handles_duplicate_keys() {
        let r = router(128, 9);
        let triples: Vec<(u32, u64, u64)> =
            (0..128u32).map(|v| (v, (v % 3) as u64, v as u64)).collect();
        let inst = SortInstance::from_triples(&triples);
        let out = r.sort(&inst).expect("valid");
        assert!(out.is_sorted(&inst, 128, 1));
    }

    #[test]
    fn sparse_sweeps_match_the_dense_sweeps() {
        // Flocks with fewer tokens than buckets take the sparse sweeps:
        // below the root of the depth-3 router (ε = 0.12 at n = 512),
        // and at the depth-1 root (ε = 0.4 at n = 1024) for the hot
        // spot, whose tokens crowd into few buckets and so move.
        let mut moved = 0;
        for (n, eps) in [(512, 0.12), (1024, 0.4)] {
            let g = generators::random_regular(n, 4, 1).expect("generator");
            let r = Router::preprocess(&g, RouterConfig::for_epsilon(eps)).expect("router");
            let mut sparse = Scratch::new(&r);
            let mut dense = Scratch::new(&r);
            dense.job_state.force_dense = true;
            dense.dummy_state.force_dense = true;
            // 4 tokens from each of 50 vertices to one of 50 others.
            let hot: Vec<(u32, u32, u64)> =
                (0..200u32).map(|i| (i / 4, n as u32 / 2 + i / 4, u64::from(i))).collect();
            let mut routes = vec![RoutingInstance::from_triples(&hot)];
            routes.extend((4..=6).map(|l| RoutingInstance::uniform_load(n, l, 40 + l as u64)));
            for inst in &routes {
                let job = JobRef::Route(inst);
                let a = run_single(&mut sparse, job).into_route().expect("route");
                let b = run_single(&mut dense, job).into_route().expect("route");
                assert_eq!(a, b, "n = {n}: route at load {}", inst.load(n));
            }
            let sort = SortInstance::random(n, 4, 7);
            let a = run_single(&mut sparse, JobRef::Sort(&sort)).into_sort().expect("sort");
            let b = run_single(&mut dense, JobRef::Sort(&sort)).into_sort().expect("sort");
            assert_eq!((a.positions, a.ledger, a.stats), (b.positions, b.ledger, b.stats));
            assert_eq!(dense.job_state.sparse_moved, 0);
            moved += sparse.job_state.sparse_moved;
        }
        assert!(moved > 0, "no sparse flock moved a token");
    }

    #[test]
    fn dense_groups_are_stable_and_ordered() {
        let mut dg = DenseGroups::default();
        let keys = [2u32, 0, 2, 1, 0, 2];
        dg.build(3, keys.iter().copied());
        assert_eq!(dg.group(0), &[1, 4]);
        assert_eq!(dg.group(1), &[3]);
        assert_eq!(dg.group(2), &[0, 2, 5]);
        // Rebuild with fewer keys reuses the buffers.
        dg.build(2, [1u32, 1].iter().copied());
        assert_eq!(dg.group(0), &[] as &[u32]);
        assert_eq!(dg.group(1), &[0, 1]);
    }
}
