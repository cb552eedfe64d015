//! Compact undirected (multi)graph in CSR form, plus BFS utilities.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a vertex inside a [`Graph`]; always in `0..n`.
pub type VertexId = u32;

/// An undirected (multi)graph stored in compressed sparse row form.
///
/// Vertices are `0..n`. Parallel edges are representable; self-loops
/// are not ([`from_edges`](Graph::from_edges) and
/// [`insert_edge`](Graph::insert_edge) reject them, and edge-list
/// ingest can skip them). Each undirected edge `{u, v}` appears once
/// in `u`'s adjacency and once in `v`'s.
///
/// # Example
///
/// ```
/// use expander_graphs::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Clone)]
pub struct Graph {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    /// Canonical edge id of each adjacency slot, aligned with
    /// `targets`. Parallel copies of the same unordered pair share one
    /// id, so ids index the *distinct-pair* space `0..edge_id_count()`
    /// used by dense congestion accounting.
    edge_ids: Vec<u32>,
    m: usize,
    distinct_pairs: usize,
    /// Mutation counter: bumped by every structural edit. Consumers
    /// that cache derived structure (routers, flat arenas) snapshot
    /// this and treat a mismatch as "stale".
    epoch: u64,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // `epoch` is an edit counter, not structure: graphs that agree
        // on storage compare equal regardless of edit history.
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.edge_ids == other.edge_ids
            && self.m == other.m
            && self.distinct_pairs == other.distinct_pairs
    }
}

impl Eq for Graph {}

impl std::hash::Hash for Graph {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.offsets.hash(state);
        self.targets.hash(state);
        self.edge_ids.hash(state);
        self.m.hash(state);
        self.distinct_pairs.hash(state);
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n())
            .field("m", &self.m)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::from_edges(0, &[])
    }
}

/// A single structural edit to a [`Graph`], applied via
/// [`Graph::apply_edit`].
///
/// Edits are the unit of churn: the same sequence applied to two equal
/// graphs yields equal graphs (same storage, same tombstoned edge-id
/// space), which is what lets a live topology and a router's snapshot
/// stay in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphEdit {
    /// Insert an undirected edge (see [`Graph::insert_edge`]).
    InsertEdge(VertexId, VertexId),
    /// Remove one copy of an undirected edge; a no-op when the
    /// vertices are not adjacent (see [`Graph::remove_edge`]).
    RemoveEdge(VertexId, VertexId),
    /// Append a new isolated vertex (see [`Graph::insert_vertex`]).
    InsertVertex,
    /// Remove every edge incident to a vertex, leaving a tombstone
    /// slot (see [`Graph::remove_vertex`]).
    RemoveVertex(VertexId),
}

impl fmt::Display for GraphEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphEdit::InsertEdge(u, v) => write!(f, "+({u},{v})"),
            GraphEdit::RemoveEdge(u, v) => write!(f, "-({u},{v})"),
            GraphEdit::InsertVertex => write!(f, "+v"),
            GraphEdit::RemoveVertex(v) => write!(f, "-v{v}"),
        }
    }
}

/// Assigns canonical dense ids to the unordered vertex pairs of an edge
/// list: parallel copies of a pair share one id, ids number the
/// distinct pairs in lexicographic `(min, max)` order with no gaps.
/// Returns the per-edge pair id plus the distinct-pair count.
fn canonical_pair_ids(edges: &[(VertexId, VertexId)]) -> (Vec<u32>, usize) {
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    let key = |i: u32| {
        let (u, v) = edges[i as usize];
        (u.min(v), u.max(v))
    };
    order.sort_unstable_by_key(|&i| key(i));
    let mut pair_of_edge = vec![0u32; edges.len()];
    let mut distinct_pairs = 0usize;
    let mut prev = None;
    for &i in &order {
        let k = key(i);
        if prev != Some(k) {
            prev = Some(k);
            distinct_pairs += 1;
        }
        pair_of_edge[i as usize] = distinct_pairs as u32 - 1;
    }
    (pair_of_edge, distinct_pairs)
}

impl Graph {
    /// Builds a graph with `n` vertices from an undirected edge list.
    /// Parallel edges are allowed; self-loops are not.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut deg = vec![0u32; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            assert!(u != v, "self-loops are not supported");
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for d in &deg {
            let last = *offsets.last().expect("non-empty");
            offsets.push(last + d);
        }
        let (pair_of_edge, distinct_pairs) = canonical_pair_ids(edges);
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0u32; 2 * edges.len()];
        let mut edge_ids = vec![0u32; 2 * edges.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            targets[cursor[u as usize] as usize] = v;
            edge_ids[cursor[u as usize] as usize] = pair_of_edge[i];
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            edge_ids[cursor[v as usize] as usize] = pair_of_edge[i];
            cursor[v as usize] += 1;
        }
        Graph { offsets, targets, edge_ids, m: edges.len(), distinct_pairs, epoch: 0 }
    }

    /// Mutation epoch: 0 at construction, bumped by every structural
    /// edit ([`insert_edge`](Graph::insert_edge) and friends). Derived
    /// structures snapshot this to detect staleness.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts an undirected edge `{u, v}` and returns its canonical
    /// pair id.
    ///
    /// The copy is appended to the end of both endpoints' adjacency
    /// lists — exactly what [`from_edges`](Graph::from_edges) does for
    /// an edge appended to the edge list, so the mutated graph is
    /// indistinguishable (adjacency-wise) from a fresh build on the
    /// edited list. If the pair already carries an edge the parallel
    /// copy reuses its id; otherwise the next id is allocated.
    /// Tombstoned ids of fully-removed pairs are never reused, so live
    /// arenas indexed by edge id stay valid.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or `u == v`.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> u32 {
        let n = self.n();
        assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
        assert!(u != v, "self-loops are not supported");
        let id = self.edge_id(u, v).unwrap_or_else(|| {
            let id = self.distinct_pairs as u32;
            self.distinct_pairs += 1;
            id
        });
        for x in [u, v] {
            let other = if x == u { v } else { u };
            let pos = self.offsets[x as usize + 1] as usize;
            self.targets.insert(pos, other);
            self.edge_ids.insert(pos, id);
            for off in self.offsets[x as usize + 1..].iter_mut() {
                *off += 1;
            }
        }
        self.m += 1;
        self.epoch += 1;
        id
    }

    /// Removes one copy of the undirected edge `{u, v}`; returns its
    /// pair id, or `None` if the vertices are not adjacent.
    ///
    /// The *first* copy in each endpoint's adjacency is removed —
    /// equivalent to deleting the earliest remaining copy of the pair
    /// from the edge list [`from_edges`](Graph::from_edges) would be
    /// given. The pair id becomes a tombstone once the last copy goes:
    /// `edge_id_count()` does not shrink and the id is never reused.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Option<u32> {
        let n = self.n();
        assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
        if u == v {
            return None;
        }
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        let slot_u = lo + self.targets[lo..hi].iter().position(|&w| w == v)?;
        let id = self.edge_ids[slot_u];
        self.targets.remove(slot_u);
        self.edge_ids.remove(slot_u);
        for off in self.offsets[u as usize + 1..].iter_mut() {
            *off -= 1;
        }
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let slot_v = lo
            + self.targets[lo..hi]
                .iter()
                .position(|&w| w == u)
                .expect("undirected invariant: edge present in both adjacencies");
        self.targets.remove(slot_v);
        self.edge_ids.remove(slot_v);
        for off in self.offsets[v as usize + 1..].iter_mut() {
            *off -= 1;
        }
        self.m -= 1;
        self.epoch += 1;
        Some(id)
    }

    /// Appends a new isolated vertex and returns its id. The vertex is
    /// *dead* ([`is_alive`](Graph::is_alive) is false) until an edge
    /// connects it.
    pub fn insert_vertex(&mut self) -> VertexId {
        let last = *self.offsets.last().expect("offsets non-empty");
        self.offsets.push(last);
        self.epoch += 1;
        (self.offsets.len() - 2) as VertexId
    }

    /// Removes every edge incident to `v`, leaving it as an isolated
    /// tombstone slot (vertex ids never shift). Returns the number of
    /// edge copies removed.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn remove_vertex(&mut self, v: VertexId) -> usize {
        assert!((v as usize) < self.n(), "vertex out of range");
        let mut removed = 0;
        while self.degree(v) > 0 {
            let w = self.neighbors(v)[0];
            self.remove_edge(v, w);
            removed += 1;
        }
        removed
    }

    /// Checks that [`apply_edit`](Graph::apply_edit) accepts `edit`:
    /// every vertex it names is `< n`, and an inserted edge is not a
    /// self-loop.
    ///
    /// # Errors
    ///
    /// Returns `edit` itself when `apply_edit` would panic on it.
    pub fn check_edit(&self, edit: GraphEdit) -> Result<(), GraphEdit> {
        let in_range = |v: VertexId| (v as usize) < self.n();
        let ok = match edit {
            GraphEdit::InsertEdge(u, v) => in_range(u) && in_range(v) && u != v,
            GraphEdit::RemoveEdge(u, v) => in_range(u) && in_range(v),
            GraphEdit::InsertVertex => true,
            GraphEdit::RemoveVertex(v) => in_range(v),
        };
        if ok {
            Ok(())
        } else {
            Err(edit)
        }
    }

    /// Applies one [`GraphEdit`].
    ///
    /// # Panics
    ///
    /// Panics exactly when [`check_edit`](Graph::check_edit) rejects
    /// `edit` (out-of-range endpoints, self-loop insertion).
    pub fn apply_edit(&mut self, edit: GraphEdit) {
        match edit {
            GraphEdit::InsertEdge(u, v) => {
                self.insert_edge(u, v);
            }
            GraphEdit::RemoveEdge(u, v) => {
                self.remove_edge(u, v);
            }
            GraphEdit::InsertVertex => {
                self.insert_vertex();
            }
            GraphEdit::RemoveVertex(v) => {
                self.remove_vertex(v);
            }
        }
    }

    /// Whether `v` participates in the live topology. A vertex is dead
    /// iff isolated (degree 0) — the tombstone state
    /// [`remove_vertex`](Graph::remove_vertex) leaves behind.
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.degree(v) > 0
    }

    /// The sorted list of alive (non-isolated) vertices.
    pub fn alive_vertices(&self) -> Vec<VertexId> {
        (0..self.n() as u32).filter(|&v| self.is_alive(v)).collect()
    }

    /// Number of alive (non-isolated) vertices.
    pub fn alive_count(&self) -> usize {
        (0..self.n() as u32).filter(|&v| self.is_alive(v)).count()
    }

    /// Whether the alive vertices form one connected component
    /// (vacuously true with no alive vertices). Unlike
    /// [`is_connected`](Graph::is_connected) this ignores isolated
    /// tombstone slots, so it is the right connectivity notion for a
    /// graph that has seen vertex churn.
    pub fn is_connected_alive(&self) -> bool {
        let Some(start) = (0..self.n() as u32).find(|&v| self.is_alive(v)) else {
            return true;
        };
        let dist = self.bfs_distances(start);
        (0..self.n()).all(|v| !self.is_alive(v as u32) || dist[v] != u32::MAX)
    }

    /// The bridge edges (cut edges) as sorted `(min, max)` pairs: edges
    /// whose removal disconnects their component. A pair carried by
    /// parallel copies is never a bridge. Runs an iterative low-link
    /// DFS; deterministic output (sorted).
    pub fn bridges(&self) -> Vec<(VertexId, VertexId)> {
        let n = self.n();
        let mut disc = vec![u32::MAX; n];
        let mut low = vec![u32::MAX; n];
        let mut timer = 0u32;
        let mut out = Vec::new();
        // Frame: (vertex, parent, adjacency cursor, parent edge skipped
        // once). Skipping exactly one traversal back through the tree
        // edge lets a parallel copy act as a back edge, which is what
        // makes multi-edges bridge-free.
        let mut stack: Vec<(u32, u32, usize, bool)> = Vec::new();
        for root in 0..n as u32 {
            if disc[root as usize] != u32::MAX || self.degree(root) == 0 {
                continue;
            }
            disc[root as usize] = timer;
            low[root as usize] = timer;
            timer += 1;
            stack.push((root, u32::MAX, self.offsets[root as usize] as usize, true));
            while let Some(frame) = stack.last_mut() {
                let (v, parent) = (frame.0, frame.1);
                let hi = self.offsets[v as usize + 1] as usize;
                let mut child = None;
                while frame.2 < hi {
                    let w = self.targets[frame.2];
                    frame.2 += 1;
                    if w == parent && !frame.3 {
                        frame.3 = true;
                        continue;
                    }
                    if disc[w as usize] == u32::MAX {
                        child = Some(w);
                        break;
                    }
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
                if let Some(w) = child {
                    disc[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push((w, v, self.offsets[w as usize] as usize, false));
                } else {
                    stack.pop();
                    if parent != u32::MAX {
                        let lv = low[v as usize];
                        low[parent as usize] = low[parent as usize].min(lv);
                        if lv > disc[parent as usize] {
                            out.push((parent.min(v), parent.max(v)));
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree of vertex `v` (counting parallel edges).
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all vertices; 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v as VertexId)).max().unwrap_or(0)
    }

    /// Sum of degrees of the vertices in `set`.
    pub fn volume(&self, set: &[VertexId]) -> usize {
        set.iter().map(|&v| self.degree(v)).sum()
    }

    /// Neighbors of `v` (with multiplicity, in insertion order).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Iterates over each undirected edge once, as `(u, v)` with
    /// `u < v`. For parallel edges, each copy is yielded.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n() as u32).flat_map(move |u| {
            self.neighbors(u).iter().filter(move |&&v| u < v).map(move |&v| (u, v))
        })
    }

    /// Whether `{u, v}` is an edge (linear scan of the smaller adjacency).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).contains(&b)
    }

    /// Canonical dense edge id of the unordered pair `{u, v}`, or
    /// `None` if they are not adjacent. Parallel copies share one id;
    /// ids cover `0..edge_id_count()` with no gaps.
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let lo = self.offsets[a as usize] as usize;
        let hi = self.offsets[a as usize + 1] as usize;
        self.targets[lo..hi].iter().position(|&w| w == b).map(|off| self.edge_ids[lo + off])
    }

    /// Size of the dense edge-id space. On a freshly built graph this
    /// is exactly the number of distinct unordered pairs carrying an
    /// edge; after [`remove_edge`](Graph::remove_edge) some ids may be
    /// tombstones (the space is a high-water mark and never shrinks, so
    /// arenas indexed by edge id stay valid across edits).
    pub fn edge_id_count(&self) -> usize {
        self.distinct_pairs
    }

    /// Edge ids of `v`'s adjacency slots, aligned with
    /// [`neighbors`](Graph::neighbors).
    pub fn neighbor_edge_ids(&self, v: VertexId) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edge_ids[lo..hi]
    }

    /// BFS distances from `src`; unreachable vertices map to `u32::MAX`.
    pub fn bfs_distances(&self, src: VertexId) -> Vec<u32> {
        self.bfs_distances_multi(&[src])
    }

    /// BFS distances from the nearest of several sources.
    pub fn bfs_distances_multi(&self, sources: &[VertexId]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = VecDeque::new();
        for &s in sources {
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in self.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// A shortest path from `src` to `dst` as a vertex sequence, or
    /// `None` if `dst` is unreachable.
    ///
    /// Runs a bidirectional BFS (expanding the smaller frontier level
    /// by level), so on expanders each query touches `O(√n·poly)`
    /// vertices instead of `O(n)`. Each call allocates a fresh
    /// [`BfsScratch`]; repeated lookups should reuse one through
    /// [`shortest_path_into`](Graph::shortest_path_into).
    pub fn shortest_path(&self, src: VertexId, dst: VertexId) -> Option<Vec<VertexId>> {
        let mut scratch = BfsScratch::default();
        let mut path = Vec::new();
        self.shortest_path_into(src, dst, &mut scratch, &mut path).then_some(path)
    }

    /// Allocation-free [`shortest_path`](Graph::shortest_path): writes
    /// the vertex walk into `path` (cleared first) reusing `scratch`'s
    /// buffers, and returns whether the endpoints are connected. Warm
    /// repeated calls — the decomposition router's per-piece legs —
    /// allocate nothing.
    pub fn shortest_path_into(
        &self,
        src: VertexId,
        dst: VertexId,
        scratch: &mut BfsScratch,
        path: &mut Vec<VertexId>,
    ) -> bool {
        path.clear();
        if src == dst {
            path.push(src);
            return true;
        }
        let n = self.n();
        scratch.reset(n);
        let BfsScratch { par_s, par_d, touched, front_s, front_d, next } = scratch;
        // Parent trees of the two searches; a vertex is visited by a
        // side iff its parent there is set.
        par_s[src as usize] = src;
        par_d[dst as usize] = dst;
        touched.push(src);
        touched.push(dst);
        front_s.push(src);
        front_d.push(dst);
        let meet = 'search: loop {
            if front_s.is_empty() || front_d.is_empty() {
                return false;
            }
            let from_src = front_s.len() <= front_d.len();
            let (frontier, this_par, other_par) = if from_src {
                (&*front_s, &mut *par_s, &*par_d)
            } else {
                (&*front_d, &mut *par_d, &*par_s)
            };
            next.clear();
            for &u in frontier {
                for &v in self.neighbors(u) {
                    if this_par[v as usize] != u32::MAX {
                        continue;
                    }
                    this_par[v as usize] = u;
                    touched.push(v);
                    if other_par[v as usize] != u32::MAX {
                        // First meeting vertex after complete levels on
                        // both sides lies on a shortest path.
                        break 'search v;
                    }
                    next.push(v);
                }
            }
            if from_src {
                std::mem::swap(front_s, next);
            } else {
                std::mem::swap(front_d, next);
            }
        };
        // Stitch the two parent chains at the meeting vertex.
        let mut cur = meet;
        while cur != src {
            path.push(cur);
            cur = par_s[cur as usize];
        }
        path.push(src);
        path.reverse();
        let mut cur = meet;
        while cur != dst {
            cur = par_d[cur as usize];
            path.push(cur);
        }
        true
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let dist = self.bfs_distances(0);
        dist.iter().all(|&d| d != u32::MAX)
    }

    /// Eccentricity of `v`: the maximum BFS distance to any vertex.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn eccentricity(&self, v: VertexId) -> u32 {
        let dist = self.bfs_distances(v);
        let max = dist.iter().copied().max().unwrap_or(0);
        assert!(max != u32::MAX, "eccentricity of a disconnected graph");
        max
    }

    /// Exact diameter via all-pairs BFS. Intended for small graphs.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or empty.
    pub fn diameter_exact(&self) -> u32 {
        assert!(self.n() > 0, "diameter of the empty graph");
        (0..self.n() as u32).map(|v| self.eccentricity(v)).max().expect("non-empty")
    }

    /// Diameter estimate in `[D/2, D]` via a double BFS sweep: the
    /// eccentricity of the last vertex farthest from vertex 0. Returns
    /// 0 when the graph has at most one vertex and `u32::MAX` when it
    /// is disconnected.
    pub fn diameter_estimate(&self) -> u32 {
        if self.n() <= 1 {
            return 0;
        }
        let d0 = self.bfs_distances(0);
        if d0.contains(&u32::MAX) {
            return u32::MAX;
        }
        let (far, _) = d0.iter().enumerate().max_by_key(|&(_, d)| *d).expect("non-empty");
        self.eccentricity(far as VertexId)
    }

    /// Induced subgraph on `keep` (which need not be sorted).
    ///
    /// Returns the subgraph together with the map `new id -> old id`
    /// (i.e. `mapping[new]` is the original vertex).
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut new_id = vec![u32::MAX; self.n()];
        let mut mapping = keep.to_vec();
        mapping.sort_unstable();
        mapping.dedup();
        for (i, &v) in mapping.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for &u in &mapping {
            for &v in self.neighbors(u) {
                if u < v && new_id[v as usize] != u32::MAX {
                    edges.push((new_id[u as usize], new_id[v as usize]));
                }
            }
        }
        (Graph::from_edges(mapping.len(), &edges), mapping)
    }

    /// Connected components; returns `component[v]` in `0..count` and the
    /// number of components.
    pub fn components(&self) -> (Vec<u32>, usize) {
        let mut comp = vec![u32::MAX; self.n()];
        let mut count = 0u32;
        for s in 0..self.n() as u32 {
            if comp[s as usize] != u32::MAX {
                continue;
            }
            comp[s as usize] = count;
            let mut queue = VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = count;
                        queue.push_back(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count as usize)
    }
}

/// Reusable buffers for repeated
/// [`shortest_path_into`](Graph::shortest_path_into) calls: the two
/// parent trees, a touched list that resets them in `O(visited)`, and
/// the frontier queues.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    par_s: Vec<u32>,
    par_d: Vec<u32>,
    touched: Vec<u32>,
    front_s: Vec<u32>,
    front_d: Vec<u32>,
    next: Vec<u32>,
}

impl BfsScratch {
    /// Clears the previous search and (grow-only) sizes for `n`
    /// vertices.
    fn reset(&mut self, n: usize) {
        if self.par_s.len() < n {
            self.par_s.resize(n, u32::MAX);
            self.par_d.resize(n, u32::MAX);
        }
        for &v in &self.touched {
            self.par_s[v as usize] = u32::MAX;
            self.par_d[v as usize] = u32::MAX;
        }
        self.touched.clear();
        self.front_s.clear();
        self.front_d.clear();
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn parallel_edges_counted() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = cycle(5);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn bfs_distances_on_cycle() {
        let g = cycle(6);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = cycle(8);
        let p = g.shortest_path(0, 3).expect("connected");
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        assert_eq!(p.len(), 4);
        assert_eq!(g.shortest_path(2, 2), Some(vec![2]));
    }

    #[test]
    fn bidirectional_paths_are_shortest_and_valid() {
        let g = crate::generators::random_regular(128, 4, 13).expect("generator");
        for (src, dst) in [(0u32, 127u32), (5, 64), (17, 17), (90, 3)] {
            let dist = g.bfs_distances(src)[dst as usize] as usize;
            let p = g.shortest_path(src, dst).expect("connected");
            assert_eq!(p.len() - 1, dist, "length is the BFS distance");
            assert_eq!((*p.first().unwrap(), *p.last().unwrap()), (src, dst));
            assert!(p.windows(2).all(|w| g.has_edge(w[0], w[1])), "every hop is an edge");
        }
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(disconnected.shortest_path(0, 3), None);
    }

    #[test]
    fn diameter_of_cycle() {
        let g = cycle(10);
        assert_eq!(g.diameter_exact(), 5);
        let est = g.diameter_estimate();
        assert!((3..=5).contains(&est), "estimate {est} out of [D/2, D]");
    }

    #[test]
    fn diameter_estimate_of_degenerate_graphs() {
        assert_eq!(Graph::from_edges(4, &[(0, 1), (2, 3)]).diameter_estimate(), u32::MAX);
        assert_eq!(Graph::from_edges(1, &[]).diameter_estimate(), 0);
        assert_eq!(Graph::from_edges(0, &[]).diameter_estimate(), 0);
    }

    #[test]
    fn check_edit_accepts_exactly_what_apply_edit_does() {
        let g = cycle(4);
        for ok in [
            GraphEdit::InsertEdge(0, 2),
            GraphEdit::RemoveEdge(3, 1),
            GraphEdit::RemoveEdge(2, 2),
            GraphEdit::InsertVertex,
            GraphEdit::RemoveVertex(3),
        ] {
            assert_eq!(g.check_edit(ok), Ok(()), "{ok}");
            g.clone().apply_edit(ok);
        }
        for bad in [
            GraphEdit::InsertEdge(0, 4),
            GraphEdit::InsertEdge(3, 3),
            GraphEdit::RemoveEdge(9, 0),
            GraphEdit::RemoveVertex(4),
        ] {
            assert_eq!(g.check_edit(bad), Err(bad), "{bad}");
            let applied = std::panic::catch_unwind(|| g.clone().apply_edit(bad));
            assert!(applied.is_err(), "{bad} must panic in apply_edit");
        }
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        let (comp, count) = g.components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn induced_subgraph_maps_back() {
        let g = cycle(6);
        let (sub, map) = g.induced_subgraph(&[0, 1, 2, 3]);
        assert_eq!(sub.n(), 4);
        assert_eq!(sub.m(), 3); // path 0-1-2-3; edge (3,0) of the cycle is cut
        assert_eq!(map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_source_bfs() {
        let g = cycle(8);
        let d = g.bfs_distances_multi(&[0, 4]);
        assert_eq!(d[2], 2);
        assert_eq!(d[6], 2);
        assert_eq!(d[3], 1);
    }

    #[test]
    fn edge_ids_are_dense_and_symmetric() {
        let g = cycle(6);
        assert_eq!(g.edge_id_count(), 6);
        let mut seen = [false; 6];
        for (u, v) in g.edges() {
            let id = g.edge_id(u, v).expect("edge present");
            assert_eq!(g.edge_id(v, u), Some(id), "ids are unordered");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "ids cover 0..edge_id_count()");
        assert_eq!(g.edge_id(0, 3), None);
        for v in 0..6u32 {
            assert_eq!(g.neighbor_edge_ids(v).len(), g.degree(v));
        }
    }

    #[test]
    fn parallel_edges_share_an_id() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(g.m(), 3);
        assert_eq!(g.edge_id_count(), 2, "parallel copies collapse to one pair id");
        let id01 = g.edge_id(0, 1).expect("edge");
        assert!(g.neighbor_edge_ids(0).iter().all(|&e| e == id01));
    }

    #[test]
    fn volume_sums_degrees() {
        let g = cycle(5);
        assert_eq!(g.volume(&[0, 1]), 4);
    }

    /// Mutations must leave the adjacency indistinguishable from a
    /// fresh `from_edges` on the equivalently edited edge list: an
    /// edited graph is the graph its edge list describes.
    #[test]
    fn mutations_match_from_edges_order() {
        let base = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)];
        let mut g = Graph::from_edges(5, &base);
        assert!(g.remove_edge(2, 3).is_some());
        g.insert_edge(0, 2);
        let expected = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (4, 0), (1, 3), (0, 2)]);
        assert_eq!(g.m(), expected.m());
        for v in 0..5u32 {
            assert_eq!(g.neighbors(v), expected.neighbors(v), "adjacency of {v}");
        }
        assert_eq!(g.edges().collect::<Vec<_>>(), expected.edges().collect::<Vec<_>>());
    }

    #[test]
    fn remove_edge_takes_first_parallel_copy() {
        let mut g = Graph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        let id = g.remove_edge(0, 1).expect("edge present");
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.edge_id(0, 1), Some(id), "surviving copy keeps the shared pair id");
        assert_eq!(g.remove_edge(0, 2), None);
    }

    #[test]
    fn epoch_tracks_structural_edits() {
        let mut g = cycle(4);
        assert_eq!(g.epoch(), 0);
        g.insert_edge(0, 2);
        assert_eq!(g.epoch(), 1);
        g.remove_edge(0, 2);
        assert_eq!(g.epoch(), 2);
        let v = g.insert_vertex();
        assert_eq!(g.epoch(), 3);
        assert_eq!(v, 4);
        g.insert_edge(v, 0);
        g.remove_vertex(v);
        assert_eq!(g.epoch(), 5, "remove_vertex bumps once per edge copy");
        assert_eq!(g.remove_vertex(v), 0, "already isolated");
        assert_eq!(g.epoch(), 5, "no-op removal leaves the epoch alone");
    }

    #[test]
    fn edge_ids_are_tombstoned_not_reused() {
        let mut g = cycle(4); // pairs (0,1)=0 (0,3)=1 (1,2)=2 (2,3)=3
        let old = g.edge_id(1, 2).expect("edge");
        g.remove_edge(1, 2);
        assert_eq!(g.edge_id_count(), 4, "id space never shrinks");
        let fresh = g.insert_edge(1, 3);
        assert_eq!(fresh, 4, "new pair gets the next high-water id");
        let reinserted = g.insert_edge(1, 2);
        assert_eq!(reinserted, 5, "tombstoned id {old} is not resurrected");
        assert_eq!(g.edge_id_count(), 6);
        // A parallel copy of a live pair still shares its id.
        assert_eq!(g.insert_edge(1, 3), fresh);
    }

    #[test]
    fn equality_and_hash_ignore_epoch() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let g1 = cycle(5);
        let mut g2 = cycle(5);
        g2.insert_edge(0, 2);
        g2.remove_edge(0, 2);
        assert!(g2.epoch() > 0 && g1.epoch() == 0);
        assert_ne!(g1, g2, "tombstoned id space is structural");
        let mut g3 = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        g3.insert_edge(2, 3);
        let g4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        // Same storage, different histories: ids agree because the
        // inserted pair is lexicographically last, so epoch (1 vs 0)
        // is the only difference — and equality ignores it.
        assert_eq!(g3, g4);
        let hash = |g: &Graph| {
            let mut h = DefaultHasher::new();
            g.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&g3), hash(&g4));
    }

    #[test]
    fn remove_vertex_leaves_tombstone_slot() {
        let mut g = cycle(6);
        assert_eq!(g.remove_vertex(2), 2);
        assert_eq!(g.n(), 6, "vertex ids never shift");
        assert!(!g.is_alive(2));
        assert_eq!(g.alive_count(), 5);
        assert_eq!(g.alive_vertices(), vec![0, 1, 3, 4, 5]);
        assert!(!g.is_connected(), "tombstone slot breaks naive connectivity");
        assert!(g.is_connected_alive(), "cycle minus a vertex is a path");
        g.remove_edge(4, 5);
        assert!(!g.is_connected_alive(), "path cut into {{1-0-5}} and {{3-4}}");
        g.insert_edge(1, 3);
        assert!(g.is_connected_alive(), "patched around the dead vertex");
        assert!(!g.is_connected(), "the tombstone itself stays isolated");
    }

    #[test]
    fn bridges_on_known_graphs() {
        // Two triangles joined by one bridge.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        assert_eq!(g.bridges(), vec![(2, 3)]);
        // A tree: every edge is a bridge.
        let t = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(t.bridges(), vec![(0, 1), (1, 2), (1, 3)]);
        // A cycle has none; a doubled bridge is no bridge.
        assert!(cycle(5).bridges().is_empty());
        let doubled = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 2), (2, 3)]);
        assert_eq!(doubled.bridges(), vec![(0, 1), (2, 3)]);
        // Disconnected graphs are handled per component.
        let two = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(two.bridges(), vec![(0, 1), (2, 3)]);
    }
}
