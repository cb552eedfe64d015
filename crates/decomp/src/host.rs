//! Host graphs: the adjacency a cut-matching game runs in.
//!
//! Every level of the hierarchy plays its cut-matching game inside the
//! *virtual* graph of the level above (the root plays inside the base
//! graph `G`). A [`HostGraph`] is that adjacency, kept in global vertex
//! ids with a local re-indexing for fast BFS.

use expander_graphs::{Graph, Path, VertexId};
use std::collections::VecDeque;

/// Adjacency over a subset of global vertex ids.
#[derive(Debug, Clone)]
pub struct HostGraph {
    /// Sorted global ids of the host's vertices.
    vertices: Vec<VertexId>,
    /// global id -> local index (`u32::MAX` when absent); length =
    /// global n.
    local: Vec<u32>,
    /// Local adjacency lists (local indices).
    adj: Vec<Vec<u32>>,
    /// Canonical edge id per adjacency slot, aligned with `adj`.
    /// Parallel copies of an unordered local pair share one id, so the
    /// ids form the dense space `0..edge_space()` used by the packer's
    /// congestion vectors.
    eids: Vec<Vec<u32>>,
    edge_count: usize,
    edge_space: usize,
}

impl HostGraph {
    /// Host covering the entire base graph.
    pub fn from_graph(g: &Graph) -> HostGraph {
        let vertices: Vec<u32> = (0..g.n() as u32).collect();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        HostGraph::from_edges(g.n(), vertices, &edges)
    }

    /// Host over `vertices` (global ids, deduplicated and sorted
    /// internally) with the given global-id edges. Edges with an
    /// endpoint outside `vertices` are rejected.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is not in `vertices`.
    pub fn from_edges(
        global_n: usize,
        mut vertices: Vec<VertexId>,
        edges: &[(VertexId, VertexId)],
    ) -> HostGraph {
        vertices.sort_unstable();
        vertices.dedup();
        let mut local = vec![u32::MAX; global_n];
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        // Canonical pair ids over local endpoints (same id semantics as
        // `Graph::edge_id`: parallel copies share one dense id).
        let local_edges: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| {
                let (lu, lv) = (local[u as usize], local[v as usize]);
                assert!(lu != u32::MAX && lv != u32::MAX, "edge endpoint outside host vertex set");
                (lu, lv)
            })
            .collect();
        let (pair_of_edge, edge_space) = expander_graphs::graph::canonical_pair_ids(&local_edges);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); vertices.len()];
        let mut eids: Vec<Vec<u32>> = vec![Vec::new(); vertices.len()];
        for (i, &(u, v)) in edges.iter().enumerate() {
            let (lu, lv) = (local[u as usize], local[v as usize]);
            adj[lu as usize].push(lv);
            eids[lu as usize].push(pair_of_edge[i]);
            adj[lv as usize].push(lu);
            eids[lv as usize].push(pair_of_edge[i]);
        }
        HostGraph { vertices, local, adj, eids, edge_count: edges.len(), edge_space }
    }

    /// Number of host vertices.
    pub fn n(&self) -> usize {
        self.vertices.len()
    }

    /// Number of host edges (with multiplicity).
    pub fn m(&self) -> usize {
        self.edge_count
    }

    /// Sorted global ids.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Local index of a global id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a host vertex.
    pub fn to_local(&self, v: VertexId) -> u32 {
        let l = self.local[v as usize];
        assert!(l != u32::MAX, "vertex {v} not in host");
        l
    }

    /// Whether `v` is a host vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        (v as usize) < self.local.len() && self.local[v as usize] != u32::MAX
    }

    /// Global id of a local index.
    pub fn to_global(&self, l: u32) -> VertexId {
        self.vertices[l as usize]
    }

    /// Local adjacency of a local index.
    pub fn neighbors_local(&self, l: u32) -> &[u32] {
        &self.adj[l as usize]
    }

    /// Canonical edge ids of `l`'s adjacency slots, aligned with
    /// [`neighbors_local`](HostGraph::neighbors_local).
    pub fn neighbor_eids_local(&self, l: u32) -> &[u32] {
        &self.eids[l as usize]
    }

    /// Size of the dense edge-id space (distinct unordered local pairs).
    pub fn edge_space(&self) -> usize {
        self.edge_space
    }

    /// Canonical edge id of the unordered local pair `{a, b}`, or
    /// `None` if not adjacent (linear scan of the smaller adjacency).
    pub fn pair_eid(&self, a: u32, b: u32) -> Option<u32> {
        let (x, y) =
            if self.adj[a as usize].len() <= self.adj[b as usize].len() { (a, b) } else { (b, a) };
        self.adj[x as usize].iter().position(|&w| w == y).map(|off| self.eids[x as usize][off])
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// BFS distances (in local index space) from multiple local sources.
    pub fn bfs_local(&self, sources: &[u32]) -> Vec<u32> {
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
            for &v in &self.adj[u as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Double-sweep diameter estimate (in `[D/2, D]`); `u32::MAX` if the
    /// host is disconnected, 0 if it has at most one vertex.
    pub fn diameter_estimate(&self) -> u32 {
        if self.n() <= 1 {
            return 0;
        }
        let d0 = self.bfs_local(&[0]);
        if d0.contains(&u32::MAX) {
            return u32::MAX;
        }
        let far = d0
            .iter()
            .enumerate()
            .max_by_key(|&(_, d)| *d)
            .map(|(i, _)| i as u32)
            .expect("non-empty");
        let d1 = self.bfs_local(&[far]);
        d1.into_iter().max().expect("non-empty")
    }

    /// Converts a local-index path to a global-id [`Path`].
    pub fn path_to_global(&self, local_path: &[u32]) -> Path {
        Path::new(local_path.iter().map(|&l| self.to_global(l)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    #[test]
    fn from_graph_covers_everything() {
        let g = generators::hypercube(3);
        let h = HostGraph::from_graph(&g);
        assert_eq!(h.n(), 8);
        assert_eq!(h.m(), 12);
        for v in 0..8u32 {
            assert_eq!(h.to_global(h.to_local(v)), v);
            assert_eq!(h.neighbors_local(h.to_local(v)).len(), 3);
        }
    }

    #[test]
    fn subset_host_reindexes() {
        let h = HostGraph::from_edges(10, vec![7, 3, 5], &[(3, 5), (5, 7)]);
        assert_eq!(h.vertices(), &[3, 5, 7]);
        assert_eq!(h.to_local(3), 0);
        assert_eq!(h.to_local(7), 2);
        assert!(h.contains(5));
        assert!(!h.contains(4));
        let d = h.bfs_local(&[0]);
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "outside host")]
    fn rejects_foreign_edges() {
        HostGraph::from_edges(10, vec![1, 2], &[(1, 3)]);
    }

    #[test]
    fn diameter_estimate_bounds() {
        let g = generators::ring(16);
        let h = HostGraph::from_graph(&g);
        let est = h.diameter_estimate();
        assert!((4..=8).contains(&est), "estimate {est}");
    }

    #[test]
    fn edge_ids_are_dense_and_shared_by_parallel_copies() {
        let h = HostGraph::from_edges(10, vec![1, 2, 3], &[(1, 2), (2, 1), (2, 3)]);
        assert_eq!(h.m(), 3);
        assert_eq!(h.edge_space(), 2, "parallel copies collapse to one pair id");
        let (l1, l2, l3) = (h.to_local(1), h.to_local(2), h.to_local(3));
        let e12 = h.pair_eid(l1, l2).expect("edge");
        assert_eq!(h.pair_eid(l2, l1), Some(e12));
        let e23 = h.pair_eid(l2, l3).expect("edge");
        assert_ne!(e12, e23);
        assert!(h.pair_eid(l1, l3).is_none());
        for l in [l1, l2, l3] {
            assert_eq!(h.neighbor_eids_local(l).len(), h.neighbors_local(l).len());
        }
    }

    #[test]
    fn path_to_global_maps_ids() {
        let h = HostGraph::from_edges(10, vec![2, 4, 6], &[(2, 4), (4, 6)]);
        let p = h.path_to_global(&[0, 1, 2]);
        assert_eq!(p.vertices(), &[2, 4, 6]);
    }
}
