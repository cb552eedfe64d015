//! Host graphs: the graph a cut-matching game, a shuffler or a leaf
//! network runs in.
//!
//! Every level of the hierarchy plays its cut-matching game inside the
//! *virtual* graph `H_X` of its node (the root plays inside the base
//! graph `G`). A [`HostGraph`] is that graph: a [`Graph`] over local
//! ids `0..|X|`, plus the map between those ids and the global vertex
//! ids of `X`. Adjacency, canonical edge ids, BFS and the diameter
//! sweep are the [`Graph`]'s, read through [`HostGraph::graph`].

use expander_graphs::{Graph, Path, VertexId};

/// A [`Graph`] over local ids together with its global↔local id map.
#[derive(Debug, Clone)]
pub struct HostGraph {
    /// Sorted global ids of the host's vertices: local id `l` is
    /// `vertices[l]`.
    vertices: Vec<VertexId>,
    /// global id -> local index (`u32::MAX` when absent); length =
    /// global n.
    local: Vec<u32>,
    /// The host's edges over local ids, in the order they were given.
    graph: Graph,
}

impl HostGraph {
    /// Host covering the entire base graph, built from `g.edges()`: each
    /// local adjacency lists its smaller neighbours first, in increasing
    /// order. That can differ from `g`'s own adjacency order, and the
    /// root game's outcome depends on it.
    pub fn from_graph(g: &Graph) -> HostGraph {
        let vertices: Vec<u32> = (0..g.n() as u32).collect();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        HostGraph::from_edges(g.n(), vertices, &edges)
    }

    /// Host over `vertices` (global ids, deduplicated and sorted
    /// internally) with the given global-id edges, in order: the local
    /// graph is [`Graph::from_edges`] over the edges' local ids.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is not in `vertices`, or an edge is a
    /// self-loop.
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
        let local_edges: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| {
                let (lu, lv) = (local[u as usize], local[v as usize]);
                assert!(lu != u32::MAX && lv != u32::MAX, "edge endpoint outside host vertex set");
                (lu, lv)
            })
            .collect();
        let graph = Graph::from_edges(vertices.len(), &local_edges);
        HostGraph { vertices, local, graph }
    }

    /// The host's graph over local ids.
    pub fn graph(&self) -> &Graph {
        &self.graph
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

    /// Global id of a local index.
    pub fn to_global(&self, l: u32) -> VertexId {
        self.vertices[l as usize]
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
        assert_eq!(h.graph().n(), 8);
        assert_eq!(h.graph().m(), 12);
        for v in 0..8u32 {
            assert_eq!(h.to_global(h.to_local(v)), v);
            assert_eq!(h.graph().degree(h.to_local(v)), 3);
        }
    }

    #[test]
    fn subset_host_reindexes() {
        let h = HostGraph::from_edges(10, vec![7, 3, 5], &[(3, 5), (5, 7)]);
        assert_eq!(h.vertices(), &[3, 5, 7]);
        assert_eq!(h.to_local(3), 0);
        assert_eq!(h.to_local(7), 2);
        assert_eq!(h.graph().neighbors(h.to_local(5)), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "outside host")]
    fn rejects_foreign_edges() {
        HostGraph::from_edges(10, vec![1, 2], &[(1, 3)]);
    }

    #[test]
    fn path_to_global_maps_ids() {
        let h = HostGraph::from_edges(10, vec![2, 4, 6], &[(2, 4), (4, 6)]);
        let p = h.path_to_global(&[0, 1, 2]);
        assert_eq!(p.vertices(), &[2, 4, 6]);
    }
}
