//! Flat path arenas: embeddings lowered to contiguous edge-id storage.
//!
//! The query hot path walks precomputed embedded paths millions of
//! times; re-hashing `(u, v)` pairs per hop dominates. A [`FlatPaths`]
//! stores a whole path collection as one contiguous arena of canonical
//! [`Graph`] edge ids (see [`Graph::edge_id`]) plus per-path endpoint
//! records, so congestion accounting is a dense `Vec` index per hop and
//! path metadata reads are offset arithmetic.

use crate::embedding::Embedding;
use crate::graph::{Graph, VertexId};
use crate::paths::Path;

/// A collection of paths lowered to one contiguous edge-id arena.
///
/// Built once (per embedding, per preprocessing pass) against a fixed
/// [`Graph`]; afterwards every hop of path `i` is a dense edge id in
/// `0..edge_space()`, usable as a direct index into per-edge load
/// vectors.
///
/// # Example
///
/// ```
/// use expander_graphs::{FlatPaths, Graph, Path};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let fp = FlatPaths::from_paths(&g, [&Path::new(vec![0, 1, 2]), &Path::new(vec![3, 2, 1])]);
/// assert_eq!(fp.len(), 2);
/// assert_eq!(fp.hops(0), 2);
/// assert_eq!(fp.target(1), 1);
/// assert_eq!(fp.congestion(), 2); // edge (1,2) carries both paths
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatPaths {
    /// Arena offsets: path `i` owns `edge_ids[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Concatenated canonical edge ids of every hop of every path.
    edge_ids: Vec<u32>,
    /// `(source, target)` of each path.
    endpoints: Vec<(VertexId, VertexId)>,
    /// Size of the graph's edge-id space at build time.
    edge_space: u32,
}

impl FlatPaths {
    /// Lowers `paths` against `g`.
    ///
    /// # Panics
    ///
    /// Panics if some hop of some path is not an edge of `g`.
    pub fn from_paths<'a>(g: &Graph, paths: impl IntoIterator<Item = &'a Path>) -> FlatPaths {
        let mut fp = FlatPaths {
            offsets: vec![0],
            edge_ids: Vec::new(),
            endpoints: Vec::new(),
            edge_space: g.edge_id_count() as u32,
        };
        for p in paths {
            fp.push_path(g, p);
        }
        fp
    }

    /// Lowers every path of `emb` against `g`, in embedding order.
    ///
    /// # Panics
    ///
    /// Panics if some hop of some path is not an edge of `g`.
    pub fn from_embedding(g: &Graph, emb: &Embedding) -> FlatPaths {
        FlatPaths::from_paths(g, (0..emb.len()).map(|i| emb.path(i)))
    }

    fn push_path(&mut self, g: &Graph, p: &Path) {
        let verts = p.vertices();
        for w in verts.windows(2) {
            let id = g
                .edge_id(w[0], w[1])
                .unwrap_or_else(|| panic!("path hop ({}, {}) is not a graph edge", w[0], w[1]));
            self.edge_ids.push(id);
        }
        self.offsets.push(self.edge_ids.len() as u32);
        self.endpoints.push((p.source(), p.target()));
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// Whether the arena holds no paths.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// Hop count of path `i`.
    pub fn hops(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Edge ids traversed by path `i`.
    pub fn edge_ids(&self, i: usize) -> &[u32] {
        &self.edge_ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// First vertex of path `i`.
    pub fn source(&self, i: usize) -> VertexId {
        self.endpoints[i].0
    }

    /// Last vertex of path `i`.
    pub fn target(&self, i: usize) -> VertexId {
        self.endpoints[i].1
    }

    /// Size of the edge-id space the arena indexes into.
    pub fn edge_space(&self) -> usize {
        self.edge_space as usize
    }

    /// Maximum number of paths over any single edge (0 when empty),
    /// counted densely over the edge-id space.
    pub fn congestion(&self) -> usize {
        let mut load = vec![0u32; self.edge_space as usize];
        let mut max = 0u32;
        for &e in &self.edge_ids {
            load[e as usize] += 1;
            max = max.max(load[e as usize]);
        }
        max as usize
    }

    /// Maximum path length in hops (0 when empty).
    pub fn dilation(&self) -> usize {
        (0..self.len()).map(|i| self.hops(i)).max().unwrap_or(0)
    }

    /// Quality `congestion + dilation` (§2 of the paper).
    pub fn quality(&self) -> usize {
        self.congestion() + self.dilation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::paths::PathSet;

    #[test]
    fn arena_matches_path_set_accounting() {
        let g = generators::random_regular(64, 4, 3).expect("generator");
        let mut ps = PathSet::new();
        for v in 0..16u32 {
            ps.push(Path::new(g.shortest_path(v, 63 - v).expect("connected")));
        }
        let fp = FlatPaths::from_paths(&g, ps.iter());
        assert_eq!(fp.len(), ps.len());
        assert_eq!(fp.congestion(), ps.congestion());
        assert_eq!(fp.dilation(), ps.dilation());
        assert_eq!(fp.quality(), ps.quality());
    }

    #[test]
    fn endpoints_and_hops_are_preserved() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let fp = FlatPaths::from_paths(&g, [&Path::new(vec![0, 1, 2, 3]), &Path::trivial(4)]);
        assert_eq!(fp.hops(0), 3);
        assert_eq!((fp.source(0), fp.target(0)), (0, 3));
        assert_eq!(fp.hops(1), 0);
        assert_eq!((fp.source(1), fp.target(1)), (4, 4));
        assert_eq!(fp.edge_ids(1), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "not a graph edge")]
    fn rejects_paths_outside_the_graph() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let _ = FlatPaths::from_paths(&g, [&Path::new(vec![0, 2])]);
    }

    #[test]
    fn empty_arena_is_zero_quality() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let fp = FlatPaths::from_paths(&g, []);
        assert!(fp.is_empty());
        assert_eq!(fp.quality(), 0);
    }
}
