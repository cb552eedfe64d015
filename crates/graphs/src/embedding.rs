//! Virtual-graph embeddings: mapping virtual edges to host paths.
//!
//! §2 of the paper: an embedding of `H₁` into `H₂` (with
//! `V(H₁) ⊆ V(H₂)`) maps each edge of `H₁` to a path of `H₂`. Embeddings
//! compose (`g ∘ f` embeds `H₁` into `H₃` when `f : H₁ → H₂`,
//! `g : H₂ → H₃`) and union (`f ∪ g` for disjoint virtual vertex sets).
//! The hierarchical decomposition's *flatten embedding* `f⁰_X`
//! (Definition 3.3) is an iterated composition down to the base graph.

use crate::graph::VertexId;
use crate::paths::{Path, PathSet};
use std::collections::HashMap;

/// An embedding of a virtual graph into a host graph.
///
/// Entry `i` maps the virtual edge `edges()[i] = (u, v)` to a host path
/// from `u` to `v`. Virtual vertex ids live in the same id space as host
/// vertex ids (the paper always has `V(H₁) ⊆ V(H₂)`).
///
/// Parallel virtual edges are allowed (virtual graphs here are unions of
/// matchings, which may repeat a pair); composition distributes uses
/// over the parallel copies round-robin to avoid artificial congestion.
///
/// # Example
///
/// ```
/// use expander_graphs::{Embedding, Path};
///
/// let mut f = Embedding::new();
/// f.push(0, 2, Path::new(vec![0, 1, 2]));
/// assert_eq!(f.len(), 1);
/// assert_eq!(f.quality(), 3); // congestion 1 + dilation 2
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Embedding {
    edges: Vec<(VertexId, VertexId)>,
    paths: Vec<Path>,
}

impl Embedding {
    /// Creates an empty embedding.
    pub fn new() -> Self {
        Embedding { edges: Vec::new(), paths: Vec::new() }
    }

    /// Adds a virtual edge `(u, v)` realized by `path`.
    ///
    /// # Panics
    ///
    /// Panics if the path endpoints are not `{u, v}` in order.
    pub fn push(&mut self, u: VertexId, v: VertexId, path: Path) {
        assert_eq!(path.source(), u, "path must start at u");
        assert_eq!(path.target(), v, "path must end at v");
        self.edges.push((u, v));
        self.paths.push(path);
    }

    /// Number of embedded virtual edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the embedding is empty.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The virtual edges, in insertion order.
    pub fn virtual_edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Host path realizing virtual edge `i`.
    pub fn path(&self, i: usize) -> &Path {
        &self.paths[i]
    }

    /// Iterates over `(u, v, path)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, &Path)> {
        self.edges.iter().zip(&self.paths).map(|(&(u, v), p)| (u, v, p))
    }

    /// All host paths as a [`PathSet`] (cloned).
    pub fn to_path_set(&self) -> PathSet {
        PathSet::from_paths(self.paths.clone())
    }

    /// Decomposes the embedding into its virtual edges and paths,
    /// aligned by index — the move-based counterpart of iterating and
    /// cloning every path.
    pub fn into_parts(self) -> (Vec<(VertexId, VertexId)>, Vec<Path>) {
        (self.edges, self.paths)
    }

    /// Quality `Q(f)` of the embedding: the quality of its path set,
    /// computed without cloning the paths.
    pub fn quality(&self) -> usize {
        let c = crate::paths::congestion_of(self.paths.iter());
        let d = self.paths.iter().map(Path::hops).max().unwrap_or(0);
        c + d
    }

    /// Union of two embeddings (paper's `f ∪ g`). The virtual edge sets
    /// are concatenated; callers are responsible for vertex-set
    /// disjointness where the paper requires it.
    pub fn union(mut self, other: Embedding) -> Embedding {
        self.edges.extend(other.edges);
        self.paths.extend(other.paths);
        self
    }

    /// Composition `self ∘ f` for every `f` in `batch`: embeds each
    /// inner embedding's virtual graph into this embedding's host
    /// graph (`f : H₁ → H₂`, `self : H₂ → H₃`), in batch order.
    ///
    /// One edge index serves the whole batch. Parallel copies are
    /// handed out round-robin, and the rotation starts over for every
    /// inner embedding, so each result equals composing its embedding
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if some edge used by an inner embedding's paths has no
    /// embedding in `self` — that indicates a broken hierarchy.
    pub fn compose_after<'a>(
        &self,
        batch: impl IntoIterator<Item = &'a Embedding>,
    ) -> Vec<Embedding> {
        // One EdgeIndex for the whole batch: rebuilding it per mapped
        // path, or per inner embedding, turns flattening quadratic.
        let mut index = EdgeIndex::build(self);
        batch
            .into_iter()
            .map(|f| {
                index.restart_rotation();
                let mut out = Embedding::new();
                for (u, v, p) in f.iter() {
                    let mapped = self
                        .map_walk_indexed(p.vertices(), &mut index)
                        .expect("inner embedding uses an edge missing from the outer embedding");
                    out.push(u, v, mapped);
                }
                out
            })
            .collect()
    }

    /// Routes a walk in this embedding's virtual graph down to the
    /// host graph, splicing the embedded path of every virtual hop.
    /// Consecutive duplicate vertices are skipped; `index` hands out
    /// parallel-edge copies round-robin. Returns `None` if some hop
    /// has no embedded edge.
    fn map_walk_indexed(&self, walk: &[VertexId], index: &mut EdgeIndex) -> Option<Path> {
        let mut out: Vec<VertexId> = vec![walk[0]];
        for w in walk.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            let (i, rev) = index.lookup(a, b)?;
            let p = &self.paths[i];
            let verts = p.vertices();
            if rev {
                out.extend(verts.iter().rev().skip(1));
            } else {
                out.extend(verts.iter().skip(1));
            }
        }
        Some(Path::new(out))
    }
}

/// The embedded copies of every unordered virtual pair, with the
/// round-robin cursor over them.
struct EdgeIndex {
    by_pair: HashMap<(VertexId, VertexId), Copies>,
    /// Which inner embedding of the batch is being mapped; a cursor
    /// stamped with an older one starts over at the first copy.
    rotation: u32,
}

struct Copies {
    /// `(edge index, stored max -> min)` per parallel copy.
    slots: Vec<(usize, bool)>,
    /// Uses of this pair so far in rotation `rotation`.
    used: usize,
    rotation: u32,
}

impl EdgeIndex {
    fn build(e: &Embedding) -> Self {
        let mut by_pair: HashMap<(VertexId, VertexId), Copies> = HashMap::new();
        for (i, &(u, v)) in e.edges.iter().enumerate() {
            let key = (u.min(v), u.max(v));
            let reversed_in_key = u > v;
            by_pair
                .entry(key)
                .or_insert_with(|| Copies { slots: Vec::new(), used: 0, rotation: 0 })
                .slots
                .push((i, reversed_in_key));
        }
        EdgeIndex { by_pair, rotation: 0 }
    }

    /// Starts the round-robin over for the next inner embedding.
    fn restart_rotation(&mut self) {
        self.rotation += 1;
    }

    /// Finds an embedded copy for virtual hop `a -> b`; returns
    /// `(index, traverse_reversed)`.
    fn lookup(&mut self, a: VertexId, b: VertexId) -> Option<(usize, bool)> {
        let copies = self.by_pair.get_mut(&(a.min(b), a.max(b)))?;
        if copies.rotation != self.rotation {
            copies.rotation = self.rotation;
            copies.used = 0;
        }
        let (idx, stored_rev) = copies.slots[copies.used % copies.slots.len()];
        copies.used += 1;
        // stored_rev: the stored path runs max->min. We need a->b.
        let need_rev = a > b;
        Some((idx, stored_rev != need_rev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(v: &[u32]) -> Path {
        Path::new(v.to_vec())
    }

    #[test]
    fn push_validates_endpoints() {
        let mut f = Embedding::new();
        f.push(1, 3, path(&[1, 2, 3]));
        assert_eq!(f.len(), 1);
    }

    #[test]
    #[should_panic(expected = "path must end at v")]
    fn push_rejects_bad_target() {
        let mut f = Embedding::new();
        f.push(1, 3, path(&[1, 2]));
    }

    #[test]
    fn compose_splices_paths() {
        // H1 edge (0,4) -> H2 path 0-2-4; H2 edges embed into H3.
        let mut inner = Embedding::new();
        inner.push(0, 4, path(&[0, 2, 4]));
        let mut outer = Embedding::new();
        outer.push(0, 2, path(&[0, 1, 2]));
        outer.push(2, 4, path(&[2, 3, 4]));
        let composed = outer.compose_after([&inner]).remove(0);
        assert_eq!(composed.len(), 1);
        assert_eq!(composed.path(0).vertices(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn compose_handles_reversed_traversal() {
        let mut inner = Embedding::new();
        inner.push(4, 0, path(&[4, 2, 0]));
        let mut outer = Embedding::new();
        outer.push(0, 2, path(&[0, 1, 2]));
        outer.push(2, 4, path(&[2, 3, 4]));
        let composed = outer.compose_after([&inner]).remove(0);
        assert_eq!(composed.path(0).vertices(), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn compose_spreads_parallel_copies() {
        let mut outer = Embedding::new();
        outer.push(0, 1, path(&[0, 5, 1]));
        outer.push(0, 1, path(&[0, 6, 1]));
        let mut inner = Embedding::new();
        inner.push(0, 1, path(&[0, 1]));
        inner.push(0, 1, path(&[0, 1]));
        let mids = |composed: &Embedding| -> Vec<u32> {
            (0..composed.len()).map(|i| composed.path(i).vertices()[1]).collect()
        };
        let composed = outer.compose_after([&inner]).remove(0);
        assert_eq!(mids(&composed), vec![5, 6], "round-robin over parallel copies");
        // In a batch the rotation starts over for every inner
        // embedding, so each result equals a separate composition.
        let batch = outer.compose_after([&inner, &inner]);
        assert_eq!(batch.len(), 2);
        for composed in &batch {
            assert_eq!(mids(composed), vec![5, 6], "rotation restarts per inner embedding");
        }
        // An odd number of uses first: a rotation carried over would
        // start the next embedding at the second copy.
        let mut once = Embedding::new();
        once.push(0, 1, path(&[0, 1]));
        let batch = outer.compose_after([&once, &inner]);
        assert_eq!(mids(&batch[0]), vec![5]);
        assert_eq!(mids(&batch[1]), vec![5, 6], "rotation restarts per inner embedding");
    }

    #[test]
    fn into_parts_keeps_alignment() {
        let mut f = Embedding::new();
        f.push(0, 2, path(&[0, 1, 2]));
        f.push(3, 4, path(&[3, 4]));
        let (edges, paths) = f.into_parts();
        assert_eq!(edges, vec![(0, 2), (3, 4)]);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[1].vertices(), &[3, 4]);
    }

    #[test]
    fn union_concatenates() {
        let mut f = Embedding::new();
        f.push(0, 1, path(&[0, 1]));
        let mut g = Embedding::new();
        g.push(2, 3, path(&[2, 3]));
        let u = f.union(g);
        assert_eq!(u.len(), 2);
        assert_eq!(u.virtual_edges(), &[(0, 1), (2, 3)]);
    }

    #[test]
    fn quality_reflects_paths() {
        let mut f = Embedding::new();
        f.push(0, 2, path(&[0, 1, 2]));
        f.push(3, 2, path(&[3, 1, 2]));
        assert_eq!(f.quality(), 2 + 2);
    }

    #[test]
    fn trivial_hops_are_skipped_in_composition() {
        let mut outer = Embedding::new();
        outer.push(0, 1, path(&[0, 1]));
        let mut inner = Embedding::new();
        inner.push(0, 1, Path::new(vec![0, 0, 1, 1]));
        let composed = outer.compose_after([&inner]).remove(0);
        assert_eq!(composed.path(0).vertices(), &[0, 1]);
    }
}
