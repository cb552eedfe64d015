//! Sorting networks: Batcher odd-even mergesort layers and their
//! embeddings into hierarchy leaves.
//!
//! The paper uses AKS networks (`O(log n)` depth, impractical
//! constants); we substitute Batcher's odd-even mergesort
//! (`O(log² n)` depth, all comparators ascending, valid for arbitrary
//! widths) — substitution 1 in `docs/ARCHITECTURE.md`. Leaf nodes get
//! an *embedded* network: every comparator pair carries an explicit
//! path in the leaf's virtual graph, flattened to the base graph, so
//! layer costs are measured (§6.4's `Q(I_AKS)`).

use expander_decomp::{Hierarchy, HostGraph, NodeId};
use expander_graphs::{Embedding, Path, PathSet, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Comparator layers of Batcher's odd-even mergesort over `m`
/// positions. Every comparator `(a, b)` has `a < b` and routes the
/// minimum to `a`; each layer is a matching on positions.
pub fn odd_even_layers(m: usize) -> Vec<Vec<(usize, usize)>> {
    let mut layers = Vec::new();
    if m < 2 {
        return layers;
    }
    let mut p = 1;
    while p < m {
        let mut k = p;
        while k >= 1 {
            let mut layer = Vec::new();
            let mut j = k % p;
            while j + k < m {
                let limit = k.min(m - j - k);
                for i in 0..limit {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        layer.push((i + j, i + j + k));
                    }
                }
                j += 2 * k;
            }
            if !layer.is_empty() {
                layers.push(layer);
            }
            k /= 2;
        }
        p *= 2;
    }
    layers
}

/// The number of layers [`odd_even_layers`] returns for `m` positions,
/// without building them: `L(L+1)/2` with `L = ⌈log₂ m⌉`, and 0 for
/// `m < 2`.
pub fn odd_even_depth(m: usize) -> usize {
    if m < 2 {
        return 0;
    }
    let l = m.next_power_of_two().trailing_zeros() as usize;
    l * (l + 1) / 2
}

/// Applies the network to a value slice (used by tests and the local
/// comparator simulation).
pub fn apply_network<T: Ord + Copy>(layers: &[Vec<(usize, usize)>], values: &mut [T]) {
    for layer in layers {
        for &(a, b) in layer {
            if values[a] > values[b] {
                values.swap(a, b);
            }
        }
    }
}

/// One embedded comparator layer: the position pairs plus the
/// flattened base-graph paths realizing them (aligned by index).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedLayer {
    /// `(a, b)` position pairs, `a < b`, minimum routed to `a`.
    pub pairs: Vec<(usize, usize)>,
    /// Flattened paths, `paths.iter().nth(i)` connecting pair `i`'s
    /// vertices in the base graph.
    pub paths: PathSet,
}

/// An embedded sorting network over a hierarchy node's vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedNetwork {
    /// The node this network sorts.
    pub node: NodeId,
    /// Comparator layers with embedded paths.
    pub layers: Vec<EmbeddedLayer>,
}

impl EmbeddedNetwork {
    /// Builds the embedded network for a (typically leaf) node:
    /// comparator endpoints are the node's vertices in ID order, and
    /// each pair is realized by a congestion-aware route in the node's
    /// virtual graph (edge cost `(1 + load)²`, so paths spread out —
    /// the same low-congestion outcome the paper gets by laying the
    /// network down with Task 2), flattened to the base graph.
    ///
    /// One search workspace serves every comparator of the node, and
    /// all layers flatten in one batch through the node's flatten
    /// embedding.
    pub fn build(h: &Hierarchy, node: NodeId) -> EmbeddedNetwork {
        let nd = h.node(node);
        let host = HostGraph::from_edges(h.graph().n(), nd.vertices.clone(), &nd.virtual_edges);
        let mut search = SpreadSearch::new(&host);
        let layer_pairs = odd_even_layers(nd.vertices.len());
        let embs: Vec<Embedding> = layer_pairs
            .iter()
            .map(|pairs| {
                search.start_layer();
                let mut emb = Embedding::new();
                for &(a, b) in pairs {
                    let (va, vb) = (nd.vertices[a], nd.vertices[b]);
                    emb.push(va, vb, search.route(va, vb));
                }
                emb
            })
            .collect();
        let layers = layer_pairs
            .into_iter()
            .zip(h.flatten_from(node, &embs))
            .map(|(pairs, flat)| EmbeddedLayer {
                pairs,
                paths: PathSet::from_paths(flat.into_parts().1),
            })
            .collect();
        EmbeddedNetwork { node, layers }
    }

    /// Charged rounds for one full pass at `load` tokens per position
    /// (each layer: Fact 2.2 with the congestion term scaled by the
    /// load).
    pub fn pass_cost(&self, load: u64) -> u64 {
        self.layers.iter().map(|l| congest_sim::cost::route_batched(&l.paths, load)).sum()
    }

    /// Number of comparator layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// Congestion-aware routing in one host graph: Dijkstra with edge cost
/// `(1 + load)²`, bumping the loads along each chosen path, so within
/// one layer the pairs spread over the host instead of piling onto hub
/// edges.
///
/// Loads are indexed by the host graph's canonical pair ids
/// ([`Graph::neighbor_edge_ids`](expander_graphs::Graph::neighbor_edge_ids)),
/// so parallel copies of a pair share one load. The search buffers
/// live as long as the workspace.
struct SpreadSearch<'h> {
    host: &'h HostGraph,
    /// Paths of the current layer through each pair id.
    load: Vec<u64>,
    dist: Vec<u64>,
    /// `(parent, pair id of the hop from it)` per local vertex.
    parent: Vec<(u32, u32)>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    walk: Vec<u32>,
}

impl<'h> SpreadSearch<'h> {
    /// A workspace over `host` with every load zero.
    fn new(host: &'h HostGraph) -> Self {
        let n = host.graph().n();
        SpreadSearch {
            host,
            load: vec![0; host.graph().edge_id_count()],
            dist: vec![u64::MAX; n],
            parent: vec![(u32::MAX, u32::MAX); n],
            heap: BinaryHeap::new(),
            walk: Vec::new(),
        }
    }

    /// Zeroes every load: the next route starts a new layer.
    fn start_layer(&mut self) {
        self.load.fill(0);
    }

    /// The cheapest path from `from` to `to` (global ids) under the
    /// current loads, whose hops then carry one more load each. The
    /// heap pops the least `(distance, local index)`, and a vertex
    /// keeps the first parent that reached its final distance.
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable from `from`.
    fn route(&mut self, from: VertexId, to: VertexId) -> Path {
        let host = self.host;
        let graph = host.graph();
        let (lf, lt) = (host.to_local(from), host.to_local(to));
        self.dist.fill(u64::MAX);
        self.parent.fill((u32::MAX, u32::MAX));
        self.heap.clear();
        self.dist[lf as usize] = 0;
        self.parent[lf as usize] = (lf, u32::MAX);
        self.heap.push(Reverse((0, lf)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if u == lt {
                break;
            }
            if d > self.dist[u as usize] {
                continue;
            }
            for (&v, &e) in graph.neighbors(u).iter().zip(graph.neighbor_edge_ids(u)) {
                let l = self.load[e as usize];
                let nd = d + (1 + l) * (1 + l);
                if nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd;
                    self.parent[v as usize] = (u, e);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        assert!(self.parent[lt as usize].0 != u32::MAX, "leaf virtual graph disconnected");
        self.walk.clear();
        self.walk.push(lt);
        let mut cur = lt;
        while cur != lf {
            let (p, e) = self.parent[cur as usize];
            self.load[e as usize] += 1;
            self.walk.push(p);
            cur = p;
        }
        self.walk.reverse();
        host.path_to_global(&self.walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn depth_counts_the_layers() {
        for m in 0..=5000 {
            assert_eq!(odd_even_depth(m), odd_even_layers(m).len(), "m = {m}");
        }
    }

    #[test]
    fn layers_sort_arbitrary_widths() {
        let mut rng = StdRng::seed_from_u64(3);
        for m in [1usize, 2, 3, 5, 8, 13, 16, 31, 64, 100] {
            let layers = odd_even_layers(m);
            for _ in 0..5 {
                let mut vals: Vec<u32> = (0..m).map(|_| rng.gen_range(0..50)).collect();
                apply_network(&layers, &mut vals);
                assert!(vals.windows(2).all(|w| w[0] <= w[1]), "m={m}: {vals:?}");
            }
        }
    }

    #[test]
    fn layers_are_matchings() {
        for m in [7usize, 16, 33] {
            for layer in odd_even_layers(m) {
                let mut seen = std::collections::HashSet::new();
                for &(a, b) in &layer {
                    assert!(a < b && b < m);
                    assert!(seen.insert(a), "position {a} repeated in layer");
                    assert!(seen.insert(b), "position {b} repeated in layer");
                }
            }
        }
    }

    #[test]
    fn depth_is_log_squared() {
        let layers = odd_even_layers(64);
        // Batcher depth for 64 = 6*7/2 = 21.
        assert_eq!(layers.len(), 21);
        let layers100 = odd_even_layers(100);
        assert!(layers100.len() <= 28, "depth {}", layers100.len());
    }

    #[test]
    fn embedded_network_on_a_leaf() {
        use expander_decomp::{Hierarchy, HierarchyParams};
        use expander_graphs::generators;
        let g = generators::random_regular(128, 4, 3).unwrap();
        let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).unwrap();
        let leaf =
            h.nodes().iter().find(|nd| nd.is_leaf() && nd.vertices.len() >= 8).expect("some leaf");
        let net = EmbeddedNetwork::build(&h, leaf.id);
        assert!(net.depth() >= 3);
        for layer in &net.layers {
            assert_eq!(layer.pairs.len(), layer.paths.len());
            assert!(layer.paths.is_valid_in(h.graph()), "flattened layer invalid");
        }
        assert!(net.pass_cost(1) > 0);
        assert!(net.pass_cost(4) >= 4 * net.pass_cost(1) / 2, "cost scales with load");
    }
}
