//! Oracles for the dense production code, and the topology zoo:
//!
//! * [`MoveCost`], the movement cost `FlatMoveCost` is checked against
//!   (`tests/property.rs`, `tests/overflow_bounds.rs`);
//! * [`oracle_leaf_network`], the leaf sorting network
//!   `EmbeddedNetwork::build` is checked against
//!   (`tests/leaf_networks.rs`);
//! * [`bfs_parent_tree`], the FIFO BFS shortest-path tree whose walks
//!   realize the merge fallback's legs (`tests/fallback_bound.rs`,
//!   `tests/overflow_bounds.rs`);
//! * [`zoo`], the adversarial and benign topologies
//!   (`tests/topology_zoo.rs`, `tests/fallback_bound.rs`).
//!
//! Each test binary that includes this module uses only some of it.
#![allow(dead_code)]

use expander_core::network::{odd_even_layers, EmbeddedLayer, EmbeddedNetwork};
use expander_decomp::{Hierarchy, HostGraph, NodeId};
use expander_graphs::{generators, ingest, Embedding, Graph, Path, VertexId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Measured movement cost accumulator: `max edge load × max hops`,
/// keyed by normalized vertex pairs.
#[derive(Debug, Default)]
pub struct MoveCost {
    edge_load: HashMap<(u32, u32), u64>,
    max_hops: u64,
}

impl MoveCost {
    /// An empty accumulator.
    pub fn new() -> Self {
        MoveCost::default()
    }

    /// Charges `times` traversals of `p`.
    pub fn add(&mut self, p: &Path, times: u64) {
        if p.hops() == 0 || times == 0 {
            return;
        }
        for e in p.edges() {
            *self.edge_load.entry(e).or_insert(0) += times;
        }
        self.max_hops = self.max_hops.max(p.hops() as u64);
    }

    /// The accumulated `congestion × dilation` bound.
    pub fn cost(&self) -> u64 {
        let c = self.edge_load.values().copied().max().unwrap_or(0);
        c * self.max_hops
    }
}

/// The leaf network `EmbeddedNetwork::build` must equal: every
/// comparator runs a fresh Dijkstra with loads keyed by `(min, max)`
/// local pairs, and every layer flattens on its own.
pub fn oracle_leaf_network(h: &Hierarchy, node: NodeId) -> EmbeddedNetwork {
    let nd = h.node(node);
    let host = HostGraph::from_edges(h.graph().n(), nd.vertices.clone(), &nd.virtual_edges);
    let mut layers = Vec::new();
    for pairs in odd_even_layers(nd.vertices.len()) {
        let mut emb = Embedding::new();
        let mut load = HashMap::new();
        for &(a, b) in &pairs {
            let (va, vb) = (nd.vertices[a], nd.vertices[b]);
            emb.push(va, vb, oracle_spread_path(&host, va, vb, &mut load));
        }
        let flat = h.flatten_from(node, [&emb]).remove(0);
        layers.push(EmbeddedLayer { pairs, paths: flat.to_path_set() });
    }
    EmbeddedNetwork { node, layers }
}

/// Dijkstra with edge cost `(1 + load)²` from fresh buffers, bumping
/// the loads along the chosen path.
fn oracle_spread_path(
    host: &HostGraph,
    from: u32,
    to: u32,
    load: &mut HashMap<(u32, u32), u64>,
) -> Path {
    let lf = host.to_local(from);
    let lt = host.to_local(to);
    let n = host.graph().n();
    let mut dist = vec![u64::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[lf as usize] = 0;
    parent[lf as usize] = lf;
    heap.push(Reverse((0u64, lf)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if u == lt {
            break;
        }
        if d > dist[u as usize] {
            continue;
        }
        for &v in host.graph().neighbors(u) {
            let l = load.get(&(u.min(v), u.max(v))).copied().unwrap_or(0);
            let nd = d + (1 + l) * (1 + l);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                parent[v as usize] = u;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    assert!(parent[lt as usize] != u32::MAX, "leaf virtual graph disconnected");
    let mut walk = vec![lt];
    let mut cur = lt;
    while cur != lf {
        cur = parent[cur as usize];
        walk.push(cur);
    }
    walk.reverse();
    for w in walk.windows(2) {
        *load.entry((w[0].min(w[1]), w[0].max(w[1]))).or_insert(0) += 1;
    }
    host.path_to_global(&walk)
}

/// The FIFO BFS shortest-path tree oriented toward `target`, as
/// `(parent, parent_edge)`: for every vertex `v` that reaches `target`,
/// `parent[v]` is the next hop on a shortest `v → target` path (the
/// first neighbour, in adjacency order, to discover `v`) and
/// `parent_edge[v]` the dense edge id of that hop. Unreachable vertices
/// keep `u32::MAX`; `target` maps to itself (edge `u32::MAX`).
pub fn bfs_parent_tree(g: &Graph, target: VertexId) -> (Vec<u32>, Vec<u32>) {
    let mut parent = vec![u32::MAX; g.n()];
    let mut parent_edge = vec![u32::MAX; g.n()];
    parent[target as usize] = target;
    let mut queue = VecDeque::from([target]);
    while let Some(u) = queue.pop_front() {
        for (&v, &e) in g.neighbors(u).iter().zip(g.neighbor_edge_ids(u)) {
            if parent[v as usize] == u32::MAX {
                parent[v as usize] = u;
                parent_edge[v as usize] = e;
                queue.push_back(v);
            }
        }
    }
    (parent, parent_edge)
}

/// The vertex walk from `src` up the tree `parent` to its root, or
/// `None` when `src` is outside the tree.
pub fn tree_walk(parent: &[u32], src: VertexId) -> Option<Vec<VertexId>> {
    if parent[src as usize] == u32::MAX {
        return None;
    }
    let mut walk = vec![src];
    let mut cur = src;
    while parent[cur as usize] != cur {
        cur = parent[cur as usize];
        walk.push(cur);
        assert!(walk.len() <= parent.len(), "parent chain cycles");
    }
    Some(walk)
}

/// The zoo: adversarial and benign topologies, small enough that the
/// whole suite stays in tier-1 time budgets.
pub fn zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("random-regular", generators::random_regular(128, 4, 42).expect("generator")),
        ("power-law", generators::power_law(128, 3, 7).expect("generator")),
        ("near-threshold", generators::bridged_expanders(64, 4, 2, 11).expect("generator")),
        ("bridged-wide", generators::bridged_expanders(64, 4, 32, 13).expect("generator")),
        ("disconnected", generators::disconnected_expanders(3, 64, 4, 17).expect("generator")),
        ("bridge-tree", generators::bridge_tree(7, 6)),
        ("ring-of-cliques", generators::ring_of_cliques(6, 10)),
        ("barbell", generators::barbell(48)),
        ("ring", generators::ring(96)),
        ("path", generators::path(64)),
        ("singleton", Graph::from_edges(1, &[])),
        ("empty", Graph::from_edges(0, &[])),
        ("isolated-vertices", Graph::from_edges(8, &[(0, 1), (2, 3)])),
        ("parsed-edge-list", parsed_zoo_graph()),
    ]
}

/// A zoo member that arrives through the text-ingestion path, the way a
/// real-world snapshot would: generated, serialized, reparsed.
fn parsed_zoo_graph() -> Graph {
    let text = ingest::graph_to_edge_list(&generators::ring_of_cliques(5, 9));
    ingest::parse_edge_list(&text).expect("round-trip parses").graph
}

#[test]
fn move_cost_accumulates() {
    let mut mc = MoveCost::new();
    mc.add(&Path::new(vec![0, 1, 2]), 2);
    mc.add(&Path::new(vec![3, 1]), 1);
    // Edge (0,1) load 2, (1,2) load 2, (1,3) load 1; hops max 2.
    assert_eq!(mc.cost(), 4);
}
