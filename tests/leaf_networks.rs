//! Leaf sorting networks against the hash-map oracle in `common`.
//!
//! `EmbeddedNetwork::build` routes every comparator through one dense
//! search workspace per leaf and flattens all layers in one batch; the
//! oracle runs a fresh hash-map-keyed Dijkstra per comparator and
//! flattens each layer alone. Both must build equal networks, and
//! batched flattening must equal one-at-a-time flattening.

mod common;

use congest_sim::RoundLedger;
use expander_core::network::EmbeddedNetwork;
use expander_core::RouterConfig;
use expander_decomp::{build_shuffler, Hierarchy};
use expander_graphs::{generators, Embedding, Graph};

fn hierarchy(g: &Graph, epsilon: f64) -> Hierarchy {
    Hierarchy::build(g, RouterConfig::for_epsilon(epsilon).hierarchy).expect("hierarchy")
}

/// Checks every leaf's network against the oracle; returns the number
/// of leaves checked.
fn assert_leaves_match_oracle(h: &Hierarchy) -> usize {
    let mut leaves = 0;
    for nd in h.nodes().iter().filter(|nd| nd.is_leaf()) {
        let net = EmbeddedNetwork::build(h, nd.id);
        assert!(net == common::oracle_leaf_network(h, nd.id), "leaf {} differs", nd.id);
        leaves += 1;
    }
    leaves
}

/// Repeated unordered pairs over all leaf virtual graphs.
fn parallel_virtual_edges(h: &Hierarchy) -> usize {
    h.nodes()
        .iter()
        .filter(|nd| nd.is_leaf())
        .map(|nd| {
            let mut pairs: Vec<(u32, u32)> =
                nd.virtual_edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
            pairs.sort_unstable();
            let all = pairs.len();
            pairs.dedup();
            all - pairs.len()
        })
        .sum()
}

#[test]
fn leaf_networks_match_the_oracle() {
    for n in [128, 512] {
        for epsilon in [0.4, 0.12] {
            let g = generators::random_regular(n, 4, 5).expect("generator");
            let h = hierarchy(&g, epsilon);
            assert!(assert_leaves_match_oracle(&h) >= 2, "n = {n}, ε = {epsilon}");
        }
    }
}

/// Leaf virtual graphs are unions of matchings that repeat pairs, so
/// the flatten embeddings carry parallel copies and the search meets
/// parallel adjacency slots that share one pair id.
#[test]
fn leaves_with_parallel_virtual_edges_match_the_oracle() {
    for n in [128, 512] {
        for epsilon in [0.4, 0.12] {
            let g = generators::hub_expander(n, 4, 7).expect("generator");
            let h = hierarchy(&g, epsilon);
            assert!(parallel_virtual_edges(&h) > 0, "n = {n}, ε = {epsilon}: no parallel edges");
            assert_leaves_match_oracle(&h);
        }
    }
}

/// Every internal node's shuffler rounds and M* parts, flattened in one
/// batch as `Router::preprocess` does, equal flattening each alone.
#[test]
fn batch_flattening_equals_one_at_a_time() {
    let config = RouterConfig::for_epsilon(0.12);
    let g = generators::random_regular(512, 4, 5).expect("generator");
    let h = Hierarchy::build(&g, config.hierarchy.clone()).expect("hierarchy");
    let mut composed = 0;
    for nd in h.nodes().iter().filter(|nd| !nd.is_leaf()) {
        let sh = build_shuffler(&h, nd.id, &config.shuffler, &mut RoundLedger::new());
        let batch: Vec<&Embedding> = sh
            .rounds
            .iter()
            .map(|r| &r.embedding)
            .chain(nd.parts.iter().map(|p| &p.matching_embedding))
            .collect();
        let alone: Vec<Embedding> =
            batch.iter().map(|&emb| h.flatten_from(nd.id, [emb]).remove(0)).collect();
        assert!(h.flatten_from(nd.id, batch) == alone, "node {}", nd.id);
        composed += usize::from(nd.flat.is_some());
    }
    assert!(composed > 0, "no internal node below the root");
}

/// Both benchmark shapes: ε = 0.4 on the 4-regular graph of seed 1, at
/// n = 4096 (28 leaves) and n = 8192 (1,333 leaves). Run with
/// `cargo test --release --test leaf_networks -- --ignored`.
#[test]
#[ignore = "release-only: builds depth-1 and depth-2 hierarchies at n = 4096 and 8192"]
fn benchmark_shapes_match_the_oracle() {
    for (n, leaves) in [(4096, 28), (8192, 1333)] {
        let g = generators::random_regular(n, 4, 1).expect("generator");
        let h = hierarchy(&g, 0.4);
        assert_eq!(assert_leaves_match_oracle(&h), leaves, "n = {n}");
    }
}
