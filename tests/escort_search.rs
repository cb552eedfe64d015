//! Exactness of the escort search: for every `(src, target)` pair,
//! `Graph::bfs_tree_walk_into` returns the same edge walk as following
//! the tree `Graph::bfs_parent_tree_into` roots at `target`. The merge
//! fallback charges its legs through either one, so any disagreement
//! would change outcomes and ledgers with the escort-tree budget.

use expander_graphs::ingest::{parse_edge_list_with, IngestOptions};
use expander_graphs::{generators, Graph, TreeWalkScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The edge walk from `src` in the tree `parent`/`parent_edge` rooted
/// at `target`, or `None` when `src` is outside it.
fn tree_walk(parent: &[u32], parent_edge: &[u32], src: u32, target: u32) -> Option<Vec<u32>> {
    if parent[src as usize] == u32::MAX {
        return None;
    }
    let mut walk = Vec::new();
    let mut cur = src;
    while cur != target {
        walk.push(parent_edge[cur as usize]);
        cur = parent[cur as usize];
    }
    Some(walk)
}

/// Compares the search with the tree walk for every source of each of
/// `targets`, reusing one scratch throughout (stale stamps from earlier
/// searches, and earlier graphs, must never leak into a later one).
/// Returns the number of reachable pairs checked.
fn check_targets(
    g: &Graph,
    targets: impl IntoIterator<Item = u32>,
    scratch: &mut TreeWalkScratch,
) -> Result<usize, TestCaseError> {
    let (mut parent, mut parent_edge, mut walk) = (Vec::new(), Vec::new(), Vec::new());
    let mut reachable = 0;
    for target in targets {
        g.bfs_parent_tree_into(target, &mut parent, &mut parent_edge);
        for src in 0..g.n() as u32 {
            let found = g.bfs_tree_walk_into(src, target, scratch, &mut walk);
            let expected = tree_walk(&parent, &parent_edge, src, target);
            let tree = expected.unwrap_or_default();
            prop_assert!(
                found == (parent[src as usize] != u32::MAX) && walk == tree,
                "{} -> {}: search {} {:?}, tree {:?}",
                src,
                target,
                found,
                walk,
                tree
            );
            reachable += usize::from(found);
        }
    }
    Ok(reachable)
}

fn check_all_pairs(g: &Graph, scratch: &mut TreeWalkScratch) -> Result<usize, TestCaseError> {
    check_targets(g, 0..g.n() as u32, scratch)
}

/// A multigraph read from an edge list that repeats pairs and carries
/// self-loops. `Graph` has no self-loops, so ingest drops them; the
/// parallel copies stay and share one edge id.
fn multigraph(n: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    // A ring keeps most pairs reachable; the random chords add
    // parallel copies and short cuts.
    for v in 0..n {
        text += &format!("{v} {}\n", (v + 1) % n);
    }
    for _ in 0..2 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        text += &format!("{u} {v}\n");
        if rng.gen_range(0..4) == 0 {
            text += &format!("{v} {u}\n");
        }
    }
    let opts = IngestOptions { allow_self_loops: true, dedup_parallel: false };
    let g = parse_edge_list_with(&text, opts).expect("edge list parses").graph;
    assert!(g.m() > g.edge_id_count(), "the draw carries parallel edges");
    g
}

/// A random 4-regular graph after seeded edge removals, insertions and
/// vertex removals (tombstoned vertices reach nothing).
fn edited(n: usize, seed: u64) -> Graph {
    let mut g = generators::random_regular(n, 4, seed).expect("generator");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xED17);
    for step in 0..n / 4 {
        match step % 5 {
            0 => {
                g.remove_vertex(rng.gen_range(0..n as u32));
            }
            1 | 2 => {
                let live: Vec<_> = g.edges().collect();
                if !live.is_empty() {
                    let (u, v) = live[rng.gen_range(0..live.len())];
                    g.remove_edge(u, v);
                }
            }
            _ => {
                let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                if u != v {
                    g.insert_edge(u, v);
                }
            }
        }
    }
    g
}

/// One graph of the exactness zoo, by family index.
fn family_graph(family: u32, seed: u64) -> Graph {
    let small = 24 + (seed % 25) as usize; // 24..=48
    match family {
        0 => generators::random_regular(2 * small, [3, 4, 6][seed as usize % 3], seed)
            .expect("generator"),
        1 => generators::power_law(2 * small, 1 + (seed % 3) as usize, seed).expect("generator"),
        2 => generators::bridged_expanders(small, 4, 1 + (seed % 3) as usize, seed)
            .expect("generator"),
        3 => generators::bridge_tree(4 + (seed % 5) as usize, 2 + (seed % 4) as usize),
        4 => multigraph(small as u32, seed),
        5 => generators::disconnected_expanders(2 + (seed % 2) as usize, small / 2 * 2, 4, seed)
            .expect("generator"),
        _ => edited(2 * small, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every `(src, target)` pair of random-regular, power-law,
    /// bridged-expander, bridge-tree, multigraph, disconnected and
    /// churn-edited graphs: the search returns the parent tree's walk,
    /// and reports exactly the pairs the tree cannot reach.
    #[test]
    fn tree_walk_search_matches_parent_tree(family in 0u32..7, seed in 0u64..1_000) {
        let g = family_graph(family, seed);
        let mut scratch = TreeWalkScratch::default();
        let reachable = check_all_pairs(&g, &mut scratch)?;
        prop_assert!(reachable > 0);
        if family == 5 {
            prop_assert!(reachable < g.n() * g.n(), "pieces do not reach each other");
        }
    }
}

/// One scratch across graphs of different sizes and shapes, and the
/// degenerate cases: `src == target` is an empty walk, an unreachable
/// pair gives no walk.
#[test]
fn one_scratch_serves_every_graph() {
    let mut scratch = TreeWalkScratch::default();
    let mut walk = vec![7];
    let g = generators::random_regular(64, 4, 3).expect("generator");
    assert!(g.bfs_tree_walk_into(5, 5, &mut scratch, &mut walk));
    assert!(walk.is_empty(), "src == target walks nothing");
    let split = generators::disconnected_expanders(2, 16, 4, 1).expect("generator");
    assert!(!split.bfs_tree_walk_into(0, 31, &mut scratch, &mut walk));
    assert!(walk.is_empty(), "an unreachable pair gives no walk");
    for family in 0..7 {
        check_all_pairs(&family_graph(family, 11 + u64::from(family)), &mut scratch)
            .expect("search matches tree");
    }
    check_all_pairs(&g, &mut scratch).expect("back on a smaller graph");
}

/// Release-mode exactness at a size where the DAG levels are wide (the
/// debug proptests reach only small `n`): every source toward a few
/// dozen targets on a random regular graph, a power-law graph and a
/// churn-edited graph at n = 4096. Run with
/// `cargo test --release --test escort_search -- --ignored`.
#[test]
#[ignore = "release-mode size; run with --ignored"]
fn tree_walk_search_matches_parent_tree_at_scale() {
    let n = 4096;
    let targets = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..32).map(move |_| rng.gen_range(0..n as u32))
    };
    let mut scratch = TreeWalkScratch::default();
    let graphs = [
        generators::random_regular(n, 4, 21).expect("generator"),
        generators::power_law(n, 2, 22).expect("generator"),
        edited(n, 23),
    ];
    for (i, g) in graphs.iter().enumerate() {
        let reachable = check_targets(g, targets(i as u64), &mut scratch).expect("exact");
        assert!(reachable > 0);
    }
}
