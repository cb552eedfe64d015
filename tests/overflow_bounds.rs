//! Overflow-boundary properties for the u32-narrowed hot-path
//! counters: the narrowed accumulators must agree with wide (u64 /
//! hash-map) reference paths all the way up to their asserted bounds
//! (per-edge loads and per-round vertex loads sit far below `2³²` for
//! any supported instance — the maximum flock size — but the agreement
//! must hold *near* the bound, not just at everyday values).

mod common;

use common::MoveCost;
use expander_core::exec::FlatMoveCost;
use expander_core::token::QueryStats;
use expander_graphs::{generators, Path};
use proptest::prelude::*;

/// Bound-respecting charge plan: per-edge totals stay below
/// `u32::MAX` (the debug-asserted accumulator bound), but individual
/// charges are huge so totals land within a hair of it.
fn apply_near_bound(
    walks: &[(u32, u64)],
    paths: &[Vec<u32>],
    g: &expander_graphs::Graph,
    flat: &mut FlatMoveCost,
    wide: &mut MoveCost,
) {
    let mut per_edge: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    for &(pi, times) in walks {
        let verts = &paths[pi as usize % paths.len()];
        // Admit the charge only if no edge of the walk would cross the
        // asserted bound — totals crowd just below `u32::MAX`.
        let fits = verts.windows(2).all(|w| {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            per_edge.get(&key).copied().unwrap_or(0) + times < u64::from(u32::MAX)
        });
        if !fits {
            continue;
        }
        for w in verts.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            *per_edge.entry(key).or_insert(0) += times;
        }
        flat.add_walk(g, verts, times);
        wide.add(&Path::new(verts.clone()), times);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    /// The u32 `FlatMoveCost` agrees with the u64 hash-map `MoveCost`
    /// reference on congestion × dilation, with per-edge loads pushed
    /// to just below the asserted `u32::MAX` bound.
    fn flat_move_cost_matches_u64_reference_near_bounds(
        seed in 0u64..1_000,
        walks in proptest::collection::vec(
            (0u32..64, (1u64 << 28)..(1u64 << 32) - 2),
            1..48,
        ),
    ) {
        let n = 64;
        let g = generators::random_regular(n, 4, seed).expect("generator");
        // A pool of short BFS walks between random endpoint pairs.
        let mut paths: Vec<Vec<u32>> = Vec::new();
        for i in 0..8u32 {
            let (src, dst) = ((i * 7) % n as u32, (i * 13 + 5) % n as u32);
            if let Some(p) = g.shortest_path(src, dst) {
                if p.len() >= 2 {
                    paths.push(p);
                }
            }
        }
        if paths.is_empty() {
            return Ok(()); // disconnected draw: nothing to charge
        }

        let mut flat = FlatMoveCost::new(g.edge_id_count());
        let mut wide = MoveCost::new();
        apply_near_bound(&walks, &paths, &g, &mut flat, &mut wide);

        prop_assert_eq!(flat.cost(), wide.cost());
        // The narrowed per-edge maximum must still be representable —
        // and exact, not saturated.
        prop_assert!(flat.congestion() < u64::from(u32::MAX));
    }

    #[test]
    /// `QueryStats::absorb_trace_maxima` (u32 trace cells) matches an
    /// element-wise u64 maximum fold with values adjacent to the bound.
    fn trace_maxima_match_u64_reference(
        traces in proptest::collection::vec(
            proptest::collection::vec(0u32..u32::MAX, 0..12),
            1..8,
        ),
    ) {
        let mut stats = QueryStats::default();
        let mut reference: Vec<u64> = Vec::new();
        for trace in &traces {
            stats.absorb_trace_maxima(trace);
            if reference.len() < trace.len() {
                reference.resize(trace.len(), 0);
            }
            for (slot, &v) in reference.iter_mut().zip(trace) {
                *slot = (*slot).max(u64::from(v));
            }
        }
        prop_assert_eq!(stats.max_load_trace.len(), reference.len());
        for (&narrow, &wide) in stats.max_load_trace.iter().zip(&reference) {
            prop_assert_eq!(u64::from(narrow), wide);
        }
    }

    #[test]
    /// The escort parent trees reproduce BFS shortest-path lengths for
    /// every (source, target) pair, so the dilation an escort leg
    /// charges is the true distance, with every hop a real edge under
    /// its stored id. Legs past the tree budget take the exact search,
    /// which `tests/escort_search.rs` checks walks these same trees.
    fn parent_tree_walks_are_shortest_paths(seed in 0u64..500, target in 0u32..96) {
        let n = 96;
        let g = generators::random_regular(n, 4, seed).expect("generator");
        let mut parent = Vec::new();
        let mut parent_edge = Vec::new();
        g.bfs_parent_tree_into(target, &mut parent, &mut parent_edge);
        let dist = g.bfs_distances(target);
        for src in 0..n as u32 {
            if dist[src as usize] == u32::MAX {
                prop_assert_eq!(parent[src as usize], u32::MAX);
                continue;
            }
            // Walk the chain and count hops; every hop must be a real
            // edge whose id matches the stored one.
            let mut cur = src;
            let mut hops = 0u32;
            while cur != target {
                let next = parent[cur as usize];
                prop_assert_eq!(g.edge_id(cur, next), Some(parent_edge[cur as usize]));
                cur = next;
                hops += 1;
                prop_assert!(hops <= n as u32, "parent chain cycles");
            }
            prop_assert_eq!(hops, dist[src as usize]);
        }
    }
}
