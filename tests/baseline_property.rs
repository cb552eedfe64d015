//! Metamorphic property suite for the baseline arena (proptest).
//!
//! Trait-level invariants that hold for *any* correct
//! [`RoutingAlgorithm`], checked for both baselines across seeded
//! generator families:
//!
//! * **Vertex-relabeling equivariance.** Routing a relabeled graph and
//!   instance yields the relabeled result:
//!   `route(σG, σ·inst) ≡ σ·route(G, inst)` — compared on final
//!   positions and on the undelivered index set. (Congestion and
//!   rounds may legitimately differ: both baselines break ties on
//!   vertex ids and edge-list order, which σ permutes. Deliverability
//!   is pure connectivity, and final positions are determined by the
//!   delivery set — those must be exactly equivariant.)
//! * **Demand-subset monotonicity.** Dropping tokens never increases
//!   any per-edge load: exact for *arbitrary* subsets under
//!   [`GreedyLocalRouting`] (its per-token paths are oblivious — fixed
//!   by `(src, dst)` alone — so loads are additive), and exact for
//!   *prefix* subsets under [`SplicerRouting`] (an online algorithm:
//!   the first `k` tokens see identical load states, so the sub-run
//!   replays the full run's prefix decisions verbatim).
//!
//! Pinned case seeds live in `proptest-regressions/<test_name>.txt`
//! and run before the fresh cases on every invocation.

use expander_baselines::{GreedyLocalRouting, SplicerRouting};
use expander_core::{RoutingAlgorithm, RoutingInstance, RoutingOutcome};
use expander_graphs::{generators, Graph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A small seeded zoo member per case: expanders, clique rings,
/// disconnected pieces, and power-law tails all get coverage.
fn graph_for(kind: usize, size: usize, seed: u64) -> Graph {
    match kind % 4 {
        0 => generators::random_regular(64 + size % 64, 4, seed)
            .unwrap_or_else(|_| generators::ring(64)),
        1 => generators::ring_of_cliques(3 + size % 4, 5 + size % 5),
        2 => generators::disconnected_expanders(2, 32 + size % 16, 4, seed).expect("generator"),
        _ => generators::power_law(48 + size % 48, 3, seed).expect("generator"),
    }
}

/// Indices of the tokens an outcome reports undeliverable.
fn reported(out: &RoutingOutcome) -> Vec<usize> {
    out.undeliverable.iter().map(|u| u.token).collect()
}

/// A seeded permutation σ of the vertex set.
fn sigma(n: usize, seed: u64) -> Vec<VertexId> {
    let mut s: Vec<VertexId> = (0..n as VertexId).collect();
    s.shuffle(&mut StdRng::seed_from_u64(seed));
    s
}

/// `σG`: the same multigraph with every endpoint relabeled. The CSR
/// insertion order changes with the labels — intentionally so; the
/// properties below must hold regardless.
fn relabel_graph(g: &Graph, s: &[VertexId]) -> Graph {
    let edges: Vec<(VertexId, VertexId)> =
        g.edges().map(|(u, v)| (s[u as usize], s[v as usize])).collect();
    Graph::from_edges(g.n(), &edges)
}

/// `σ·inst`: endpoints relabeled, token order and payloads untouched.
fn relabel_instance(inst: &RoutingInstance, s: &[VertexId]) -> RoutingInstance {
    let triples: Vec<(VertexId, VertexId, u64)> =
        inst.tokens.iter().map(|t| (s[t.src as usize], s[t.dst as usize], t.payload)).collect();
    RoutingInstance::from_triples(&triples)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// route(σG, σ·inst) ≡ σ·route(G, inst) for both baselines.
    #[test]
    fn baselines_are_relabeling_equivariant(
        kind in 0usize..4,
        size in 0usize..64,
        gseed in 0u64..1000,
        iseed in 0u64..1000,
        sseed in 0u64..1000,
    ) {
        let g = graph_for(kind, size, gseed);
        let n = g.n();
        let inst = RoutingInstance::permutation(n, iseed);
        let s = sigma(n, sseed);
        let g_r = relabel_graph(&g, &s);
        let inst_r = relabel_instance(&inst, &s);
        let algos: [&dyn RoutingAlgorithm; 2] = [&SplicerRouting::default(), &GreedyLocalRouting];
        for algo in algos {
            let out = algo.route_instance(&g, &inst).expect("valid");
            let out_r = algo.route_instance(&g_r, &inst_r).expect("valid");
            prop_assert!(out.verify(&inst).is_empty(), "{}: {:?}", algo.name(), out.verify(&inst));
            prop_assert!(out_r.verify(&inst_r).is_empty());
            prop_assert_eq!(
                reported(&out_r), reported(&out),
                "{}: undelivered set must be label-invariant", algo.name()
            );
            let mapped: Vec<VertexId> =
                out.positions.iter().map(|&p| s[p as usize]).collect();
            prop_assert_eq!(
                &out_r.positions, &mapped,
                "{}: positions must commute with σ", algo.name()
            );
        }
    }

    /// Dropping demand never adds load anywhere: arbitrary subsets for
    /// the oblivious local router, prefixes for the online splicer.
    #[test]
    fn baseline_congestion_is_subset_monotone(
        kind in 0usize..4,
        size in 0usize..64,
        gseed in 0u64..1000,
        iseed in 0u64..1000,
        mask in 0u64..u64::MAX,
    ) {
        let g = graph_for(kind, size, gseed);
        let n = g.n();
        let full = RoutingInstance::permutation(n, iseed);

        // Greedy local: any subset (keep token i iff bit i%64 of a
        // rotated mask — arbitrary but deterministic per case).
        let sub_tokens: Vec<_> = full
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.rotate_left((*i % 61) as u32) & 1 == 1)
            .map(|(_, t)| *t)
            .collect();
        let sub = RoutingInstance { tokens: sub_tokens };
        let local = GreedyLocalRouting;
        let a = local.route_instance(&g, &full).expect("valid");
        let b = local.route_instance(&g, &sub).expect("valid");
        for (e, (&fl, &sl)) in a.edge_loads.iter().zip(&b.edge_loads).enumerate() {
            prop_assert!(sl <= fl, "local: edge {} load grew {} -> {} on a subset", e, fl, sl);
        }
        prop_assert!(b.stats.max_congestion <= a.stats.max_congestion);

        // Splicer: prefix subset — byte-exact replay of the full run's
        // first k decisions, so domination is exact per edge.
        let k = (mask % (full.tokens.len().max(1) as u64 + 1)) as usize;
        let prefix = RoutingInstance { tokens: full.tokens[..k].to_vec() };
        let splicer = SplicerRouting::default();
        let fa = splicer.route_instance(&g, &full).expect("valid");
        let fb = splicer.route_instance(&g, &prefix).expect("valid");
        for (e, (&fl, &sl)) in fa.edge_loads.iter().zip(&fb.edge_loads).enumerate() {
            prop_assert!(sl <= fl, "splicer: edge {} load grew {} -> {} on a prefix", e, fl, sl);
        }
        prop_assert!(fb.stats.max_congestion <= fa.stats.max_congestion);
        prop_assert!(fb.stats.max_dilation <= fa.stats.max_dilation);
    }
}
