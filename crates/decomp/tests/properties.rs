//! Property-based tests for the decomposition substrate: path packing,
//! the cut player's median bisection, fractional-matching algebra, and
//! the expander decomposition's partition invariants.

use expander_decomp::cut_player::{median_split, probe_vector, replay_walk};
use expander_decomp::shuffler::{apply_fractional, potential_of};
use expander_decomp::{expander_decomposition, pack_matching, EscalationConfig, HostGraph};
use expander_graphs::generators;
use proptest::prelude::*;
use std::sync::OnceLock;

fn shared_host() -> &'static (expander_graphs::Graph, HostGraph) {
    static HOST: OnceLock<(expander_graphs::Graph, HostGraph)> = OnceLock::new();
    HOST.get_or_init(|| {
        let g = generators::random_regular(96, 4, 33).expect("generator");
        let h = HostGraph::from_graph(&g);
        (g, h)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn packing_produces_valid_disjoint_matchings(
        srcs in proptest::collection::hash_set(0..48u32, 1..16),
        sinks in proptest::collection::hash_set(48..96u32, 8..32),
    ) {
        let (g, host) = shared_host();
        let sources: Vec<u32> = srcs.into_iter().collect();
        let sink_list: Vec<u32> = sinks.into_iter().collect();
        let m = pack_matching(host, &sources, &sink_list, 1, EscalationConfig::default());
        // Paths valid, endpoints correct, sinks used at most once.
        let mut used_sinks = std::collections::HashSet::new();
        for (s, t, p) in m.embedding.iter() {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
            prop_assert!(p.is_valid_in(g));
            prop_assert!(sources.contains(&s));
            prop_assert!(sink_list.contains(&t));
            prop_assert!(used_sinks.insert(t), "sink reused");
        }
        // Matched + unmatched = sources.
        prop_assert_eq!(m.embedding.len() + m.unmatched.len(), sources.len());
        // On an expander with default escalation, saturation holds when
        // sinks outnumber sources.
        if sink_list.len() >= sources.len() {
            prop_assert!(m.unmatched.is_empty(), "unmatched: {:?}", m.unmatched);
        }
    }

    #[test]
    fn median_split_partitions(mu in proptest::collection::vec(-10.0f64..10.0, 2..40)) {
        let sep = median_split(&mu);
        prop_assert_eq!(sep.al.len() + sep.ar.len(), mu.len());
        let mut all: Vec<usize> = sep.al.iter().chain(&sep.ar).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), mu.len());
        // Both cut-matching games rely on a balanced cut by value: the
        // low half holds ⌊m/2⌋ indices, none above any high-half value.
        prop_assert_eq!(sep.al.len(), mu.len() / 2);
        let al_max = sep.al.iter().map(|&i| mu[i]).fold(f64::NEG_INFINITY, f64::max);
        let ar_min = sep.ar.iter().map(|&i| mu[i]).fold(f64::INFINITY, f64::min);
        prop_assert!(al_max <= ar_min, "al max {al_max} > ar min {ar_min}");
    }

    #[test]
    fn replayed_walks_are_averaging(
        dim in 4usize..32,
        seed in 0u64..1000,
        pair_count in 1usize..8,
    ) {
        let mut probe = probe_vector(dim, seed);
        let before_sum: f64 = probe.iter().sum();
        let matching: Vec<(u32, u32)> = (0..pair_count.min(dim / 2))
            .map(|i| ((2 * i) as u32, (2 * i + 1) as u32))
            .collect();
        replay_walk(&[matching], &mut probe);
        let after_sum: f64 = probe.iter().sum();
        // Averaging preserves the total mass.
        prop_assert!((before_sum - after_sum).abs() < 1e-9);
    }

    #[test]
    fn fractional_application_preserves_stochasticity(
        t in 3usize..10,
        entries in proptest::collection::vec(0.0f64..0.2, 0..20),
    ) {
        // Build a random symmetric fractional matching with degree <= 1.
        let mut x = vec![vec![0.0f64; t]; t];
        let upper_triangle =
            || (0..t).flat_map(|a| (a + 1..t).map(move |b| (a, b)));
        for ((a, b), &e) in upper_triangle().zip(entries.iter()) {
            x[a][b] = e;
            x[b][a] = e;
        }
        // Clamp degrees to 1.
        for row in x.iter_mut() {
            let deg: f64 = row.iter().sum();
            if deg > 1.0 {
                for v in row.iter_mut() {
                    *v /= deg;
                }
            }
        }
        // Re-symmetrize after clamping (min of the two directions).
        for (a, b) in upper_triangle() {
            let m = x[a][b].min(x[b][a]);
            x[a][b] = m;
            x[b][a] = m;
        }
        let r0: Vec<Vec<f64>> =
            (0..t).map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect()).collect();
        let r1 = apply_fractional(&r0, &x);
        for row in &r1 {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row sum {sum}");
            prop_assert!(row.iter().all(|&v| v >= -1e-12));
        }
        // Potential never increases under one application.
        prop_assert!(potential_of(&r1) <= potential_of(&r0) + 1e-9);
    }

    #[test]
    fn decomposition_partitions_any_connected_graph(
        n in 16usize..64,
        extra in 0usize..20,
        seed in 0u64..500,
    ) {
        // A random connected graph: a path plus random chords.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        for _ in 0..extra {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        let g = expander_graphs::Graph::from_edges(n, &edges);
        let d = expander_decomposition(&g, 0.2, seed);
        // Clusters partition V.
        let mut seen = vec![false; n];
        for c in &d.clusters {
            for &v in c {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        // Every cut edge really crosses clusters.
        for &(u, v) in &d.cut_edges {
            prop_assert_ne!(d.cluster_of[u as usize], d.cluster_of[v as usize]);
        }
    }
}
