//! Property-based tests (proptest) over routing/sorting invariants.
//!
//! A single router is built once per process (preprocessing is the
//! expensive part) and arbitrary instances are thrown at it.

mod common;

use expander_core::ops;
use expander_core::{
    Job, JobOutcome, QueryEngine, Router, RouterConfig, RoutingInstance, SortInstance,
};
use expander_graphs::{generators, Path, PathSet};
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 128;

fn shared_router() -> &'static Router {
    static ROUTER: OnceLock<Router> = OnceLock::new();
    ROUTER.get_or_init(|| {
        let g = generators::random_regular(N, 4, 77).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    })
}

/// One long-lived engine per size for the pooled-scratch property:
/// its scratches and dummy caches stay warm across every case, so each
/// batch runs on scratches that earlier batches of other densities left
/// behind (preprocessing amortized across all cases).
fn pooled_engine(n: usize) -> &'static QueryEngine<'static> {
    static R64: OnceLock<Router> = OnceLock::new();
    static R256: OnceLock<Router> = OnceLock::new();
    static E64: OnceLock<QueryEngine<'static>> = OnceLock::new();
    static E256: OnceLock<QueryEngine<'static>> = OnceLock::new();
    let build = move || {
        let g = generators::random_regular(n, 4, 1234).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    };
    match n {
        64 => E64.get_or_init(|| QueryEngine::new(R64.get_or_init(build))),
        256 => E256.get_or_init(|| QueryEngine::new(R256.get_or_init(build))),
        _ => unreachable!("unsupported pooled-engine test size"),
    }
}

/// Every observable byte of one batch-job outcome.
fn outcome_fingerprint(out: &JobOutcome) -> String {
    match out {
        JobOutcome::Route(o) => format!("route|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
        JobOutcome::Sort(o) => format!("sort|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
    }
}

/// An arbitrary routing instance with load at most `max_l`.
fn routing_instance(max_l: usize) -> impl Strategy<Value = RoutingInstance> {
    proptest::collection::vec((0..N as u32, 0..N as u32), 0..(N * max_l / 2)).prop_map(
        move |mut pairs| {
            // Enforce the Task 1 load constraint by dropping overflow.
            let mut src = vec![0usize; N];
            let mut dst = vec![0usize; N];
            pairs.retain(|&(s, d)| {
                if src[s as usize] < max_l && dst[d as usize] < max_l {
                    src[s as usize] += 1;
                    dst[d as usize] += 1;
                    true
                } else {
                    false
                }
            });
            RoutingInstance::from_triples(
                &pairs.iter().map(|&(s, d)| (s, d, 0u64)).collect::<Vec<_>>(),
            )
        },
    )
}

fn sort_instance(max_l: usize) -> impl Strategy<Value = SortInstance> {
    proptest::collection::vec((0..N as u32, 0..50u64), 0..(N * max_l / 2)).prop_map(
        move |mut triples| {
            let mut src = vec![0usize; N];
            triples.retain(|&(s, _)| {
                if src[s as usize] < max_l {
                    src[s as usize] += 1;
                    true
                } else {
                    false
                }
            });
            SortInstance::from_triples(
                &triples.iter().map(|&(s, k)| (s, k, 0u64)).collect::<Vec<_>>(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn routing_always_delivers(inst in routing_instance(3)) {
        let r = shared_router();
        let out = r.route(&inst).expect("valid instance");
        prop_assert!(out.fully_delivered());
    }

    #[test]
    fn sorting_always_sorts(inst in sort_instance(3)) {
        let r = shared_router();
        let load = inst.load(N).max(1);
        let out = r.sort(&inst).expect("valid instance");
        prop_assert!(out.is_sorted(&inst, N, load));
    }

    #[test]
    fn ranking_is_order_isomorphic(inst in sort_instance(2)) {
        let r = shared_router();
        let out = ops::token_ranking(&QueryEngine::new(r), &inst).expect("valid");
        for (i, a) in inst.tokens.iter().enumerate() {
            for (j, b) in inst.tokens.iter().enumerate() {
                if a.key < b.key {
                    prop_assert!(out.values[i] < out.values[j]);
                } else if a.key == b.key {
                    prop_assert_eq!(out.values[i], out.values[j]);
                }
            }
        }
    }

    #[test]
    fn serialization_is_bijective_per_key(inst in sort_instance(2)) {
        let r = shared_router();
        let out = ops::local_serialization(&QueryEngine::new(r), &inst).expect("valid");
        let mut seen = std::collections::HashSet::new();
        let mut count = std::collections::HashMap::new();
        for t in &inst.tokens {
            *count.entry(t.key).or_insert(0u64) += 1;
        }
        for (i, t) in inst.tokens.iter().enumerate() {
            prop_assert!(out.values[i] < count[&t.key]);
            prop_assert!(seen.insert((t.key, out.values[i])));
        }
    }

    #[test]
    fn aggregation_matches_multiplicity(inst in sort_instance(2)) {
        let r = shared_router();
        let out = ops::local_aggregation(&QueryEngine::new(r), &inst).expect("valid");
        let mut count = std::collections::HashMap::new();
        for t in &inst.tokens {
            *count.entry(t.key).or_insert(0u64) += 1;
        }
        for (i, t) in inst.tokens.iter().enumerate() {
            prop_assert_eq!(out.values[i], count[&t.key]);
        }
    }

    #[test]
    fn pooled_engine_batches_match_fresh_solo_queries(
        n_pick in 0usize..2,
        shape in proptest::collection::vec((0u64..1_000_000, 0usize..3), 1..9),
    ) {
        // Pooled scratches are accelerators only: for random
        // mixed-density batches (dense permutations, sparse partial
        // permutations, sorts) through one long-lived engine, every job
        // must be byte-identical to a solo query on a fresh scratch,
        // whatever dummy-cache entries and buffer sizes the earlier
        // batches left in the engine.
        let n = [64usize, 256][n_pick];
        let engine = pooled_engine(n);
        let r = engine.router();
        let jobs: Vec<Job> = shape
            .iter()
            .map(|&(seed, kind)| match kind {
                0 => Job::Route(RoutingInstance::permutation(n, seed)),
                1 => Job::Route(RoutingInstance::partial_permutation(n, n / 4, seed)),
                _ => Job::Sort(SortInstance::random(n, 1 + (seed as usize % 2), seed)),
            })
            .collect();
        let batch = engine.run(&jobs).expect("valid batch");
        for (i, (job, pooled)) in jobs.iter().zip(&batch.outcomes).enumerate() {
            let fresh = match job {
                Job::Route(inst) => JobOutcome::Route(r.route(inst).expect("valid")),
                Job::Sort(inst) => JobOutcome::Sort(r.sort(inst).expect("valid")),
            };
            prop_assert_eq!(
                outcome_fingerprint(pooled),
                outcome_fingerprint(&fresh),
                "job {} differs from a fresh-scratch solo query", i
            );
        }
    }

    #[test]
    fn query_rounds_are_monotone_in_instance(inst in routing_instance(2)) {
        // Adding tokens never reduces charged rounds.
        let r = shared_router();
        if inst.tokens.len() < 2 {
            return Ok(());
        }
        let half = RoutingInstance {
            tokens: inst.tokens[..inst.tokens.len() / 2].to_vec(),
        };
        let full = r.route(&inst).expect("valid").rounds();
        let part = r.route(&half).expect("valid").rounds();
        // Not strictly monotone (dispersal rounding), but within slack.
        prop_assert!(part <= full + full / 2 + 1000,
            "half {part} vs full {full}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn path_set_quality_bounds(paths in proptest::collection::vec(
        proptest::collection::vec(0..64u32, 1..8), 0..12)) {
        // Quality = congestion + dilation; both bounded by total hops.
        let ps: PathSet = paths
            .into_iter()
            .map(|mut vs| {
                vs.dedup();
                Path::new(vs)
            })
            .collect();
        let c = ps.congestion();
        let d = ps.dilation();
        prop_assert!(c <= ps.total_hops().max(1));
        prop_assert!(d <= ps.total_hops().max(1));
        if ps.total_hops() == 0 {
            prop_assert_eq!(ps.quality(), 0);
        } else {
            prop_assert_eq!(ps.quality(), c + d);
        }
    }

    #[test]
    fn instance_load_is_max_of_src_dst(pairs in proptest::collection::vec(
        (0..32u32, 0..32u32), 0..64)) {
        let inst = RoutingInstance::from_triples(
            &pairs.iter().map(|&(s, d)| (s, d, 0u64)).collect::<Vec<_>>(),
        );
        let mut src = vec![0usize; 32];
        let mut dst = vec![0usize; 32];
        for &(s, d) in &pairs {
            src[s as usize] += 1;
            dst[d as usize] += 1;
        }
        let expect = src.iter().chain(dst.iter()).copied().max().unwrap_or(0);
        prop_assert_eq!(inst.load(32), expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn flat_move_cost_equals_hashmap_reference(walks in proptest::collection::vec(
        (0..N as u32, 0..N as u32, 0u64..4), 1..40)) {
        // The dense edge-id accumulator must charge exactly what the
        // HashMap reference charges, path for path, including the
        // times == 0 and zero-hop skips.
        use common::MoveCost;
        use expander_core::exec::FlatMoveCost;
        use expander_graphs::FlatPaths;
        let g = shared_router().graph();
        let paths: Vec<Path> = walks
            .iter()
            .map(|&(s, d, _)| Path::new(g.shortest_path(s, d).expect("connected")))
            .collect();
        let arena = FlatPaths::from_paths(g, paths.iter());
        let mut reference = MoveCost::new();
        let mut flat = FlatMoveCost::new(g.edge_id_count());
        for (i, (p, &(_, _, times))) in paths.iter().zip(&walks).enumerate() {
            reference.add(p, times);
            flat.add_flat(&arena, i, times);
        }
        prop_assert_eq!(flat.cost(), reference.cost());
        // A second accumulation after reset must match a fresh oracle.
        flat.reset();
        let mut fresh = MoveCost::new();
        for (i, p) in paths.iter().enumerate() {
            fresh.add(p, 2);
            flat.add_flat(&arena, i, 2);
        }
        prop_assert_eq!(flat.cost(), fresh.cost());
    }

    #[test]
    fn sparse_shuffler_mixing_matches_dense(
        t in 2usize..10,
        raw_rounds in proptest::collection::vec(
            proptest::collection::vec((0usize..16, 0usize..16), 1..6), 1..10)) {
        // The sparse in-place walk update and its incremental potential
        // must reproduce the dense O(t³) product and the re-summed
        // potential across a whole matching sequence.
        use expander_decomp::shuffler::{apply_fractional, apply_fractional_sparse, potential_of};
        let identity: Vec<Vec<f64>> = (0..t)
            .map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect())
            .collect();
        let mut dense = identity.clone();
        let mut sparse = identity;
        let mut pot = potential_of(&dense);
        for round in &raw_rounds {
            let mut pairs: Vec<(usize, usize)> = round
                .iter()
                .map(|&(a, b)| (a % t, b % t))
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            if pairs.is_empty() {
                continue;
            }
            let x_val = 1.0 / (2.0 * t as f64);
            let entries: Vec<(usize, usize, f64)> =
                pairs.iter().map(|&(a, b)| (a, b, x_val)).collect();
            let mut x = vec![vec![0.0f64; t]; t];
            for &(a, b, v) in &entries {
                x[a][b] = v;
                x[b][a] = v;
            }
            dense = apply_fractional(&dense, &x);
            pot = apply_fractional_sparse(&mut sparse, &entries, pot);
            for (sr, dr) in sparse.iter().zip(&dense) {
                for (s, d) in sr.iter().zip(dr) {
                    prop_assert!((s - d).abs() <= 1e-9, "cell {s} vs {d}");
                }
            }
            let dense_pot = potential_of(&dense);
            prop_assert!(
                (pot - dense_pot).abs() <= 1e-9 * (1.0 + dense_pot),
                "potential {pot} vs {dense_pot}"
            );
        }
    }
}
