//! Determinism of the batched query engine: the query-side mirror of
//! `tests/parallel_determinism.rs`.
//!
//! A batch's per-job outcomes (positions, ledgers, stats) and its
//! merged batch ledger must be byte-identical (a) at every worker
//! thread count, (b) under any submission order (shuffled, then mapped
//! back), (c) to individual `Router::route`/`Router::sort` calls, (d)
//! on a warm engine's repeat batch, and (e) while another engine runs
//! at the same time — the scratch pool and the dummy-dispersal cache
//! are accelerators, never observable, whichever worker's scratch
//! serves a job, and two engines share neither.

use congest_sim::RoundLedger;
use expander_core::{
    BatchOutcome, Job, JobOutcome, QueryEngine, Router, RouterConfig, RoutingInstance, SortInstance,
};
use expander_graphs::generators;

const SIZES: [usize; 2] = [256, 1024];

fn router(n: usize) -> Router {
    router_on(n, 0xBA7C)
}

fn router_on(n: usize, graph_seed: u64) -> Router {
    let g = generators::random_regular(n, 4, graph_seed).expect("generator");
    Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
}

/// A mixed batch: permutations, higher-load routes, and sorts.
fn jobs(n: usize) -> Vec<Job> {
    let mut jobs: Vec<Job> = Vec::new();
    for s in 0..4 {
        jobs.push(Job::Route(RoutingInstance::permutation(n, s)));
    }
    jobs.push(Job::Route(RoutingInstance::uniform_load(n, 2, 9)));
    jobs.push(Job::Route(RoutingInstance::bit_reversal(n)));
    for s in 0..2 {
        jobs.push(Job::Sort(SortInstance::random(n, 2, 20 + s)));
    }
    jobs
}

/// Every observable byte of one job outcome.
fn fingerprint(out: &JobOutcome) -> String {
    match out {
        JobOutcome::Route(o) => {
            format!("route|{:?}|{:?}|{}|{:?}", o.positions, o.stats, o.ledger, o.ledger)
        }
        JobOutcome::Sort(o) => {
            format!("sort|{:?}|{:?}|{}|{:?}", o.positions, o.stats, o.ledger, o.ledger)
        }
    }
}

#[test]
fn batch_is_thread_count_invariant() {
    for n in SIZES {
        let r = router(n);
        let jobs = jobs(n);
        let seq = QueryEngine::new(&r).with_threads(Some(1)).run(&jobs).expect("valid");
        let par = QueryEngine::new(&r).with_threads(Some(4)).run(&jobs).expect("valid");
        assert_eq!(seq.outcomes.len(), par.outcomes.len());
        for (i, (a, b)) in seq.outcomes.iter().zip(&par.outcomes).enumerate() {
            assert_eq!(fingerprint(a), fingerprint(b), "n = {n}: job {i} differs across threads");
        }
        assert_eq!(seq.stats.merged, par.stats.merged, "n = {n}: merged ledgers differ");
        assert_eq!(
            format!("{}", seq.stats.merged),
            format!("{}", par.stats.merged),
            "n = {n}: merged ledger rendering differs"
        );
        assert_eq!(seq.stats.total_rounds, par.stats.total_rounds);
        assert_eq!(seq.stats.max_rounds, par.stats.max_rounds);
        assert_eq!(seq.stats.max_congestion(), par.stats.max_congestion());
        assert_eq!(seq.stats.max_dilation(), par.stats.max_dilation());
        assert_eq!(
            format!("{:?}", seq.stats.query),
            format!("{:?}", par.stats.query),
            "n = {n}: aggregated query stats differ"
        );
    }
}

#[test]
fn batch_order_is_unobservable() {
    let n = 256;
    let r = router(n);
    let jobs = jobs(n);
    let engine = QueryEngine::new(&r).with_threads(Some(4));
    let base = engine.run(&jobs).expect("valid");

    // Shuffle the submission order deterministically, run, then map the
    // outcomes back to the original job indices.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.reverse();
    order.swap(0, 3);
    let shuffled: Vec<Job> = order.iter().map(|&i| jobs[i].clone()).collect();
    let out = engine.run(&shuffled).expect("valid");
    let mut restored: Vec<Option<&JobOutcome>> = vec![None; jobs.len()];
    for (pos, &orig) in order.iter().enumerate() {
        restored[orig] = Some(&out.outcomes[pos]);
    }
    for (i, (a, b)) in base.outcomes.iter().zip(&restored).enumerate() {
        let b = b.expect("every slot restored");
        assert_eq!(fingerprint(a), fingerprint(b), "job {i} depends on batch order");
    }
    // Merged ledgers are per-phase sums, so they agree too.
    assert_eq!(base.stats.merged, out.stats.merged);
}

#[test]
fn batch_matches_individual_queries() {
    let n = 256;
    let r = router(n);
    let jobs = jobs(n);
    let engine = QueryEngine::new(&r).with_threads(Some(2));
    let batch = engine.run(&jobs).expect("valid");
    for (i, (job, out)) in jobs.iter().zip(&batch.outcomes).enumerate() {
        let solo = match job {
            Job::Route(inst) => JobOutcome::Route(r.route(inst).expect("valid")),
            Job::Sort(inst) => JobOutcome::Sort(r.sort(inst).expect("valid")),
        };
        assert_eq!(fingerprint(out), fingerprint(&solo), "job {i} differs from a solo query");
    }
}

#[test]
fn repeated_batches_are_stable() {
    // The pool and dummy caches are warm on the second run; outputs
    // must not drift.
    let n = 256;
    let r = router(n);
    let jobs = jobs(n);
    let engine = QueryEngine::new(&r);
    let first = engine.run(&jobs).expect("valid");
    let second = engine.run(&jobs).expect("valid");
    for (i, (a, b)) in first.outcomes.iter().zip(&second.outcomes).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b), "job {i} drifted on a warm engine");
    }
    assert_eq!(first.stats.merged, second.stats.merged);
}

/// The outcome of `job` as a solo query, on a fresh scratch that no
/// other worker touches.
fn solo(r: &Router, job: &Job) -> JobOutcome {
    match job {
        Job::Route(inst) => JobOutcome::Route(r.route(inst).expect("valid")),
        Job::Sort(inst) => JobOutcome::Sort(r.sort(inst).expect("valid")),
    }
}

#[test]
fn racing_workers_match_solo_queries() {
    // Dense permutations at n = 1024 send many real tokens through the
    // merge fallback. Cold engines at 4 and 2 workers race their
    // workers on fresh scratches, and one long-lived engine runs the
    // batch at 4, 2 and 1 workers on warm ones. Every outcome, and the
    // merged ledger, equals the solo queries'.
    let n = 1024;
    let r = router(n);
    let jobs: Vec<Job> =
        (0..8).map(|s| Job::Route(RoutingInstance::permutation(n, 40 + s))).collect();
    let solos: Vec<JobOutcome> = jobs.iter().map(|job| solo(&r, job)).collect();
    let mut merged = RoundLedger::new();
    for out in &solos {
        merged.merge(out.ledger());
    }
    let fallback: u64 = solos.iter().map(|o| o.stats().fallback_tokens).sum();
    assert!(fallback > 0, "the batch takes fallback legs");
    let check = |batch: &BatchOutcome, what: &str| {
        for (i, (a, b)) in solos.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(fingerprint(a), fingerprint(b), "{what}: job {i} differs from a solo query");
        }
        assert_eq!(merged, batch.stats.merged, "{what}: merged ledgers differ");
    };
    for threads in [4, 2] {
        let cold = QueryEngine::new(&r).with_threads(Some(threads));
        check(&cold.run(&jobs).expect("valid"), &format!("cold engine at {threads} workers"));
    }
    let mut engine = QueryEngine::new(&r);
    for threads in [4, 2, 1] {
        engine = engine.with_threads(Some(threads));
        check(&engine.run(&jobs).expect("valid"), &format!("one engine at {threads} workers"));
    }
}

#[test]
fn concurrent_engines_share_nothing() {
    // Two engines at 2 workers, over routers of two different graphs,
    // run the same jobs from two threads at once. Each run equals that
    // engine's run alone: nothing of one engine's queries reaches the
    // other's.
    let n = 256;
    let routers = [router_on(n, 0xBA7C), router_on(n, 0x5EED)];
    let jobs = jobs(n);
    let engines = routers.each_ref().map(|r| QueryEngine::new(r).with_threads(Some(2)));
    let alone = engines.each_ref().map(|e| e.run(&jobs).expect("valid"));
    assert_ne!(
        alone[0].stats.merged, alone[1].stats.merged,
        "the two graphs must route differently, or a crossed result would go unseen"
    );
    for run in 0..3 {
        let together = std::thread::scope(|s| {
            let handles = engines.each_ref().map(|e| s.spawn(|| e.run(&jobs).expect("valid")));
            handles.map(|h| h.join().expect("engine thread"))
        });
        for (e, (reference, batch)) in alone.iter().zip(&together).enumerate() {
            assert_eq!(reference.outcomes.len(), batch.outcomes.len());
            for (i, (a, b)) in reference.outcomes.iter().zip(&batch.outcomes).enumerate() {
                assert_eq!(
                    fingerprint(a),
                    fingerprint(b),
                    "run {run}, engine {e}: job {i} differs"
                );
            }
            assert_eq!(
                reference.stats.merged, batch.stats.merged,
                "run {run}, engine {e}: merged ledgers differ"
            );
        }
    }
}
