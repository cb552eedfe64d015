//! Batch-engine throughput: B routing queries through [`QueryEngine`]
//! versus the same B queries as sequential `Router::route` calls, with
//! queries/sec at 1 thread and at the environment's thread count —
//! plus the legacy per-job engine path (fusion width 1) so the
//! cross-job dispersal fusion win is visible against its own baseline.
//!
//! ```sh
//! cargo run --release --example batch_throughput            # n = 512, B = 64
//! BATCH_N=1024 BATCH_B=128 cargo run --release --example batch_throughput
//! ```
//!
//! The engine outputs are checked byte-identical to the sequential
//! ones before any timing is reported.

use expander_routing::prelude::*;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

fn run_shape(router: &Router, label: &str, insts: &[RoutingInstance], threads: usize) {
    let b = insts.len();
    // Baseline: B independent route calls, fresh scratch each.
    let t1 = Instant::now();
    let solo: Vec<RoutingOutcome> =
        insts.iter().map(|inst| router.route(inst).expect("valid instance")).collect();
    let seq = t1.elapsed();
    assert!(solo.iter().all(RoutingOutcome::fully_delivered), "undelivered tokens");

    // Engine, one worker, per-job path: the pooled-scratch +
    // dummy-cache win alone (the pre-fusion engine).
    let engine_pj = QueryEngine::new(router).with_threads(Some(1)).with_fusion_width(Some(1));
    let t2 = Instant::now();
    let (outs_pj, _stats_pj) = engine_pj.route_batch(insts).expect("valid instances");
    let perjob = t2.elapsed();

    // Engine, one worker, fused: cross-job dispersal fusion on top.
    let engine1 = QueryEngine::new(router).with_threads(Some(1));
    let t2 = Instant::now();
    let (outs1, stats1) = engine1.route_batch(insts).expect("valid instances");
    let one = t2.elapsed();

    // Engine, environment thread count.
    let engine_n = QueryEngine::new(router);
    let t3 = Instant::now();
    let (outs_n, _stats_n) = engine_n.route_batch(insts).expect("valid instances");
    let many = t3.elapsed();

    for (((a, opj), o1), on) in solo.iter().zip(&outs_pj).zip(&outs1).zip(&outs_n) {
        assert_eq!(a.positions, opj.positions, "per-job engine diverged from sequential");
        assert_eq!(a.ledger, opj.ledger, "per-job engine ledger diverged");
        assert_eq!(a.positions, o1.positions, "engine(1) diverged from sequential");
        assert_eq!(a.ledger, o1.ledger, "engine(1) ledger diverged");
        assert_eq!(a.positions, on.positions, "engine(N) diverged from sequential");
        assert_eq!(a.ledger, on.ledger, "engine(N) ledger diverged");
    }

    let qps = |d: std::time::Duration| b as f64 / d.as_secs_f64();
    println!("--- {label} ---");
    println!("sequential Router::route ×{b}: {seq:.2?}  ({:.1} queries/s)", qps(seq));
    println!(
        "QueryEngine (per-job, 1 thr):  {perjob:.2?}  ({:.1} queries/s, {:.2}× sequential)",
        qps(perjob),
        seq.as_secs_f64() / perjob.as_secs_f64()
    );
    println!(
        "QueryEngine (fused, 1 thr):    {one:.2?}  ({:.1} queries/s, {:.2}× sequential)",
        qps(one),
        seq.as_secs_f64() / one.as_secs_f64()
    );
    println!(
        "QueryEngine (threads = {threads}):     {many:.2?}  ({:.1} queries/s, {:.2}× sequential)",
        qps(many),
        seq.as_secs_f64() / many.as_secs_f64()
    );
    println!(
        "batch: {} jobs, {} total rounds (max {} per job), worst congestion {}, dilation {}",
        stats1.jobs,
        stats1.total_rounds,
        stats1.max_rounds,
        stats1.max_congestion(),
        stats1.max_dilation()
    );
    println!("outputs byte-identical across sequential / per-job / fused / engine({threads})");
}

fn main() {
    let n = env_usize("BATCH_N", 512);
    let b = env_usize("BATCH_B", 64);
    let threads = expander_routing::congest::parallel::build_threads(None);
    println!("batch throughput: n = {n}, B = {b}, env threads = {threads}");

    let g = generators::random_regular(n, 4, 7).expect("generator");
    let t0 = Instant::now();
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    println!("Router::preprocess: {:.2?}", t0.elapsed());

    // Full-density batch: whole-graph permutations — the worst case
    // for batching (maximal per-query real-token work).
    let full: Vec<RoutingInstance> =
        (0..b as u64).map(|s| RoutingInstance::permutation(n, 100 + s)).collect();
    run_shape(&router, "full permutations (L = 1, n tokens/query)", &full, threads);

    // Sparse batch: n/4-token partial permutations — the multi-tenant
    // traffic shape, where the cached dummy dispersal dominates.
    let sparse: Vec<RoutingInstance> =
        (0..b as u64).map(|s| RoutingInstance::partial_permutation(n, n / 4, 100 + s)).collect();
    run_shape(&router, "sparse partial permutations (L = 1, n/4 tokens/query)", &sparse, threads);
}
