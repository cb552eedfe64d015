//! Sustained streaming throughput: open-loop arrivals through
//! [`RoutingService`] against the closed-batch reference of
//! [`QueryEngine::run`] on the same jobs.
//!
//! For each graph size the harness replays a fixed seeded
//! [`ArrivalSchedule`] twice — once in real time (arrivals spaced at
//! the offered rate; measures latency under load) and once saturated
//! (back-to-back submission; measures sustained queries/s) — and
//! prints sustained qps, formation (submission → execution start) and
//! service-latency percentiles, and the ratio of the saturated service
//! to the closed batch, which holds every job up front and so pays no
//! intake overhead.
//!
//! ```sh
//! cargo run --release --example service_throughput             # n = 512 and 4096
//! SERVICE_N=1024 cargo run --release --example service_throughput   # one size (CI smoke)
//! ```
//!
//! Streamed outcomes are checked byte-identical to the closed batch
//! before any figure is reported, and the harness asserts every
//! admitted job came back (zero lost outcomes) — the machine-checkable
//! delivery contract CI's service-smoke step leans on.

use expander_routing::prelude::*;
use std::time::Instant;

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|s| s.trim().parse().ok())
}

/// One observable line per outcome, for the byte-identity check.
fn fingerprint(out: &JobOutcome) -> String {
    match out {
        JobOutcome::Route(o) => format!("route|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
        JobOutcome::Sort(o) => format!("sort|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
    }
}

fn run_size(n: usize, jobs: usize, tenants: usize) {
    println!("=== n = {n}, {jobs} jobs, {tenants} tenants ===");
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let t0 = Instant::now();
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    println!("Router::preprocess: {:.2?}", t0.elapsed());
    let engine = QueryEngine::new(&router);

    // Reference: the same jobs as one closed batch. Warm once so the
    // scratch pool and dummy caches are populated for every contender
    // alike.
    let schedule = ArrivalSchedule::permutations(n, jobs, tenants, 0.0, 9000 + n as u64);
    let batch_jobs = schedule.jobs();
    engine.run(&batch_jobs).expect("valid jobs");
    let t1 = Instant::now();
    let batch = engine.run(&batch_jobs).expect("valid jobs");
    let closed = t1.elapsed();
    let closed_qps = jobs as f64 / closed.as_secs_f64();
    println!("closed batch (reference):     {closed:.2?}  ({closed_qps:.1} queries/s)");

    // Saturated service: arrivals offered back to back; sustained
    // throughput is bounded by admission and intake overhead only.
    let config = ServiceConfig { tenants, ..ServiceConfig::default() };
    let (outs, stats) =
        RoutingService::serve(&engine, config.clone(), |handle| schedule.drive(handle, false));
    assert_eq!(outs.len(), jobs, "lost outcomes: {} of {jobs} delivered", outs.len());
    assert_eq!(stats.completed, jobs as u64, "service completed {} of {jobs}", stats.completed);
    for (i, (streamed, oracle)) in outs.iter().zip(&batch.outcomes).enumerate() {
        assert_eq!(
            fingerprint(streamed),
            fingerprint(oracle),
            "job {i}: streamed outcome diverged from the closed batch"
        );
    }
    let ratio = closed_qps / stats.queries_per_sec;
    println!(
        "service (saturated):          {:.2?}  ({:.1} queries/s, {ratio:.2}× off the reference)",
        stats.elapsed, stats.queries_per_sec
    );
    let [f50, f95, f99] = stats.formation_latency_us;
    let [s50, s95, s99] = stats.service_latency_us;
    println!("  formation p50/p95/p99: {f50}/{f95}/{f99} µs");
    println!("  service latency p50/p95/p99: {s50}/{s95}/{s99} µs");

    // Real-time open loop at ~70% of the saturated rate: latency when
    // the service has headroom.
    let rate = stats.queries_per_sec * 0.7;
    let open = ArrivalSchedule::permutations(n, jobs, tenants, rate, 9000 + n as u64);
    let (outs_rt, stats_rt) =
        RoutingService::serve(&engine, config, |handle| open.drive(handle, true));
    assert_eq!(outs_rt.len(), jobs, "lost outcomes in the real-time replay");
    assert_eq!(stats_rt.completed, jobs as u64);
    let [r50, r95, r99] = stats_rt.service_latency_us;
    println!(
        "service (open loop, {rate:.0} jobs/s offered): {:.1} queries/s, latency p50/p95/p99 {r50}/{r95}/{r99} µs",
        stats_rt.queries_per_sec
    );
    println!("outputs byte-identical to the closed batch; zero lost outcomes");
    println!();
}

fn main() {
    let tenants = env_usize("SERVICE_TENANTS").unwrap_or(4);
    match env_usize("SERVICE_N") {
        // CI smoke and ad-hoc single-size runs.
        Some(n) => run_size(n, env_usize("SERVICE_JOBS").unwrap_or(64), tenants),
        None => {
            run_size(512, 64, tenants);
            run_size(4096, 64, tenants);
        }
    }
}
