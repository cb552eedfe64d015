//! Scale probe: wall-clock of the staged parallel preprocessing
//! pipeline at a configurable size.
//!
//! ```sh
//! cargo run --release --example scale_probe                  # n = 2048
//! SCALE_PROBE_N=65536 cargo run --release --example scale_probe
//! EXPANDER_BUILD_THREADS=8 SCALE_PROBE_N=65536 \
//!     cargo run --release --example scale_probe
//! ```
//!
//! Prints per-stage timings (`Hierarchy::build`, then
//! `Router::from_hierarchy` deriving the router from that hierarchy —
//! together they are `Router::preprocess` — and one permutation query)
//! plus the charged-round totals, so thread-count scaling and the
//! ROADMAP's 10⁵-vertex goal can be checked from one command. After
//! preprocessing it prints the process's resident set (`VmRSS`) and its
//! peak (`VmHWM`) from `/proc/self/status`, or `n/a` where that file
//! cannot be read; the router owns the hierarchy, so both describe the
//! router.

use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
use expander_decomp::Hierarchy;
use expander_graphs::generators;
use std::time::Instant;

fn main() {
    let n: usize =
        std::env::var("SCALE_PROBE_N").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(2048);
    let threads = congest_sim::parallel::build_threads(None);
    println!("scale probe: n = {n}, build threads = {threads}");

    let t0 = Instant::now();
    let g = generators::random_regular(n, 4, 42).expect("generator");
    println!("generate 4-regular expander: {:.2?}", t0.elapsed());

    let config = RouterConfig::for_epsilon(0.4);
    let t1 = Instant::now();
    let h = Hierarchy::build(&g, config.hierarchy.clone()).expect("hierarchy");
    println!(
        "Hierarchy::build: {:.2?}  ({} nodes, depth {}, {} charged rounds)",
        t1.elapsed(),
        h.nodes().len(),
        h.depth(),
        h.ledger().total()
    );

    let t2 = Instant::now();
    let router = Router::from_hierarchy(h, config.shuffler).expect("router");
    println!(
        "Router::from_hierarchy: {:.2?}  ({} charged rounds, preprocessing {:.2?} in all)",
        t2.elapsed(),
        router.preprocessing_ledger().total(),
        t1.elapsed()
    );
    println!("memory after preprocess: VmRSS {}, VmHWM {}", status_kb("VmRSS"), status_kb("VmHWM"));

    let inst = RoutingInstance::permutation(n, 7);
    let t3 = Instant::now();
    let out = router.route(&inst).expect("valid instance");
    assert!(out.fully_delivered(), "undelivered tokens");
    println!(
        "route permutation (L = 1): {:.2?}  ({} charged rounds)",
        t3.elapsed(),
        out.ledger.total()
    );

    // Batch-engine throughput, so sweeps track the amortized query
    // path alongside the single-query wall time.
    let b = 8usize;
    let batch: Vec<RoutingInstance> =
        (0..b as u64).map(|s| RoutingInstance::permutation(n, 100 + s)).collect();
    let engine = QueryEngine::new(&router);
    let t4 = Instant::now();
    let (outs, stats) = engine.route_batch(&batch).expect("valid instances");
    let dt = t4.elapsed();
    assert!(outs.iter().all(|o| o.fully_delivered()), "undelivered batch tokens");
    println!(
        "engine batch (B = {b}, L = 1): {dt:.2?}  ({:.1} queries/s, {} total rounds)",
        b as f64 / dt.as_secs_f64(),
        stats.total_rounds,
    );
}

/// The `field` line of `/proc/self/status` (e.g. `"123456 kB"`), or
/// `n/a` where the file or the field cannot be read.
fn status_kb(field: &str) -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?.strip_prefix(':').map(|v| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "n/a".to_string())
}
