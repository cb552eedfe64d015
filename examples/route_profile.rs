//! Phase-breakdown profile of a query batch: tokens moved,
//! buckets touched, and estimated bytes traversed per execution phase
//! (Task 2 / Task 3 prep / dispersal scans / merge).
//!
//! Run with: `cargo run --release --features profile --example route_profile`
//!
//! Without `--features profile` the counters compile to nothing and the
//! table prints all zeros (the example says so instead of guessing).

use expander_routing::core::{PhaseProfile, RouteProfile};
use expander_routing::prelude::*;

fn row(name: &str, p: &PhaseProfile, total_bytes: u64) {
    let share =
        if total_bytes == 0 { 0.0 } else { 100.0 * p.bytes_traversed as f64 / total_bytes as f64 };
    println!(
        "  {name:10} {:>14} {:>16} {:>16} {share:>7.1}%",
        p.tokens_moved, p.buckets_touched, p.bytes_traversed
    );
}

fn print_table(profile: &RouteProfile) {
    let total = profile.total();
    println!(
        "  {:10} {:>14} {:>16} {:>16} {:>8}",
        "phase", "tokens moved", "buckets touched", "bytes traversed", "bytes%"
    );
    row("task2", &profile.task2, total.bytes_traversed);
    row("task3", &profile.task3, total.bytes_traversed);
    row("disperse", &profile.disperse, total.bytes_traversed);
    row("merge", &profile.merge, total.bytes_traversed);
    row("TOTAL", &total, total.bytes_traversed);
}

fn main() {
    let n = 512;
    let batch = 64;
    let g = generators::random_regular(n, 4, 9).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    let engine = QueryEngine::new(&router);

    let jobs: Vec<Job> =
        (0..batch).map(|i| Job::Route(RoutingInstance::permutation(n, 1000 + i as u64))).collect();

    // Warm run fills the dummy cache and the scratch pool; the profiled
    // run then shows the steady-state traffic a served batch costs.
    engine.run(&jobs).expect("valid jobs");
    let out = engine.run(&jobs).expect("valid jobs");

    println!(
        "batch: {} jobs on n = {n}, {} total charged rounds\n",
        out.stats.jobs, out.stats.total_rounds
    );
    if out.stats.profile.is_empty() {
        println!("profile counters are all zero — rebuild with `--features profile`:");
        println!("  cargo run --release --features profile --example route_profile");
        return;
    }
    println!("steady-state phase traffic (whole batch):");
    print_table(&out.stats.profile);
}
