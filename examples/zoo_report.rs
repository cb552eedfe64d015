//! Topology-zoo report: routes one permutation per zoo topology through
//! [`RoutedDecomposition`] and prints a per-topology table — pieces,
//! fallback reason, delivery rate, observed congestion/dilation, charged
//! rounds, wall-clock.
//!
//! ```sh
//! cargo run --release --example zoo_report              # n ≈ 256
//! ZOO_REPORT_N=1024 cargo run --release --example zoo_report
//! ```
//!
//! Every topology — expander or not, connected or not — must produce a
//! row, never a panic: expanders take the single-hierarchy fast path,
//! everything else decomposes into expander pieces with cross-piece
//! tokens reported as structured undeliverables.
//!
//! The `churn` column replays each topology through three rounds of 5%
//! random edge removal on a [`ChurnRouter`] (via the fault-injection
//! driver) and reports the post-churn delivery rate — the degradation
//! ladder keeps every one of those batches on the route-or-report
//! contract too.

use expander_core::churn::{ChurnConfig, ChurnDriver, ChurnParams, ChurnSchedule};
use expander_core::{DecomposedConfig, RoutedDecomposition, RoutingInstance};
use expander_graphs::{generators, ingest, Graph};
use std::time::Instant;

fn zoo(n: usize) -> Vec<(&'static str, Graph)> {
    let half = n / 2;
    let cliques = (n / 16).max(3);
    let mut z: Vec<(&'static str, Graph)> = vec![
        ("random-regular", generators::random_regular(n, 4, 42).expect("generator")),
        ("power-law", generators::power_law(n, 3, 7).expect("generator")),
        ("bridged-2", generators::bridged_expanders(half, 4, 2, 11).expect("generator")),
        ("bridged-wide", generators::bridged_expanders(half, 4, half / 2, 13).expect("generator")),
        ("disconnected", generators::disconnected_expanders(2, half, 4, 17).expect("generator")),
        ("bridge-tree", generators::bridge_tree(cliques, 8)),
        ("ring-of-cliques", generators::ring_of_cliques(cliques, 12)),
        ("barbell", generators::barbell(half)),
        ("ring", generators::ring(n)),
    ];
    // One graph arrives through the ingestion path, exactly as a
    // real-world snapshot would.
    let text = ingest::graph_to_edge_list(&generators::ring_of_cliques(4, 8));
    z.push(("parsed-edge-list", ingest::parse_edge_list(&text).expect("round-trip").graph));
    z
}

fn main() {
    let n: usize =
        std::env::var("ZOO_REPORT_N").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(256);
    println!("topology zoo report: base n = {n}");
    println!(
        "{:<16} {:>6} {:>7} {:>6} {:<14} {:>9} {:>6} {:>6} {:>10} {:>9} {:>7}",
        "topology",
        "n",
        "m",
        "pieces",
        "fallback",
        "delivered",
        "cong",
        "dil",
        "rounds",
        "wall",
        "churn"
    );
    for (name, g) in zoo(n) {
        let t0 = Instant::now();
        let rd = RoutedDecomposition::preprocess(&g, DecomposedConfig::default());
        let inst = RoutingInstance::permutation(g.n(), 99);
        let out = rd.route(&inst).expect("valid instance");
        let wall = t0.elapsed();
        let issues = out.verify(&inst);
        assert!(issues.is_empty(), "{name}: conformance violations: {issues:?}");
        let fallback = match rd.fallback_reason() {
            None => "none".to_owned(),
            Some(r) => format!("{r:?}").split([' ', '(', '{']).next().unwrap_or("?").to_owned(),
        };
        // Post-churn delivery rate: 5% random edge removal per round,
        // three rounds, live query batches on the degradation ladder.
        let churn = ChurnDriver::run(
            &g,
            ChurnConfig::default(),
            ChurnParams {
                schedule: ChurnSchedule::RandomRemoval,
                rounds: 3,
                churn_rate: 0.05,
                batch: (g.n() / 8).max(8),
                seed: 99,
            },
        );
        println!(
            "{:<16} {:>6} {:>7} {:>6} {:<14} {:>8.1}% {:>6} {:>6} {:>10} {:>8.0?} {:>6.1}%",
            name,
            g.n(),
            g.m(),
            rd.pieces().len(),
            fallback,
            out.delivered_count() as f64 / out.positions.len().max(1) as f64 * 100.0,
            out.stats.max_congestion,
            out.stats.max_dilation,
            out.rounds(),
            wall,
            churn.delivery_rate() * 100.0,
        );
    }
}
