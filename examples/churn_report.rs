//! Fault-injection churn report: runs every seeded [`ChurnSchedule`]
//! at several churn rates against live query batches on a
//! [`ChurnRouter`], and prints per-run delivery rate, repair latency,
//! and congestion/dilation percentiles plus which degradation-ladder
//! rungs served the queries.
//!
//! ```sh
//! cargo run --release --example churn_report             # n = 1024
//! CHURN_REPORT_N=4096 cargo run --release --example churn_report
//! ```
//!
//! Every round of every run is checked against the route-or-report
//! contract (`RoutingOutcome::verify`): tokens are delivered or
//! reported as structured undeliverables, never dropped, never a
//! panic — up to 10% of edges churned per round.

use expander_core::churn::{ChurnConfig, ChurnDriver, ChurnParams, ChurnSchedule};
use expander_graphs::generators;
use std::time::Instant;

fn main() {
    let n: usize =
        std::env::var("CHURN_REPORT_N").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(1024);
    let rounds = 8;
    let batch = n / 8;
    println!("churn report: n = {n}, {rounds} rounds/run, batch = {batch} tokens");
    println!(
        "{:<16} {:>5} {:>9} {:>22} {:>13} {:>13} {:<28}",
        "schedule",
        "rate",
        "delivery",
        "repair p50/p95/p99",
        "cong p50/95/99",
        "dil p50/95/99",
        "modes"
    );
    for schedule in ChurnSchedule::ALL {
        for rate in [0.01, 0.05, 0.10] {
            let g = generators::random_regular(n, 4, 42).expect("generator");
            let t0 = Instant::now();
            let report = ChurnDriver::run(
                &g,
                ChurnConfig::for_epsilon(0.33),
                ChurnParams { schedule, rounds, churn_rate: rate, batch, seed: 0xC0FFEE },
            );
            let wall = t0.elapsed();
            let [r50, r95, r99] = report.repair_latency_percentiles_us();
            let [c50, c95, c99] = report.congestion_percentiles();
            let [d50, d95, d99] = report.dilation_percentiles();
            let modes = report
                .mode_counts()
                .into_iter()
                .map(|(m, c)| format!("{m}:{c}"))
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "{:<16} {:>4.0}% {:>8.1}% {:>18}us {:>13} {:>13} {:<28} ({wall:.0?})",
                report.params.schedule.to_string(),
                rate * 100.0,
                report.delivery_rate() * 100.0,
                format!("{r50}/{r95}/{r99}"),
                format!("{c50}/{c95}/{c99}"),
                format!("{d50}/{d95}/{d99}"),
                modes,
            );
        }
    }
}
