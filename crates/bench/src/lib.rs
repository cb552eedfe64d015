#![warn(missing_docs)]

//! Shared helpers for the experiment harness (`benches/experiments.rs`
//! indexes the experiments E1–E14, one function per paper claim).

use expander_core::{Router, RouterConfig, RoutingInstance};
use expander_graphs::{generators, Graph};
use std::time::Instant;

/// A preprocessed router together with build metadata.
pub struct BuiltRouter {
    /// The graph it routes on.
    pub graph: Graph,
    /// The router.
    pub router: Router,
    /// Wall-clock seconds spent preprocessing (informational; rounds
    /// are the metric).
    pub build_secs: f64,
}

/// Builds a seeded random 4-regular expander and preprocesses it.
///
/// # Panics
///
/// Panics if generation or preprocessing fails (benchmarks run on
/// known-good expander inputs).
pub fn build(n: usize, epsilon: f64, seed: u64) -> BuiltRouter {
    let graph = generators::random_regular(n, 4, seed).expect("generator");
    let t0 = Instant::now();
    let router = Router::preprocess(&graph, RouterConfig::for_epsilon(epsilon)).expect("router");
    BuiltRouter { graph, router, build_secs: t0.elapsed().as_secs_f64() }
}

/// Average query rounds over `reps` seeded permutation instances.
pub fn avg_query_rounds(r: &Router, n: usize, reps: u64) -> u64 {
    let mut total = 0u64;
    for s in 0..reps {
        let inst = RoutingInstance::permutation(n, 1000 + s);
        let out = r.route(&inst).expect("valid");
        assert!(out.fully_delivered());
        total += out.rounds();
    }
    total / reps.max(1)
}

/// Least-squares slope of `log y` against `log x` — the fitted exponent
/// of a power-law series.
pub fn fitted_exponent(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.max(1.0).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Prints a horizontal rule with a title.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Whether the harness was invoked in smoke mode
/// (`cargo bench -- --test`): run every experiment once at its
/// smallest size so CI exercises the code without paying for the
/// sweeps. Cargo passes `--test` through to the `harness = false`
/// targets, which read it here.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// A size list respecting [`smoke_mode`]: the full list normally, just
/// its first entry under `-- --test`.
pub fn sizes(full: &[usize]) -> Vec<usize> {
    if smoke_mode() {
        full[..1].to_vec()
    } else {
        full.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_slope() {
        let pts: Vec<(f64, f64)> =
            (1..6).map(|i| (i as f64 * 100.0, (i as f64 * 100.0).powf(1.5))).collect();
        let e = fitted_exponent(&pts);
        assert!((e - 1.5).abs() < 1e-9, "exponent {e}");
    }

    #[test]
    fn build_and_query_small() {
        let b = build(128, 0.4, 3);
        let q = avg_query_rounds(&b.router, 128, 1);
        assert!(q > 0);
    }
}
