//! Smoke test: every `examples/` binary builds and runs to completion.
//! `scale_probe` fails when a shuffler runs to its iteration cap, so
//! its run here also checks Lemma B.5's stop rule at n = 2048.
//!
//! Exercises the exact artifacts `cargo run --example <name>` would use,
//! in release mode (the examples preprocess four-digit-vertex expanders,
//! which is slow without optimization).

use std::path::PathBuf;
use std::process::Command;

const EXAMPLES: [&str; 10] = [
    "quickstart",
    "baseline_comparison",
    "mst_expander",
    "clique_enumeration",
    "sorting_pipeline",
    "general_degree",
    "scale_probe",
    "service_throughput",
    "zoo_report",
    "churn_report",
];

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
}

#[test]
fn examples_build_and_run() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(&cargo)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "--release", "--examples"])
        .status()
        .expect("failed to spawn cargo");
    assert!(status.success(), "cargo build --release --examples failed");

    let bin_dir = target_dir().join("release").join("examples");
    for name in EXAMPLES {
        let out = Command::new(bin_dir.join(name))
            // The churn harness defaults to n = 1024 (~1 min) and the
            // service harness sweeps to n = 4096; the smoke test only
            // needs them to run end to end. CI exercises the full
            // sizes in its dedicated churn/service steps.
            .env("BASELINE_COMPARISON_N", "128")
            .env("CHURN_REPORT_N", "256")
            .env("SERVICE_N", "256")
            .env("SERVICE_JOBS", "16")
            .output()
            .unwrap_or_else(|e| panic!("failed to launch example `{name}`: {e}"));
        assert!(
            out.status.success(),
            "example `{name}` exited with {:?}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(!out.stdout.is_empty(), "example `{name}` ran but printed nothing",);
    }
}
