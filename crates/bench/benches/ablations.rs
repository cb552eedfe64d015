//! Ablation studies for the substitutions `docs/ARCHITECTURE.md` lists:
//! shuffler normalizer, packing escalation, and leaf size. Run via
//! `cargo bench --bench ablations` (`-- --test` runs each ablation once
//! at its smallest size).

use congest_sim::RoundLedger;
use expander_bench::{avg_query_rounds, section, sizes};
use expander_core::{Router, RouterConfig};
use expander_decomp::{
    build_shuffler, EscalationConfig, Hierarchy, HierarchyParams, ShufflerParams,
};
use expander_graphs::generators;

fn main() {
    println!("deterministic expander routing — ablation harness");
    a1_normalizer();
    a2_escalation();
    a3_leaf_size();
    println!("\nall ablations completed");
}

/// A1: the fractional-matching normalizer — paper's literal `6|X|/k`
/// vs the tight `max |X*_i|` (substitution 6 in `docs/ARCHITECTURE.md`).
fn a1_normalizer() {
    section("A1  shuffler normalizer: paper 6|X|/k vs tight max|X*_i|");
    println!(
        "{:>6} {:>12} {:>8} {:>12} {:>14}",
        "n", "normalizer", "lambda", "final Π", "quality(HX)"
    );
    for &n in &sizes(&[256, 512]) {
        let g = generators::random_regular(n, 4, 5).expect("generator");
        let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
        for paper in [false, true] {
            let params = ShufflerParams { paper_normalizer: paper, max_iterations: 800 };
            let mut ledger = RoundLedger::new();
            let sh = build_shuffler(&h, h.root(), &params, &mut ledger);
            println!(
                "{n:>6} {:>12} {:>8} {:>12.2e} {:>14}",
                if paper { "paper" } else { "tight" },
                sh.len(),
                sh.final_potential(),
                sh.quality_hx
            );
        }
    }
    println!("expect: the literal constant needs several times more iterations.");
}

/// A2: packing escalation budget — generous vs tight caps.
fn a2_escalation() {
    section("A2  matching-player escalation: generous vs tight caps");
    println!(
        "{:>6} {:>10} {:>8} {:>8} {:>10} {:>12}",
        "n", "caps", "built", "rho", "maxQ", "query"
    );
    let g = generators::random_regular(512, 4, 11).expect("generator");
    for (name, esc) in [
        ("4/16 x6", EscalationConfig::default()),
        ("2/8  x2", EscalationConfig { congestion_cap: 2, dilation_cap: 8, max_escalations: 2 }),
        ("1/6  x0", EscalationConfig { congestion_cap: 1, dilation_cap: 6, max_escalations: 0 }),
    ] {
        let mut cfg = RouterConfig::for_epsilon(0.4);
        cfg.hierarchy.escalation = esc;
        match Router::preprocess(&g, cfg) {
            Ok(r) => {
                let h = r.hierarchy();
                let max_q = h.nodes().iter().map(|nd| nd.flat_quality).max().unwrap_or(2);
                let q = avg_query_rounds(&r, 512, 1);
                println!(
                    "{:>6} {name:>10} {:>8} {:>8.2} {:>10} {:>12}",
                    512,
                    "yes",
                    h.rho_best(),
                    max_q,
                    q
                );
            }
            Err(e) => {
                println!("{:>6} {name:>10} {:>8} — {e}", 512, "no");
            }
        }
    }
    println!("expect: tighter caps either degrade quality/coverage or reject cleanly.");
}

/// A3: leaf size — bigger leaves shift work from the recursion into
/// the leaf networks.
fn a3_leaf_size() {
    section("A3  leaf size: recursion depth vs leaf network cost");
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>14} {:>12}",
        "n", "leaf", "depth", "nodes", "preprocess", "query"
    );
    // ε = 0.3 gives k = 8 and parts of 128 at n = 1024, so the three
    // leaf thresholds below genuinely change the recursion depth.
    let g = generators::random_regular(1024, 4, 13).expect("generator");
    for leaf in sizes(&[48, 96, 192]) {
        let mut cfg = RouterConfig::for_epsilon(0.3);
        cfg.hierarchy.leaf_size = Some(leaf);
        let r = Router::preprocess(&g, cfg).expect("router");
        let h = r.hierarchy();
        let q = avg_query_rounds(&r, 1024, 1);
        println!(
            "{:>6} {leaf:>8} {:>8} {:>10} {:>14} {:>12}",
            1024,
            h.depth(),
            h.nodes().len(),
            r.preprocessing_ledger().total(),
            q
        );
    }
}
