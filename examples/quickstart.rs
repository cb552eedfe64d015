//! Quickstart: preprocess an expander once, answer routing and sorting
//! queries, and inspect the charged round ledgers.
//!
//! Run with: `cargo run --release --example quickstart`

use expander_routing::prelude::*;

fn main() {
    // 1. An input expander: 4-regular random graph on 1024 vertices.
    let n = 1024;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    println!(
        "graph: n = {}, m = {}, spectral gap = {:.4}",
        g.n(),
        g.m(),
        metrics::spectral_gap(&g, 1)
    );

    // 2. Preprocess (Theorem 1.1): hierarchy + shufflers lowered into
    //    per-node query tables + leaf network costs + delegate chains.
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    let pre = router.preprocessing_ledger();
    println!("\npreprocessing rounds: {}", pre.total());
    for (phase, rounds) in pre.breakdown() {
        println!("  {phase:32} {rounds}");
    }
    let h = router.hierarchy();
    println!(
        "hierarchy: {} nodes, depth {}, k = {}, rho_best = {:.2}, |W| = {}/{}",
        h.nodes().len(),
        h.depth(),
        h.k(),
        h.rho_best(),
        h.node(h.root()).vertices.len(),
        n
    );

    // 3. A routing query: a random permutation (load L = 1).
    let inst = RoutingInstance::permutation(n, 42);
    let out = router.route(&inst).expect("valid instance");
    assert!(out.fully_delivered());
    println!("\nrouting query (permutation, L = 1): {} rounds", out.rounds());
    for (phase, rounds) in out.ledger.breakdown() {
        println!("  {phase:32} {rounds}");
    }
    println!(
        "  stats: task3 calls = {}, fallback tokens = {}, dispersion violations = {}/{}",
        out.stats.task3_calls,
        out.stats.fallback_tokens,
        out.stats.dispersion_violations,
        out.stats.dispersion_checked
    );

    // 4. More queries amortize the preprocessing — each reuses the
    //    same shufflers (the tradeoff CS20 could not achieve).
    let mut query_total = 0u64;
    for seed in 0..5 {
        let q = RoutingInstance::permutation(n, 100 + seed);
        query_total += router.route(&q).expect("valid").rounds();
    }
    println!(
        "\n5 more queries: avg {} rounds each (preprocessing was {})",
        query_total / 5,
        pre.total()
    );

    // 5. An expander-sorting query (Theorem 5.6).
    let sort_inst = SortInstance::random(n, 2, 9);
    let sorted = router.sort(&sort_inst).expect("valid instance");
    assert!(sorted.is_sorted(&sort_inst, n, 2));
    println!("\nsorting query (L = 2): {} rounds", sorted.rounds());
}
