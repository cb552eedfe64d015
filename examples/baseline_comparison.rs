//! Baseline arena report: the hierarchical router vs. the rival
//! algorithms of `expander-baselines`, across the topology zoo.
//!
//! ```sh
//! cargo run --release --example baseline_comparison            # n ≈ 256
//! BASELINE_COMPARISON_N=1024 cargo run --release --example baseline_comparison
//! ```
//!
//! Every topology is swept with the three standard workloads —
//! a full permutation, a partial permutation (`n/4` tokens), and a
//! hotspot pattern — through all three [`RoutingAlgorithm`] entrants:
//!
//! * `hierarchical` — [`RoutedDecomposition`] (Theorem 1.1 on certified
//!   expanders, Corollary 1.4 decomposition elsewhere),
//! * `splicer` — least-loaded paths in a union of seeded spanning
//!   trees (arXiv:0807.1496),
//! * `greedy-local` — deterministic local forwarding with unit-capacity
//!   links and waiting buffers (cf. arXiv:2403.07410).
//!
//! Per (topology, algorithm) the table shows worst congestion and
//! dilation over the workloads, total charged rounds on the shared
//! ledger model, overall delivery rate, and wall-clock for the three
//! routes (hierarchical preprocessing is listed separately in `pre`
//! — the other two have no preprocessed state). Every outcome is
//! checked with [`RoutingOutcome::verify`]: a violation panics, so this
//! report doubles as a smoke-level conformance pass.

use expander_baselines::{GreedyLocalRouting, SplicerRouting};
use expander_core::{
    DecomposedConfig, RoutedDecomposition, RoutingAlgorithm, RoutingInstance, RoutingOutcome,
};
use expander_graphs::{generators, ingest, Graph};
use std::time::{Duration, Instant};

fn zoo(n: usize) -> Vec<(&'static str, Graph)> {
    let half = n / 2;
    let cliques = (n / 16).max(3);
    let mut z: Vec<(&'static str, Graph)> = vec![
        ("random-regular", generators::random_regular(n, 4, 42).expect("generator")),
        ("hypercube", generators::hypercube((n.max(16)).ilog2())),
        ("margulis", generators::margulis((n as f64).sqrt().round() as usize)),
        ("power-law", generators::power_law(n, 3, 7).expect("generator")),
        ("bridged-2", generators::bridged_expanders(half, 4, 2, 11).expect("generator")),
        ("disconnected", generators::disconnected_expanders(2, half, 4, 17).expect("generator")),
        ("bridge-tree", generators::bridge_tree(cliques, 8)),
        ("ring-of-cliques", generators::ring_of_cliques(cliques, 12)),
        ("barbell", generators::barbell(half)),
        ("ring", generators::ring(n)),
    ];
    let text = ingest::graph_to_edge_list(&generators::ring_of_cliques(4, 8));
    z.push(("parsed-edge-list", ingest::parse_edge_list(&text).expect("round-trip").graph));
    z
}

fn workloads(n: usize) -> Vec<RoutingInstance> {
    vec![
        RoutingInstance::permutation(n, 99),
        RoutingInstance::partial_permutation(n, n / 4, 101),
        RoutingInstance::hotspot(n, 4, 8, 103),
    ]
}

struct Line {
    cong: u64,
    dil: u64,
    rounds: u64,
    delivered: usize,
    tokens: usize,
    wall: Duration,
}

fn sweep(name: &str, algo: &dyn RoutingAlgorithm, g: &Graph, insts: &[RoutingInstance]) -> Line {
    let mut line =
        Line { cong: 0, dil: 0, rounds: 0, delivered: 0, tokens: 0, wall: Duration::ZERO };
    for inst in insts {
        let t0 = Instant::now();
        let out: RoutingOutcome = algo.route_instance(g, inst).expect("valid instance");
        line.wall += t0.elapsed();
        let issues = out.verify(inst);
        assert!(issues.is_empty(), "{name}/{}: conformance violations: {issues:?}", algo.name());
        line.cong = line.cong.max(out.stats.max_congestion);
        line.dil = line.dil.max(out.stats.max_dilation);
        line.rounds += out.rounds();
        line.delivered += out.delivered_count();
        line.tokens += inst.tokens.len();
    }
    line
}

fn main() {
    let n: usize = std::env::var("BASELINE_COMPARISON_N")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(256);
    println!("baseline arena: base n = {n}, workloads = permutation + partial(n/4) + hotspot");
    println!(
        "{:<16} {:>6} {:>7}  {:<13} {:>7} {:>6} {:>11} {:>10} {:>10} {:>10}",
        "topology", "n", "m", "algorithm", "cong", "dil", "rounds", "delivered", "wall", "pre"
    );
    for (name, g) in zoo(n) {
        let insts = workloads(g.n());
        let t0 = Instant::now();
        let rd = RoutedDecomposition::preprocess(&g, DecomposedConfig::default());
        let pre = t0.elapsed();
        let splicer = SplicerRouting::default();
        let local = GreedyLocalRouting;
        let entrants: [(&dyn RoutingAlgorithm, Option<Duration>); 3] =
            [(&rd, Some(pre)), (&splicer, None), (&local, None)];
        for (row, (algo, pre)) in entrants.iter().enumerate() {
            let line = sweep(name, *algo, &g, &insts);
            let label = if row == 0 { name } else { "" };
            let (topo_n, topo_m) = if row == 0 {
                (g.n().to_string(), g.m().to_string())
            } else {
                (String::new(), String::new())
            };
            println!(
                "{:<16} {:>6} {:>7}  {:<13} {:>7} {:>6} {:>11} {:>9.1}% {:>10.1?} {:>10}",
                label,
                topo_n,
                topo_m,
                algo.name(),
                line.cong,
                line.dil,
                line.rounds,
                line.delivered as f64 / line.tokens.max(1) as f64 * 100.0,
                line.wall,
                pre.map(|d| format!("{d:.1?}")).unwrap_or_else(|| "-".to_owned()),
            );
        }
    }
}
