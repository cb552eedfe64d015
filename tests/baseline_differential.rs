//! Differential conformance suite for the baseline arena.
//!
//! Routing algorithms built on entirely different mechanisms — the
//! hierarchical decomposition ([`RoutedDecomposition`]), and on the
//! certified expanders where it takes its fast path also the
//! Theorem 1.1 [`Router`] and the Appendix E split router
//! ([`GeneralRouter`]), splicer spanning-tree routing
//! ([`SplicerRouting`]), and greedy deterministic local forwarding
//! ([`GreedyLocalRouting`]) — route the *identical* [`RoutingInstance`]
//! on every zoo topology and must agree on the shared contract:
//!
//! * every token is delivered or reported exactly once, and flat
//!   per-edge loads are consistent with the reported congestion
//!   ([`RoutingOutcome::verify`], the one verifier of every router);
//! * deliverability is a graph property, not an algorithm property:
//!   both baselines fail exactly the cross-component tokens, and the
//!   decomposition router only ever fails a superset of those (it may
//!   additionally report cross-piece tokens within a component);
//! * outcomes are byte-identical across hierarchy build threads 1 vs 4
//!   and across repeated runs — full structural equality including the
//!   round ledger;
//! * on certified expanders (the decomposition's fast path) the
//!   hierarchical router's congestion beats or matches each baseline's
//!   up to a documented constant factor (the paper's quality claim).

use expander_baselines::{GreedyLocalRouting, SplicerRouting};
use expander_core::{
    DecomposedConfig, GeneralRouter, RoutedDecomposition, Router, RoutingAlgorithm,
    RoutingInstance, RoutingOutcome,
};
use expander_graphs::{generators, ingest, metrics, Graph};

/// Same zoo shape as `tests/topology_zoo.rs`, sized for tier-1 budgets.
fn zoo() -> Vec<(&'static str, Graph)> {
    let parsed = {
        let text = ingest::graph_to_edge_list(&generators::ring_of_cliques(5, 9));
        ingest::parse_edge_list(&text).expect("round-trip parses").graph
    };
    vec![
        ("random-regular", generators::random_regular(128, 4, 42).expect("generator")),
        ("hypercube", generators::hypercube(7)),
        ("margulis", generators::margulis(11)),
        ("power-law", generators::power_law(128, 3, 7).expect("generator")),
        ("near-threshold", generators::bridged_expanders(64, 4, 2, 11).expect("generator")),
        ("disconnected", generators::disconnected_expanders(3, 64, 4, 17).expect("generator")),
        ("bridge-tree", generators::bridge_tree(7, 6)),
        ("ring-of-cliques", generators::ring_of_cliques(6, 10)),
        ("barbell", generators::barbell(48)),
        ("ring", generators::ring(96)),
        ("path", generators::path(64)),
        ("singleton", Graph::from_edges(1, &[])),
        ("empty", Graph::from_edges(0, &[])),
        ("isolated-vertices", Graph::from_edges(8, &[(0, 1), (2, 3)])),
        ("parsed-edge-list", parsed),
    ]
}

/// The standard arena workloads, guarded for degenerate sizes.
fn workloads(n: usize) -> Vec<(&'static str, RoutingInstance)> {
    let mut w = vec![("permutation", RoutingInstance::permutation(n, 99))];
    if n >= 4 {
        w.push(("partial", RoutingInstance::partial_permutation(n, n / 4, 101)));
        w.push(("hotspot", RoutingInstance::hotspot(n, 2, 3, 103)));
    }
    w
}

fn hierarchical(g: &Graph) -> RoutedDecomposition {
    RoutedDecomposition::preprocess(g, DecomposedConfig::for_epsilon(0.4))
}

/// "Certified expander" needs both halves: the decomposition's fast
/// path (one hierarchy covers the graph) *and* a spectral certificate.
/// The fast path alone is not enough — force-attach absorbs
/// low-conductance graphs like the ring structurally, but Theorem 1.1's
/// guarantees are only claimed above the expansion threshold.
fn certified(g: &Graph, rd: &RoutedDecomposition) -> bool {
    !rd.is_decomposed() && g.n() >= 64 && metrics::spectral_gap(g, 11) >= 0.05
}

/// On a certified expander, the fast path's whole-graph [`Router`] and
/// the [`GeneralRouter`] built with the same configuration. Every
/// workload fits the latter's per-vertex `deg(v)` load budget there.
fn expander_routers<'a>(
    g: &Graph,
    rd: &'a RoutedDecomposition,
    config: &DecomposedConfig,
) -> Option<(&'a Router, GeneralRouter)> {
    if !certified(g, rd) {
        return None;
    }
    let router = rd.pieces()[0].router().expect("fast path is hierarchical");
    let general = GeneralRouter::preprocess(g, config.router.clone()).expect("expander splits");
    Some((router, general))
}

/// Indices of the tokens an outcome reports undeliverable.
fn reported(out: &RoutingOutcome) -> Vec<usize> {
    out.undeliverable.iter().map(|u| u.token).collect()
}

/// Token indices whose endpoints lie in different connected components
/// — the ground truth for what *any* complete router can deliver.
fn cross_component(g: &Graph, inst: &RoutingInstance) -> Vec<usize> {
    let (comp, _) = g.components();
    inst.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| comp[t.src as usize] != comp[t.dst as usize])
        .map(|(i, _)| i)
        .collect()
}

/// Every algorithm on every topology × workload: delivered-or-reported
/// exactly once, loads consistent with congestion, and the undelivered
/// sets relate exactly as connectivity dictates.
#[test]
fn zoo_differential_shared_invariants() {
    let mut expanders = 0;
    for (name, g) in zoo() {
        let rd = hierarchical(&g);
        let routers = expander_routers(&g, &rd, &DecomposedConfig::for_epsilon(0.4));
        let splicer = SplicerRouting::default();
        let local = GreedyLocalRouting;
        let mut entrants: Vec<&dyn RoutingAlgorithm> = vec![&rd, &splicer, &local];
        if let Some((router, general)) = &routers {
            expanders += 1;
            entrants.extend([*router as &dyn RoutingAlgorithm, general]);
        }
        for (wname, inst) in workloads(g.n()) {
            let outs: Vec<RoutingOutcome> = entrants
                .iter()
                .map(|a| {
                    a.route_instance(&g, &inst).unwrap_or_else(|e| {
                        panic!("{name}/{wname}/{}: instance rejected: {e}", a.name())
                    })
                })
                .collect();
            for (a, out) in entrants.iter().zip(&outs) {
                let issues = out.verify(&inst);
                assert!(
                    issues.is_empty(),
                    "{name}/{wname}/{}: conformance violations: {issues:?}",
                    a.name()
                );
            }
            // Baselines deliver iff the endpoints are connected; the
            // decomposition may additionally report cross-piece pairs.
            let unreachable = cross_component(&g, &inst);
            assert_eq!(reported(&outs[1]), unreachable, "{name}/{wname}: splicer reports");
            assert_eq!(reported(&outs[2]), unreachable, "{name}/{wname}: local reports");
            for &i in &unreachable {
                assert!(
                    reported(&outs[0]).contains(&i),
                    "{name}/{wname}: hierarchical delivered token {i} across components"
                );
            }
            // Theorem 1.1 routing delivers everything it accepts.
            for out in &outs[3..] {
                assert!(out.fully_delivered(), "{name}/{wname}: expander routers deliver all");
            }
            // Where all delivered everything, final positions are the
            // instance's destinations — one answer, many routes.
            if outs.iter().all(|o| o.fully_delivered()) {
                for out in &outs[1..] {
                    assert_eq!(outs[0].positions, out.positions, "{name}/{wname}");
                }
            }
            // Rounds are charged whenever some token actually moved.
            for (a, out) in entrants.iter().zip(&outs) {
                let moved = inst
                    .tokens
                    .iter()
                    .enumerate()
                    .any(|(i, t)| t.src != t.dst && !reported(out).contains(&i));
                assert_eq!(
                    out.rounds() > 0,
                    moved,
                    "{name}/{wname}/{}: rounds {} vs moved {moved}",
                    a.name(),
                    out.rounds()
                );
            }
        }
    }
    assert!(expanders >= 3, "zoo must contain several certified expanders, saw {expanders}");
}

/// Byte-identical determinism through the arena trait: the paper's
/// routers across build-thread counts, the baselines across repeated
/// runs. Equality is full structural equality of [`RoutingOutcome`],
/// round ledger included.
#[test]
fn zoo_differential_outcomes_are_deterministic() {
    for (name, g) in zoo() {
        let mut seq_cfg = DecomposedConfig::for_epsilon(0.4);
        seq_cfg.router.hierarchy.threads = Some(1);
        let mut par_cfg = DecomposedConfig::for_epsilon(0.4);
        par_cfg.router.hierarchy.threads = Some(4);
        let seq = RoutedDecomposition::preprocess(&g, seq_cfg.clone());
        let par = RoutedDecomposition::preprocess(&g, par_cfg.clone());
        let seq_routers = expander_routers(&g, &seq, &seq_cfg);
        let par_routers = expander_routers(&g, &par, &par_cfg);
        let splicer = SplicerRouting::default();
        let local = GreedyLocalRouting;
        for (wname, inst) in workloads(g.n()) {
            let a = seq.route_instance(&g, &inst).expect("valid");
            let b = par.route_instance(&g, &inst).expect("valid");
            assert_eq!(a, b, "{name}/{wname}: hierarchical outcome differs across threads");
            if let (Some((r1, g1)), Some((r2, g2))) = (&seq_routers, &par_routers) {
                let pairs: [(&dyn RoutingAlgorithm, &dyn RoutingAlgorithm); 2] =
                    [(*r1, *r2), (g1, g2)];
                for (x, y) in pairs {
                    let a = x.route_instance(&g, &inst).expect("valid");
                    let b = y.route_instance(&g, &inst).expect("valid");
                    assert_eq!(a, b, "{name}/{wname}: {} outcome differs across threads", x.name());
                }
            }
            let s1 = splicer.route_instance(&g, &inst).expect("valid");
            let s2 = splicer.route_instance(&g, &inst).expect("valid");
            assert_eq!(s1, s2, "{name}/{wname}: splicer outcome differs across runs");
            let l1 = local.route_instance(&g, &inst).expect("valid");
            let l2 = local.route_instance(&g, &inst).expect("valid");
            assert_eq!(l1, l2, "{name}/{wname}: local outcome differs across runs");
        }
    }
}

/// The paper's quality claim as a checked bound: on every topology the
/// decomposition certifies as one expander (its fast path — Theorem 1.1
/// applies directly), hierarchical congestion beats or matches each
/// baseline's on the dense permutation workload, up to the documented
/// slack below; and on *every* workload it stays under a flat
/// `O(log n)` ceiling no baseline can promise.
///
/// Slack, documented: the hierarchical `max_congestion` aggregates
/// every measured movement leg (ingress, dispersal iterations, M* hops,
/// egress), while a baseline's is a single flat per-edge maximum, so
/// the head-to-head comparison carries a constant-factor accounting
/// asymmetry; a factor of 4 covers it on every certified topology
/// (measured at n = 121–128 permutations: hierarchical 12–14 vs.
/// greedy-local 4–14 and splicer 14–25; the worst ratio is 3.5 on the
/// high-degree margulis graph, where local forwarding spreads over 8
/// incident edges per vertex). The comparison is made on
/// the full permutation only — a dense Task 1 instance, the regime of
/// the paper's congestion claim. On sparse instances (partial/hotspot)
/// the baselines' loads can drop below the hierarchy's fixed dispersal
/// overhead, so the meaningful invariant there is the *shape*: the
/// hierarchical congestion is a workload-independent `O(log n)`
/// constant (Lemma 6.6's load bound), checked as `3·⌈log₂ n⌉`, while
/// tree-based baselines grow polynomially with n.
#[test]
fn hierarchical_congestion_competitive_on_certified_expanders() {
    const SLACK: u64 = 4;
    let mut expanders = 0;
    for (name, g) in zoo() {
        let rd = hierarchical(&g);
        if !certified(&g, &rd) {
            continue;
        }
        expanders += 1;
        let ceiling = 3 * (g.n() as f64).log2().ceil() as u64;
        let splicer = SplicerRouting::default();
        let local = GreedyLocalRouting;
        for (wname, inst) in workloads(g.n()) {
            let h = rd.route_instance(&g, &inst).expect("valid");
            assert!(h.fully_delivered(), "{name}/{wname}: fast path delivers everything");
            assert!(
                h.stats.max_congestion <= ceiling,
                "{name}/{wname}: hierarchical congestion {} above the O(log n) ceiling {ceiling}",
                h.stats.max_congestion
            );
            if wname != "permutation" {
                continue;
            }
            for b in [
                splicer.route_instance(&g, &inst).expect("valid"),
                local.route_instance(&g, &inst).expect("valid"),
            ] {
                assert!(
                    h.stats.max_congestion <= SLACK * b.stats.max_congestion.max(1),
                    "{name}/{wname}: hierarchical congestion {} vs baseline {} (slack {SLACK})",
                    h.stats.max_congestion,
                    b.stats.max_congestion
                );
            }
        }
    }
    assert!(expanders >= 3, "zoo must contain several certified expanders, saw {expanders}");
}
