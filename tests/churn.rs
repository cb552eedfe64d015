//! Churn properties: under arbitrary edit sequences `ChurnRouter`
//! routes or reports every token, with the same rung and the same
//! outcome at every thread count, and the degradation ladder holds the
//! route-or-report contract on the zoo's pathological topologies.

use expander_core::churn::{
    ChurnConfig, ChurnDriver, ChurnParams, ChurnRouter, ChurnSchedule, DeliveryMode,
};
use expander_core::{RoutingInstance, RoutingOutcome};
use expander_graphs::{generators, Graph, GraphEdit};
use proptest::prelude::*;

const N: usize = 128;

/// One abstract edit op, resolved against the live graph when applied
/// (so removals always name a live edge and inserts live endpoints).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Remove the `i % m`-th live edge.
    RemoveEdge(u16),
    /// Insert an edge between vertices `a % n` and `b % n` (skipped
    /// when they coincide); parallel edges are legal.
    InsertEdge(u16, u16),
    /// Kill vertex `v % n` outright (tombstone: the router rungs then
    /// refuse and the decomposition serves).
    RemoveVertex(u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Kind-weighted: 4/9 removals, 4/9 insertions, 1/9 vertex kills.
    let op =
        (0..9u32, 0..u16::MAX as u32, 0..u16::MAX as u32).prop_map(|(kind, a, b)| match kind {
            0..=3 => Op::RemoveEdge(a as u16),
            4..=7 => Op::InsertEdge(a as u16, b as u16),
            _ => Op::RemoveVertex(a as u16),
        });
    proptest::collection::vec(op, 1..10)
}

/// Resolves `ops` into concrete [`GraphEdit`]s against `g`, applying
/// each as it is resolved so later ops see earlier effects.
fn resolve(g: &Graph, ops: &[Op]) -> Vec<GraphEdit> {
    let mut g = g.clone();
    let mut edits = Vec::new();
    for &op in ops {
        let edit = match op {
            Op::RemoveEdge(i) => {
                let live: Vec<_> = g.edges().collect();
                if live.is_empty() {
                    continue;
                }
                let (u, v) = live[i as usize % live.len()];
                GraphEdit::RemoveEdge(u, v)
            }
            Op::InsertEdge(a, b) => {
                let (u, v) = (a as u32 % N as u32, b as u32 % N as u32);
                if u == v {
                    continue;
                }
                GraphEdit::InsertEdge(u.min(v), u.max(v))
            }
            Op::RemoveVertex(v) => GraphEdit::RemoveVertex(v as u32 % N as u32),
        };
        g.apply_edit(edit);
        edits.push(edit);
    }
    edits
}

fn config(threads: usize) -> ChurnConfig {
    let mut config = ChurnConfig::for_epsilon(0.4);
    config.decomposed.router.hierarchy.threads = Some(threads);
    config
}

/// 64 tokens between distinct live vertices of `g` (none when fewer
/// than two survive).
fn live_batch(g: &Graph) -> RoutingInstance {
    let alive = g.alive_vertices();
    if alive.len() < 2 {
        return RoutingInstance::default();
    }
    let len = alive.len();
    let triples: Vec<(u32, u32, u64)> =
        (0..64).map(|i| (alive[i % len], alive[(i + 1 + i % (len - 1)) % len], i as u64)).collect();
    RoutingInstance::from_triples(&triples)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// A repair is a fresh preprocess of the edited graph, so what a
    /// stream of edits can still break is the ladder around it. For
    /// any edit sequence, the first read after the edits must route or
    /// report every token of a batch between live vertices, and the
    /// rung that serves it and its whole outcome must agree at build
    /// threads 1 and 4, on graphs with parallel edges and tombstones.
    #[test]
    fn repair_equals_fresh_build_under_arbitrary_edits(ops in ops()) {
        let g = generators::random_regular(N, 4, 77).expect("generator");
        let edits = resolve(&g, &ops);
        let mut served: Vec<(DeliveryMode, RoutingOutcome)> = Vec::new();
        for threads in [1usize, 4] {
            let mut cr = ChurnRouter::new(&g, config(threads));
            prop_assert!(cr.router().is_some(), "seed graph is an expander");
            cr.apply(&edits);
            let inst = live_batch(cr.graph());
            let out = cr.route(&inst).expect("batch drawn from the live vertex range");
            let issues = out.outcome.verify(&inst);
            prop_assert!(issues.is_empty(), "route-or-report violated (t={}): {:?}", threads, issues);
            // The router was current before the edits, so this read is
            // an attempt window: never the backoff rung.
            prop_assert!(
                matches!(
                    out.mode,
                    DeliveryMode::Hierarchical | DeliveryMode::Repaired | DeliveryMode::Decomposed
                ),
                "unexpected rung {} (t={})",
                out.mode,
                threads
            );
            served.push((out.mode, out.outcome));
        }
        prop_assert_eq!(&served[0], &served[1], "thread counts disagree");
    }
}

/// The degradation ladder on a single-bridge topology: round 0's
/// bridge cut disconnects the graph, so from then on the hierarchy
/// rungs refuse and every batch must ride the decomposition or charged
/// BFS — still verify-clean at 10% churn.
#[test]
fn bridged_expanders_churn_forces_fallback_rungs() {
    let g = generators::bridged_expanders(128, 4, 1, 11).expect("generator");
    let report = ChurnDriver::run(
        &g,
        ChurnConfig::for_epsilon(0.4),
        ChurnParams {
            schedule: ChurnSchedule::BridgeCuts,
            rounds: 5,
            churn_rate: 0.10,
            batch: 48,
            seed: 4,
        },
    );
    for r in &report.rounds {
        assert!(
            matches!(r.mode, DeliveryMode::Decomposed | DeliveryMode::DirectBfs),
            "round {} served by {} — hierarchy rungs should refuse a bridged graph",
            r.round,
            r.mode
        );
    }
    assert!(
        report.rounds.iter().any(|r| r.mode == DeliveryMode::Decomposed),
        "decomposition rung never reached"
    );
}

/// Same contract on the bridge-tree zoo topology under hub kills.
#[test]
fn bridge_tree_churn_stays_on_contract() {
    let g = generators::bridge_tree(8, 8);
    let report = ChurnDriver::run(
        &g,
        ChurnConfig::for_epsilon(0.4),
        ChurnParams {
            schedule: ChurnSchedule::HotspotKills,
            rounds: 5,
            churn_rate: 0.10,
            batch: 32,
            seed: 21,
        },
    );
    // The driver verify-checks every round; the aggregates must be
    // well-formed even as hub kills shred the tree.
    assert_eq!(report.rounds.len(), 5);
    assert!(report.delivery_rate() <= 1.0);
    assert!(report
        .rounds
        .iter()
        .all(|r| matches!(r.mode, DeliveryMode::Decomposed | DeliveryMode::DirectBfs)));
}
