//! Cross-topology conformance suite: every zoo topology — expander or
//! not, connected or not, generated or parsed from text — must either
//! route with verified deliveries or return structured errors, and
//! never panic. Decomposition-based preprocessing and routing must be
//! byte-identical at every thread count.

mod common;

use common::zoo;
use expander_core::{DecomposedConfig, RoutedDecomposition, RoutingInstance};
use expander_graphs::{generators, ingest};
use proptest::prelude::*;

fn config() -> DecomposedConfig {
    DecomposedConfig::for_epsilon(0.4)
}

/// Every token of every workload on every topology is either delivered
/// or reported as a structured undeliverable — zero panics, zero silent
/// losses.
#[test]
fn zoo_conformance_all_topologies_route_or_report() {
    for (name, g) in zoo() {
        let rd = RoutedDecomposition::preprocess(&g, config());
        let n = g.n();
        let workloads: Vec<(&str, RoutingInstance)> = vec![
            ("permutation", RoutingInstance::permutation(n, 5)),
            ("partial", RoutingInstance::partial_permutation(n, n / 2, 6)),
            (
                "hotspot",
                if n >= 4 {
                    RoutingInstance::hotspot(n, 2, 3, 7)
                } else {
                    RoutingInstance::default()
                },
            ),
        ];
        for (wname, inst) in workloads {
            let out = rd
                .route(&inst)
                .unwrap_or_else(|e| panic!("{name}/{wname}: instance rejected: {e}"));
            let issues = out.verify(&inst);
            assert!(issues.is_empty(), "{name}/{wname}: conformance violations: {issues:?}");
            // Round accounting: charged iff some token actually moved,
            // and bounded by a crude polynomial cap that still catches
            // runaway regressions. On the decomposition's fallback path
            // the worst measured zoo point is ring/hotspot at 23.9M
            // rounds against a cap of 84.9M (`32·L·n³`, L = per-vertex
            // load) — ≥ 2× headroom everywhere, deterministic seeds.
            let moved =
                inst.tokens.iter().enumerate().any(|(i, t)| {
                    t.src != t.dst && !out.undeliverable.iter().any(|u| u.token == i)
                });
            assert_eq!(
                out.rounds() > 0,
                moved,
                "{name}/{wname}: rounds {} vs moved {moved}",
                out.rounds()
            );
            let cap = 32 * inst.load(n).max(1) as u64 * (n.max(2) as u64).pow(3);
            assert!(
                out.rounds() <= cap,
                "{name}/{wname}: {} rounds over the polynomial cap {cap}",
                out.rounds()
            );
        }
        // Malformed instances are structured errors, not panics.
        if n > 0 {
            assert!(
                rd.route(&RoutingInstance::from_triples(&[(0, n as u32, 0)])).is_err(),
                "{name}: out-of-range token must be an instance error"
            );
        }
    }
}

/// On connected graphs every piece covers the graph exactly once and
/// cut edges are exactly the inter-piece edges.
#[test]
fn zoo_pieces_partition_the_graph() {
    for (name, g) in zoo() {
        let rd = RoutedDecomposition::preprocess(&g, config());
        let mut seen = vec![false; g.n()];
        for p in rd.pieces() {
            for &v in p.vertices() {
                assert!(!seen[v as usize], "{name}: vertex {v} in two pieces");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "{name}: some vertex unclustered");
        for &(u, v) in rd.cut_edges() {
            assert_ne!(rd.piece_of(u), rd.piece_of(v), "{name}: cut edge inside a piece");
        }
    }
}

/// Decomposition preprocessing and routed outcomes are byte-identical
/// for sequential and parallel hierarchy builds, on the fast path and
/// on the fallback path alike.
#[test]
fn decomposition_is_thread_count_invariant() {
    let graphs = [
        ("fast-path", generators::random_regular(256, 4, 3).expect("generator")),
        // Two certifying pieces: the per-piece hierarchies exercise the
        // parallel build on the fallback path.
        ("two-pieces", generators::bridged_expanders(128, 4, 2, 9).expect("generator")),
        ("disconnected", generators::disconnected_expanders(2, 128, 4, 21).expect("generator")),
    ];
    for (name, g) in graphs {
        let mut seq_cfg = config();
        seq_cfg.router.hierarchy.threads = Some(1);
        let mut par_cfg = config();
        par_cfg.router.hierarchy.threads = Some(4);
        let seq = RoutedDecomposition::preprocess(&g, seq_cfg);
        let par = RoutedDecomposition::preprocess(&g, par_cfg);
        assert_eq!(
            seq.preprocessing_ledger(),
            par.preprocessing_ledger(),
            "{name}: preprocessing ledger differs"
        );
        assert_eq!(format!("{seq:?}"), format!("{par:?}"), "{name}: decomposition shape differs");
        for (a, b) in seq.pieces().iter().zip(par.pieces()) {
            assert_eq!(a.vertices(), b.vertices(), "{name}: piece vertex sets differ");
        }
        assert_eq!(seq.cut_edges(), par.cut_edges(), "{name}: cut edges differ");
        let inst = RoutingInstance::permutation(g.n(), 31);
        let out_seq = seq.route(&inst).expect("valid instance");
        let out_par = par.route(&inst).expect("valid instance");
        assert_eq!(out_seq.positions, out_par.positions, "{name}: positions differ");
        assert_eq!(out_seq.undeliverable, out_par.undeliverable, "{name}: reports differ");
        assert_eq!(out_seq.ledger, out_par.ledger, "{name}: query ledgers differ");
        assert_eq!(
            format!("{:?}", out_seq.stats),
            format!("{:?}", out_par.stats),
            "{name}: query stats differ"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Parameter sweep over the zoo generators: any parameter choice
    /// either returns a structured generator error or yields a graph
    /// the decomposition routes conformantly. No panics anywhere.
    #[test]
    fn zoo_parameter_sweep_routes_or_errors(
        kind in 0usize..4,
        a in 0usize..96,
        b in 0usize..8,
        seed in 0u64..1000,
    ) {
        let built = match kind {
            0 => generators::random_regular(a, b, seed),
            1 => generators::power_law(a, b, seed),
            2 => generators::bridged_expanders(a / 2, b.max(2), b, seed),
            _ => generators::disconnected_expanders(b, a / 2, 3, seed),
        };
        let Ok(g) = built else {
            // Structured rejection is a conforming outcome.
            return Ok(());
        };
        let rd = RoutedDecomposition::preprocess(&g, config());
        let inst = RoutingInstance::permutation(g.n(), seed);
        let out = rd.route(&inst).expect("in-range instance");
        let issues = out.verify(&inst);
        prop_assert!(issues.is_empty(), "conformance violations: {issues:?}");
        // Structured accounting adds up.
        prop_assert_eq!(
            out.delivered_count() + out.undeliverable.len(),
            inst.tokens.len()
        );
    }

    /// Parsed-from-text graphs conform too: serialize any generated
    /// zoo graph, reparse it, and route on the reparsed copy — the
    /// canonical renumbering must preserve the graph exactly.
    #[test]
    fn parsed_graphs_route_like_their_sources(
        cliques in 3usize..7,
        size in 3usize..9,
        seed in 0u64..100,
    ) {
        let src = generators::ring_of_cliques(cliques, size);
        let text = ingest::graph_to_edge_list(&src);
        let parsed = ingest::parse_edge_list(&text).expect("round-trip parses").graph;
        // The generator's CSR lists edges in emission order while the
        // parser's is canonical, so compare canonical forms: writing is
        // a fixpoint and reparsing the canonical text is byte-identical.
        prop_assert_eq!(parsed.n(), src.n());
        prop_assert_eq!(parsed.m(), src.m());
        let canon = ingest::graph_to_edge_list(&parsed);
        prop_assert_eq!(&canon, &text, "canonical serialization must be a fixpoint");
        let reparsed = ingest::parse_edge_list(&canon).expect("parses").graph;
        prop_assert_eq!(&parsed, &reparsed, "reparse must be byte-identical");
        let rd = RoutedDecomposition::preprocess(&parsed, config());
        let inst = RoutingInstance::permutation(parsed.n(), seed);
        let out = rd.route(&inst).expect("valid instance");
        prop_assert!(out.verify(&inst).is_empty());
    }
}
