//! Determinism under parallelism: the staged build pipeline must
//! produce byte-identical output for every thread count.
//!
//! The staged preprocessing pipeline (hierarchy construction, per-node
//! shuffler builds and their lowering into the router's per-node
//! tables, embedding flattening, delegate chains) executes independent
//! tasks on a worker pool and merges results — node arenas, forked
//! round ledgers — in canonical task order. These tests pin the
//! contract: ledgers, node tables, routed outcomes, and the root's
//! shuffler, which the router does not keep and the test rebuilds on
//! each hierarchy, from a `threads = 4` build equal the `threads = 1`
//! (sequential-path) build exactly, at n ∈ {256, 1024}.

use congest_sim::RoundLedger;
use expander_core::{Router, RouterConfig, RoutingInstance};
use expander_decomp::{build_shuffler, Hierarchy, HierarchyParams, ShufflerParams};
use expander_graphs::generators;

const SIZES: [usize; 2] = [256, 1024];

fn params(threads: usize) -> HierarchyParams {
    HierarchyParams { epsilon: 0.4, threads: Some(threads), ..HierarchyParams::default() }
}

fn build_pair(n: usize) -> (Hierarchy, Hierarchy) {
    let g = generators::random_regular(n, 4, 0xD17E).expect("generator");
    let seq = Hierarchy::build(&g, params(1)).expect("sequential build");
    let par = Hierarchy::build(&g, params(4)).expect("parallel build");
    (seq, par)
}

/// The full node table as one comparable string: ids, parents, levels,
/// vertex sets, virtual edges, embeddings, parts, best sets — every
/// byte of the arena.
fn node_table(h: &Hierarchy) -> String {
    format!("{:?}", h.nodes())
}

#[test]
fn hierarchy_is_thread_count_invariant() {
    for n in SIZES {
        let (seq, par) = build_pair(n);
        assert_eq!(seq.ledger(), par.ledger(), "n = {n}: ledger differs");
        assert_eq!(
            format!("{}", seq.ledger()),
            format!("{}", par.ledger()),
            "n = {n}: ledger rendering differs"
        );
        assert_eq!(node_table(&seq), node_table(&par), "n = {n}: node tables differ");
        assert_eq!(seq.outside(), par.outside(), "n = {n}: outside sets differ");
        assert_eq!(seq.mroot(), par.mroot(), "n = {n}: Mroot differs");
        assert_eq!(
            format!("{:?}", seq.mroot_embedding()),
            format!("{:?}", par.mroot_embedding()),
            "n = {n}: Mroot embedding differs"
        );
    }
}

#[test]
fn shuffler_is_thread_count_invariant() {
    for n in SIZES {
        let (seq, par) = build_pair(n);
        let mut ledger_seq = RoundLedger::new();
        let sh_seq = build_shuffler(&seq, seq.root(), &ShufflerParams::default(), &mut ledger_seq);
        let mut ledger_par = RoundLedger::new();
        let sh_par = build_shuffler(&par, par.root(), &ShufflerParams::default(), &mut ledger_par);
        assert_eq!(ledger_seq, ledger_par, "n = {n}: shuffler ledger differs");
        assert_eq!(
            format!("{sh_seq:?}"),
            format!("{sh_par:?}"),
            "n = {n}: shuffler rounds/trace differ"
        );
    }
}

#[test]
fn router_and_routed_outcomes_are_thread_count_invariant() {
    for n in SIZES {
        let g = generators::random_regular(n, 4, 0xD17E).expect("generator");
        let mut config = RouterConfig::for_epsilon(0.4);
        config.hierarchy.threads = Some(1);
        let seq = Router::preprocess(&g, config.clone()).expect("sequential preprocess");
        config.hierarchy.threads = Some(4);
        let par = Router::preprocess(&g, config).expect("parallel preprocess");
        assert_eq!(
            seq.preprocessing_ledger(),
            par.preprocessing_ledger(),
            "n = {n}: preprocessing ledger differs"
        );
        for v in 0..g.n() as u32 {
            assert_eq!(seq.delegate_of(v), par.delegate_of(v), "n = {n}: delegate of {v}");
            assert_eq!(seq.chain_of(v), par.chain_of(v), "n = {n}: chain of {v}");
        }
        let inst = RoutingInstance::permutation(n, 23);
        let out_seq = seq.route(&inst).expect("valid instance");
        let out_par = par.route(&inst).expect("valid instance");
        assert!(out_seq.fully_delivered());
        assert_eq!(out_seq.positions, out_par.positions, "n = {n}: routed positions differ");
        assert_eq!(out_seq.ledger, out_par.ledger, "n = {n}: query ledgers differ");
        assert_eq!(
            format!("{:?}", out_seq.stats),
            format!("{:?}", out_par.stats),
            "n = {n}: query stats differ"
        );
    }
}
