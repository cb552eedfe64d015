//! Determinism under parallelism: the staged build pipeline must
//! produce byte-identical output for every thread count.
//!
//! The staged preprocessing pipeline (hierarchy construction, per-node
//! shuffler builds and their lowering into the router's per-node
//! tables, embedding flattening, delegate chains) executes independent
//! tasks on a worker pool and merges results — node arenas, forked
//! round ledgers — in canonical task order, and pipelines each
//! cut-matching game's iterations across the workers. These tests pin
//! the contract: ledgers, node tables, routed outcomes, and the root's
//! shuffler, which the router does not keep and the test rebuilds on
//! each hierarchy, from builds at 2, 3 and 4 threads equal the
//! `threads = 1` (sequential-path) build exactly, at n ∈ {256, 1024}.
//! Two is the benchmark's thread count. The root game's λ = 12
//! (n = 256) and λ = 15 (n = 1024) iterations split evenly over three
//! workers, and at n = 1024 unevenly over two (8 and 7) and four
//! (4, 4, 4 and 3).

use congest_sim::RoundLedger;
use expander_core::{Router, RouterConfig, RoutingInstance};
use expander_decomp::{build_shuffler, Hierarchy, HierarchyParams, ShufflerParams};
use expander_graphs::generators;

const SIZES: [usize; 2] = [256, 1024];

/// The parallel thread counts each compared against one thread.
const THREADS: [usize; 3] = [2, 3, 4];

fn params(threads: usize) -> HierarchyParams {
    HierarchyParams { epsilon: 0.4, threads: Some(threads), ..HierarchyParams::default() }
}

/// The sequential build at `n`, then one build per count in `THREADS`.
fn builds(n: usize) -> (Hierarchy, Vec<(usize, Hierarchy)>) {
    let g = generators::random_regular(n, 4, 0xD17E).expect("generator");
    let seq = Hierarchy::build(&g, params(1)).expect("sequential build");
    let par = THREADS
        .iter()
        .map(|&t| (t, Hierarchy::build(&g, params(t)).expect("parallel build")))
        .collect();
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
        let (seq, pars) = builds(n);
        for (t, par) in &pars {
            assert_eq!(seq.ledger(), par.ledger(), "n = {n}, threads = {t}: ledger differs");
            assert_eq!(
                format!("{}", seq.ledger()),
                format!("{}", par.ledger()),
                "n = {n}, threads = {t}: ledger rendering differs"
            );
            assert_eq!(
                node_table(&seq),
                node_table(par),
                "n = {n}, threads = {t}: node tables differ"
            );
            assert_eq!(seq.outside(), par.outside(), "n = {n}, threads = {t}: outside sets differ");
            assert_eq!(seq.mroot(), par.mroot(), "n = {n}, threads = {t}: Mroot differs");
            assert_eq!(
                format!("{:?}", seq.mroot_embedding()),
                format!("{:?}", par.mroot_embedding()),
                "n = {n}, threads = {t}: Mroot embedding differs"
            );
        }
    }
}

#[test]
fn shuffler_is_thread_count_invariant() {
    for n in SIZES {
        let (seq, pars) = builds(n);
        let mut ledger_seq = RoundLedger::new();
        let sh_seq = build_shuffler(&seq, seq.root(), &ShufflerParams::default(), &mut ledger_seq);
        for (t, par) in &pars {
            let mut ledger_par = RoundLedger::new();
            let sh_par =
                build_shuffler(par, par.root(), &ShufflerParams::default(), &mut ledger_par);
            assert_eq!(ledger_seq, ledger_par, "n = {n}, threads = {t}: shuffler ledger differs");
            assert_eq!(
                format!("{sh_seq:?}"),
                format!("{sh_par:?}"),
                "n = {n}, threads = {t}: shuffler rounds/trace differ"
            );
        }
    }
}

#[test]
fn router_and_routed_outcomes_are_thread_count_invariant() {
    for n in SIZES {
        let g = generators::random_regular(n, 4, 0xD17E).expect("generator");
        let mut config = RouterConfig::for_epsilon(0.4);
        config.hierarchy.threads = Some(1);
        let seq = Router::preprocess(&g, config.clone()).expect("sequential preprocess");
        let inst = RoutingInstance::permutation(n, 23);
        let out_seq = seq.route(&inst).expect("valid instance");
        assert!(out_seq.fully_delivered());
        for t in THREADS {
            config.hierarchy.threads = Some(t);
            let par = Router::preprocess(&g, config.clone()).expect("parallel preprocess");
            assert_eq!(
                seq.preprocessing_ledger(),
                par.preprocessing_ledger(),
                "n = {n}, threads = {t}: preprocessing ledger differs"
            );
            for v in 0..g.n() as u32 {
                assert_eq!(
                    seq.delegate_of(v),
                    par.delegate_of(v),
                    "n = {n}, threads = {t}: delegate of {v}"
                );
                assert_eq!(
                    seq.chain_of(v),
                    par.chain_of(v),
                    "n = {n}, threads = {t}: chain of {v}"
                );
            }
            let out_par = par.route(&inst).expect("valid instance");
            assert_eq!(
                out_seq.positions, out_par.positions,
                "n = {n}, threads = {t}: routed positions differ"
            );
            assert_eq!(
                out_seq.ledger, out_par.ledger,
                "n = {n}, threads = {t}: query ledgers differ"
            );
            assert_eq!(
                format!("{:?}", out_seq.stats),
                format!("{:?}", out_par.stats),
                "n = {n}, threads = {t}: query stats differ"
            );
        }
    }
}
