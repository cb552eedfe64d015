//! Golden digests: pinned 64-bit FNV-1a digests of the router's
//! integer outputs, one per component, so a change that moves an output
//! fails here and the failure names what moved.
//!
//! The components are the hierarchy, the preprocessing ledger, a
//! 20-job batch's positions, its merged ledger and its per-job
//! `QueryStats` (12 dense and 8 `n/16` partial permutations), and a
//! solo sort's positions. Floating-point fields (a node's spectral gap,
//! `rho_best`) are left out, so the digests read only integer data.
//! Every shape runs at 1 and 2 build threads against the same pins.
//!
//! A change that means to move an output updates the pinned digests
//! and lists each one it moved, with the reason, in `CHANGES.md`. The
//! benchmark shapes (n = 8192 and 4096) are release-only:
//! `cargo test --release --test golden -- --ignored`.

use congest_sim::RoundLedger;
use expander_core::token::QueryStats;
use expander_core::{Job, JobOutcome, QueryEngine, Router, RouterConfig};
use expander_core::{RoutingInstance, SortInstance};
use expander_decomp::Hierarchy;
use expander_graphs::{generators, Embedding};

/// 64-bit FNV-1a over little-endian integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn pairs(&mut self, pairs: &[(u32, u32)]) {
        self.u64(pairs.len() as u64);
        for &(u, v) in pairs {
            self.u32s(&[u, v]);
        }
    }

    fn embedding(&mut self, e: &Embedding) {
        self.u64(e.len() as u64);
        for (u, v, path) in e.iter() {
            self.u32s(&[u, v]);
            self.u32s(path.vertices());
        }
    }

    fn ledger(&mut self, ledger: &RoundLedger) {
        for (phase, rounds) in ledger.breakdown() {
            self.bytes(phase.as_bytes());
            self.bytes(&[0]);
            self.u64(rounds);
        }
    }

    fn stats(&mut self, stats: &QueryStats) {
        // No `..`: a new field fails to compile until it is digested.
        let QueryStats {
            max_load_trace,
            fallback_tokens,
            dispersion_violations,
            dispersion_checked,
            task3_calls,
            charged_sorts,
            max_congestion,
            max_dilation,
        } = stats;
        self.u32s(max_load_trace);
        for &x in [
            fallback_tokens,
            dispersion_violations,
            dispersion_checked,
            task3_calls,
            charged_sorts,
            max_congestion,
            max_dilation,
        ] {
            self.u64(x);
        }
    }
}

fn hierarchy_digest(h: &Hierarchy) -> u64 {
    let mut f = Fnv::new();
    for x in [h.k() as u64, u64::from(h.lambda()), h.root() as u64] {
        f.u64(x);
    }
    f.u32s(h.outside());
    f.pairs(h.mroot());
    f.embedding(h.mroot_embedding());
    for nd in h.nodes() {
        f.u64(nd.id as u64);
        f.u64(nd.parent.map_or(u64::MAX, |p| p as u64));
        f.u64(u64::from(nd.level));
        f.u32s(&nd.vertices);
        f.pairs(&nd.virtual_edges);
        for e in [&nd.embedding_to_parent, &nd.flat] {
            match e {
                Some(e) => f.embedding(e),
                None => f.u64(u64::MAX),
            }
        }
        f.u64(nd.flat_quality as u64);
        f.u64(nd.parts.len() as u64);
        for part in &nd.parts {
            f.u64(part.child as u64);
            f.u32s(&part.bad);
            f.pairs(&part.matching);
            f.embedding(&part.matching_embedding);
            f.u32s(&part.all);
        }
        f.u32s(&nd.best);
        f.u64(u64::from(nd.diameter));
    }
    f.0
}

/// The components, in the order the pins list them.
const COMPONENTS: [&str; 6] = [
    "hierarchy",
    "preprocessing ledger",
    "batch positions",
    "batch merged ledger",
    "batch stats",
    "solo sort positions",
];

/// The digests of every component on the graph-seed-1 random
/// 4-regular graph at `n` and `epsilon`, built with `threads` threads.
fn digests(n: usize, epsilon: f64, threads: usize) -> [u64; 6] {
    let g = generators::random_regular(n, 4, 1).expect("generator");
    let mut config = RouterConfig::for_epsilon(epsilon);
    config.hierarchy.threads = Some(threads);
    let r = Router::preprocess(&g, config).expect("router");

    let mut jobs: Vec<Job> =
        (0..12).map(|s| Job::Route(RoutingInstance::permutation(n, s))).collect();
    jobs.extend(
        (0..8).map(|s| Job::Route(RoutingInstance::partial_permutation(n, n / 16, 100 + s))),
    );
    let batch = QueryEngine::new(&r).with_threads(Some(threads)).run(&jobs).expect("valid");
    let (mut positions, mut stats) = (Fnv::new(), Fnv::new());
    for out in &batch.outcomes {
        let JobOutcome::Route(out) = out else { unreachable!("route jobs only") };
        positions.u32s(&out.positions);
        stats.stats(&out.stats);
    }
    let mut merged = Fnv::new();
    merged.ledger(&batch.stats.merged);

    let sort = r.sort(&SortInstance::random(n, 2, 9)).expect("valid");
    let mut sorted = Fnv::new();
    sorted.u32s(&sort.positions);

    let mut pre = Fnv::new();
    pre.ledger(r.preprocessing_ledger());
    [hierarchy_digest(r.hierarchy()), pre.0, positions.0, merged.0, stats.0, sorted.0]
}

/// Checks every component at 1 and 2 build threads against `pinned`;
/// a failure lists the components that moved and the actual digests.
fn check(n: usize, epsilon: f64, pinned: [u64; 6]) {
    for threads in [1, 2] {
        let got = digests(n, epsilon, threads);
        let moved: Vec<&str> = COMPONENTS
            .iter()
            .zip(got.iter().zip(&pinned))
            .filter(|(_, (g, p))| g != p)
            .map(|(c, _)| *c)
            .collect();
        assert!(
            moved.is_empty(),
            "n = {n}, ε = {epsilon}, {threads} build threads: {moved:?} moved; actual {:#018x?}",
            got
        );
    }
}

#[test]
fn depth_three_router_matches_its_digests() {
    check(
        512,
        0.12,
        [
            0x6a9a_7813_0ed2_8e04,
            0x0d1c_0225_fc94_545e,
            0x728a_a474_432c_931e,
            0x915b_8968_7952_0cf3,
            0xe5d4_f0d5_7f10_5ddd,
            0xe1fc_c053_cadc_7669,
        ],
    );
}

#[test]
fn depth_one_router_matches_its_digests() {
    check(
        1024,
        0.4,
        [
            0x33b5_013f_71bf_e4d6,
            0x4a03_6b3e_def4_ad84,
            0x944e_9539_eb2f_5c23,
            0xd482_0b4d_4949_ce94,
            0x99a8_9a89_88ee_ddcd,
            0x1670_a28b_a73d_28ed,
        ],
    );
}

#[test]
#[ignore = "release-only: the deep_batch shape, n = 8192"]
fn deep_batch_router_matches_its_digests() {
    check(
        8192,
        0.4,
        [
            0x0249_07dd_3449_b6bf,
            0x33a5_e640_2116_2fad,
            0x1287_b19f_79f9_0144,
            0x45e7_35da_d4aa_e065,
            0xb4bd_62b2_a57c_27aa,
            0xd5d5_eb64_3b29_2bb1,
        ],
    );
}

#[test]
#[ignore = "release-only: the shallow_stream shape, n = 4096"]
fn shallow_stream_router_matches_its_digests() {
    check(
        4096,
        0.4,
        [
            0xee29_c821_14b5_d55d,
            0xe191_0385_c958_e736,
            0xb1d5_39a6_677e_32eb,
            0x64b9_22a6_e59b_5162,
            0x6fad_db4e_609b_3533,
            0xc19c_7dbd_790b_7f01,
        ],
    );
}
