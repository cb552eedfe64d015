//! End-to-end and per-layer benchmark of the deterministic expander
//! router.
//!
//! Three workloads, each on a fixed seeded 4-regular expander (ε = 0.4):
//!
//! * `deep_batch` — n = 8192, a depth-2 hierarchy: warm closed
//!   [`QueryEngine::run`](expander_core::QueryEngine::run) batches of 16
//!   dense permutations. The only regime where Task 2 recurses, so
//!   fusion and dummy sharing decide throughput.
//! * `shallow_stream` — n = 4096, a depth-1 hierarchy: cycles of 3 s of
//!   open-loop Poisson arrivals through
//!   [`RoutingService`](expander_core::RoutingService) with one worker,
//!   then 1 s saturated. Per-job engine work is small, so intake,
//!   grouping and depth-1 Task 3 show.
//! * `shallow_churn` — n = 2048, a depth-1 hierarchy: every step rewires
//!   edges through [`ChurnRouter::apply`](expander_core::ChurnRouter::apply)
//!   and then reads on the cold solo route path. Runnable, but not in
//!   `BENCHMARK.json`: its millisecond reads run 0.7 or 1.2–1.3 ms
//!   depending on the host's state, so ten-seed sets of the same code
//!   disagreed by up to 65%. Repairs and the churn ladder stay measured
//!   through the traced runs' repair probes and churn session.
//!
//! The graph, the rewire schedule and the stream's traffic shape
//! (arrival times and the order of job kinds) are part of the workload
//! definition and do not change with `--seed`: across generator seeds
//! the preprocessing ledger moves by about 8% and mean query rounds by
//! 5–10%, which edges a rewire swaps moves repair and read times, and
//! where the few sorts fall among the arrivals moves the stream's tail,
//! by more than the bounds the run-to-run comparison allows. `--seed`
//! drives what is routed over the graph: every permutation, partial
//! permutation and sort instance.
//!
//! Generators, routers, engines and services run at their default
//! configuration; only thread counts are pinned (to at most
//! `available_parallelism`) and recorded with every result.
//!
//! # End-to-end metrics
//!
//! | Metric | `deep_batch` | `shallow_stream` | `shallow_churn` |
//! |---|---|---|---|
//! | `setup_s` | median of 3 `Router::preprocess` | same | median of 3 `ChurnRouter::new` |
//! | `setup_rounds` | preprocessing ledger total | same | same |
//! | `qps` | batch size / median warm batch time | saturated sessions, 64 in flight | reads / measured time |
//! | `latency_p50_ms` | median warm batch time (a closed batch returns every job at once) | nearest rank over every open-loop job, timed from its due time | per read, repair included |
//! | `rounds_per_query` | mean over the warm-up batches | mean over the job pool | mean over the first 8 steps |
//! | `peak_rss_mb` | `VmHWM` | same | same |
//!
//! The wall times — `setup_s`, `qps` and `latency_p50_ms` — are reported
//! at a nominal host speed: divided by the run's speed index, measured
//! with a reference kernel between the program's operations (see
//! [`reference`]). The log shows the raw values beside them.
//!
//! Failed or refused operations are counted in the result's `failed`
//! out of `attempted` (and in the traced `bench.failed_frac`), not as an
//! end-to-end metric, because they are 0 when the program is correct.
//! Repair and cold-read times are per-layer metrics of the traced run
//! (`router.repair_s`, `decomp.repair.s`, `exec.solo_ms`): a repair
//! takes 2–6 s, too long to sample often enough in a run for a bound.

pub mod check;
pub mod layers;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use workloads::run;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The hierarchy's ε for every workload.
pub const EPSILON: f64 = 0.4;

/// End-to-end metrics, emitted by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_rounds", "rounds"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("rounds_per_query", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// The ledger phases of a query, as `exec.rounds.<suffix>` metrics.
pub const EXEC_PHASES: &[(&str, &str)] = &[
    ("query/translate", "exec.rounds.translate"),
    ("query/ingress", "exec.rounds.ingress"),
    ("query/task2/leaf", "exec.rounds.task2_leaf"),
    ("query/task2/mstar", "exec.rounds.task2_mstar"),
    ("query/task3/portal", "exec.rounds.task3_portal"),
    ("query/task3/disperse", "exec.rounds.task3_disperse"),
    ("query/task3/reverse", "exec.rounds.task3_reverse"),
    ("query/task3/merge", "exec.rounds.task3_merge"),
    ("query/task3/fallback", "exec.rounds.task3_fallback"),
    ("query/delivery", "exec.rounds.delivery"),
    ("query/sort/to-best", "exec.rounds.sort_to_best"),
    ("query/sort/network", "exec.rounds.sort_network"),
    ("query/sort/delivery", "exec.rounds.sort_delivery"),
];

/// Per-layer metrics, emitted by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decomp.hierarchy.build_s", "s"),
    ("decomp.hierarchy.build_s_t1", "s"),
    ("decomp.hierarchy.scaling", "x"),
    ("decomp.hierarchy.rounds", "rounds"),
    ("decomp.hierarchy.nodes", "count"),
    ("decomp.hierarchy.depth", "count"),
    ("decomp.hierarchy.setup_share", "frac"),
    ("decomp.shuffler.build_s", "s"),
    ("decomp.shuffler.rounds", "rounds"),
    ("decomp.repair.s", "s"),
    ("decomp.repair.reuse_frac", "frac"),
    ("router.derive_s", "s"),
    ("router.repair_s", "s"),
    ("router.routable_networks.rounds", "rounds"),
    ("router.leaf.rounds", "rounds"),
    ("exec.rounds.translate", "rounds"),
    ("exec.rounds.ingress", "rounds"),
    ("exec.rounds.task2_leaf", "rounds"),
    ("exec.rounds.task2_mstar", "rounds"),
    ("exec.rounds.task3_portal", "rounds"),
    ("exec.rounds.task3_disperse", "rounds"),
    ("exec.rounds.task3_reverse", "rounds"),
    ("exec.rounds.task3_merge", "rounds"),
    ("exec.rounds.task3_fallback", "rounds"),
    ("exec.rounds.delivery", "rounds"),
    ("exec.rounds.sort_to_best", "rounds"),
    ("exec.rounds.sort_network", "rounds"),
    ("exec.rounds.sort_delivery", "rounds"),
    ("exec.task3_calls", "count"),
    ("exec.fallback_tokens_frac", "frac"),
    ("exec.max_congestion", "count"),
    ("exec.max_dilation", "count"),
    ("exec.rounds_per_query", "rounds"),
    ("exec.cost_model_t2", "rounds"),
    ("exec.cost_model_ratio", "x"),
    ("exec.solo_ms", "ms"),
    ("engine.batch_ms", "ms"),
    ("engine.cold_batch_ms", "ms"),
    ("engine.perjob_batch_ms", "ms"),
    ("engine.fusion_gain", "x"),
    ("engine.scaling", "x"),
    ("service.formation_p50_us", "us"),
    ("service.formation_p99_us", "us"),
    ("service.service_p99_us", "us"),
    ("service.mean_width", "count"),
    ("service.groups", "count"),
    ("service.rejected", "count"),
    ("churn.mode.hierarchical", "count"),
    ("churn.mode.repaired", "count"),
    ("churn.mode.rebuilt", "count"),
    ("churn.mode.decomposed", "count"),
    ("churn.mode.direct-bfs", "count"),
    ("churn.undeliverable", "count"),
    ("bench.latency_p90_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.failed_frac", "frac"),
    ("bench.trace_overhead", "frac"),
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm closed batches on a depth-2 hierarchy.
    DeepBatch,
    /// Open-loop then saturated service traffic on a depth-1 hierarchy.
    ShallowStream,
    /// Edge rewires beside cold solo reads on a depth-1 hierarchy.
    ShallowChurn,
}

impl Workload {
    /// Every workload: those in `BENCHMARK.json`, in its order, then
    /// `shallow_churn`.
    pub const ALL: [Workload; 3] =
        [Workload::DeepBatch, Workload::ShallowStream, Workload::ShallowChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepBatch => "deep_batch",
            Workload::ShallowStream => "shallow_stream",
            Workload::ShallowChurn => "shallow_churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and counts of a run. [`Params::full`] is the benchmark;
/// [`Params::tiny`] is the smoke mode its own tests use.
#[derive(Debug, Clone)]
pub struct Params {
    /// Vertex count of `deep_batch`.
    pub deep_n: usize,
    /// Vertex count of `shallow_stream`.
    pub stream_n: usize,
    /// Vertex count of `shallow_churn`.
    pub churn_n: usize,
    /// Preprocessing repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Jobs per closed batch.
    pub batch: usize,
    /// Distinct batches `deep_batch` warms up on and then cycles through.
    pub deep_distinct: usize,
    /// Distinct jobs the stream draws its arrivals from.
    pub stream_pool: usize,
    /// Offered open-loop rate of the stream, jobs per second.
    pub stream_rate: f64,
    /// Seconds of each open-loop session of the stream.
    pub stream_open_s: f64,
    /// Seconds of each saturated session of the stream.
    pub stream_sat_s: f64,
    /// Steps `shallow_churn` always runs, whatever `--seconds` says;
    /// `rounds_per_query` is taken over exactly these.
    pub churn_min_steps: usize,
    /// Reads per churn step: the first pays the repair, the rest are
    /// cold solo reads on the repaired router.
    pub churn_reads: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub fn full() -> Params {
        Params {
            deep_n: 8192,
            stream_n: 4096,
            churn_n: 2048,
            setup_reps: 3,
            batch: 16,
            deep_distinct: 3,
            stream_pool: 256,
            stream_rate: 200.0,
            stream_open_s: 3.0,
            stream_sat_s: 1.0,
            churn_min_steps: 8,
            churn_reads: 50,
        }
    }

    /// Tiny sizes for the smoke test: every code path, in seconds.
    pub fn tiny() -> Params {
        Params {
            deep_n: 256,
            stream_n: 256,
            churn_n: 256,
            setup_reps: 2,
            batch: 4,
            deep_distinct: 2,
            stream_pool: 16,
            stream_rate: 400.0,
            stream_open_s: 0.1,
            stream_sat_s: 0.05,
            churn_min_steps: 2,
            churn_reads: 2,
        }
    }
}

/// What a run recorded about its environment and inputs.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Workload name.
    pub workload: &'static str,
    /// The `--seed` argument.
    pub seed: u64,
    /// Worker threads for builds and batches (≤ `cpus`).
    pub threads: usize,
    /// `available_parallelism`.
    pub cpus: usize,
    /// Vertex count.
    pub n: usize,
    /// Hierarchy node count.
    pub nodes: usize,
    /// Hierarchy depth.
    pub depth: u32,
    /// Whether spans were recorded.
    pub trace: bool,
}

impl Meta {
    /// The record as a JSON object, with the code version.
    pub fn to_json(&self) -> String {
        let (commit, digest) = code_version();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"threads\":{},\"cpus\":{},\"commit\":\"{commit}\",\"source_digest\":\"{digest}\",\"n\":{},\"nodes\":{},\"depth\":{},\"trace\":{}}}",
            self.workload, self.seed, self.threads, self.cpus, self.n, self.nodes, self.depth, self.trace
        )
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Environment and input record.
    pub meta: Meta,
    /// Operation counts and failures.
    pub tally: check::Tally,
    /// `(name, value, unit)` in table order: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The span trace as JSON (traced runs only).
    pub trace_json: Option<String>,
    /// Sample counts and ranges behind the metrics, for the log.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Orders `values` by `table`, failing on a missing or non-finite one.
pub(crate) fn collect_metrics(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let v = *values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        out.push((name, v, unit));
    }
    Ok(out)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The code version: the git commit when the checkout is a repository
/// (`"none"` otherwise) and an FNV-1a digest of the library sources,
/// which identifies the code either way.
fn code_version() -> (String, String) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".to_owned());
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (commit, format!("{h:016x}"))
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
