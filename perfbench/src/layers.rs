//! Per-layer probes of the traced run.
//!
//! They run after the measured phase, outside every timed end-to-end
//! region, and read the program only through its public API: the
//! standalone `Hierarchy::build` (at the pinned thread count and at 1),
//! `build_shuffler` per internal node, `Hierarchy::repair` and
//! `Router::repair` on clones, cold, warm, width-1 and threads-1 engine
//! batches, a solo
//! `Router::route`, and — where the workload's own phase has none — a
//! small service session and a one-step `ChurnRouter` session.

use crate::check;
use crate::stats::median;
use crate::workloads::{churn_config, rewire, rewires, router_config, Ctx, SWAPS};
use crate::EXEC_PHASES;
use congest_sim::RoundLedger;
use expander_core::service::ServiceStats;
use expander_core::token::QueryStats;
use expander_core::{
    ChurnOutcome, ChurnRouter, DeliveryMode, Job, JobOutcome, QueryEngine, Router, RoutingInstance,
    RoutingService, ServiceConfig,
};
use expander_decomp::{build_shuffler, Hierarchy};
use expander_graphs::Graph;
use std::time::Instant;

/// Rounds and execution statistics summed over a fixed set of queries.
#[derive(Debug, Clone, Default)]
pub struct ExecAgg {
    queries: u64,
    tokens: u64,
    ledger: RoundLedger,
    stats: QueryStats,
    /// Rounds and `CostModel::t2(root, L)` predictions of route queries.
    route_rounds: u64,
    route_pred: u64,
    routes: u64,
}

impl ExecAgg {
    /// Folds in one query; `pred` is its `t2(root, L)` prediction when
    /// it is a route.
    pub fn add(
        &mut self,
        tokens: usize,
        ledger: &RoundLedger,
        stats: &QueryStats,
        pred: Option<u64>,
    ) {
        self.queries += 1;
        self.tokens += tokens as u64;
        self.ledger.merge(ledger);
        self.stats.absorb(stats);
        if let Some(p) = pred {
            self.route_rounds += ledger.total();
            self.route_pred += p;
            self.routes += 1;
        }
    }

    /// Folds in one engine job.
    pub fn add_job(&mut self, router: &Router, job: &Job, out: &JobOutcome) {
        let n = router.graph().n();
        match job {
            Job::Route(inst) => {
                let pred = t2_prediction(router, inst.load(n));
                self.add(inst.tokens.len(), out.ledger(), out.stats(), Some(pred));
            }
            Job::Sort(inst) => self.add(inst.tokens.len(), out.ledger(), out.stats(), None),
        }
    }

    /// Mean charged rounds per query.
    pub fn rounds_per_query(&self) -> f64 {
        self.ledger.total() as f64 / self.queries as f64
    }

    fn publish(&self, ctx: &mut Ctx<'_>) {
        let q = self.queries as f64;
        for &(phase, name) in EXEC_PHASES {
            ctx.layer.insert(name, self.ledger.phase(phase) as f64 / q);
        }
        ctx.layer.insert("exec.task3_calls", self.stats.task3_calls as f64 / q);
        ctx.layer.insert(
            "exec.fallback_tokens_frac",
            self.stats.fallback_tokens as f64 / self.tokens as f64,
        );
        ctx.layer.insert("exec.max_congestion", self.stats.max_congestion as f64);
        ctx.layer.insert("exec.max_dilation", self.stats.max_dilation as f64);
        ctx.layer.insert("exec.rounds_per_query", self.rounds_per_query());
        let routes = self.routes as f64;
        ctx.layer.insert("exec.cost_model_t2", self.route_pred as f64 / routes);
        ctx.layer
            .insert("exec.cost_model_ratio", self.route_rounds as f64 / self.route_pred as f64);
    }
}

/// The §6.5 prediction `CostModel::t2(root, L)` for a query of load `L`.
pub fn t2_prediction(router: &Router, load: usize) -> u64 {
    router.cost_model().t2(router.hierarchy().root(), load as u64)
}

/// Churn reads per ladder rung, and undeliverable tokens.
#[derive(Debug, Clone, Default)]
pub struct ChurnCounts {
    modes: [u64; 5],
    undeliverable: u64,
}

impl ChurnCounts {
    const NAMES: [(DeliveryMode, &'static str); 5] = [
        (DeliveryMode::Hierarchical, "churn.mode.hierarchical"),
        (DeliveryMode::Repaired, "churn.mode.repaired"),
        (DeliveryMode::Rebuilt, "churn.mode.rebuilt"),
        (DeliveryMode::Decomposed, "churn.mode.decomposed"),
        (DeliveryMode::DirectBfs, "churn.mode.direct-bfs"),
    ];

    /// Counts one churn read.
    pub fn add(&mut self, out: &ChurnOutcome) {
        let slot = Self::NAMES.iter().position(|&(m, _)| m == out.mode).expect("every mode named");
        self.modes[slot] += 1;
        self.undeliverable += out.outcome.undeliverable.len() as u64;
    }

    pub(crate) fn publish(&self, ctx: &mut Ctx<'_>) {
        for (&(_, name), &count) in Self::NAMES.iter().zip(&self.modes) {
            ctx.layer.insert(name, count as f64);
        }
        ctx.layer.insert("churn.undeliverable", self.undeliverable as f64);
    }
}

/// What the workload hands the probes.
pub struct ProbeInput<'a> {
    /// The workload's router after its measured phase.
    pub router: &'a Router,
    /// A batch of the workload's job shape.
    pub batch: &'a [Job],
    /// A route of the workload's shape, for the solo path.
    pub solo: &'a RoutingInstance,
    /// Rounds of the workload's measured queries.
    pub agg: &'a ExecAgg,
    /// The measured `setup_s`.
    pub setup_s: f64,
    /// Service statistics of the measured phase, if it used the service.
    pub service: Option<ServiceStats>,
}

fn timed<T>(ctx: &mut Ctx<'_>, span: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let id = ctx.tracer.open(span, op);
    let t0 = Instant::now();
    let out = f();
    let dt = t0.elapsed().as_secs_f64();
    ctx.tracer.close(id);
    (out, dt)
}

fn phase_sum(ledger: &RoundLedger, prefix: &str) -> f64 {
    ledger.breakdown().filter(|(p, _)| p.starts_with(prefix)).map(|(_, r)| r).sum::<u64>() as f64
}

/// Runs every layer probe and records the per-layer metrics.
///
/// # Errors
///
/// A refused build or batch.
pub(crate) fn probe(ctx: &mut Ctx<'_>, input: ProbeInput<'_>) -> Result<(), String> {
    let router = input.router;
    let g = router.graph();
    let n = g.n();
    let pre = router.preprocessing_ledger();

    // decomp.hierarchy
    let mut config = router_config(ctx.threads);
    let (built, build_s) =
        timed(ctx, "decomp.hierarchy.build", 0, || Hierarchy::build(g, config.hierarchy.clone()));
    built.map_err(|e| format!("hierarchy build refused: {e}"))?;
    config.hierarchy.threads = Some(1);
    let (built, build_s_t1) =
        timed(ctx, "decomp.hierarchy.build", 1, || Hierarchy::build(g, config.hierarchy.clone()));
    built.map_err(|e| format!("hierarchy build refused: {e}"))?;
    let h = router.hierarchy();
    ctx.layer.insert("decomp.hierarchy.build_s", build_s);
    ctx.layer.insert("decomp.hierarchy.build_s_t1", build_s_t1);
    ctx.layer.insert("decomp.hierarchy.scaling", build_s_t1 / build_s);
    ctx.layer.insert("decomp.hierarchy.rounds", phase_sum(pre, "pre/hierarchy/"));
    ctx.layer.insert("decomp.hierarchy.nodes", h.nodes().len() as f64);
    ctx.layer.insert("decomp.hierarchy.depth", f64::from(h.depth()));
    ctx.layer.insert("decomp.hierarchy.setup_share", build_s / input.setup_s);

    // decomp.shuffler: one build per internal node, summed.
    let mut shuffler_s = 0.0;
    let mut ledger = RoundLedger::new();
    for node in h.nodes().iter().filter(|nd| !nd.is_leaf()) {
        let (_, dt) = timed(ctx, "decomp.shuffler.build", node.id as u64, || {
            build_shuffler(h, node.id, &router.config().shuffler, &mut ledger)
        });
        shuffler_s += dt;
    }
    ctx.layer.insert("decomp.shuffler.build_s", shuffler_s);
    ctx.layer.insert("decomp.shuffler.rounds", phase_sum(pre, "pre/shuffler/"));

    // decomp.repair on a clone.
    let mut clone = h.clone();
    let edits = rewire(g, &mut rewires(), SWAPS);
    let (report, repair_s) = timed(ctx, "decomp.repair", 0, || clone.repair(&edits));
    let report = report.map_err(|e| format!("hierarchy repair refused: {e}"))?;
    ctx.layer.insert("decomp.repair.s", repair_s);
    ctx.layer
        .insert("decomp.repair.reuse_frac", report.reused_nodes as f64 / report.total_nodes as f64);
    drop(clone);

    // core.router, the repair on a clone.
    let mut clone = router.clone();
    let (repaired, router_repair_s) = timed(ctx, "core.router.repair", 0, || clone.repair(&edits));
    ctx.tally.record(repaired.is_ok(), || "router repair refused".to_owned());
    drop(clone);
    ctx.layer.insert("router.repair_s", router_repair_s);
    ctx.layer.insert("router.derive_s", input.setup_s - build_s - shuffler_s);
    ctx.layer.insert("router.routable_networks.rounds", pre.phase("pre/routable-networks") as f64);
    ctx.layer.insert("router.leaf.rounds", pre.phase("pre/leaf") as f64);

    // core.exec
    input.agg.publish(ctx);
    let mut solo_ms = Vec::new();
    for rep in 0..3 {
        let (out, dt) = timed(ctx, "core.router.route", rep, || router.route(input.solo));
        let ok = out.as_ref().is_ok_and(|o| check::route_ok(input.solo, o));
        ctx.tally.record(ok, || "solo route undelivered".to_owned());
        solo_ms.push(dt * 1e3);
    }
    ctx.layer.insert("exec.solo_ms", median(&solo_ms));

    // core.engine: cold, warm, width 1, threads 1 — one pool throughout.
    // The warm figures are medians of up to 5 repeats within about a
    // second, so a batch of a few milliseconds is not a single sample.
    let batch = input.batch;
    let run = |ctx: &mut Ctx<'_>, engine: &QueryEngine<'_>, op: u64| -> Result<f64, String> {
        let (out, dt) = timed(ctx, "core.engine.run", op, || engine.run(batch));
        let out = out.map_err(|e| format!("batch refused: {e}"))?;
        for (job, o) in batch.iter().zip(&out.outcomes) {
            ctx.tally.record(check::job_ok(n, job, o), || "probe batch job wrong".to_owned());
        }
        Ok(dt * 1e3)
    };
    let repeat = |ctx: &mut Ctx<'_>, engine: &QueryEngine<'_>, op: u64| -> Result<f64, String> {
        let mut times = vec![run(ctx, engine, op)?];
        while times.len() < 5 && times.iter().sum::<f64>() < 1e3 {
            times.push(run(ctx, engine, op)?);
        }
        Ok(median(&times))
    };
    let engine = QueryEngine::new(router).with_threads(Some(ctx.threads));
    let cold = run(ctx, &engine, 0)?;
    let warm = repeat(ctx, &engine, 1)?;
    let engine = engine.with_fusion_width(Some(1));
    let perjob = repeat(ctx, &engine, 2)?;
    let engine = engine.with_fusion_width(None).with_threads(Some(1));
    let one_thread = repeat(ctx, &engine, 3)?;
    ctx.layer.insert("engine.batch_ms", warm);
    ctx.layer.insert("engine.cold_batch_ms", cold);
    ctx.layer.insert("engine.perjob_batch_ms", perjob);
    ctx.layer.insert("engine.fusion_gain", perjob / warm);
    ctx.layer.insert("engine.scaling", one_thread / warm);

    // core.service
    let stats = match input.service {
        Some(stats) => stats,
        None => {
            let config = ServiceConfig { threads: Some(1), ..ServiceConfig::default() };
            let id = ctx.tracer.open("core.service.serve", 0);
            let (outs, stats) = RoutingService::serve(&engine, config, |h| {
                let tickets: Vec<_> =
                    batch.iter().map(|job| h.submit(0, job.clone()).ok()).collect();
                let mut outs: Vec<Option<JobOutcome>> = vec![None; batch.len()];
                while let Some((ticket, out)) = h.recv(0) {
                    if let Some(i) = tickets.iter().position(|&t| t == Some(ticket)) {
                        outs[i] = Some(out);
                    }
                }
                outs
            });
            ctx.tracer.close(id);
            for (job, out) in batch.iter().zip(&outs) {
                let ok = out.as_ref().is_some_and(|o| check::job_ok(n, job, o));
                ctx.tally.record(ok, || "probe service job lost or wrong".to_owned());
            }
            stats
        }
    };
    ctx.layer.insert("service.formation_p50_us", stats.formation_latency_us[0] as f64);
    ctx.layer.insert("service.formation_p99_us", stats.formation_latency_us[2] as f64);
    ctx.layer.insert("service.service_p99_us", stats.service_latency_us[2] as f64);
    ctx.layer.insert("service.mean_width", stats.completed as f64 / stats.groups.max(1) as f64);
    ctx.layer.insert("service.groups", stats.groups as f64);
    ctx.layer.insert("service.rejected", stats.rejected as f64);
    Ok(())
}

/// A one-step `ChurnRouter` session — rewire, then read — for the
/// workloads whose measured phase does not churn. It builds a router of
/// its own, so callers drop theirs first.
pub(crate) fn churn_session(ctx: &mut Ctx<'_>, g: &Graph) -> Result<(), String> {
    let n = g.n();
    let config = churn_config(ctx.threads);
    let (mut cr, _) = timed(ctx, "core.churn.new", 0, || ChurnRouter::new(g, config));
    let edits = rewire(g, &mut rewires(), SWAPS);
    ctx.tracer.span("core.churn.apply", 0, || cr.apply(&edits));
    let inst = RoutingInstance::partial_permutation(n, n / 8, ctx.seed);
    let (out, _) = timed(ctx, "core.churn.route", 0, || cr.route(&inst));
    let out = out.map_err(|e| format!("churn read refused: {e}"))?;
    ctx.tally.record(check::churn_ok(&inst, &out), || "probe churn read failed".to_owned());
    let mut counts = ChurnCounts::default();
    counts.add(&out);
    counts.publish(ctx);
    Ok(())
}
