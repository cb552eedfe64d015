//! The three workloads and their end-to-end measurements.

use crate::check::{self, Tally};
use crate::layers::{self, ChurnCounts, ExecAgg, ProbeInput};
use crate::reference::HostSpeed;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{
    collect_metrics, peak_rss_mb, Meta, Params, Report, Workload, END_TO_END, EPSILON, PER_LAYER,
};
use expander_core::service::ServiceStats;
use expander_core::{
    ChurnConfig, ChurnRouter, Job, JobOutcome, QueryEngine, Router, RouterConfig, RoutingInstance,
    RoutingService, ServiceConfig, SortInstance, Ticket,
};
use expander_graphs::{generators, Graph, GraphEdit};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Generator seed of every workload's graph (fixed; see the crate docs).
const GRAPH_SEED: u64 = 1;
/// Seed of the rewire schedule, fixed like the graph: which edges a
/// rewire swaps decides how much of the hierarchy a repair can reuse and
/// the shape of the repaired router, so a seeded schedule would move
/// repair and query times between seeds by more than the bounds allow.
const REWIRE_SEED: u64 = 0x5EED;
/// Seed of the stream's traffic shape — its arrival times and the order
/// of job kinds — fixed like the graph: where the few sorts fall among
/// the arrivals moves the stream's tail latency between seeds.
const TRAFFIC_SEED: u64 = 0x7EAF;
/// Double-edge swaps per rewire: 8 edge edits that keep the graph
/// 4-regular.
pub(crate) const SWAPS: usize = 2;
/// Share of sort jobs in the stream's pool; the rest is split evenly
/// between dense permutations and n/16 partial permutations.
const SORT_SHARE: f64 = 0.05;
/// Jobs the saturated phase keeps in flight.
const SATURATED_WINDOW: usize = 64;
/// Longest sleep of the open-loop generator while outcomes are pending,
/// which bounds how late a completion is observed.
const POLL: Duration = Duration::from_micros(100);

/// Labels of the independent input families drawn from one `--seed`,
/// XORed into it. They sit in the top bits, so no two seeds below 2^61
/// share a sequence.
const S_JOBS: u64 = 1 << 61;
const S_READS: u64 = 2 << 61;
const S_PROBE: u64 = 3 << 61;

/// State of one run.
pub(crate) struct Ctx<'p> {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub p: &'p Params,
    pub tracer: Tracer,
    pub tally: Tally,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// How late the benchmark issued each operation, in ms: after its
    /// due time (open loop) or after the previous one completed (closed
    /// loop).
    pub late_ms: Vec<f64>,
    /// Sample counts behind the metrics, for the log.
    pub notes: Vec<String>,
    /// Reference kernel samples, taken between the program's operations.
    pub speed: HostSpeed,
}

impl Ctx<'_> {
    /// The generator of input family `stream` under this run's seed.
    fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ stream)
    }
}

/// Runs one workload for `seconds` of measurement; `trace` records spans
/// and swaps the end-to-end metrics for the per-layer ones.
///
/// # Errors
///
/// A description of what stopped the run (a refused preprocessing, an
/// unmeasured metric); the run then prints no result.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    params: &Params,
) -> Result<Report, String> {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut ctx = Ctx {
        seed,
        seconds,
        threads: cpus,
        p: params,
        tracer: Tracer::new(trace),
        tally: Tally::default(),
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        late_ms: Vec::new(),
        notes: Vec::new(),
        speed: HostSpeed::default(),
    };
    let (n, nodes, depth) = match workload {
        Workload::DeepBatch => deep_batch(&mut ctx)?,
        Workload::ShallowStream => shallow_stream(&mut ctx)?,
        Workload::ShallowChurn => shallow_churn(&mut ctx)?,
    };
    ctx.e2e.insert("peak_rss_mb", peak_rss_mb());
    normalize(&mut ctx);
    let meta = Meta {
        workload: workload.name(),
        seed,
        threads: ctx.threads,
        cpus,
        n,
        nodes,
        depth,
        trace,
    };
    let metrics = if trace {
        ctx.layer.insert("bench.gen_late_p99_ms", percentile(&ctx.late_ms, 99.0));
        ctx.layer.insert("bench.failed_frac", ctx.tally.failed_frac());
        ctx.layer.insert(
            "bench.trace_overhead",
            ctx.tracer.bookkeeping().as_secs_f64() / ctx.tracer.elapsed().as_secs_f64(),
        );
        collect_metrics(PER_LAYER, &ctx.layer)?
    } else {
        collect_metrics(END_TO_END, &ctx.e2e)?
    };
    let trace_json = trace.then(|| ctx.tracer.to_json(workload.name(), &meta.to_json()));
    Ok(Report { meta, tally: ctx.tally, metrics, trace_json, notes: ctx.notes })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Divides the end-to-end wall times by the run's speed index (see
/// [`crate::reference`]), and logs the raw values beside it.
fn normalize(ctx: &mut Ctx<'_>) {
    let index = ctx.speed.index();
    let samples = ctx.speed.samples_ms().to_vec();
    note(ctx, "reference kernel ms", &samples);
    let mut raw = String::new();
    for (name, exponent) in [("setup_s", -1), ("latency_p50_ms", -1), ("qps", 1)] {
        if let Some(v) = ctx.e2e.get_mut(name) {
            raw.push_str(&format!(" {name} {v}"));
            *v *= index.powi(exponent);
        }
    }
    ctx.notes.push(format!("speed index {index}; raw{raw}"));
}

/// Logs how many samples stand behind a timing, and their range.
fn note(ctx: &mut Ctx<'_>, label: &str, samples: &[f64]) {
    let max = samples.iter().copied().fold(f64::NAN, f64::max);
    let min = samples.iter().copied().fold(f64::NAN, f64::min);
    ctx.notes.push(format!(
        "{label}: {} samples, min {min:.4} p10 {:.4} p25 {:.4} p50 {:.4} p90 {:.4} max {max:.4}",
        samples.len(),
        percentile(samples, 10.0),
        percentile(samples, 25.0),
        median(samples),
        percentile(samples, 90.0)
    ));
}

/// Records the median of per-query latencies, and their p90 and p99 as
/// the traced `bench.latency_p90_ms` and `bench.latency_p99_ms`: on a
/// shared host a few stalls fill the top of a run's samples, so the tail
/// moves between runs of the same code by more than any bound allows.
fn latencies(ctx: &mut Ctx<'_>, samples: &[f64]) {
    ctx.e2e.insert("latency_p50_ms", median(samples));
    ctx.layer.insert("bench.latency_p90_ms", percentile(samples, 90.0));
    ctx.layer.insert("bench.latency_p99_ms", percentile(samples, 99.0));
}

/// The default router configuration at ε = 0.4 with builds pinned to
/// `threads`.
pub(crate) fn router_config(threads: usize) -> RouterConfig {
    let mut config = RouterConfig::for_epsilon(EPSILON);
    config.hierarchy.threads = Some(threads);
    config
}

pub(crate) fn churn_config(threads: usize) -> ChurnConfig {
    let mut config = ChurnConfig::for_epsilon(EPSILON);
    config.decomposed.router = router_config(threads);
    config
}

fn graph(n: usize) -> Result<Graph, String> {
    generators::random_regular(n, 4, GRAPH_SEED).map_err(|e| format!("generator: {e}"))
}

/// The generator of the fixed rewire schedule.
pub(crate) fn rewires() -> StdRng {
    StdRng::seed_from_u64(REWIRE_SEED)
}

/// `swaps` double-edge swaps on `g`: remove `{a,b}` and `{c,d}`, insert
/// `{a,c}` and `{b,d}`. Degrees stay 4 and no parallel edge appears.
pub(crate) fn rewire(g: &Graph, rng: &mut StdRng, swaps: usize) -> Vec<GraphEdit> {
    let mut live = g.clone();
    let mut edits = Vec::with_capacity(4 * swaps);
    for _ in 0..swaps {
        let edges: Vec<(u32, u32)> = live.edges().collect();
        loop {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            let (c, d) = edges[rng.gen_range(0..edges.len())];
            let distinct = a != c && a != d && b != c && b != d;
            if distinct && !live.has_edge(a, c) && !live.has_edge(b, d) {
                let swap = [
                    GraphEdit::RemoveEdge(a, b),
                    GraphEdit::RemoveEdge(c, d),
                    GraphEdit::InsertEdge(a, c),
                    GraphEdit::InsertEdge(b, d),
                ];
                for e in swap {
                    live.apply_edit(e);
                }
                edits.extend(swap);
                break;
            }
        }
    }
    edits
}

/// The shape `(nodes, depth)` of a router's hierarchy.
fn shape(router: &Router) -> (usize, u32) {
    (router.hierarchy().nodes().len(), router.hierarchy().depth())
}

/// Preprocesses `setup_reps` times; `setup_s` is the median.
fn setup_router(ctx: &mut Ctx<'_>, g: &Graph) -> Result<Router, String> {
    let config = router_config(ctx.threads);
    let mut times = Vec::with_capacity(ctx.p.setup_reps);
    let mut router = None;
    for rep in 0..ctx.p.setup_reps {
        drop(router.take());
        ctx.speed.sample();
        let id = ctx.tracer.open("core.router.preprocess", rep as u64);
        let t0 = Instant::now();
        let built = Router::preprocess(g, config.clone());
        times.push(t0.elapsed().as_secs_f64());
        ctx.tracer.close(id);
        ctx.tally.record(built.is_ok(), || "preprocess refused".to_owned());
        router = Some(built.map_err(|e| format!("preprocess refused: {e}"))?);
    }
    let router = router.ok_or("setup_reps must be at least 1")?;
    ctx.e2e.insert("setup_s", median(&times));
    ctx.e2e.insert("setup_rounds", router.preprocessing_ledger().total() as f64);
    Ok(router)
}

/// Checks a batch's outcomes, and folds them into `agg` when given.
fn check_batch(
    ctx: &mut Ctx<'_>,
    router: &Router,
    jobs: &[Job],
    outcomes: &[JobOutcome],
    agg: Option<&mut ExecAgg>,
) {
    let n = router.graph().n();
    ctx.tally.record(outcomes.len() == jobs.len(), || "batch lost outcomes".to_owned());
    for (i, (job, out)) in jobs.iter().zip(outcomes).enumerate() {
        ctx.tally.record(check::job_ok(n, job, out), || format!("batch job {i} wrong"));
    }
    if let Some(agg) = agg {
        for (job, out) in jobs.iter().zip(outcomes) {
            agg.add_job(router, job, out);
        }
    }
}

fn deep_batch(ctx: &mut Ctx<'_>) -> Result<(usize, usize, u32), String> {
    let n = ctx.p.deep_n;
    let g = graph(n)?;
    let setup = ctx.tracer.open("bench.setup", 0);
    let router = setup_router(ctx, &g)?;
    ctx.tracer.close(setup);
    let (nodes, depth) = shape(&router);

    let mut rng = ctx.rng(S_JOBS);
    let batches: Vec<Vec<Job>> = (0..ctx.p.deep_distinct)
        .map(|_| {
            (0..ctx.p.batch)
                .map(|_| Job::Route(RoutingInstance::permutation(n, rng.next_u64())))
                .collect()
        })
        .collect();
    let mut agg = ExecAgg::default();
    let engine = QueryEngine::new(&router).with_threads(Some(ctx.threads));
    // Warm the pool and the dummy caches on every distinct batch before
    // timing, and take the round aggregate from these runs.
    for (b, jobs) in batches.iter().enumerate() {
        let warm = ctx.tracer.span("core.engine.run", b as u64, || engine.run(jobs));
        let warm = warm.map_err(|e| format!("batch refused: {e}"))?;
        check_batch(ctx, &router, jobs, &warm.outcomes, Some(&mut agg));
    }

    // The distinct batches in turn until `seconds` have passed.
    let measure = ctx.tracer.open("bench.measure", 0);
    let mut batch_ms = Vec::new();
    let start = Instant::now();
    let mut prev_done = start;
    for (i, jobs) in batches.iter().cycle().enumerate() {
        let id = ctx.tracer.open("core.engine.run", (batches.len() + i) as u64);
        let t0 = Instant::now();
        ctx.late_ms.push(ms(t0 - prev_done));
        let out = engine.run(jobs);
        let dt = t0.elapsed();
        ctx.tracer.close(id);
        let out = out.map_err(|e| format!("batch refused: {e}"))?;
        check_batch(ctx, &router, jobs, &out.outcomes, None);
        batch_ms.push(ms(dt));
        ctx.speed.sample();
        prev_done = Instant::now();
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    ctx.tracer.close(measure);
    drop(engine);
    // A closed batch returns every job at once, so each query's latency
    // is its batch's wall time. Throughput is taken at the median batch
    // time too: a mean lets the one batch a host stall hits move it.
    note(ctx, "warm batch ms", &batch_ms);
    ctx.e2e.insert("qps", ctx.p.batch as f64 / (median(&batch_ms) / 1e3));
    latencies(ctx, &batch_ms);
    ctx.e2e.insert("rounds_per_query", agg.rounds_per_query());

    if ctx.tracer.enabled() {
        let solo = match &batches[0][0] {
            Job::Route(inst) => inst.clone(),
            Job::Sort(_) => unreachable!("deep_batch routes only"),
        };
        let input = ProbeInput {
            router: &router,
            batch: &batches[0],
            solo: &solo,
            agg: &agg,
            setup_s: ctx.e2e["setup_s"],
            service: None,
        };
        let probe = ctx.tracer.open("bench.probe", 0);
        layers::probe(ctx, input)?;
        ctx.tracer.close(probe);
        drop(router);
        layers::churn_session(ctx, &g)?;
    }
    Ok((n, nodes, depth))
}

/// The stream's distinct jobs: exactly [`SORT_SHARE`] one-key-per-vertex
/// sorts, the rest split evenly between dense permutations and n/16
/// partial permutations. `traffic` orders the kinds; `jobs` draws each
/// instance.
fn stream_pool(n: usize, size: usize, traffic: &mut StdRng, jobs: &mut StdRng) -> Vec<Job> {
    let sorts = ((size as f64 * SORT_SHARE).round() as usize).max(1);
    let dense = (size - sorts) / 2;
    let mut kinds: Vec<usize> =
        (0..size).map(|i| usize::from(i >= sorts) + usize::from(i >= sorts + dense)).collect();
    kinds.shuffle(traffic);
    kinds
        .into_iter()
        .map(|kind| {
            let seed = jobs.next_u64();
            match kind {
                0 => Job::Sort(SortInstance::random(n, 1, seed)),
                1 => Job::Route(RoutingInstance::permutation(n, seed)),
                _ => Job::Route(RoutingInstance::partial_permutation(n, n / 16, seed)),
            }
        })
        .collect()
}

/// Pool indices in seeded order, cycling, so every full pass offers the
/// pool's exact job mix.
struct Cycle {
    order: Vec<usize>,
    next: usize,
}

impl Cycle {
    fn new(len: usize, rng: &mut StdRng) -> Cycle {
        let mut order: Vec<usize> = (0..len).collect();
        order.shuffle(rng);
        Cycle { order, next: 0 }
    }

    fn next(&mut self) -> usize {
        let i = self.order[self.next % self.order.len()];
        self.next += 1;
        i
    }
}

/// What the open-loop generator observed.
struct OpenLoop {
    /// Per completed job: ms from its due time to its outcome.
    latency_ms: Vec<f64>,
    /// Per arrival: ms the generator submitted it after its due time.
    late_ms: Vec<f64>,
    /// Per arrival: whether it was admitted, came back, and matched the
    /// closed-batch reference.
    ok: Vec<bool>,
    stats: ServiceStats,
}

/// Replays `arrivals` (`(due offset s, pool index)`) against a
/// one-worker service. The generator sleeps until each due time — in
/// slices of at most [`POLL`] while outcomes are pending, draining them
/// between slices — so it never takes the worker's core.
fn open_loop(
    engine: &QueryEngine<'_>,
    pool: &[Job],
    reference: &[JobOutcome],
    arrivals: &[(f64, usize)],
) -> OpenLoop {
    let config = ServiceConfig { threads: Some(1), ..ServiceConfig::default() };
    let ((latency_ms, late_ms, ok), stats) = RoutingService::serve(engine, config, |h| {
        let mut pending: HashMap<Ticket, (Instant, usize)> = HashMap::new();
        let mut latency_ms = Vec::with_capacity(arrivals.len());
        let mut late_ms = Vec::with_capacity(arrivals.len());
        let mut ok = vec![false; arrivals.len()];
        let mut complete =
            |ticket: Ticket, out: JobOutcome, pending: &mut HashMap<Ticket, (Instant, usize)>| {
                let now = Instant::now();
                if let Some((due, event)) = pending.remove(&ticket) {
                    latency_ms.push(ms(now - due));
                    ok[event] = check::same_outcome(&out, &reference[arrivals[event].1]);
                }
            };
        let start = Instant::now();
        for (event, &(at, job)) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            loop {
                while let Some((ticket, out)) = h.try_recv(0) {
                    complete(ticket, out, &mut pending);
                }
                let now = Instant::now();
                if now >= due {
                    late_ms.push(ms(now - due));
                    break;
                }
                let wait = due - now;
                std::thread::sleep(if h.in_flight() > 0 { wait.min(POLL) } else { wait });
            }
            if let Ok(ticket) = h.try_submit(0, pool[job].clone()) {
                pending.insert(ticket, (due, event));
            }
        }
        while let Some((ticket, out)) = h.recv(0) {
            complete(ticket, out, &mut pending);
        }
        (latency_ms, late_ms, ok)
    });
    OpenLoop { latency_ms, late_ms, ok, stats }
}

/// What a saturated session observed.
struct Saturated {
    /// Outcomes received.
    done: usize,
    /// Seconds from the first submission to the last outcome.
    seconds: f64,
    /// Per submitted job: whether its outcome came back matching the
    /// reference.
    ok: Vec<bool>,
}

/// Keeps [`SATURATED_WINDOW`] jobs in flight for `seconds`, then drains.
fn saturated(
    engine: &QueryEngine<'_>,
    pool: &[Job],
    reference: &[JobOutcome],
    order: &mut Cycle,
    seconds: f64,
) -> Saturated {
    let config = ServiceConfig { threads: Some(1), ..ServiceConfig::default() };
    let (sat, _) = RoutingService::serve(engine, config, |h| {
        let mut pending: HashMap<Ticket, usize> = HashMap::new();
        let mut ok = Vec::new();
        let start = Instant::now();
        let mut done = 0usize;
        loop {
            while h.in_flight() < SATURATED_WINDOW && start.elapsed().as_secs_f64() < seconds {
                let job = order.next();
                match h.try_submit(0, pool[job].clone()) {
                    Ok(ticket) => {
                        pending.insert(ticket, job);
                    }
                    Err(_) => ok.push(false),
                }
            }
            let Some((ticket, out)) = h.recv(0) else { break };
            done += 1;
            let job = pending.remove(&ticket);
            ok.push(job.is_some_and(|j| check::same_outcome(&out, &reference[j])));
        }
        let seconds = start.elapsed().as_secs_f64();
        ok.extend(pending.values().map(|_| false));
        Saturated { done, seconds, ok }
    });
    sat
}

fn shallow_stream(ctx: &mut Ctx<'_>) -> Result<(usize, usize, u32), String> {
    let n = ctx.p.stream_n;
    let g = graph(n)?;
    let setup = ctx.tracer.open("bench.setup", 0);
    let router = setup_router(ctx, &g)?;
    ctx.tracer.close(setup);
    let (nodes, depth) = shape(&router);

    let mut traffic = StdRng::seed_from_u64(TRAFFIC_SEED);
    let pool = stream_pool(n, ctx.p.stream_pool, &mut traffic, &mut ctx.rng(S_JOBS));
    let mut agg = ExecAgg::default();
    {
        let engine = QueryEngine::new(&router).with_threads(Some(ctx.threads));
        // The closed-batch reference every streamed outcome must match,
        // computed before the timed phases.
        let reference = ctx.tracer.span("core.engine.run", 0, || engine.run(&pool));
        let reference = reference.map_err(|e| format!("pool refused: {e}"))?.outcomes;
        check_batch(ctx, &router, &pool, &reference, Some(&mut agg));

        // Cycles of an open-loop session and a saturated session until
        // `seconds` have passed, so both sample the whole phase while the
        // host's speed drifts.
        let mut order = Cycle::new(pool.len(), &mut traffic);
        let (mut latency_ms, mut late_ms, mut stream_ok) = (Vec::new(), Vec::new(), Vec::new());
        let (mut sat_done, mut sat_s) = (0usize, 0.0);
        let mut last_stats = None;
        let measure = ctx.tracer.open("bench.measure", 0);
        let start = Instant::now();
        for cycle in 0u64.. {
            let mut arrivals = Vec::new();
            let mut at = 0.0;
            loop {
                // Exponential gaps; `1 - u` lies in (0, 1].
                at += -(1.0 - traffic.gen::<f64>()).ln() / ctx.p.stream_rate;
                if at >= ctx.p.stream_open_s {
                    break;
                }
                arrivals.push((at, order.next()));
            }
            let id = ctx.tracer.open("core.service.serve", 2 * cycle);
            let open = open_loop(&engine, &pool, &reference, &arrivals);
            ctx.tracer.close(id);
            ctx.speed.sample();
            let id = ctx.tracer.open("core.service.serve", 2 * cycle + 1);
            let sat = saturated(&engine, &pool, &reference, &mut order, ctx.p.stream_sat_s);
            ctx.tracer.close(id);
            latency_ms.extend(open.latency_ms);
            late_ms.extend(open.late_ms);
            stream_ok.extend(open.ok.into_iter().chain(sat.ok));
            sat_done += sat.done;
            sat_s += sat.seconds;
            last_stats = Some(open.stats);
            ctx.speed.sample();
            if start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        ctx.tracer.close(measure);

        for (i, &ok) in stream_ok.iter().enumerate() {
            ctx.tally.record(ok, || format!("stream job {i} refused, lost or mismatched"));
        }
        note(ctx, "open-loop latency ms", &latency_ms);
        note(ctx, "generator lateness ms", &late_ms);
        ctx.late_ms = late_ms;
        ctx.e2e.insert("qps", sat_done as f64 / sat_s);
        latencies(ctx, &latency_ms);

        if ctx.tracer.enabled() {
            let solo = pool
                .iter()
                .find_map(|j| match j {
                    Job::Route(inst) => Some(inst.clone()),
                    Job::Sort(_) => None,
                })
                .ok_or("stream pool holds no route job")?;
            let input = ProbeInput {
                router: &router,
                batch: &pool[..ctx.p.batch.min(pool.len())],
                solo: &solo,
                agg: &agg,
                setup_s: ctx.e2e["setup_s"],
                service: last_stats,
            };
            let probe = ctx.tracer.open("bench.probe", 0);
            layers::probe(ctx, input)?;
            ctx.tracer.close(probe);
        }
    }
    ctx.e2e.insert("rounds_per_query", agg.rounds_per_query());
    if ctx.tracer.enabled() {
        drop(router);
        layers::churn_session(ctx, &g)?;
    }
    Ok((n, nodes, depth))
}

fn shallow_churn(ctx: &mut Ctx<'_>) -> Result<(usize, usize, u32), String> {
    let n = ctx.p.churn_n;
    let g = graph(n)?;
    let config = churn_config(ctx.threads);
    let setup = ctx.tracer.open("bench.setup", 0);
    let mut times = Vec::new();
    let mut cr = None;
    for rep in 0..ctx.p.setup_reps {
        drop(cr.take());
        ctx.speed.sample();
        let id = ctx.tracer.open("core.churn.new", rep as u64);
        let t0 = Instant::now();
        let built = ChurnRouter::new(&g, config.clone());
        times.push(t0.elapsed().as_secs_f64());
        ctx.tracer.close(id);
        ctx.tally.record(built.router().is_some(), || "initial preprocess refused".to_owned());
        cr = Some(built);
    }
    ctx.tracer.close(setup);
    let mut cr = cr.ok_or("setup_reps must be at least 1")?;
    let router = cr.router().ok_or("initial preprocess refused")?;
    let (nodes, depth) = shape(router);
    ctx.e2e.insert("setup_s", median(&times));
    ctx.e2e.insert("setup_rounds", router.preprocessing_ledger().total() as f64);

    let mut schedule = rewires();
    let mut reads = ctx.rng(S_READS);
    let mut agg = ExecAgg::default();
    let mut counts = ChurnCounts::default();
    let (mut latency_ms, mut repair_ms, mut query_ms) = (Vec::new(), Vec::new(), Vec::new());
    let measure = ctx.tracer.open("bench.measure", 0);
    let start = Instant::now();
    let mut prev_done = Instant::now();
    let mut step = 0;
    while step < ctx.p.churn_min_steps || start.elapsed().as_secs_f64() < ctx.seconds {
        let edits = rewire(cr.graph(), &mut schedule, SWAPS);
        for r in 0..ctx.p.churn_reads {
            let inst = RoutingInstance::partial_permutation(n, n / 8, reads.next_u64());
            let t0 = Instant::now();
            ctx.late_ms.push(ms(t0 - prev_done));
            if r == 0 {
                ctx.tracer.span("core.churn.apply", step as u64, || cr.apply(&edits));
            }
            let id = ctx.tracer.open("core.churn.route", step as u64);
            let out = cr.route(&inst);
            let dt = t0.elapsed();
            ctx.tracer.close(id);
            prev_done = Instant::now();
            let out = out.map_err(|e| format!("churn read refused: {e}"))?;
            ctx.tally.record(check::churn_ok(&inst, &out), || {
                format!("churn step {step} read {r}: {:?}", out.outcome.verify(&inst))
            });
            counts.add(&out);
            latency_ms.push(ms(dt));
            query_ms.push(ms(dt.saturating_sub(out.repair_latency)));
            if r == 0 && out.repair_latency > Duration::ZERO {
                repair_ms.push(ms(out.repair_latency));
            }
            if step < ctx.p.churn_min_steps {
                let pred = cr.router().map(|rt| layers::t2_prediction(rt, inst.load(n)));
                agg.add(inst.tokens.len(), &out.outcome.ledger, &out.outcome.stats, pred);
            }
        }
        ctx.speed.sample();
        step += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    ctx.tracer.close(measure);
    note(ctx, "churn read latency ms", &latency_ms);
    note(ctx, "repair ms", &repair_ms);
    note(ctx, "read ms excluding repair", &query_ms);
    ctx.e2e.insert("qps", latency_ms.len() as f64 / elapsed);
    latencies(ctx, &latency_ms);
    ctx.e2e.insert("rounds_per_query", agg.rounds_per_query());

    if ctx.tracer.enabled() {
        let router = cr.router().ok_or("churn ended without a router")?;
        let mut probe_reads = ctx.rng(S_PROBE);
        let batch: Vec<Job> = (0..ctx.p.batch)
            .map(|_| {
                Job::Route(RoutingInstance::partial_permutation(n, n / 8, probe_reads.next_u64()))
            })
            .collect();
        let solo = RoutingInstance::partial_permutation(n, n / 8, probe_reads.next_u64());
        let input = ProbeInput {
            router,
            batch: &batch,
            solo: &solo,
            agg: &agg,
            setup_s: ctx.e2e["setup_s"],
            service: None,
        };
        let probe = ctx.tracer.open("bench.probe", 0);
        layers::probe(ctx, input)?;
        counts.publish(ctx);
        ctx.tracer.close(probe);
    }
    Ok((n, nodes, depth))
}
