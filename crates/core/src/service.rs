//! The streaming routing service: continuous job admission over the
//! batched [`QueryEngine`].
//!
//! [`QueryEngine::run`] takes a *closed* batch: the caller must already
//! hold every job. Real traffic is an open stream, so this module adds
//! the missing front end: a long-lived [`RoutingService`] whose workers
//! wait on one FIFO intake, execute each job as it arrives through the
//! engine's pooled-scratch path, and stream completed [`JobOutcome`]s
//! back through per-tenant completion queues.
//!
//! # Data flow
//!
//! ```text
//! submit(tenant, job) ─► FIFO intake (one VecDeque, admission order)
//!        │ backpressure: bounded in-flight budget — `submit` blocks,
//!        │ `try_submit` fails fast with `SubmitError::Saturated`
//!        ▼
//! worker: park until a job arrives, pull the oldest one
//!        ▼
//! QueryEngine::run_validated  (pooled scratch, dummy cache)
//!        ▼
//! per-tenant completion queues ─► recv / try_recv (ticket, outcome)
//! ```
//!
//! # Determinism contract
//!
//! Per-job outcomes and ledgers are byte-identical to routing the same
//! jobs through closed [`QueryEngine::run`] batches — at every thread
//! count, arrival timing, and submission interleaving. This is
//! inherited, not re-proven: every job runs alone through the same
//! pipeline, and which pooled scratch serves it is unobservable
//! (`tests/batch_determinism.rs`, `tests/property.rs`). The
//! service-level contract (a fixed [`ArrivalSchedule`] replayed at 1
//! vs 4 threads, or permuted) is enforced by
//! `tests/service_determinism.rs`. Timing-derived [`ServiceStats`]
//! (latency percentiles, queries/s) are *reported*, never fed back
//! into results.
//!
//! # Example
//!
//! ```
//! use expander_core::service::{RoutingService, ServiceConfig};
//! use expander_core::{Job, QueryEngine, Router, RouterConfig, RoutingInstance};
//! use expander_graphs::generators;
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
//! let engine = QueryEngine::new(&router);
//! let (delivered, stats) =
//!     RoutingService::serve(&engine, ServiceConfig::default(), |handle| {
//!         let mut got = 0;
//!         for seed in 0..4 {
//!             let job = Job::Route(RoutingInstance::permutation(256, seed));
//!             handle.submit(0, job).expect("admitted");
//!         }
//!         while let Some((_ticket, outcome)) = handle.recv(0) {
//!             assert!(outcome.rounds() > 0);
//!             got += 1;
//!         }
//!         got
//!     });
//! assert_eq!(delivered, 4);
//! assert_eq!(stats.admitted, 4);
//! assert_eq!(stats.completed, 4);
//! ```

use crate::engine::{Job, JobOutcome, QueryEngine};
use crate::token::InstanceError;
use congest_sim::parallel::build_threads;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Admission ticket of one submitted job: a service-wide sequence
/// number, unique per submission, returned by
/// [`submit`](ServiceHandle::submit) and echoed with the job's outcome
/// by [`recv`](ServiceHandle::recv) so callers can pair them.
pub type Ticket = u64;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The in-flight budget is exhausted ([`ServiceConfig::max_in_flight`]);
    /// only [`try_submit`](ServiceHandle::try_submit) fails this way —
    /// [`submit`](ServiceHandle::submit) blocks instead.
    Saturated,
    /// The tenant index is outside `0..ServiceConfig::tenants`.
    UnknownTenant(usize),
    /// The job referenced vertices outside the router's graph.
    Invalid(InstanceError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated => write!(f, "in-flight budget exhausted"),
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            SubmitError::Invalid(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration of one [`RoutingService::serve`] session.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker-thread count (`None`: `EXPANDER_BUILD_THREADS`, then
    /// `available_parallelism` — the same resolution as the engine).
    pub threads: Option<usize>,
    /// In-flight budget: jobs admitted but not yet received back. At
    /// the cap, [`submit`](ServiceHandle::submit) blocks and
    /// [`try_submit`](ServiceHandle::try_submit) fails fast. The budget
    /// is at least 1: a session serves 0 as 1, since a service that
    /// admits nothing could never free a slot.
    pub max_in_flight: usize,
    /// Completion-queue count; submissions name a tenant in
    /// `0..tenants` and outcomes come back on that tenant's queue.
    pub tenants: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { threads: None, max_in_flight: usize::MAX, tenants: 1 }
    }
}

/// One admitted job waiting in the intake.
#[derive(Debug)]
struct Pending {
    ticket: Ticket,
    tenant: usize,
    job: Job,
    submitted_at: Instant,
}

/// One tenant's completion queue.
#[derive(Debug, Default)]
struct TenantQueue {
    done: Mutex<VecDeque<(Ticket, JobOutcome)>>,
    ready: Condvar,
    /// Jobs admitted for this tenant and not yet popped by `recv` —
    /// `recv` returns `None` exactly when this is 0.
    outstanding: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
}

/// The FIFO intake: admitted jobs in admission order, and whether the
/// session is draining (the body has returned, so no job will arrive).
#[derive(Debug, Default)]
struct Intake {
    queue: VecDeque<Pending>,
    draining: bool,
}

/// State shared between the submission side and the workers.
#[derive(Debug)]
struct Shared<'e, 'r> {
    engine: &'e QueryEngine<'r>,
    config: ServiceConfig,
    intake: Mutex<Intake>,
    /// Signalled on every admission and once when draining starts.
    arrived: Condvar,
    next_ticket: AtomicU64,
    /// Jobs admitted and not yet received back; guarded by a mutex (not
    /// an atomic) so a saturated `submit` can block on `vacancy`.
    in_flight: Mutex<usize>,
    vacancy: Condvar,
    tenants: Vec<TenantQueue>,
}

impl Shared<'_, '_> {
    /// The oldest admitted job, parking the worker while the intake is
    /// empty; `None` once the session drains and the intake is empty.
    fn next_job(&self) -> Option<Pending> {
        let mut intake = self.intake.lock().expect("unpoisoned");
        loop {
            if let Some(pending) = intake.queue.pop_front() {
                return Some(pending);
            }
            if intake.draining {
                return None;
            }
            intake = self.arrived.wait(intake).expect("unpoisoned");
        }
    }
}

/// Submission/completion handle passed to the body closure of
/// [`RoutingService::serve`]. Shareable across threads (`&ServiceHandle`
/// is `Send + Sync`): concurrent submitters and receivers are the
/// intended use.
#[derive(Debug)]
pub struct ServiceHandle<'s, 'e, 'r> {
    shared: &'s Shared<'e, 'r>,
}

impl ServiceHandle<'_, '_, '_> {
    /// Admits `job` for `tenant`, blocking while the in-flight budget
    /// is exhausted. Returns the job's admission [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTenant`] / [`SubmitError::Invalid`]; never
    /// [`SubmitError::Saturated`] (saturation blocks instead — use
    /// [`try_submit`](Self::try_submit) to fail fast).
    pub fn submit(&self, tenant: usize, job: Job) -> Result<Ticket, SubmitError> {
        self.admit(tenant, job, true)
    }

    /// Admits `job` for `tenant` without blocking: fails fast with
    /// [`SubmitError::Saturated`] while the in-flight budget is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`], [`SubmitError::UnknownTenant`], or
    /// [`SubmitError::Invalid`].
    pub fn try_submit(&self, tenant: usize, job: Job) -> Result<Ticket, SubmitError> {
        self.admit(tenant, job, false)
    }

    fn admit(&self, tenant: usize, job: Job, block: bool) -> Result<Ticket, SubmitError> {
        let sh = self.shared;
        let Some(tq) = sh.tenants.get(tenant) else {
            return Err(SubmitError::UnknownTenant(tenant));
        };
        if let Err(e) = sh.engine.router().validate(job.as_ref()) {
            tq.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Invalid(e));
        }
        {
            let mut in_flight = sh.in_flight.lock().expect("unpoisoned");
            while *in_flight >= sh.config.max_in_flight {
                if !block {
                    tq.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitError::Saturated);
                }
                in_flight = sh.vacancy.wait(in_flight).expect("unpoisoned");
            }
            *in_flight += 1;
        }
        let ticket = sh.next_ticket.fetch_add(1, Ordering::Relaxed);
        tq.outstanding.fetch_add(1, Ordering::Release);
        tq.admitted.fetch_add(1, Ordering::Relaxed);
        sh.intake.lock().expect("unpoisoned").queue.push_back(Pending {
            ticket,
            tenant,
            job,
            submitted_at: Instant::now(),
        });
        sh.arrived.notify_one();
        Ok(ticket)
    }

    /// Receives the next completed outcome for `tenant`, blocking until
    /// one arrives. Returns `None` exactly when the tenant has no
    /// outstanding jobs (everything admitted was already received), so
    /// `while let Some(..) = handle.recv(t)` drains a tenant cleanly.
    pub fn recv(&self, tenant: usize) -> Option<(Ticket, JobOutcome)> {
        let tq = self.shared.tenants.get(tenant)?;
        let mut done = tq.done.lock().expect("unpoisoned");
        loop {
            if let Some(out) = done.pop_front() {
                drop(done);
                self.on_received(tq);
                return Some(out);
            }
            if tq.outstanding.load(Ordering::Acquire) == 0 {
                return None;
            }
            done = tq.ready.wait(done).expect("unpoisoned");
        }
    }

    /// Receives the next completed outcome for `tenant` without
    /// blocking; `None` when nothing is ready right now.
    pub fn try_recv(&self, tenant: usize) -> Option<(Ticket, JobOutcome)> {
        let tq = self.shared.tenants.get(tenant)?;
        let out = tq.done.lock().expect("unpoisoned").pop_front()?;
        self.on_received(tq);
        Some(out)
    }

    /// The number of jobs admitted and not yet received back.
    pub fn in_flight(&self) -> usize {
        *self.shared.in_flight.lock().expect("unpoisoned")
    }

    fn on_received(&self, tq: &TenantQueue) {
        tq.outstanding.fetch_sub(1, Ordering::Release);
        let mut in_flight = self.shared.in_flight.lock().expect("unpoisoned");
        *in_flight -= 1;
        drop(in_flight);
        self.shared.vacancy.notify_one();
    }
}

/// Per-worker tallies, merged into [`ServiceStats`] after the join.
#[derive(Debug, Default)]
struct WorkerStats {
    /// Formation latency samples (submission → execution start),
    /// microseconds.
    formation_us: Vec<u64>,
    /// Service latency samples (submission → completion enqueue),
    /// microseconds.
    service_us: Vec<u64>,
}

/// Per-tenant counters of one serve session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs admitted into the intake.
    pub admitted: u64,
    /// Submissions refused (saturation fail-fast or invalid jobs).
    pub rejected: u64,
    /// Outcomes delivered to the tenant's completion queue.
    pub completed: u64,
}

/// Aggregate statistics of one [`RoutingService::serve`] session.
///
/// All timing-derived figures are observational: they vary run to run
/// and never influence job outcomes.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs admitted across all tenants.
    pub admitted: u64,
    /// Submissions refused across all tenants.
    pub rejected: u64,
    /// Outcomes delivered to completion queues across all tenants.
    pub completed: u64,
    /// Job executions; each execution runs one job, so this equals
    /// `completed`.
    pub groups: u64,
    /// Nearest-rank `[p50, p95, p99]` of formation latency (submission
    /// → execution start), microseconds.
    pub formation_latency_us: [u64; 3],
    /// Nearest-rank `[p50, p95, p99]` of service latency (submission →
    /// completion enqueue), microseconds.
    pub service_latency_us: [u64; 3],
    /// Completed jobs per second of session wall time.
    pub queries_per_sec: f64,
    /// Wall time of the whole session (first submit opportunity →
    /// workers drained).
    pub elapsed: Duration,
    /// Per-tenant admitted/rejected/completed counters.
    pub tenants: Vec<TenantCounters>,
}

/// The long-lived streaming front end over a [`QueryEngine`].
///
/// See the [module docs](self) for the data flow and the determinism
/// contract.
#[derive(Debug)]
pub struct RoutingService;

impl RoutingService {
    /// Runs a serve session: spawns the configured workers, hands the
    /// calling thread a [`ServiceHandle`] through `body`, and — once
    /// `body` returns — drains the remaining intake, joins the workers,
    /// and reports the session's [`ServiceStats`] alongside `body`'s
    /// result.
    ///
    /// Outcomes still sitting in completion queues when `body` returns
    /// are dropped with the session (they count as `completed` in the
    /// stats but can no longer be received); drain with
    /// [`recv`](ServiceHandle::recv) before returning to keep every
    /// outcome.
    pub fn serve<T, B>(
        engine: &QueryEngine<'_>,
        config: ServiceConfig,
        body: B,
    ) -> (T, ServiceStats)
    where
        T: Send,
        B: FnOnce(&ServiceHandle<'_, '_, '_>) -> T + Send,
    {
        let workers = build_threads(config.threads);
        let tenants = config.tenants.max(1);
        let max_in_flight = config.max_in_flight.max(1);
        let shared = Shared {
            engine,
            config: ServiceConfig { max_in_flight, ..config },
            intake: Mutex::new(Intake::default()),
            arrived: Condvar::new(),
            next_ticket: AtomicU64::new(0),
            in_flight: Mutex::new(0),
            vacancy: Condvar::new(),
            tenants: (0..tenants).map(|_| TenantQueue::default()).collect(),
        };
        let started = Instant::now();
        // Start draining on the way out of `body` even when it unwinds:
        // otherwise a panicking body would leave the workers parked
        // forever and `thread::scope`'s join would never let the panic
        // propagate.
        struct DrainOnDrop<'a, 'e, 'r>(&'a Shared<'e, 'r>);
        impl Drop for DrainOnDrop<'_, '_, '_> {
            fn drop(&mut self) {
                self.0.intake.lock().unwrap_or_else(PoisonError::into_inner).draining = true;
                self.0.arrived.notify_all();
            }
        }
        let (out, worker_stats) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(|| worker_loop(&shared))).collect();
            let out = {
                let _drain = DrainOnDrop(&shared);
                body(&ServiceHandle { shared: &shared })
            };
            let stats: Vec<WorkerStats> =
                handles.into_iter().map(|h| h.join().expect("service worker panicked")).collect();
            (out, stats)
        });
        let elapsed = started.elapsed();

        let mut stats = ServiceStats { elapsed, ..ServiceStats::default() };
        let mut formation: Vec<u64> = Vec::new();
        let mut service: Vec<u64> = Vec::new();
        for ws in worker_stats {
            formation.extend(ws.formation_us);
            service.extend(ws.service_us);
        }
        stats.groups = formation.len() as u64;
        stats.formation_latency_us = crate::percentiles(formation.into_iter());
        stats.service_latency_us = crate::percentiles(service.into_iter());
        for tq in &shared.tenants {
            let counters = TenantCounters {
                admitted: tq.admitted.load(Ordering::Relaxed),
                rejected: tq.rejected.load(Ordering::Relaxed),
                completed: tq.completed.load(Ordering::Relaxed),
            };
            stats.admitted += counters.admitted;
            stats.rejected += counters.rejected;
            stats.completed += counters.completed;
            stats.tenants.push(counters);
        }
        stats.queries_per_sec = if elapsed.as_secs_f64() > 0.0 {
            stats.completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        (out, stats)
    }
}

/// One worker's wait → execute loop, until the session drains.
fn worker_loop(sh: &Shared<'_, '_>) -> WorkerStats {
    let mut stats = WorkerStats::default();
    while let Some(pending) = sh.next_job() {
        execute(sh, pending, &mut stats);
    }
    stats
}

/// Executes one job and streams its outcome to its tenant's completion
/// queue.
fn execute(sh: &Shared<'_, '_>, pending: Pending, stats: &mut WorkerStats) {
    stats.formation_us.push(pending.submitted_at.elapsed().as_micros() as u64);
    let outcome = sh.engine.run_validated(pending.job.as_ref());
    stats.service_us.push(pending.submitted_at.elapsed().as_micros() as u64);
    let tq = &sh.tenants[pending.tenant];
    tq.done.lock().expect("unpoisoned").push_back((pending.ticket, outcome));
    tq.completed.fetch_add(1, Ordering::Relaxed);
    tq.ready.notify_all();
}

/// One arrival of an [`ArrivalSchedule`]: a job offered to `tenant` at
/// offset `at` from the replay start.
#[derive(Debug, Clone)]
pub struct ArrivalEvent {
    /// Offset from the replay start at which the job arrives.
    pub at: Duration,
    /// The tenant submitting it.
    pub tenant: usize,
    /// The job itself.
    pub job: Job,
}

/// A fixed, seeded arrival schedule — the replayable workload type of
/// the service, mirroring [`ChurnDriver`](crate::churn::ChurnDriver)'s
/// seeded-schedule design: the same constructor arguments always
/// produce the same events, so a schedule pins down a workload exactly
/// and any two replays route the same jobs.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    /// The arrivals, ascending by offset.
    pub events: Vec<ArrivalEvent>,
}

impl ArrivalSchedule {
    /// A seeded open-loop schedule: `jobs` full random permutations on
    /// `n` vertices, offered at a constant `rate` jobs/second spread
    /// across `tenants` round-robin. Job seeds derive from `seed`, so
    /// the workload is a pure function of the arguments.
    pub fn permutations(n: usize, jobs: usize, tenants: usize, rate: f64, seed: u64) -> Self {
        let tenants = tenants.max(1);
        let gap = if rate > 0.0 { Duration::from_secs_f64(1.0 / rate) } else { Duration::ZERO };
        let events = (0..jobs)
            .map(|i| ArrivalEvent {
                at: gap.saturating_mul(i as u32),
                tenant: i % tenants,
                job: Job::Route(crate::token::RoutingInstance::permutation(
                    n,
                    seed.wrapping_add(i as u64),
                )),
            })
            .collect();
        ArrivalSchedule { events }
    }

    /// The schedule's jobs in event order — the closed-batch reference
    /// workload for the determinism contract
    /// (`QueryEngine::run(&schedule.jobs())`).
    pub fn jobs(&self) -> Vec<Job> {
        self.events.iter().map(|e| e.job.clone()).collect()
    }

    /// Replays the schedule against a running service and collects
    /// every outcome: submits each event in order (sleeping until its
    /// offset when `realtime`; back to back otherwise), interleaves
    /// completion draining, then drains the tail. Returns each event's
    /// outcome, indexed like [`events`](Self::events).
    ///
    /// Submission is lossless: when the service is saturated the replay
    /// drains completions until the event is admitted, so every event
    /// routes exactly once (open-loop arrival, closed-loop admission).
    pub fn drive(&self, handle: &ServiceHandle<'_, '_, '_>, realtime: bool) -> Vec<JobOutcome> {
        let tenants = self.events.iter().map(|e| e.tenant).max().map_or(1, |t| t + 1);
        let mut by_ticket: Vec<(Ticket, usize)> = Vec::with_capacity(self.events.len());
        let mut outcomes: Vec<Option<JobOutcome>> = (0..self.events.len()).map(|_| None).collect();
        let mut received = 0usize;
        let started = Instant::now();
        for (i, ev) in self.events.iter().enumerate() {
            if realtime {
                while started.elapsed() < ev.at {
                    // Drain while waiting out the arrival gap.
                    match (0..tenants).find_map(|t| handle.try_recv(t)) {
                        Some((ticket, out)) => {
                            deliver(&mut by_ticket, &mut outcomes, ticket, out);
                            received += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            }
            let ticket = loop {
                match handle.try_submit(ev.tenant, ev.job.clone()) {
                    Ok(ticket) => break ticket,
                    Err(SubmitError::Saturated) => {
                        if let Some((ticket, out)) = (0..tenants).find_map(|t| handle.try_recv(t)) {
                            deliver(&mut by_ticket, &mut outcomes, ticket, out);
                            received += 1;
                        }
                    }
                    Err(e) => panic!("schedule job rejected: {e}"),
                }
            };
            by_ticket.push((ticket, i));
        }
        while received < self.events.len() {
            for t in 0..tenants {
                while let Some((ticket, out)) = handle.try_recv(t) {
                    deliver(&mut by_ticket, &mut outcomes, ticket, out);
                    received += 1;
                }
            }
            if received < self.events.len() {
                if let Some((ticket, out)) = (0..tenants).find_map(|t| handle.recv(t)) {
                    deliver(&mut by_ticket, &mut outcomes, ticket, out);
                    received += 1;
                }
            }
        }
        outcomes.into_iter().map(|o| o.expect("every event completed")).collect()
    }
}

/// Files a received outcome under its event index.
fn deliver(
    by_ticket: &mut [(Ticket, usize)],
    outcomes: &mut [Option<JobOutcome>],
    ticket: Ticket,
    out: JobOutcome,
) {
    let &(_, idx) = by_ticket
        .iter()
        .find(|&&(t, _)| t == ticket)
        .expect("outcome ticket was issued by this replay");
    debug_assert!(outcomes[idx].is_none(), "outcome delivered twice");
    outcomes[idx] = Some(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use crate::token::RoutingInstance;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn serve_routes_and_reports() {
        let r = router(256, 1);
        let engine = QueryEngine::new(&r);
        let config = ServiceConfig { threads: Some(1), tenants: 2, ..ServiceConfig::default() };
        let (got, stats) = RoutingService::serve(&engine, config, |h| {
            let mut got = 0;
            for seed in 0..6u64 {
                h.submit((seed % 2) as usize, Job::Route(RoutingInstance::permutation(256, seed)))
                    .expect("admitted");
            }
            for tenant in 0..2 {
                while let Some((_, out)) = h.recv(tenant) {
                    assert!(out.rounds() > 0);
                    got += 1;
                }
            }
            got
        });
        assert_eq!(got, 6);
        assert_eq!(stats.admitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.tenants.len(), 2);
        assert_eq!(stats.tenants[0].admitted, 3);
        assert_eq!(stats.tenants[1].admitted, 3);
        assert_eq!(stats.groups, 6, "one execution per job");
        assert!(stats.queries_per_sec > 0.0);
    }

    #[test]
    fn unknown_tenant_and_invalid_job_are_rejected() {
        let r = router(128, 2);
        let engine = QueryEngine::new(&r);
        let (_, stats) = RoutingService::serve(&engine, ServiceConfig::default(), |h| {
            let bad_tenant =
                h.submit(7, Job::Route(RoutingInstance::permutation(128, 1))).unwrap_err();
            assert_eq!(bad_tenant, SubmitError::UnknownTenant(7));
            let bad_job = h
                .submit(0, Job::Route(RoutingInstance::from_triples(&[(0, 9999, 0)])))
                .unwrap_err();
            assert!(matches!(bad_job, SubmitError::Invalid(_)));
        });
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected, 1, "invalid job counts; unknown tenant has no queue");
    }

    #[test]
    #[should_panic(expected = "body panicked")]
    fn body_panic_propagates_instead_of_hanging_the_workers() {
        let r = router(128, 3);
        let engine = QueryEngine::new(&r);
        // Without the drain-on-unwind guard this would deadlock: the
        // workers would stay parked and the scope join would never let
        // the panic out.
        RoutingService::serve(&engine, ServiceConfig::default(), |h| {
            h.submit(0, Job::Route(RoutingInstance::permutation(128, 1))).expect("admitted");
            panic!("body panicked");
        });
    }

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let a = ArrivalSchedule::permutations(64, 5, 2, 1000.0, 9);
        let b = ArrivalSchedule::permutations(64, 5, 2, 1000.0, 9);
        assert_eq!(a.events.len(), 5);
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.tenant, y.tenant);
            let (Job::Route(ix), Job::Route(iy)) = (&x.job, &y.job) else {
                panic!("permutation schedules are route jobs");
            };
            assert_eq!(format!("{ix:?}"), format!("{iy:?}"));
        }
    }
}
