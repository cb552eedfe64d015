//! The batched multi-query engine: shard many routing/sorting
//! instances across a deterministic worker pool over one preprocessed
//! [`Router`].
//!
//! The paper's headline is that one deterministic preprocessing pass
//! amortizes across many queries (Theorem 1.1); this module makes the
//! amortization physical. A [`QueryEngine`] accepts a batch of jobs
//! ([`Job::Route`] / [`Job::Sort`]) and executes each job alone, as
//! the paper answers each query, on the same
//! [`ThreadBudget`]/[`run_tasks`] worker pool the staged preprocessing
//! build uses, with two cross-query savings:
//!
//! * **Pooled scratch** — per-query mutable state (the dense load
//!   counters, counting-sort buckets, dispersal state, and
//!   `FlatMoveCost` accumulators of `exec::Scratch`) is checked out of
//!   a `ScratchPool` and returned after each job, so a batch of `B`
//!   queries allocates `O(threads)` scratches instead of `O(B)`. A
//!   scratch borrows the engine's router and is sized for it once, when
//!   the pool builds it; a checkout hands it out as it was returned.
//! * **Dummy-dispersal amortization** — each scratch carries the
//!   per-worker dummy-dispersal cache: the Task 3 dummy flock (2L
//!   tokens per vertex, §6.3) is a pure function of `(node, L)`, so
//!   its dispersal, final grouping, and round charges are computed
//!   once per key and replayed for every subsequent query.
//!
//! Both are accelerators only: every job is a pure function of its
//! instance and the router, each job charges its own [`RoundLedger`],
//! the batch merges them in canonical job order, and the per-job
//! outcomes are byte-identical to individual
//! [`Router::route`]/[`Router::sort`] calls at every thread count and
//! batch order, whichever pooled scratch serves a job
//! (`tests/batch_determinism.rs`, `tests/property.rs`).
//!
//! # Example
//!
//! ```
//! use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
//! use expander_graphs::generators;
//!
//! let g = generators::random_regular(256, 4, 7).expect("generator");
//! let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
//! let engine = QueryEngine::new(&router);
//! let batch: Vec<RoutingInstance> =
//!     (0..8).map(|s| RoutingInstance::permutation(256, s)).collect();
//! let (outcomes, stats) = engine.route_batch(&batch).expect("valid instances");
//! assert!(outcomes.iter().all(|o| o.fully_delivered()));
//! assert_eq!(stats.jobs, 8);
//! ```

use crate::exec::Scratch;
use crate::router::Router;
use crate::token::{
    InstanceError, QueryStats, RoutingInstance, RoutingOutcome, SortInstance, SortOutcome,
};
use congest_sim::parallel::{build_threads, run_tasks, ThreadBudget};
use congest_sim::RoundLedger;
use std::sync::Mutex;

/// One owned job of a batch.
#[derive(Debug, Clone)]
pub enum Job {
    /// A Task 1 routing instance (Definition 4.1).
    Route(RoutingInstance),
    /// An expander-sorting instance (Theorem 5.6).
    Sort(SortInstance),
}

impl Job {
    /// Borrows the job as a [`JobRef`].
    pub fn as_ref(&self) -> JobRef<'_> {
        match self {
            Job::Route(inst) => JobRef::Route(inst),
            Job::Sort(inst) => JobRef::Sort(inst),
        }
    }
}

impl From<RoutingInstance> for Job {
    fn from(inst: RoutingInstance) -> Job {
        Job::Route(inst)
    }
}

impl From<SortInstance> for Job {
    fn from(inst: SortInstance) -> Job {
        Job::Sort(inst)
    }
}

/// One borrowed job of a batch (clone-free submission).
#[derive(Debug, Clone, Copy)]
pub enum JobRef<'a> {
    /// A Task 1 routing instance (Definition 4.1).
    Route(&'a RoutingInstance),
    /// An expander-sorting instance (Theorem 5.6).
    Sort(&'a SortInstance),
}

/// The outcome of one batch job, aligned with the submitted jobs.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Outcome of a [`Job::Route`].
    Route(RoutingOutcome),
    /// Outcome of a [`Job::Sort`].
    Sort(SortOutcome),
}

impl JobOutcome {
    /// The job's charged-round ledger.
    pub fn ledger(&self) -> &RoundLedger {
        match self {
            JobOutcome::Route(out) => &out.ledger,
            JobOutcome::Sort(out) => &out.ledger,
        }
    }

    /// The job's execution statistics.
    pub fn stats(&self) -> &QueryStats {
        match self {
            JobOutcome::Route(out) => &out.stats,
            JobOutcome::Sort(out) => &out.stats,
        }
    }

    /// Total charged rounds of the job.
    pub fn rounds(&self) -> u64 {
        self.ledger().total()
    }

    /// The routing outcome, if this was a route job.
    pub fn into_route(self) -> Option<RoutingOutcome> {
        match self {
            JobOutcome::Route(out) => Some(out),
            JobOutcome::Sort(_) => None,
        }
    }

    /// The sorting outcome, if this was a sort job.
    pub fn into_sort(self) -> Option<SortOutcome> {
        match self {
            JobOutcome::Sort(out) => Some(out),
            JobOutcome::Route(_) => None,
        }
    }
}

/// Batch-level aggregate over the per-job outcomes, computed in
/// canonical job order.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Every job's ledger merged in canonical job order.
    pub merged: RoundLedger,
    /// Sum of per-job charged rounds (equals `merged.total()`).
    pub total_rounds: u64,
    /// The worst single job's charged rounds.
    pub max_rounds: u64,
    /// Element-wise aggregate of the per-job [`QueryStats`] (sums for
    /// counters, element-wise maxima for the load trace and the
    /// congestion/dilation observations).
    pub query: QueryStats,
}

impl BatchStats {
    fn collect(outcomes: &[JobOutcome]) -> BatchStats {
        let mut stats = BatchStats { jobs: outcomes.len(), ..BatchStats::default() };
        for out in outcomes {
            stats.merged.merge(out.ledger());
            stats.max_rounds = stats.max_rounds.max(out.rounds());
            stats.query.absorb(out.stats());
        }
        stats.total_rounds = stats.merged.total();
        stats
    }

    /// The worst per-edge congestion of any job's walked movement legs
    /// (ingress, dispersal, `M*` and egress). The merge fallback's legs
    /// are charged by a bound instead and counted in
    /// [`QueryStats::fallback_tokens`].
    pub fn max_congestion(&self) -> u64 {
        self.query.max_congestion
    }

    /// The worst path dilation of any job's walked movement legs (the
    /// legs [`max_congestion`](Self::max_congestion) covers).
    pub fn max_dilation(&self) -> u64 {
        self.query.max_dilation
    }
}

/// Outcome of a whole batch: per-job outcomes in submission order plus
/// the batch aggregate.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job outcomes, aligned with the submitted jobs.
    pub outcomes: Vec<JobOutcome>,
    /// The batch-level aggregate.
    pub stats: BatchStats,
}

/// A checkout/return pool of query scratches over one router.
///
/// Workers check a scratch out per job and return it afterwards, so a
/// batch of `B` jobs materializes at most `max(live workers)` scratches
/// — `O(threads)`, not `O(B)` — and each scratch's dummy-dispersal
/// cache warms across all the jobs that pass through it. A scratch
/// that returns above the engine's cap is dropped instead of pooled.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool<'r> {
    slots: Mutex<Vec<Scratch<'r>>>,
}

impl<'r> ScratchPool<'r> {
    /// Checks a scratch out, or builds a fresh one for `r` if the pool
    /// is empty. A returned scratch already serves `r`, so it is handed
    /// out as it was returned; `exec::run_single` resets its per-job
    /// accumulators.
    fn checkout(&self, r: &'r Router) -> Scratch<'r> {
        self.slots.lock().expect("unpoisoned").pop().unwrap_or_else(|| Scratch::new(r))
    }

    /// Returns a scratch to the pool if its retained footprint is at or
    /// under `cap_bytes`, and drops it otherwise: the next checkout then
    /// builds a fresh scratch, with an empty dummy cache and buffers at
    /// the router's dimensions.
    fn restore(&self, scratch: Scratch<'r>, cap_bytes: usize) {
        if scratch.footprint_bytes() <= cap_bytes {
            self.slots.lock().expect("unpoisoned").push(scratch);
        }
    }
}

/// The batched multi-query engine over one preprocessed [`Router`].
///
/// See the [module docs](self) for the execution model. Engines are
/// cheap to construct but long-lived ones are faster: the scratch pool
/// and the dummy caches warm across every batch (and every
/// [`route_one`](QueryEngine::route_one)/
/// [`sort_one`](QueryEngine::sort_one) call) served by the same engine.
///
/// # Example
///
/// Build a router, submit a mixed route/sort batch, read the
/// [`BatchStats`] aggregate:
///
/// ```
/// use expander_core::{Job, QueryEngine, Router, RouterConfig, RoutingInstance, SortInstance};
/// use expander_graphs::generators;
///
/// let g = generators::random_regular(256, 4, 7).expect("generator");
/// let router = Router::preprocess(&g, RouterConfig::default()).expect("expander");
/// let engine = QueryEngine::new(&router);
/// let jobs = vec![
///     Job::Route(RoutingInstance::permutation(256, 1)),
///     Job::Sort(SortInstance::random(256, 2, 2)),
///     Job::Route(RoutingInstance::partial_permutation(256, 64, 3)),
/// ];
/// let batch = engine.run(&jobs).expect("valid jobs");
/// assert_eq!(batch.stats.jobs, 3);
/// assert_eq!(batch.stats.total_rounds, batch.stats.merged.total());
/// assert!(batch.stats.max_congestion() > 0 && batch.stats.max_dilation() > 0);
/// assert_eq!(batch.outcomes.len(), jobs.len());
/// ```
#[derive(Debug)]
pub struct QueryEngine<'r> {
    router: &'r Router,
    threads: Option<usize>,
    pool: ScratchPool<'r>,
    /// Retained bytes above which a returning scratch is dropped
    /// ([`DEFAULT_SCRATCH_CAP_BYTES`] outside the tests).
    scratch_cap: usize,
}

/// Per-scratch retained-bytes cap (64 MiB). A scratch that returns to
/// the pool above the cap is dropped, so a long-lived engine's
/// footprint tracks its current workload instead of its peak one; a
/// warm scratch stays well under it and keeps its dummy cache between
/// batches.
const DEFAULT_SCRATCH_CAP_BYTES: usize = 64 << 20;

impl<'r> QueryEngine<'r> {
    /// An engine over `router` with the default worker count
    /// (`EXPANDER_BUILD_THREADS`, then `available_parallelism`).
    pub fn new(router: &'r Router) -> Self {
        QueryEngine {
            router,
            threads: None,
            pool: ScratchPool::default(),
            scratch_cap: DEFAULT_SCRATCH_CAP_BYTES,
        }
    }

    /// Overrides the worker-thread count (`None` restores the
    /// environment-driven default; the count is clamped to ≥ 1).
    /// Outputs are byte-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Does nothing: every job runs alone on a pooled scratch, so there
    /// is no fusion width to set. It remains only so that existing
    /// callers still compile.
    #[must_use]
    pub fn with_fusion_width(self, _width: Option<usize>) -> Self {
        self
    }

    /// The underlying preprocessed router.
    pub fn router(&self) -> &'r Router {
        self.router
    }

    /// Executes a batch of owned jobs. See [`run_refs`](Self::run_refs).
    ///
    /// # Errors
    ///
    /// Returns the first invalid job's error (in job order) before any
    /// job executes.
    pub fn run(&self, jobs: &[Job]) -> Result<BatchOutcome, InstanceError> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::as_ref).collect();
        self.run_refs(&refs)
    }

    /// Executes a batch of borrowed jobs sharded across the worker
    /// pool: every job is validated up front, then workers execute the
    /// jobs one at a time against pooled scratches, each job charging
    /// its own ledger; outcomes come back in submission order and the
    /// batch aggregate merges the per-job ledgers in that same
    /// canonical order.
    ///
    /// # Errors
    ///
    /// Returns the first invalid job's error (in job order) before any
    /// job executes.
    pub fn run_refs(&self, jobs: &[JobRef<'_>]) -> Result<BatchOutcome, InstanceError> {
        for &job in jobs {
            self.router.validate(job)?;
        }
        let budget = ThreadBudget::new(build_threads(self.threads));
        let outcomes = run_tasks(&budget, jobs.len(), |i| self.run_validated(jobs[i]));
        let stats = BatchStats::collect(&outcomes);
        Ok(BatchOutcome { outcomes, stats })
    }

    /// The single checkout → execute → restore protocol behind every
    /// engine execution path and every
    /// [`RoutingService`](crate::service::RoutingService) job. Each job
    /// charges a private ledger; batch aggregates merge them in
    /// canonical job order afterwards.
    pub(crate) fn run_validated(&self, job: JobRef<'_>) -> JobOutcome {
        let mut scratch = self.pool.checkout(self.router);
        let out = crate::exec::run_single(&mut scratch, job);
        self.pool.restore(scratch, self.scratch_cap);
        out
    }

    /// Routes a batch of Task 1 instances, returning the per-instance
    /// outcomes (submission order) and the batch aggregate.
    ///
    /// # Errors
    ///
    /// Returns the first invalid instance's error before any executes.
    pub fn route_batch(
        &self,
        insts: &[RoutingInstance],
    ) -> Result<(Vec<RoutingOutcome>, BatchStats), InstanceError> {
        let refs: Vec<JobRef<'_>> = insts.iter().map(JobRef::Route).collect();
        let batch = self.run_refs(&refs)?;
        let outs = batch
            .outcomes
            .into_iter()
            .map(|o| o.into_route().expect("route job yields route outcome"))
            .collect();
        Ok((outs, batch.stats))
    }

    /// Sorts a batch of instances, returning the per-instance outcomes
    /// (submission order) and the batch aggregate.
    ///
    /// # Errors
    ///
    /// Returns the first invalid instance's error before any executes.
    pub fn sort_batch(
        &self,
        insts: &[SortInstance],
    ) -> Result<(Vec<SortOutcome>, BatchStats), InstanceError> {
        let refs: Vec<JobRef<'_>> = insts.iter().map(JobRef::Sort).collect();
        let batch = self.run_refs(&refs)?;
        let outs = batch
            .outcomes
            .into_iter()
            .map(|o| o.into_sort().expect("sort job yields sort outcome"))
            .collect();
        Ok((outs, batch.stats))
    }

    /// Routes a single instance through the pooled scratch — for
    /// callers that interleave queries with local work but still want
    /// the cross-query amortization.
    ///
    /// # Errors
    ///
    /// Returns an error if a token references a vertex outside the
    /// graph.
    pub fn route_one(&self, inst: &RoutingInstance) -> Result<RoutingOutcome, InstanceError> {
        let job = JobRef::Route(inst);
        self.router.validate(job)?;
        Ok(self.run_validated(job).into_route().expect("route job yields route outcome"))
    }

    /// Sorts a single instance through the pooled scratch.
    ///
    /// # Errors
    ///
    /// Returns an error if a token references a vertex outside the
    /// graph.
    pub fn sort_one(&self, inst: &SortInstance) -> Result<SortOutcome, InstanceError> {
        let job = JobRef::Sort(inst);
        self.router.validate(job)?;
        Ok(self.run_validated(job).into_sort().expect("sort job yields sort outcome"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn batch_outcomes_match_individual_queries() {
        let r = router(256, 1);
        let engine = QueryEngine::new(&r).with_threads(Some(1));
        let insts: Vec<RoutingInstance> =
            (0..6).map(|s| RoutingInstance::permutation(256, s)).collect();
        let (outs, stats) = engine.route_batch(&insts).expect("valid");
        assert_eq!(stats.jobs, 6);
        for (inst, out) in insts.iter().zip(&outs) {
            let solo = r.route(inst).expect("valid");
            assert!(out.fully_delivered());
            assert_eq!(out.positions, solo.positions);
            assert_eq!(out.ledger, solo.ledger);
            assert_eq!(format!("{:?}", out.stats), format!("{:?}", solo.stats));
        }
        let mut merged = RoundLedger::new();
        for out in &outs {
            merged.merge(&out.ledger);
        }
        assert_eq!(stats.merged, merged);
        assert_eq!(stats.total_rounds, merged.total());
    }

    #[test]
    fn over_cap_scratches_are_dropped_without_changing_outputs() {
        let r = router(512, 3);
        let jobs = dense_jobs(512);
        let base = QueryEngine::new(&r).with_threads(Some(1)).run(&jobs).expect("valid");
        assert!(base.stats.query.fallback_tokens > 0, "the batch takes fallback legs");

        // Cap of zero: every restore exceeds the cap, so each scratch is
        // dropped and the pool ends empty. The next batch runs each job
        // on a fresh scratch. Outputs and ledgers stay byte-identical:
        // the dummy caches are accelerators only.
        let mut capped = QueryEngine::new(&r).with_threads(Some(1));
        capped.scratch_cap = 0;
        let pooled_count = || capped.pool.slots.lock().expect("unpoisoned").len();
        let first = capped.run(&jobs).expect("valid");
        assert_eq!(pooled_count(), 0, "over-cap scratches are dropped");
        let fresh = capped.run(&jobs).expect("valid");
        assert_eq!(pooled_count(), 0, "over-cap scratches are dropped");
        for batch in [&first, &fresh] {
            assert_same_outputs(&base, batch);
        }
    }

    #[test]
    fn mixed_jobs_preserve_submission_order() {
        let r = router(256, 2);
        let engine = QueryEngine::new(&r);
        let route = RoutingInstance::permutation(256, 3);
        let sort = SortInstance::random(256, 1, 4);
        let jobs = vec![Job::Sort(sort.clone()), Job::Route(route.clone()), Job::Sort(sort)];
        let batch = engine.run(&jobs).expect("valid");
        assert_eq!(batch.outcomes.len(), 3);
        assert!(matches!(batch.outcomes[0], JobOutcome::Sort(_)));
        assert!(matches!(batch.outcomes[1], JobOutcome::Route(_)));
        assert!(matches!(batch.outcomes[2], JobOutcome::Sort(_)));
        assert!(batch.stats.max_rounds <= batch.stats.total_rounds);
        assert!(batch.stats.max_congestion() > 0);
        assert!(batch.stats.max_dilation() > 0);
    }

    /// Every observable byte of one job outcome (positions included).
    fn outcome_bytes(out: &JobOutcome) -> String {
        match out {
            JobOutcome::Route(o) => format!("route|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
            JobOutcome::Sort(o) => format!("sort|{:?}|{:?}|{}", o.positions, o.stats, o.ledger),
        }
    }

    /// Asserts two runs of one batch agree byte for byte.
    fn assert_same_outputs(base: &BatchOutcome, batch: &BatchOutcome) {
        assert_eq!(base.outcomes.len(), batch.outcomes.len());
        for (i, (a, b)) in base.outcomes.iter().zip(&batch.outcomes).enumerate() {
            assert_eq!(outcome_bytes(a), outcome_bytes(b), "job {i} differs");
        }
        assert_eq!(base.stats.merged, batch.stats.merged);
    }

    /// Dense permutations, whose merges leave real tokens without
    /// dummies, so the batch takes fallback legs.
    fn dense_jobs(n: usize) -> Vec<Job> {
        (0..8).map(|s| Job::Route(RoutingInstance::permutation(n, 100 + s))).collect()
    }

    /// The pooled scratch of a single-worker engine.
    fn pooled<'r, T>(engine: &QueryEngine<'r>, read: impl Fn(&Scratch<'r>) -> T) -> T {
        let slots = engine.pool.slots.lock().expect("unpoisoned");
        assert_eq!(slots.len(), 1, "single worker returns one pooled scratch");
        read(&slots[0])
    }

    #[test]
    fn pooled_scratch_keeps_its_dummy_cache_between_batches() {
        // A single-worker engine pools its one scratch after each batch:
        // the scratch keeps its dummy cache, the next batch hits it, and
        // every output is byte-identical to the first batch's.
        let r = router(1024, 5);
        let jobs = dense_jobs(1024);
        let engine = QueryEngine::new(&r).with_threads(Some(1));
        let first = engine.run(&jobs).expect("valid");
        let (entries, hits) = pooled(&engine, Scratch::dummy_probe);
        let second = engine.run(&jobs).expect("valid");
        assert!(entries > 0, "the dummy cache survives the restore");
        let (.., next_hits) = pooled(&engine, Scratch::dummy_probe);
        assert!(next_hits > hits, "the next batch hits the dummy cache");
        assert_same_outputs(&first, &second);
    }

    #[test]
    fn empty_instances_are_fine_in_batches() {
        let r = router(128, 10);
        let engine = QueryEngine::new(&r);
        let jobs = vec![
            Job::Route(RoutingInstance::default()),
            Job::Sort(SortInstance::default()),
            Job::Route(RoutingInstance::permutation(128, 4)),
        ];
        let batch = engine.run(&jobs).expect("valid");
        assert_eq!(batch.outcomes.len(), 3);
        assert_eq!(batch.outcomes[0].rounds(), 0, "empty route charges nothing");
        assert_eq!(batch.outcomes[1].rounds(), 0, "empty sort charges nothing");
        assert!(batch.outcomes[2].rounds() > 0);
    }

    #[test]
    fn invalid_job_fails_before_execution() {
        let r = router(128, 3);
        let engine = QueryEngine::new(&r);
        let good = RoutingInstance::permutation(128, 1);
        let bad = RoutingInstance::from_triples(&[(0, 9999, 0)]);
        assert!(engine.route_batch(&[good, bad]).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let r = router(128, 4);
        let engine = QueryEngine::new(&r);
        let batch = engine.run(&[]).expect("valid");
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.stats.jobs, 0);
        assert_eq!(batch.stats.total_rounds, 0);
    }

    #[test]
    fn single_query_helpers_match_router_calls() {
        let r = router(256, 5);
        let engine = QueryEngine::new(&r);
        let inst = RoutingInstance::permutation(256, 6);
        let a = engine.route_one(&inst).expect("valid");
        let b = r.route(&inst).expect("valid");
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.ledger, b.ledger);
        let sinst = SortInstance::random(256, 2, 7);
        let sa = engine.sort_one(&sinst).expect("valid");
        let sb = r.sort(&sinst).expect("valid");
        assert_eq!(sa.positions, sb.positions);
        assert_eq!(sa.ledger, sb.ledger);
    }
}
