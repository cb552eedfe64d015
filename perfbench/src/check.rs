//! Outcome checks. Every operation the benchmark issues is counted as
//! attempted; one that is refused, loses its outcome, leaves a token
//! undelivered, or disagrees with its reference is counted as failed.

use expander_core::{ChurnOutcome, Job, JobOutcome, RoutingInstance, RoutingOutcome};

/// Attempted/failed operation counts of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every token of `inst` sits at its destination.
pub fn route_ok(inst: &RoutingInstance, out: &RoutingOutcome) -> bool {
    out.positions.len() == inst.tokens.len()
        && inst.tokens.iter().zip(&out.positions).all(|(t, &p)| t.dst == p)
}

/// `out` answers `job` correctly: a route delivers every token, a sort
/// leaves keys ordered by vertex id within the instance's load.
pub fn job_ok(n: usize, job: &Job, out: &JobOutcome) -> bool {
    match (job, out) {
        (Job::Route(inst), JobOutcome::Route(o)) => route_ok(inst, o),
        (Job::Sort(inst), JobOutcome::Sort(o)) => {
            o.positions.len() == inst.tokens.len() && o.is_sorted(inst, n, inst.load(n))
        }
        _ => false,
    }
}

/// Two outcomes agree on final positions and on the charged-round
/// ledger (every phase and the total).
pub fn same_outcome(a: &JobOutcome, b: &JobOutcome) -> bool {
    let positions = match (a, b) {
        (JobOutcome::Route(x), JobOutcome::Route(y)) => x.positions == y.positions,
        (JobOutcome::Sort(x), JobOutcome::Sort(y)) => x.positions == y.positions,
        _ => false,
    };
    positions && a.ledger() == b.ledger()
}

/// A churn outcome passes the route-or-report check and reports no
/// undeliverable token (the benchmark's rewires keep the graph an
/// expander, so every token must arrive).
pub fn churn_ok(inst: &RoutingInstance, out: &ChurnOutcome) -> bool {
    out.outcome.verify(inst).is_empty() && out.outcome.fully_delivered()
}
