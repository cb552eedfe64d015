//! Deterministic parallel execution of independent build tasks.
//!
//! The preprocessing pipeline (hierarchy construction, shuffler
//! builds, embedding flattening) decomposes into *independent* tasks:
//! per-part probes inside a cut-matching iteration, sibling subtrees of
//! the recursion, per-node shufflers. Each task is a pure function of
//! its inputs, so executing tasks on worker threads and collecting the
//! results *in canonical task order* yields byte-identical output
//! regardless of thread count. Round charges follow the same
//! discipline: each task charges a private [`RoundLedger`], and the
//! caller merges them in task order ([`RoundLedger::merge`]).
//!
//! Thread-count resolution is centralized in [`build_threads`]: an
//! explicit knob wins, then the `EXPANDER_BUILD_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. A count of 1
//! makes every helper below run its plain sequential path.
//!
//! Nested fan-out (a subtree task that itself fans out over its own
//! children) is throttled by a shared [`ThreadBudget`]: a pool of
//! `threads - 1` helper permits that nested calls claim and release, so
//! the total number of live worker threads stays bounded by the knob
//! instead of growing with recursion depth.
//!
//! [`RoundLedger`]: crate::RoundLedger
//! [`RoundLedger::merge`]: crate::RoundLedger::merge

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the build thread count: `explicit` (clamped to ≥ 1) if
/// given, else the `EXPANDER_BUILD_THREADS` environment variable
/// (also clamped to ≥ 1; non-numeric values are ignored), else
/// [`std::thread::available_parallelism`] (1 when unknown).
pub fn build_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Ok(raw) = std::env::var("EXPANDER_BUILD_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            return t.max(1);
        }
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// A shared pool of helper-thread permits for nested parallel stages.
///
/// Holds `threads - 1` permits: the calling thread always participates
/// in a stage, so a budget built from `threads = 1` grants nothing and
/// every stage runs sequentially on the caller.
#[derive(Debug)]
pub struct ThreadBudget {
    spare: AtomicUsize,
}

impl ThreadBudget {
    /// A budget for `threads` total workers (`threads - 1` permits).
    pub fn new(threads: usize) -> Self {
        ThreadBudget { spare: AtomicUsize::new(threads.saturating_sub(1)) }
    }

    /// Claims up to `want` helper permits, returning how many were
    /// granted (possibly 0). Non-blocking.
    pub fn claim(&self, want: usize) -> usize {
        let mut granted = 0;
        let _ = self.spare.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            granted = cur.min(want);
            Some(cur - granted)
        });
        granted
    }

    /// Returns `n` previously claimed permits to the pool.
    pub fn release(&self, n: usize) {
        self.spare.fetch_add(n, Ordering::AcqRel);
    }
}

/// Runs `f(0), f(1), …, f(n_tasks - 1)` and returns the results in
/// task order.
///
/// Tasks execute on the calling thread plus however many helper
/// threads `budget` grants (zero granted, zero or one task, or a
/// single-thread budget all mean the plain sequential loop). Each task
/// must be a pure function of its index for the output to be
/// thread-count independent — which every caller in the build pipeline
/// guarantees.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn run_tasks<T, F>(budget: &ThreadBudget, n_tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n_tasks <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let helpers = budget.claim(n_tasks - 1);
    if helpers == 0 {
        return (0..n_tasks).map(f).collect();
    }
    // Return the permits even when a task panics and unwinds past the
    // scope, so a caught panic cannot shrink the budget for good.
    struct Claimed<'b> {
        budget: &'b ThreadBudget,
        n: usize,
    }
    impl Drop for Claimed<'_> {
        fn drop(&mut self) {
            self.budget.release(self.n);
        }
    }
    let _claimed = Claimed { budget, n: helpers };
    let next = AtomicUsize::new(0);
    let work = || {
        let mut got: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            got.push((i, f(i)));
        }
        got
    };
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
        let mut all = vec![work()];
        for h in handles {
            all.push(h.join().expect("parallel build task panicked"));
        }
        all
    });
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    for bucket in buckets {
        for (i, t) in bucket {
            slots[i] = Some(t);
        }
    }
    slots.into_iter().map(|s| s.expect("every task index executed")).collect()
}

/// Like [`run_tasks`] but consumes `items`, passing each by value to
/// `f` along with its index; results come back in item order.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn map_tasks<I, T, F>(budget: &ThreadBudget, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    run_tasks(budget, slots.len(), |i| {
        let item = slots[i].lock().expect("unpoisoned").take().expect("each item taken once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_budget_runs_in_order() {
        let budget = ThreadBudget::new(1);
        let order = Mutex::new(Vec::new());
        let out = run_tasks(&budget, 5, |i| {
            order.lock().expect("unpoisoned").push(i);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        assert_eq!(*order.lock().expect("unpoisoned"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_results_arrive_in_task_order() {
        let budget = ThreadBudget::new(4);
        let out = run_tasks(&budget, 64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        // Permits were returned.
        assert_eq!(budget.claim(usize::MAX), 3);
    }

    #[test]
    fn map_tasks_consumes_items_by_value() {
        let budget = ThreadBudget::new(3);
        let items: Vec<String> = (0..10).map(|i| format!("item-{i}")).collect();
        let out = map_tasks(&budget, items, |i, s| format!("{i}:{s}"));
        assert_eq!(out[7], "7:item-7");
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn budget_claims_are_bounded_and_released() {
        let budget = ThreadBudget::new(5);
        let a = budget.claim(2);
        assert_eq!(a, 2);
        let b = budget.claim(10);
        assert_eq!(b, 2);
        assert_eq!(budget.claim(1), 0);
        budget.release(a + b);
        assert_eq!(budget.claim(100), 4);
    }

    #[test]
    fn permits_survive_a_panicking_task() {
        let budget = ThreadBudget::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(&budget, 8, |i| {
                assert!(i != 3, "task 3 fails deliberately");
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(budget.claim(usize::MAX), 3, "claimed permits returned during unwind");
    }

    #[test]
    fn explicit_thread_knob_wins() {
        assert_eq!(build_threads(Some(3)), 3);
        assert_eq!(build_threads(Some(0)), 1, "explicit 0 clamps to 1");
        assert!(build_threads(None) >= 1);
    }

    #[test]
    fn nested_stages_share_the_budget() {
        // An outer stage over 4 tasks, each fanning out over 4 inner
        // tasks: the output must be identical to the sequential result
        // no matter how permits were distributed.
        for threads in [1usize, 2, 4, 8] {
            let budget = ThreadBudget::new(threads);
            let out = run_tasks(&budget, 4, |i| {
                let inner = run_tasks(&budget, 4, |j| i * 4 + j);
                inner.iter().sum::<usize>()
            });
            assert_eq!(out, vec![6, 22, 38, 54], "threads = {threads}");
        }
    }
}
