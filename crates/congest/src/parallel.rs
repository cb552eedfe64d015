//! Deterministic parallel execution of build tasks.
//!
//! The preprocessing pipeline (hierarchy construction, shuffler
//! builds, embedding flattening) decomposes into *independent* tasks:
//! sibling subtrees of the recursion, per-node shufflers. Each task is
//! a pure function of its inputs, so executing tasks on worker threads
//! and collecting the results *in canonical task order* yields
//! byte-identical output regardless of thread count. Round charges
//! follow the same discipline: each task charges a private
//! [`RoundLedger`], and the caller merges them in task order
//! ([`RoundLedger::merge`]).
//!
//! A cut-matching game's iterations are not independent: a cell
//! (iteration, part) reads the state earlier cells left.
//! [`run_pipeline`] runs the iterations as the rows of a pipeline, each
//! row on one worker, and yields a cell only once the cells it reads
//! have finished, so every cell sees what a plain sequential loop would
//! show it and the pipeline is exact too. Each row charges a private
//! ledger, merged in row order.
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

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

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

/// Claimed helper permits, returned to their budget on drop — also when
/// a task panics and unwinds past the stage, so a caught panic cannot
/// shrink the budget for good.
struct Claimed<'b> {
    budget: &'b ThreadBudget,
    n: usize,
}

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        self.budget.release(self.n);
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

/// Runs a `rows × cols` grid of cells as a pipeline and returns each
/// row's result in row order.
///
/// `f(r, cells)` plays row `r`, cell by cell: iterating `cells` yields
/// the columns `0..cols` in order, and yields column `c` of row `r > 0`
/// only once row `r - 1` has finished column `min(c + 1, cols - 1)`. A
/// cell finishes when its row asks for the next one, or returns. This
/// is the dependency of a game whose row `r` plays, at column `c`, the
/// state that row `r - 1` left at column `c + 1`, and whose last cells
/// need the whole row before them.
///
/// Rows are dealt round-robin to the calling thread and to the helpers
/// `budget` grants (at most `rows - 1`), and each worker plays its rows
/// in order, so at most that many rows are in flight at once. With no
/// helper granted the rows run in order on the caller, which never
/// waits. A cell may therefore read and write whatever the cells it
/// waits for left behind, and the result is the sequential one.
///
/// # Panics
///
/// Propagates a panic from any row. The other workers unwind at their
/// next wait instead of waiting for a row that will not finish, and the
/// claimed permits return to `budget`.
pub fn run_pipeline<T, F>(budget: &ThreadBudget, rows: usize, cols: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut RowCells<'_>) -> T + Sync,
{
    let helpers = if rows <= 1 { 0 } else { budget.claim(rows - 1) };
    if helpers == 0 {
        return (0..rows)
            .map(|r| f(r, &mut RowCells { row: r, cols, next: 0, board: None }))
            .collect();
    }
    let _claimed = Claimed { budget, n: helpers };
    let workers = helpers + 1;
    let board = Board {
        progress: Mutex::new(Progress { done: vec![0; rows], aborted: false }),
        changed: Condvar::new(),
    };
    let work = |w: usize| {
        let played = panic::catch_unwind(AssertUnwindSafe(|| {
            (w..rows)
                .step_by(workers)
                .map(|r| {
                    let out = f(r, &mut RowCells { row: r, cols, next: 0, board: Some(&board) });
                    board.finish(r, cols);
                    (r, out)
                })
                .collect::<Vec<_>>()
        }));
        if played.is_err() {
            board.abort();
        }
        played
    };
    let played: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
        let mut all = vec![work(0)];
        for h in handles {
            all.push(h.join().expect("a pipeline worker catches its own panic"));
        }
        all
    });
    let mut slots: Vec<Option<T>> = (0..rows).map(|_| None).collect();
    let mut panics: Vec<Box<dyn Any + Send>> = Vec::new();
    for worker in played {
        match worker {
            Ok(got) => {
                for (r, out) in got {
                    slots[r] = Some(out);
                }
            }
            Err(payload) => panics.push(payload),
        }
    }
    // Workers that unwound only because another one panicked carry
    // `Aborted`; the other payload is the panic to propagate.
    if let Some(payload) = panics.into_iter().find(|p| !p.is::<Aborted>()) {
        panic::resume_unwind(payload);
    }
    slots.into_iter().map(|s| s.expect("every row played")).collect()
}

/// The cells of one row of [`run_pipeline`], as an iterator over their
/// columns that waits for each cell's dependencies before yielding it.
#[derive(Debug)]
pub struct RowCells<'a> {
    row: usize,
    cols: usize,
    /// The next column to yield; the columns before it have finished
    /// once it is asked for.
    next: usize,
    /// The workers' shared progress; `None` when the rows run in order
    /// on one thread, where every dependency finished before its row
    /// started.
    board: Option<&'a Board>,
}

impl Iterator for RowCells<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let c = self.next;
        if let Some(board) = self.board {
            if c > 0 {
                board.finish(self.row, c);
            }
            if c < self.cols && self.row > 0 {
                board.wait(self.row - 1, (c + 2).min(self.cols));
            }
        }
        if c == self.cols {
            return None;
        }
        self.next += 1;
        Some(c)
    }
}

/// [`run_pipeline`]'s progress, shared by its workers.
#[derive(Debug)]
struct Board {
    progress: Mutex<Progress>,
    changed: Condvar,
}

#[derive(Debug)]
struct Progress {
    /// Finished cells per row; a row finishes its cells in column order.
    done: Vec<usize>,
    /// Set once a worker panicked.
    aborted: bool,
}

/// The payload of a worker that unwound because another one panicked.
struct Aborted;

impl Board {
    fn lock(&self) -> std::sync::MutexGuard<'_, Progress> {
        // Each update stores one count or the flag, so the progress is
        // valid even if its holder panicked.
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records that `row` has finished its first `cells` cells.
    fn finish(&self, row: usize, cells: usize) {
        let mut progress = self.lock();
        progress.done[row] = progress.done[row].max(cells);
        drop(progress);
        self.changed.notify_all();
    }

    /// Blocks until `row` has finished `cells` cells, and unwinds
    /// instead once a worker has panicked.
    fn wait(&self, row: usize, cells: usize) {
        let mut progress = self.lock();
        while progress.done[row] < cells && !progress.aborted {
            progress = self.changed.wait(progress).unwrap_or_else(PoisonError::into_inner);
        }
        let aborted = progress.aborted;
        drop(progress);
        if aborted {
            panic::resume_unwind(Box::new(Aborted));
        }
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.changed.notify_all();
    }
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

    #[test]
    fn pipeline_rows_come_back_in_row_order() {
        for threads in 1..=4 {
            let budget = ThreadBudget::new(threads);
            let out = run_pipeline(&budget, 9, 5, |r, cells| {
                cells.map(|c| r * 10 + c).collect::<Vec<_>>()
            });
            let want: Vec<Vec<usize>> =
                (0..9).map(|r| (0..5).map(|c| r * 10 + c).collect()).collect();
            assert_eq!(out, want, "threads = {threads}");
            assert_eq!(
                budget.claim(usize::MAX),
                threads - 1,
                "permits returned, threads = {threads}"
            );
        }
    }

    /// Every cell starts after its row's previous cell and after cell
    /// `(r - 1, min(c + 1, cols - 1))` ended, read off one global
    /// sequence stamp. With helpers, cell `(0, 2)` also holds until row
    /// 1, which another worker plays, has ended cell 0 and then gives
    /// row 1 a window to start cell 1 too early, so a rule that waited
    /// only for `(r - 1, c)` shows here on every run.
    #[test]
    fn pipeline_cells_wait_for_their_dependencies() {
        const ROWS: usize = 12;
        const COLS: usize = 6;
        for threads in 1..=4 {
            let budget = ThreadBudget::new(threads);
            let clock = AtomicUsize::new(0);
            let started: Vec<AtomicUsize> = (0..ROWS * COLS).map(|_| AtomicUsize::new(0)).collect();
            let ended: Vec<AtomicUsize> = (0..ROWS * COLS).map(|_| AtomicUsize::new(0)).collect();
            let stamp = || clock.fetch_add(1, Ordering::SeqCst) + 1;
            let at = |v: &[AtomicUsize], r: usize, c: usize| v[r * COLS + c].load(Ordering::SeqCst);
            run_pipeline(&budget, ROWS, COLS, |r, cells| {
                for c in cells {
                    started[r * COLS + c].store(stamp(), Ordering::SeqCst);
                    if threads > 1 && (r, c) == (0, 2) {
                        while at(&ended, 1, 0) == 0 {
                            std::thread::yield_now();
                        }
                        let window = std::time::Instant::now();
                        while at(&started, 1, 1) == 0
                            && window.elapsed() < std::time::Duration::from_millis(50)
                        {
                            std::thread::yield_now();
                        }
                    }
                    ended[r * COLS + c].store(stamp(), Ordering::SeqCst);
                }
            });
            for r in 0..ROWS {
                for c in 0..COLS {
                    let start = at(&started, r, c);
                    if c > 0 {
                        assert!(
                            start > at(&ended, r, c - 1),
                            "threads = {threads}: ({r}, {c}) after ({r}, {})",
                            c - 1
                        );
                    }
                    if r > 0 {
                        let dep = (c + 1).min(COLS - 1);
                        assert!(
                            start > at(&ended, r - 1, dep),
                            "threads = {threads}: ({r}, {c}) started before ({}, {dep}) ended",
                            r - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_propagates_a_panicking_cell() {
        for threads in 1..=4 {
            let budget = ThreadBudget::new(threads);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_pipeline(&budget, 8, 5, |r, cells| {
                    for c in cells {
                        assert!((r, c) != (3, 2), "cell (3, 2) fails deliberately");
                    }
                    r
                })
            }));
            let payload = result.expect_err("panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("cell (3, 2) fails deliberately"), "threads = {threads}");
            assert_eq!(
                budget.claim(usize::MAX),
                threads - 1,
                "permits returned, threads = {threads}"
            );
        }
    }

    #[test]
    fn pipeline_handles_few_rows_and_one_column() {
        for threads in 1..=4 {
            let budget = ThreadBudget::new(threads);
            let two_rows = run_pipeline(&budget, 2, 3, |r, cells| (r, cells.count()));
            assert_eq!(two_rows, vec![(0, 3), (1, 3)], "threads = {threads}");
            let one_col = run_pipeline(&budget, 7, 1, |r, cells| (r, cells.collect::<Vec<_>>()));
            assert_eq!(
                one_col,
                (0..7).map(|r| (r, vec![0])).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            let no_rows: Vec<usize> = run_pipeline(&budget, 0, 4, |r, _| r);
            assert!(no_rows.is_empty());
            assert_eq!(
                budget.claim(usize::MAX),
                threads - 1,
                "permits returned, threads = {threads}"
            );
        }
    }
}
