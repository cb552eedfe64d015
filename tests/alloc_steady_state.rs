//! Allocation accounting for the query hot path and for what a
//! preprocessed router keeps.
//!
//! The dispersal round loop must not allocate: grouping, load
//! counting, and congestion accounting all reuse the per-query scratch
//! (see `exec::Scratch`). This binary installs a counting global
//! allocator and asserts that a whole routing query allocates far
//! fewer times than the round-loop volume (rounds × tokens) — the
//! pre-scratch implementation built several `HashMap`s per round per
//! flock and sat two orders of magnitude above the bound asserted
//! here. The allocator also tracks live bytes, which bounds the heap a
//! router retains after preprocessing.
//!
//! The counter is process-wide, so it also sees whatever tests libtest
//! runs beside the one measuring. Every test therefore holds
//! [`SERIAL`] for its whole body.

use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
use expander_graphs::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes currently allocated: added on alloc, subtracted on dealloc,
/// moved by the size difference on realloc.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: delegates every operation to `System`; only adds relaxed
// counter updates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the calling test alone among this binary's tests (a failed
/// test's poisoned lock still serializes the rest).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Runs `f` and returns its output with the bytes it left allocated.
fn bytes_left_by<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, LIVE_BYTES.load(Ordering::Relaxed) - before)
}

/// The shuffler round count `λ` of the router's root.
fn root_rounds(router: &Router) -> u64 {
    router.shuffler_rounds(router.hierarchy().root()) as u64
}

#[test]
fn query_allocations_do_not_scale_with_dispersal_rounds() {
    let _serial = serial();
    let n = 512usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let inst = RoutingInstance::permutation(n, 9);

    let rounds = root_rounds(&router);
    let tokens = inst.tokens.len() as u64;

    let (out, allocs) = allocations_during(|| router.route(&inst).expect("valid"));
    assert!(out.fully_delivered());

    // The round loop handles ≥ rounds × tokens token-steps across the
    // real and dummy flocks. One allocation per 8 token-steps would
    // already mean per-round allocation crept back in; the scratch
    // implementation sits far below even that (HashMap-per-round was
    // ~100× higher).
    let budget = rounds * tokens / 8;
    assert!(
        allocs < budget,
        "query allocated {allocs} times (budget {budget}: rounds = {rounds}, tokens = {tokens})"
    );

    // Repeat queries must not trend upward (no per-round leak).
    let (_, again) = allocations_during(|| router.route(&inst).expect("valid"));
    assert!(again <= allocs + allocs / 4, "second query allocated more: {again} vs {allocs}");
}

/// Named for the cross-job fusion that batches once ran through; every
/// batch job now runs alone on a pooled scratch, and the same budget
/// holds for the round loop of each.
#[test]
fn fused_rounds_allocate_nothing_in_steady_state() {
    let _serial = serial();
    let n = 512usize;
    let b = 16usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let insts: Vec<RoutingInstance> =
        (0..b as u64).map(|s| RoutingInstance::permutation(n, 70 + s)).collect();

    let rounds = root_rounds(&router);

    let engine = QueryEngine::new(&router).with_threads(Some(1));
    // First batch warms the pool and the dummy caches.
    let (first, _) = allocations_during(|| engine.route_batch(&insts).expect("valid"));
    assert!(first.0.iter().all(|o| o.fully_delivered()));

    // Steady state: the dispersal round loop (buckets, moves,
    // incremental loads, congestion accounting) and the Task 2
    // recursion allocate nothing — everything lives in the pooled
    // scratch, and the dummy flocks come from its cache. What remains
    // is per-job output (positions, ledger, stats) and the per-job
    // worklist and markers, independent of the round count. The budget
    // is a per-job constant below one allocation per (round × job): a
    // single per-round buffer creeping back into the loop adds
    // `rounds × jobs` and trips the assert.
    let (second, warm) = allocations_during(|| engine.route_batch(&insts).expect("valid"));
    assert!(second.0.iter().all(|o| o.fully_delivered()));
    let budget = 20 * b as u64;
    assert!(budget < rounds * b as u64, "budget must sit below one alloc per round-step");
    eprintln!("warm batch: {warm} allocations (budget {budget}, rounds = {rounds})");
    assert!(
        warm < budget,
        "warm batch allocated {warm} times (budget {budget}: rounds = {rounds}, jobs = {b})"
    );

    // And the steady state really is steady: a third batch does not
    // allocate more than the second (no growth per batch).
    let (_, third) = allocations_during(|| engine.route_batch(&insts).expect("valid"));
    assert!(third <= warm + warm / 8, "third batch allocated more: {third} vs {warm}");
}

#[test]
fn pooled_batch_reuses_scratch_across_jobs() {
    let _serial = serial();
    let n = 512usize;
    let b = 16usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let insts: Vec<RoutingInstance> =
        (0..b as u64).map(|s| RoutingInstance::permutation(n, 40 + s)).collect();

    // Status-quo cost of one cold query (fresh scratch, cold dummy
    // dispersal) — the per-job bar the pooled engine must beat.
    let (_, cold_solo) = allocations_during(|| router.route(&insts[0]).expect("valid"));

    let engine = QueryEngine::new(&router).with_threads(Some(1));
    // First batch warms the pool and the dummy caches.
    let (first, _) = allocations_during(|| engine.route_batch(&insts).expect("valid"));
    assert!(first.0.iter().all(|o| o.fully_delivered()));

    // With the pool warm, per-job allocations drop well below a cold
    // solo query's: the scratch (two edge-space vectors, the dense load
    // counters) and the dummy flocks are reused, so what remains is
    // per-job output (positions, ledger, stats) and the per-job
    // worklist and markers.
    let (second, warm) = allocations_during(|| engine.route_batch(&insts).expect("valid"));
    assert!(second.0.iter().all(|o| o.fully_delivered()));
    let per_job_warm = warm / b as u64;
    eprintln!("cold solo query: {cold_solo} allocations; warm pooled job: {per_job_warm}");
    assert!(
        2 * per_job_warm < cold_solo,
        "warm pooled job allocates {per_job_warm}, cold solo query {cold_solo}"
    );
}

/// The heap a preprocessed router keeps at n = 1024, ε = 0.4 (graph
/// seed 1): its hierarchy, each internal node's query tables, the
/// delegate chains and the cost model, measured at 1,158,166 bytes at
/// every build-thread count. The limit adds under 10%; a router that
/// also kept each node's shuffler retained about twice as much.
#[test]
fn preprocessed_router_retains_bounded_heap() {
    let _serial = serial();
    const LIMIT: i64 = 1_270_000;
    let g = generators::random_regular(1024, 4, 1).expect("generator");
    let (router, retained) =
        bytes_left_by(|| Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router"));
    eprintln!("Router::preprocess left {retained} bytes allocated (limit {LIMIT})");
    assert!(retained <= LIMIT, "router retains {retained} bytes, above the limit of {LIMIT}");
    drop(router);
}
