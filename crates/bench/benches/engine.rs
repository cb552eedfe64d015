//! Criterion benchmarks for the batched multi-query engine: batch
//! throughput at B ∈ {8, 64}, dense and sparse, against the sequential
//! per-query baseline — the win of scratch pooling and dummy-dispersal
//! amortization.
//!
//! The engine outlives the measurement loop on purpose: a production
//! engine is long-lived, so its pooled scratches and dummy caches are
//! warm for every batch after the first. The sequential baseline is
//! the status-quo path — a fresh scratch per `Router::route` call.

use criterion::{criterion_group, criterion_main, Criterion};
use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
use expander_graphs::generators;

/// Full-density batch: B whole-graph permutations (every vertex holds
/// a token) — the worst case for batching, since per-query real-token
/// work is maximal relative to the amortized dummy dispersal.
fn full_batch(n: usize, b: usize) -> Vec<RoutingInstance> {
    (0..b as u64).map(|s| RoutingInstance::permutation(n, 100 + s)).collect()
}

/// Sparse batch: B partial permutations of `n/4` tokens each — the
/// multi-tenant traffic shape, where the (cached) dummy flock dominates
/// each sequential query.
fn sparse_batch(n: usize, b: usize) -> Vec<RoutingInstance> {
    (0..b as u64).map(|s| RoutingInstance::partial_permutation(n, n / 4, 100 + s)).collect()
}

fn bench_engine_batches(c: &mut Criterion) {
    let n = 512usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    for b in [8usize, 64] {
        let insts = full_batch(n, b);
        let engine = QueryEngine::new(&r);
        c.bench_function(&format!("engine_batch_n512_B{b}"), |bench| {
            bench.iter(|| engine.route_batch(&insts).expect("valid"))
        });
    }
    let insts = sparse_batch(n, 64);
    let engine = QueryEngine::new(&r);
    c.bench_function("engine_batch_sparse_n512_B64", |bench| {
        bench.iter(|| engine.route_batch(&insts).expect("valid"))
    });
}

fn bench_sequential_baseline(c: &mut Criterion) {
    // The comparison points for the batch benches above: the same
    // instances through plain per-call `Router::route`.
    let n = 512usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let insts = full_batch(n, 64);
    c.bench_function("sequential_route_n512_B64", |bench| {
        bench.iter(|| {
            for inst in &insts {
                r.route(inst).expect("valid");
            }
        })
    });
    let insts = sparse_batch(n, 64);
    c.bench_function("sequential_route_sparse_n512_B64", |bench| {
        bench.iter(|| {
            for inst in &insts {
                r.route(inst).expect("valid");
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_batches, bench_sequential_baseline
}
criterion_main!(benches);
