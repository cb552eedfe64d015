//! Criterion benchmarks for the baseline arena: the rival routers'
//! query hot paths at n = 512 on the shared dense-permutation workload,
//! comparable with the hierarchical router's `route_query_n512_L1` in
//! `benches/micro.rs`. Splicer preprocessing (building the k seeded
//! spanning forests) is benchmarked separately so the per-query figure
//! stays an apples-to-apples routing cost.

use criterion::{criterion_group, criterion_main, Criterion};
use expander_baselines::{GreedyLocalRouting, SplicerRouting};
use expander_core::arena::RoutingAlgorithm;
use expander_core::RoutingInstance;
use expander_graphs::{generators, SpanningForest};

fn bench_baseline_queries(c: &mut Criterion) {
    let n = 512usize;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let inst = RoutingInstance::permutation(n, 9);

    let splicer = SplicerRouting::default();
    c.bench_function("baseline_splicer_n512", |bench| {
        bench.iter(|| splicer.route_instance(&g, &inst).expect("valid"))
    });

    let local = GreedyLocalRouting;
    c.bench_function("baseline_local_n512", |bench| {
        bench.iter(|| local.route_instance(&g, &inst).expect("valid"))
    });

    c.bench_function("baseline_splicer_forests_n512", |bench| {
        bench.iter(|| SpanningForest::random(&g, 0xBA5E))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_baseline_queries
}
criterion_main!(benches);
