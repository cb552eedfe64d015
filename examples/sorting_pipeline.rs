//! The sorting/summarization toolbox: expander sorting, token ranking,
//! serialization, aggregation, top-k heavy hitters, and the Appendix F
//! equivalence reductions, all on one graph.
//!
//! Run with: `cargo run --release --example sorting_pipeline`

use expander_core::equivalence::{route_via_sorting, sort_via_routing};
use expander_core::ops;
use expander_routing::prelude::*;

fn main() {
    let n = 512;
    let g = generators::random_regular(n, 4, 5).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");

    // Expander sorting (Theorem 5.6).
    let inst = SortInstance::random(n, 2, 7);
    let sorted = router.sort(&inst).expect("valid instance");
    assert!(sorted.is_sorted(&inst, n, 2));
    println!("native expander sort:    {:>12} rounds", sorted.rounds());

    // Token-level primitives (Theorem 5.7, Corollaries 5.9/5.10),
    // pooled through one batch engine.
    let engine = QueryEngine::new(&router);
    let rank = ops::token_ranking(&engine, &inst).expect("valid");
    let serial = ops::local_serialization(&engine, &inst).expect("valid");
    let agg = ops::local_aggregation(&engine, &inst).expect("valid");
    println!("token ranking:           {:>12} rounds", rank.rounds);
    println!("local serialization:     {:>12} rounds", serial.rounds);
    println!("local aggregation:       {:>12} rounds", agg.rounds);

    // Heavy hitters via the toolbox.
    let skewed: Vec<(u32, u64, u64)> =
        (0..n as u32).map(|v| (v, if v % 3 == 0 { 99 } else { v as u64 }, 0)).collect();
    let heavy =
        summarize::top_k_frequent(&engine, &SortInstance::from_triples(&skewed), 1).expect("valid");
    println!(
        "top-1 frequent item:     key {} with count {} ({} rounds)",
        heavy.items[0].0, heavy.items[0].1, heavy.rounds
    );

    // Appendix F: the two reductions, with measured overheads.
    let small = SortInstance::random(128, 1, 9);
    let small_g = generators::random_regular(128, 4, 6).expect("generator");
    let small_router =
        Router::preprocess(&small_g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    let f1 = sort_via_routing(&small_router, &small).expect("valid");
    assert!(f1.outcome.is_sorted(&small, 128, 1));
    println!(
        "\nLemma F.1 (sort via routing):  {} route calls, {} rounds",
        f1.route_calls,
        f1.outcome.rounds()
    );
    let perm = RoutingInstance::permutation(128, 11);
    let f2 = route_via_sorting(&small_router, &perm).expect("valid");
    assert!(f2.outcome.fully_delivered());
    println!(
        "Lemma F.2 (route via sorting): {} sort calls,  {} rounds",
        f2.sort_calls,
        f2.outcome.rounds()
    );
}
