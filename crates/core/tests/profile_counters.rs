//! The `profile` counters of whole batches. The counters are
//! process-global and every routing call records into them, so this is
//! the only test of its binary: no test running beside it can record
//! into a batch it is measuring.
#![cfg(feature = "profile")]

use expander_core::{QueryEngine, Router, RouterConfig, RoutingInstance};
use expander_graphs::generators;

#[test]
fn warm_batches_report_identical_profiles() {
    let n = 256;
    let g = generators::random_regular(n, 4, 7).expect("generator");
    let router = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
    let engine = QueryEngine::new(&router).with_threads(Some(1));
    let batch: Vec<RoutingInstance> = (0..8).map(|s| RoutingInstance::permutation(n, s)).collect();

    // The warm-up fills the pooled scratch's caches; the two warm runs
    // then do the same work. Each batch resets the counters at its
    // start, so they report the same traffic.
    engine.route_batch(&batch).expect("valid");
    let (_, first) = engine.route_batch(&batch).expect("valid");
    let (_, second) = engine.route_batch(&batch).expect("valid");
    assert!(!first.profile.is_empty(), "a profiled batch records traffic");
    assert_eq!(first.profile, second.profile);
}
