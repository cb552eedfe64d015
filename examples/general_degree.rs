//! Routing on an expander with wildly varying degrees (Appendix E):
//! tokens travel through the constant-degree expander split `G⋄`, and
//! the unknown-load doubling trick finds the right cap automatically.
//!
//! Run with: `cargo run --release --example general_degree`

use expander_routing::prelude::*;

fn main() {
    // A hub expander: 4-regular base plus 3 high-degree hubs.
    let n = 256;
    let g = generators::hub_expander(n, 3, 13).expect("generator");
    let degrees: Vec<usize> = (0..n as u32).map(|v| g.degree(v)).collect();
    println!(
        "base graph: n = {n}, max degree = {}, min degree = {}",
        degrees.iter().max().unwrap(),
        degrees.iter().min().unwrap()
    );

    let router =
        GeneralRouter::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("expander input");
    println!(
        "expander split G⋄: {} port vertices, max degree {}",
        router.split().graph().n(),
        router.split().graph().max_degree()
    );

    // Each vertex may source/sink up to deg(v) tokens — hubs take many.
    let hub = (0..n as u32).max_by_key(|&v| g.degree(v)).expect("non-empty");
    let fan_in = (g.degree(hub) as u32).min(24);
    let triples: Vec<(u32, u32, u64)> =
        (0..fan_in).map(|i| ((hub + 1 + i * 7) % n as u32, hub, i as u64)).collect();
    let inst = RoutingInstance::from_triples(&triples);
    let out = router.route(&inst).expect("valid instance");
    assert!(out.fully_delivered());
    println!(
        "\nrouted {fan_in} tokens into hub {hub} (deg {}): {} charged rounds",
        g.degree(hub),
        out.rounds()
    );

    // The doubling trick: the load is unknown up front; caps double
    // until the instance fits, failed attempts charged honestly.
    let (out2, attempts) = router.route_with_doubling(&inst).expect("valid instance");
    assert!(out2.fully_delivered());
    println!(
        "doubling trick: {attempts} attempts, {} total rounds (waste: {})",
        out2.rounds(),
        out2.ledger.phase("query/general/doubling-waste")
    );
}
