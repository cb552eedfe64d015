//! The merge fallback's charged bound. A merge charges its
//! dummy-starved legs `legs × 2·D̂` instead of walking them, where `D̂`
//! is the root node's `diameter`: the eccentricity of one vertex, so
//! the graph's diameter is at most `2·D̂`. Each leg is a simple
//! shortest path — the walk in the FIFO BFS tree rooted at the leg's
//! target — so the legs' congestion is at most `legs` and their
//! dilation at most the diameter. These tests walk the legs the bound
//! stands for, and check that the ledger charges exactly the bound.

mod common;

use common::{bfs_parent_tree, tree_walk, zoo};
use expander_core::exec::FlatMoveCost;
use expander_core::{Job, QueryEngine, Router, RouterConfig, RoutingInstance, SortInstance};
use expander_graphs::{generators, Graph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The bound one fallback leg is charged: twice the root node's
/// diameter estimate.
fn leg_bound(r: &Router) -> u64 {
    let h = r.hierarchy();
    2 * u64::from(h.node(h.root()).diameter)
}

/// Draws `draws` leg sets on the connected graph `g` — random sources,
/// targets taken round-robin from a random vertex subset, 1 to `4n`
/// legs — walks every leg in the BFS tree of its target, and checks the
/// walks' measured congestion and dilation against `legs × 2·d_hat`.
fn check_leg_sets(name: &str, g: &Graph, d_hat: u32, draws: usize, seed: u64) {
    let n = g.n();
    let dilation_bound = 2 * u64::from(d_hat);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trees: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut vertices: Vec<u32> = (0..n as u32).collect();
    for draw in 0..draws {
        vertices.shuffle(&mut rng);
        let targets = &vertices[..rng.gen_range(1..n.min(32) + 1)];
        let legs = rng.gen_range(1..4 * n + 1);
        let mut mc = FlatMoveCost::new(g.edge_id_count());
        for i in 0..legs {
            let src = rng.gen_range(0..n as u32);
            let target = targets[i % targets.len()];
            let parent = trees.entry(target).or_insert_with(|| bfs_parent_tree(g, target).0);
            let walk = tree_walk(parent, src).expect("a connected graph");
            mc.add_walk(g, &walk, 1);
        }
        let legs = legs as u64;
        let what = format!("{name}, draw {draw}: {legs} legs to {} targets", targets.len());
        assert!(mc.congestion() <= legs, "{what}: congestion {}", mc.congestion());
        assert!(mc.dilation() <= dilation_bound, "{what}: dilation {}", mc.dilation());
        assert!(mc.cost() <= legs * dilation_bound, "{what}: cost {}", mc.cost());
    }
}

#[test]
fn walked_legs_stay_within_the_charged_bound() {
    let mut graphs = zoo();
    graphs.push(("random-regular-512", generators::random_regular(512, 4, 5).expect("generator")));
    let mut accepted = 0;
    for (i, (name, g)) in graphs.iter().enumerate() {
        // The routers the bound is charged on: `D̂` is the root node's
        // diameter, which is the graph's double-sweep estimate. A graph
        // `Router::preprocess` rejects has no charge to check, but the
        // bound still holds on it when it is connected.
        let d_hat = match Router::preprocess(g, RouterConfig::for_epsilon(0.4)) {
            Ok(r) => {
                accepted += 1;
                let d_hat = leg_bound(&r) / 2;
                assert_eq!(d_hat, u64::from(g.diameter_estimate()), "{name}: root diameter");
                d_hat as u32
            }
            Err(_) if g.n() > 1 && g.is_connected() => g.diameter_estimate(),
            Err(_) => continue,
        };
        check_leg_sets(name, g, d_hat, 6, 0xFA11 + i as u64);
    }
    assert!(accepted >= 2, "only {accepted} graphs preprocess: the bound goes unchecked");
}

#[test]
fn fallback_phase_charges_the_bound_per_token() {
    for n in [512, 1024] {
        let g = generators::random_regular(n, 4, 1).expect("generator");
        let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router");
        let leg = leg_bound(&r);
        let mut jobs: Vec<Job> =
            (0..4).map(|s| Job::Route(RoutingInstance::permutation(n, s))).collect();
        jobs.push(Job::Route(RoutingInstance::partial_permutation(n, n / 16, 7)));
        jobs.push(Job::Route(RoutingInstance::uniform_load(n, 2, 8)));
        jobs.extend((0..2).map(|s| Job::Sort(SortInstance::random(n, 1 + s, 20 + s as u64))));
        let batch = QueryEngine::new(&r).run(&jobs).expect("valid");
        for (i, out) in batch.outcomes.iter().enumerate() {
            assert_eq!(
                out.ledger().phase("query/task3/fallback"),
                out.stats().fallback_tokens * leg,
                "n = {n}: job {i}"
            );
        }
        let fallback = batch.stats.query.fallback_tokens;
        assert!(fallback > 0, "n = {n}: no job takes a fallback leg");
        assert_eq!(batch.stats.merged.phase("query/task3/fallback"), fallback * leg);
    }
}
