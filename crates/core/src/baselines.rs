//! Comparison baselines for the experiments (§1.2 of the paper), as
//! charged-round costs. Complete rival routers with outcomes live in
//! the `expander-baselines` crate behind [`crate::RoutingAlgorithm`].
//!
//! * [`gks17_randomized`]: the random-walk router of Ghaffari–Kuhn–Su:
//!   lazy walks to the mixing time disperse the real tokens and the
//!   per-destination dummies; dummies escort tokens home. Costs are
//!   measured per walk step at the randomized `Õ(c + d)` scheduling
//!   rate.
//! * [`cs20_query_cost`]: the prior deterministic routing's query cost
//!   model — no preprocessing/query tradeoff, so every query pays the
//!   shuffler-construction work again plus the `O(k²)` sequential
//!   part-pair processing of CS20 (§1.2 "Challenge II").

use crate::router::Router;
use crate::token::RoutingInstance;
use expander_graphs::{metrics, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rounds of the GKS17-style randomized router: lazy random walks to
/// the mixing time for real tokens and destination dummies, then
/// dummies escort the reals home (the meet-in-the-middle of §1.3).
/// Per-step cost is the measured worst directed-edge load
/// (`Õ(congestion + dilation)` randomized scheduling [LMR94, Gha15]).
pub fn gks17_randomized(g: &Graph, inst: &RoutingInstance, seed: u64) -> u64 {
    let n = g.n();
    if inst.tokens.is_empty() {
        return 0;
    }
    let gap = metrics::spectral_gap(g, seed).max(1e-3);
    let steps = ((n as f64).ln() * 2.0 / gap).ceil() as usize;
    let mut rng = StdRng::seed_from_u64(seed);

    let walk_cost = |positions: &mut Vec<u32>, rng: &mut StdRng| -> u64 {
        let mut total = 0u64;
        for _ in 0..steps {
            let mut edge_load: std::collections::HashMap<(u32, u32), u64> =
                std::collections::HashMap::new();
            for p in positions.iter_mut() {
                if rng.gen_bool(0.5) {
                    continue; // lazy step
                }
                let nb = g.neighbors(*p);
                let next = nb[rng.gen_range(0..nb.len())];
                *edge_load.entry((*p, next)).or_insert(0) += 1;
                *p = next;
            }
            // Õ(c + d) randomized scheduling: d = 1 per step.
            total += edge_load.values().copied().max().unwrap_or(0) + 1;
        }
        total
    };

    let mut real: Vec<u32> = inst.tokens.iter().map(|t| t.src).collect();
    let mut dummy: Vec<u32> = inst.tokens.iter().map(|t| t.dst).collect();
    let real_cost = walk_cost(&mut real, &mut rng);
    let dummy_cost = walk_cost(&mut dummy, &mut rng);
    // Matching reals with dummies inside vertices costs one randomized
    // sort at the mixing-time scale; the escort trip repeats the dummy
    // walk backwards.
    let matching_cost = steps as u64 + (n as f64).log2().ceil() as u64;
    real_cost + 2 * dummy_cost + matching_cost
}

/// Query cost of a CS20-style deterministic router (§1.2 "Challenge
/// II"): the measured query, plus a fresh per-query shuffler-equivalent
/// construction (nothing is reusable across queries), plus the `O(k²)`
/// *sequential* part-pair processing — each of the `k²` ordered pairs
/// `Xᵢ-Xⱼ` pays a maximal-path routing pass at the node's measured
/// quality, which is where the `n^{O(ε)}` per-query dependency comes
/// from.
pub fn cs20_query_cost(r: &Router, measured_query_rounds: u64) -> u64 {
    let pre = r.preprocessing_ledger();
    let rebuild = pre.phase("pre/shuffler/cut-player") + pre.phase("pre/shuffler/matching-player");
    let k = r.hierarchy().k() as u64;
    let root = r.hierarchy().root();
    let q = r.cost_model().round_quality[root].max(r.hierarchy().node(root).flat_quality as u64);
    let c_logn = r.cost_model().c_logn;
    measured_query_rounds + rebuild + k * k * q * q * c_logn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use expander_graphs::generators;

    #[test]
    fn gks17_cost_scales_with_mixing() {
        let g = generators::random_regular(128, 4, 3).unwrap();
        let inst = RoutingInstance::permutation(128, 4);
        let rounds = gks17_randomized(&g, &inst, 5);
        // At least the two dispersal walks.
        let gap = metrics::spectral_gap(&g, 5);
        let steps = ((128f64).ln() * 2.0 / gap).ceil() as u64;
        assert!(rounds >= 2 * steps, "rounds {rounds} steps {steps}");
    }

    #[test]
    fn cs20_query_dominates_ours() {
        let g = generators::random_regular(256, 4, 5).unwrap();
        let r = Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).unwrap();
        let inst = RoutingInstance::permutation(256, 6);
        let ours = r.route(&inst).unwrap().rounds();
        let theirs = cs20_query_cost(&r, ours);
        assert!(theirs > ours, "CS20 must pay per-query construction");
    }
}
