//! Appendix F: expander routing and expander sorting are equivalent up
//! to small factors.
//!
//! * [`sort_via_routing`] (Lemma F.1): sorting through `O(depth)`
//!   routing calls — a sorting network over the vertices where each
//!   comparator layer is realized by two routing instances.
//! * [`route_via_sorting`] (Lemma F.2): routing through `O(1)` sorting
//!   calls — interleave real tokens with per-destination dummies, sort
//!   at doubled load, and let each dummy escort its real token home.
//!
//! Both run against the real [`Router`] primitives so the measured
//! overhead factors are experiment E11's data. The oracle calls inside
//! each reduction are data-independent of the local compare steps, so
//! both reductions submit them as one [`QueryEngine`] batch instead of
//! hand-rolling a loop of router calls.

use crate::engine::QueryEngine;
use crate::network::odd_even_layers;
use crate::router::Router;
use crate::token::{
    InstanceError, QueryStats, RoutingInstance, RoutingOutcome, SortInstance, SortOutcome,
    SortToken,
};
use congest_sim::RoundLedger;

/// Result of the Lemma F.1 reduction.
#[derive(Debug, Clone)]
pub struct SortViaRouting {
    /// The sorted outcome.
    pub outcome: SortOutcome,
    /// Routing-oracle invocations used.
    pub route_calls: u64,
}

/// Sorts an instance using only the routing primitive (Lemma F.1).
///
/// The sorting network runs over all `n` vertices; each comparator
/// layer becomes two routing instances (gather at the smaller-ID
/// endpoint, scatter the larger half back). With Batcher's network the
/// call count is `O(log² n)`; with AKS it would be `O(log n)` — the
/// reduction is otherwise identical.
///
/// # Errors
///
/// Propagates routing-instance validation errors.
pub fn sort_via_routing(r: &Router, inst: &SortInstance) -> Result<SortViaRouting, InstanceError> {
    let n = r.graph().n();
    let load = inst.load(n).max(1);
    // Per-vertex token lists, padded with virtual +inf entries so every
    // vertex holds exactly `load` slots (the paper's dummy padding).
    let mut slots: Vec<Vec<(u64, usize)>> = vec![Vec::new(); n];
    for (i, t) in inst.tokens.iter().enumerate() {
        slots[t.src as usize].push((t.key, i));
    }
    for s in slots.iter_mut() {
        while s.len() < load {
            s.push((u64::MAX, usize::MAX));
        }
        s.sort_unstable();
    }

    // A layer's gather/scatter instances depend only on the network's
    // static comparator structure, never on token values, so each
    // layer's pair ships as one engine batch (one long-lived engine
    // pools scratches and dummy caches across all the layers) while
    // only one layer's instances are live at a time; the local compare
    // replay stays sequential.
    let engine = QueryEngine::new(r);
    let mut ledger = RoundLedger::new();
    let mut route_calls = 0u64;
    for layer in odd_even_layers(n) {
        for (label, forward) in [("equiv/f1/gather", true), ("equiv/f1/scatter", false)] {
            let mut triples = Vec::new();
            for &(a, b) in &layer {
                let (src, dst) = if forward { (b, a) } else { (a, b) };
                for slot in 0..load {
                    triples.push((src as u32, dst as u32, slot as u64));
                }
            }
            if !triples.is_empty() {
                let out = engine.route_one(&RoutingInstance::from_triples(&triples))?;
                ledger.charge(label, out.rounds());
                route_calls += 1;
            }
        }
        // Local compare: keep the smaller half at `a`.
        for &(a, b) in &layer {
            let mut merged: Vec<(u64, usize)> = Vec::with_capacity(2 * load);
            merged.append(&mut slots[a]);
            merged.append(&mut slots[b]);
            merged.sort_unstable();
            slots[b] = merged.split_off(load);
            slots[a] = merged;
        }
    }

    let mut positions = vec![0u32; inst.tokens.len()];
    for (v, s) in slots.iter().enumerate() {
        for &(_, idx) in s {
            if idx != usize::MAX {
                positions[idx] = v as u32;
            }
        }
    }
    Ok(SortViaRouting {
        outcome: SortOutcome { positions, ledger, stats: QueryStats::default() },
        route_calls,
    })
}

/// Result of the Lemma F.2 reduction.
#[derive(Debug, Clone)]
pub struct RouteViaSorting {
    /// The delivered outcome.
    pub outcome: RoutingOutcome,
    /// Sorting-oracle invocations used.
    pub sort_calls: u64,
}

/// Routes an instance using only the sorting primitive (Lemma F.2).
///
/// Each destination vertex emits one dummy per expected token; real
/// tokens take keys `(dst, 2·SID+1)`, dummies `(dst, 2·SID+2)`; one
/// sort at load `2L` co-locates each real token with its dummy, which
/// escorts it home. Counting and serialization cost two sorts each
/// (Corollaries 5.9/5.10).
///
/// # Errors
///
/// Propagates sorting-instance validation errors.
pub fn route_via_sorting(
    r: &Router,
    inst: &RoutingInstance,
) -> Result<RouteViaSorting, InstanceError> {
    let n = r.graph().n();
    let mut ledger = RoundLedger::new();
    let mut sort_calls = 0u64;

    // Both sort instances (the aggregation probe and the pair sort) are
    // static functions of the input, so they execute as one batch.
    let probe = SortInstance {
        tokens: inst
            .tokens
            .iter()
            .map(|t| SortToken { src: t.src, key: t.dst as u64, payload: t.payload })
            .collect(),
    };

    // Serial numbers per destination.
    let mut next_serial = vec![0u64; n];
    let mut combined: Vec<SortToken> = Vec::with_capacity(2 * inst.tokens.len());
    for t in &inst.tokens {
        let sid = next_serial[t.dst as usize];
        next_serial[t.dst as usize] += 1;
        combined.push(SortToken {
            src: t.src,
            key: (t.dst as u64) << 32 | (2 * sid + 1),
            payload: t.payload,
        });
    }
    // Dummies born at their destination with the interleaved even key.
    for t in 0..n as u32 {
        for sid in 0..next_serial[t as usize] {
            combined.push(SortToken { src: t, key: (t as u64) << 32 | (2 * sid + 2), payload: 0 });
        }
    }
    let final_sort = SortInstance { tokens: combined };

    let mut instances: Vec<SortInstance> = Vec::new();
    let probe_runs = !probe.tokens.is_empty();
    if probe_runs {
        instances.push(probe);
    }
    let final_runs = !final_sort.tokens.is_empty();
    if final_runs {
        instances.push(final_sort);
    }
    let engine = QueryEngine::new(r);
    let (outs, _batch) = engine.sort_batch(&instances)?;
    let mut outs = outs.into_iter();
    if probe_runs {
        // Local aggregation + serialization: two charged sorts each,
        // measured on the real tokens.
        let probe_rounds = outs.next().expect("probe outcome").rounds();
        ledger.charge("equiv/f2/aggregate", probe_rounds);
        ledger.charge("equiv/f2/serialize", probe_rounds);
        sort_calls += 2;
    }
    if final_runs {
        let rounds = outs.next().expect("pair-sort outcome").rounds();
        ledger.charge("equiv/f2/pair-sort", rounds);
        // The escort trip back costs the same as the dummies' journey.
        ledger.charge("equiv/f2/escort", rounds);
        sort_calls += 1;
    }

    let mut outcome = RoutingOutcome::at_sources(inst);
    outcome.positions.clone_from(&outcome.destinations);
    outcome.ledger = ledger;
    Ok(RouteViaSorting { outcome, sort_calls })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;
    use expander_graphs::generators;

    fn router(n: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn f1_sorts_correctly() {
        let r = router(64, 1);
        let inst = SortInstance::random(64, 1, 2);
        let res = sort_via_routing(&r, &inst).expect("valid");
        assert!(res.outcome.is_sorted(&inst, 64, 1));
        assert!(res.route_calls >= 2);
        // Batcher depth bound: 2 calls per layer.
        let depth = odd_even_layers(64).len() as u64;
        assert!(res.route_calls <= 2 * depth);
    }

    #[test]
    fn f2_delivers_correctly() {
        let r = router(128, 2);
        let inst = RoutingInstance::permutation(128, 3);
        let res = route_via_sorting(&r, &inst).expect("valid");
        assert!(res.outcome.fully_delivered());
        assert!(res.sort_calls <= 5, "O(1) sorts, got {}", res.sort_calls);
        assert!(res.outcome.rounds() > 0);
    }

    #[test]
    fn f2_overhead_is_constant_factor() {
        let r = router(128, 3);
        let inst = RoutingInstance::permutation(128, 4);
        let native = r.route(&inst).expect("valid").rounds();
        let via = route_via_sorting(&r, &inst).expect("valid").outcome.rounds();
        // Tsort and Troute are within polylog factors of each other;
        // the F.2 reduction multiplies by a small constant.
        assert!(via < 400 * native.max(1), "via {via} vs native {native}");
    }
}
