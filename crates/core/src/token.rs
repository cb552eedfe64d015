//! Routing and sorting instances and their outcomes — the data model
//! of the paper's task definitions.
//!
//! * [`RoutingInstance`] / [`RouteToken`] — a Task 1 instance
//!   (Definition 4.1): every vertex sources and sinks at most `L`
//!   tokens; [`RoutingInstance::load`] computes that `L`. Named
//!   workload constructors (permutations, bit reversal, transpose,
//!   hotspots) feed the experiment harness.
//! * [`SortInstance`] / [`SortToken`] — an expander-sorting instance
//!   (Theorem 5.6 / Appendix F): at most `L` tokens per vertex, keys
//!   to end up non-decreasing in vertex-ID order.
//! * [`RoutingOutcome`] / [`SortOutcome`] — final token positions plus
//!   the charged-round [`RoundLedger`] (Fact 2.2 accounting) and the
//!   paper-facing [`QueryStats`]: the Lemma 6.6 per-round load trace,
//!   Lemma 6.2 dispersion-envelope checks, and the observed
//!   congestion/dilation of every measured movement leg.
//!   [`RoutingOutcome`] is the one outcome of every router: tokens it
//!   cannot deliver come back as structured [`Undeliverable`] reports,
//!   and [`RoutingOutcome::verify`] checks that route-or-report
//!   contract.

use congest_sim::RoundLedger;
use expander_graphs::VertexId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// One token of a routing instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteToken {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Opaque user payload.
    pub payload: u64,
}

/// A Task 1 instance (Definition 4.1): each vertex is the source and
/// the destination of at most `L` tokens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingInstance {
    /// The tokens to deliver.
    pub tokens: Vec<RouteToken>,
}

impl RoutingInstance {
    /// Builds an instance from `(src, dst, payload)` triples.
    pub fn from_triples(triples: &[(VertexId, VertexId, u64)]) -> Self {
        RoutingInstance {
            tokens: triples
                .iter()
                .map(|&(src, dst, payload)| RouteToken { src, dst, payload })
                .collect(),
        }
    }

    /// A seeded random permutation instance: vertex `v` sends one token
    /// to `π(v)` (load `L = 1`).
    pub fn permutation(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut targets: Vec<u32> = (0..n as u32).collect();
        targets.shuffle(&mut rng);
        RoutingInstance {
            tokens: (0..n as u32)
                .map(|v| RouteToken { src: v, dst: targets[v as usize], payload: v as u64 })
                .collect(),
        }
    }

    /// A seeded instance with exactly `l` tokens per source, targets
    /// chosen as `l` random permutations (so destination load is `l`).
    pub fn uniform_load(n: usize, l: usize, seed: u64) -> Self {
        let mut tokens = Vec::with_capacity(n * l);
        for round in 0..l {
            let p = RoutingInstance::permutation(n, seed.wrapping_add(round as u64 * 7919));
            tokens.extend(p.tokens.iter().map(|t| RouteToken {
                src: t.src,
                dst: t.dst,
                // Round tag in the high bits, source vertex id (set by
                // `permutation`) in the low bits — unique per token.
                payload: t.payload | ((round as u64) << 32),
            }));
        }
        RoutingInstance { tokens }
    }

    /// A seeded *partial* permutation: `k` tokens with distinct random
    /// sources and distinct random destinations (load `L = 1`, `k ≤ n`
    /// tokens). The shape of multi-tenant query traffic: each query
    /// touches a slice of the graph, not every vertex.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn partial_permutation(n: usize, k: usize, seed: u64) -> Self {
        assert!(k <= n, "at most one token per source");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut srcs: Vec<u32> = (0..n as u32).collect();
        srcs.shuffle(&mut rng);
        let mut dsts: Vec<u32> = (0..n as u32).collect();
        dsts.shuffle(&mut rng);
        RoutingInstance {
            tokens: (0..k)
                .map(|i| RouteToken { src: srcs[i], dst: dsts[i], payload: i as u64 })
                .collect(),
        }
    }

    /// The classic adversarial bit-reversal permutation: vertex `v`
    /// sends to the bit-reversal of `v` (requires `n` a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn bit_reversal(n: usize) -> Self {
        assert!(n.is_power_of_two(), "bit reversal needs a power of two");
        let bits = n.trailing_zeros();
        RoutingInstance {
            tokens: (0..n as u32)
                .map(|v| RouteToken {
                    src: v,
                    dst: v.reverse_bits() >> (32 - bits),
                    payload: v as u64,
                })
                .collect(),
        }
    }

    /// The matrix-transpose permutation on a `rows × cols` grid of
    /// vertices: `(r, c) -> (c, r)` (requires `rows == cols` for a
    /// permutation; the instance covers `rows·cols` vertices).
    pub fn transpose(side: usize) -> Self {
        let n = side * side;
        RoutingInstance {
            tokens: (0..n as u32)
                .map(|v| {
                    let (r, c) = (v as usize / side, v as usize % side);
                    RouteToken { src: v, dst: (c * side + r) as u32, payload: v as u64 }
                })
                .collect(),
        }
    }

    /// A cyclic shift: vertex `v` sends to `v + distance (mod n)`.
    pub fn shift(n: usize, distance: usize) -> Self {
        RoutingInstance {
            tokens: (0..n as u32)
                .map(|v| RouteToken {
                    src: v,
                    dst: ((v as usize + distance) % n) as u32,
                    payload: v as u64,
                })
                .collect(),
        }
    }

    /// A hotspot workload: sources spread over all vertices, targets
    /// concentrated on `spots` vertices, capped at `cap` tokens per
    /// target (so the instance load is `max(1, cap)`).
    pub fn hotspot(n: usize, spots: usize, cap: usize, seed: u64) -> Self {
        assert!(spots >= 1 && spots <= n, "spot count out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens = Vec::new();
        let mut per_spot = vec![0usize; spots];
        let mut srcs: Vec<u32> = (0..n as u32).collect();
        srcs.shuffle(&mut rng);
        for &src in &srcs {
            let spot = rng.gen_range(0..spots);
            if per_spot[spot] < cap {
                per_spot[spot] += 1;
                tokens.push(RouteToken {
                    src,
                    dst: (spot * (n / spots)) as u32,
                    payload: src as u64,
                });
            }
        }
        RoutingInstance { tokens }
    }

    /// Checks that every token's endpoints lie in `0..n`.
    ///
    /// # Errors
    ///
    /// Names the first token with an endpoint outside `0..n`.
    pub fn validate(&self, n: usize) -> Result<(), InstanceError> {
        match self.tokens.iter().find(|t| t.src as usize >= n || t.dst as usize >= n) {
            Some(t) => Err(InstanceError::new(format!(
                "token ({}, {}) outside vertex range",
                t.src, t.dst
            ))),
            None => Ok(()),
        }
    }

    /// The instance's load `L`: the maximum, over vertices, of tokens
    /// sourced at or destined to that vertex.
    ///
    /// # Panics
    ///
    /// Panics if a token has an endpoint outside `0..n`
    /// ([`RoutingInstance::validate`] checks this).
    pub fn load(&self, n: usize) -> usize {
        let mut src_load = vec![0usize; n];
        let mut dst_load = vec![0usize; n];
        for t in &self.tokens {
            src_load[t.src as usize] += 1;
            dst_load[t.dst as usize] += 1;
        }
        src_load.iter().chain(dst_load.iter()).copied().max().unwrap_or(0)
    }
}

/// One token of a sorting instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortToken {
    /// The vertex initially holding the token.
    pub src: VertexId,
    /// The (not necessarily unique) sort key.
    pub key: u64,
    /// Opaque user payload.
    pub payload: u64,
}

/// An expander-sorting instance (Theorem 5.6 / Appendix F): each vertex
/// holds at most `L` tokens; afterwards keys must be non-decreasing in
/// vertex-ID order with at most `L` tokens per vertex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortInstance {
    /// The tokens to sort.
    pub tokens: Vec<SortToken>,
}

impl SortInstance {
    /// Builds an instance from `(src, key, payload)` triples.
    pub fn from_triples(triples: &[(VertexId, u64, u64)]) -> Self {
        SortInstance {
            tokens: triples
                .iter()
                .map(|&(src, key, payload)| SortToken { src, key, payload })
                .collect(),
        }
    }

    /// A seeded instance with `l` tokens of random keys per vertex.
    pub fn random(n: usize, l: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tokens = Vec::with_capacity(n * l);
        for v in 0..n as u32 {
            for i in 0..l {
                tokens.push(SortToken {
                    src: v,
                    key: rng.gen_range(0..1_000_000),
                    payload: (v as u64) << 8 | i as u64,
                });
            }
        }
        SortInstance { tokens }
    }

    /// Checks that every token's source lies in `0..n`.
    ///
    /// # Errors
    ///
    /// Names the first token whose source is outside `0..n`.
    pub fn validate(&self, n: usize) -> Result<(), InstanceError> {
        match self.tokens.iter().find(|t| t.src as usize >= n) {
            Some(t) => Err(InstanceError::new(format!("source {} outside range", t.src))),
            None => Ok(()),
        }
    }

    /// Maximum tokens per source vertex.
    ///
    /// # Panics
    ///
    /// Panics if a token's source is outside `0..n`
    /// ([`SortInstance::validate`] checks this).
    pub fn load(&self, n: usize) -> usize {
        let mut l = vec![0usize; n];
        for t in &self.tokens {
            l[t.src as usize] += 1;
        }
        l.into_iter().max().unwrap_or(0)
    }
}

/// Error for malformed instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceError {
    message: String,
}

impl InstanceError {
    /// Creates an error with a human-readable message. Public so that
    /// out-of-crate [`crate::arena::RoutingAlgorithm`] implementations
    /// (the `expander-baselines` crate) can reject malformed instances
    /// through the same error type as the in-crate routers.
    pub fn new(message: impl Into<String>) -> Self {
        InstanceError { message: message.into() }
    }
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instance: {}", self.message)
    }
}

impl Error for InstanceError {}

/// Statistics collected while executing a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Maximum per-vertex load observed during dispersal, per shuffler
    /// iteration (Lemma 6.6's quantity), worst over all Task 3 calls.
    /// `u32` suffices: per-round loads are bounded by the flock size,
    /// far below `2³²` (see `tests/overflow_bounds.rs`).
    pub max_load_trace: Vec<u32>,
    /// Tokens delivered through the merge fallback's shortest-path leg
    /// instead of the dummy-escort pairing (substitution 6 in
    /// `docs/ARCHITECTURE.md`). Each leg is charged by the bound
    /// `2·D̂` (the root node's `diameter` doubled), not walked, so
    /// `query/task3/fallback` is `fallback_tokens × 2·D̂`. Not a
    /// small-`n` effect: traced over the benchmark's workloads it is
    /// 0.65 of the tokens on `deep_batch` and 0.064 on
    /// `shallow_stream`.
    pub fallback_tokens: u64,
    /// `(i, l)` dispersion-envelope violations observed (Lemma 6.2's
    /// bound with the `λt` additive term).
    pub dispersion_violations: u64,
    /// Dispersion pairs checked.
    pub dispersion_checked: u64,
    /// Task 3 invocations.
    pub task3_calls: u64,
    /// Expander-sort subcalls charged via the cost model.
    pub charged_sorts: u64,
    /// Worst per-edge congestion observed across the query's walked
    /// movement legs: ingress, dispersal, `M*` hops and egress. The
    /// merge fallback's legs are charged by a bound instead of walked,
    /// so they are counted in `fallback_tokens`, not here.
    pub max_congestion: u64,
    /// Worst path dilation (hops) observed across those walked legs.
    pub max_dilation: u64,
}

impl QueryStats {
    /// Folds an element-wise maximum of a per-round load trace (the
    /// Lemma 6.6 quantity) into this record's trace, extending it as
    /// needed — used when replaying a cached dummy dispersal and when
    /// aggregating a batch.
    pub fn absorb_trace_maxima(&mut self, trace: &[u32]) {
        if self.max_load_trace.len() < trace.len() {
            self.max_load_trace.resize(trace.len(), 0);
        }
        for (slot, &load) in self.max_load_trace.iter_mut().zip(trace) {
            *slot = (*slot).max(load);
        }
    }

    /// Folds another record into `self` the way batch aggregation
    /// does: sums for the counters, element-wise maxima for the load
    /// trace and the congestion/dilation observations.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.max_congestion = self.max_congestion.max(other.max_congestion);
        self.max_dilation = self.max_dilation.max(other.max_dilation);
        self.fallback_tokens += other.fallback_tokens;
        self.dispersion_violations += other.dispersion_violations;
        self.dispersion_checked += other.dispersion_checked;
        self.task3_calls += other.task3_calls;
        self.charged_sorts += other.charged_sorts;
        self.absorb_trace_maxima(&other.max_load_trace);
    }
}

/// Why a token could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UndeliverableReason {
    /// Source and destination live in different expander pieces of a
    /// decomposition: the token would have to cross removed cut edges,
    /// where the paper's routing precondition (one φ-expander) does not
    /// hold.
    CrossPiece {
        /// Piece index of the source.
        src_piece: u32,
        /// Piece index of the destination.
        dst_piece: u32,
    },
    /// No path joins source and destination in the graph (or piece)
    /// the router works on.
    NoPath {
        /// Source vertex (global id).
        src: VertexId,
        /// Destination vertex (global id).
        dst: VertexId,
    },
}

/// A token a router could not deliver, with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Undeliverable {
    /// Index of the token in the instance.
    pub token: usize,
    /// Why it stays at its source.
    pub reason: UndeliverableReason,
}

impl fmt::Display for Undeliverable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            UndeliverableReason::CrossPiece { src_piece, dst_piece } => write!(
                f,
                "token {} undeliverable: crosses pieces {src_piece} -> {dst_piece}",
                self.token
            ),
            UndeliverableReason::NoPath { src, dst } => {
                write!(f, "token {} undeliverable: no path {src} -> {dst}", self.token)
            }
        }
    }
}

/// Outcome of a routing query, from any router: every token is either
/// delivered or reported in [`RoutingOutcome::undeliverable`].
///
/// Derives `PartialEq` over every field, ledger included, so
/// byte-identical determinism checks are a single `assert_eq!`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// Final position of each token (aligned with the instance).
    /// Undeliverable tokens stay at their source.
    pub positions: Vec<VertexId>,
    /// Destination of each token (copied from the instance).
    pub destinations: Vec<VertexId>,
    /// Tokens the router could not deliver, strictly increasing by
    /// token index. Always empty for Theorem 1.1 routing.
    pub undeliverable: Vec<Undeliverable>,
    /// Per-edge traversal counts indexed by `Graph::edge_id`, when the
    /// router tracks flat loads (the arena baselines do). Empty for
    /// the hierarchical routers, which account congestion per measured
    /// movement leg in [`QueryStats::max_congestion`] instead.
    pub edge_loads: Vec<u32>,
    /// Charged rounds, by phase.
    pub ledger: RoundLedger,
    /// Execution statistics, including the worst congestion and
    /// dilation observed.
    pub stats: QueryStats,
}

impl RoutingOutcome {
    /// The outcome before any routing: every token at its source,
    /// nothing reported, nothing charged.
    pub fn at_sources(inst: &RoutingInstance) -> Self {
        RoutingOutcome {
            positions: inst.tokens.iter().map(|t| t.src).collect(),
            destinations: inst.tokens.iter().map(|t| t.dst).collect(),
            undeliverable: Vec::new(),
            edge_loads: Vec::new(),
            ledger: RoundLedger::new(),
            stats: QueryStats::default(),
        }
    }

    /// Whether every token sits at its destination and none is
    /// reported undeliverable.
    pub fn fully_delivered(&self) -> bool {
        self.undeliverable.is_empty() && self.positions == self.destinations
    }

    /// Number of tokens delivered to their destination.
    pub fn delivered_count(&self) -> usize {
        self.positions.len() - self.undeliverable.len()
    }

    /// Total charged rounds for the query.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Checks the route-or-report contract against the instance: the
    /// outcome is aligned with it, destinations are copied faithfully,
    /// reports are strictly increasing and in range, every reported
    /// token sits untouched at its source, every other token sits at
    /// its destination, and flat edge loads (when present) peak at
    /// exactly [`QueryStats::max_congestion`]. Returns human-readable
    /// violations; empty when consistent.
    pub fn verify(&self, inst: &RoutingInstance) -> Vec<String> {
        let n = inst.tokens.len();
        if self.positions.len() != n || self.destinations.len() != n {
            return vec!["outcome not aligned with instance".to_owned()];
        }
        let mut issues = Vec::new();
        if !self.undeliverable.windows(2).all(|w| w[0].token < w[1].token) {
            issues.push("undeliverable reports not strictly increasing by token".to_owned());
        }
        let mut reported = vec![false; n];
        for u in &self.undeliverable {
            match reported.get_mut(u.token) {
                Some(r) => *r = true,
                None => issues.push(format!("undeliverable report for bogus token {}", u.token)),
            }
        }
        for (i, t) in inst.tokens.iter().enumerate() {
            let (pos, dst) = (self.positions[i], self.destinations[i]);
            if dst != t.dst {
                issues.push(format!("token {i}: destination {dst} != instance {}", t.dst));
            }
            if reported[i] {
                if pos != t.src {
                    issues.push(format!(
                        "token {i} reported undeliverable but moved {} -> {pos}",
                        t.src
                    ));
                }
            } else if pos != t.dst {
                issues.push(format!(
                    "token {i} neither delivered (at {pos}, wants {}) nor reported",
                    t.dst
                ));
            }
        }
        if let Some(&peak) = self.edge_loads.iter().max() {
            if u64::from(peak) != self.stats.max_congestion {
                issues.push(format!(
                    "flat edge loads peak at {peak} but max_congestion claims {}",
                    self.stats.max_congestion
                ));
            }
        }
        issues
    }
}

/// Outcome of a sorting query.
#[derive(Debug, Clone)]
pub struct SortOutcome {
    /// Final position of each token (aligned with the instance).
    pub positions: Vec<VertexId>,
    /// Charged rounds, by phase.
    pub ledger: RoundLedger,
    /// Execution statistics (empty for reduction-level outcomes that
    /// never touch the physical dispersal machinery).
    pub stats: QueryStats,
}

impl SortOutcome {
    /// Total charged rounds.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Verifies the sorting postcondition against the instance: for
    /// tokens `x` at `u` and `y` at `v` with `ID(u) < ID(v)`,
    /// `key(x) <= key(y)`, and no vertex holds more than `load` tokens.
    pub fn is_sorted(&self, inst: &SortInstance, n: usize, load: usize) -> bool {
        let mut per_vertex: Vec<Vec<u64>> = vec![Vec::new(); n];
        for (i, &p) in self.positions.iter().enumerate() {
            per_vertex[p as usize].push(inst.tokens[i].key);
        }
        let mut prev_max: Option<u64> = None;
        for keys in &per_vertex {
            if keys.len() > load {
                return false;
            }
            if keys.is_empty() {
                continue;
            }
            let lo = *keys.iter().min().expect("non-empty");
            let hi = *keys.iter().max().expect("non-empty");
            if let Some(pm) = prev_max {
                if lo < pm {
                    return false;
                }
            }
            prev_max = Some(hi);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_has_unit_load() {
        let inst = RoutingInstance::permutation(64, 1);
        assert_eq!(inst.tokens.len(), 64);
        assert_eq!(inst.load(64), 1);
    }

    #[test]
    fn uniform_load_is_l() {
        let inst = RoutingInstance::uniform_load(32, 3, 2);
        assert_eq!(inst.tokens.len(), 96);
        assert_eq!(inst.load(32), 3);
    }

    #[test]
    fn partial_permutation_has_unit_load() {
        let inst = RoutingInstance::partial_permutation(64, 16, 3);
        assert_eq!(inst.tokens.len(), 16);
        assert_eq!(inst.load(64), 1);
        let srcs: std::collections::HashSet<u32> = inst.tokens.iter().map(|t| t.src).collect();
        let dsts: std::collections::HashSet<u32> = inst.tokens.iter().map(|t| t.dst).collect();
        assert_eq!(srcs.len(), 16);
        assert_eq!(dsts.len(), 16);
    }

    #[test]
    fn bit_reversal_is_a_permutation() {
        let inst = RoutingInstance::bit_reversal(16);
        let mut dsts: Vec<u32> = inst.tokens.iter().map(|t| t.dst).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, (0..16u32).collect::<Vec<_>>());
        assert_eq!(inst.tokens[1].dst, 8, "0001 reversed over 4 bits is 1000");
        assert_eq!(inst.load(16), 1);
    }

    #[test]
    fn transpose_is_an_involution() {
        let inst = RoutingInstance::transpose(5);
        assert_eq!(inst.load(25), 1);
        for t in &inst.tokens {
            let (r, c) = (t.src as usize / 5, t.src as usize % 5);
            assert_eq!(t.dst as usize, c * 5 + r);
        }
    }

    #[test]
    fn shift_wraps_around() {
        let inst = RoutingInstance::shift(10, 3);
        assert_eq!(inst.tokens[9].dst, 2);
        assert_eq!(inst.load(10), 1);
    }

    #[test]
    fn hotspot_respects_cap() {
        let inst = RoutingInstance::hotspot(64, 4, 5, 7);
        assert!(inst.load(64) <= 5);
        let dsts: std::collections::HashSet<u32> = inst.tokens.iter().map(|t| t.dst).collect();
        assert!(dsts.len() <= 4, "at most 4 hotspots");
    }

    #[test]
    fn sort_instance_load() {
        let inst = SortInstance::random(16, 2, 3);
        assert_eq!(inst.load(16), 2);
    }

    #[test]
    fn outcome_delivery_check() {
        let inst = RoutingInstance::from_triples(&[(0, 1, 0), (1, 2, 1)]);
        let mut o = RoutingOutcome::at_sources(&inst);
        assert!(!o.fully_delivered());
        o.positions = vec![1, 2];
        assert!(o.fully_delivered());
        assert_eq!(o.delivered_count(), 2);
    }

    /// Each `verify` rule, broken alone, yields exactly one violation.
    #[test]
    fn verify_flags_each_inconsistency_once() {
        fn report(token: usize, src: VertexId, dst: VertexId) -> Undeliverable {
            Undeliverable { token, reason: UndeliverableReason::NoPath { src, dst } }
        }
        let inst = RoutingInstance::from_triples(&[(0, 4, 0), (1, 5, 1), (2, 6, 2)]);
        let mut good = RoutingOutcome::at_sources(&inst);
        good.positions[0] = 4;
        good.undeliverable = vec![report(1, 1, 5), report(2, 2, 6)];
        good.edge_loads = vec![2, 0, 1];
        good.stats.max_congestion = 2;
        assert!(good.verify(&inst).is_empty(), "{:?}", good.verify(&inst));
        assert_eq!(good.delivered_count(), 1);

        type Corrupt = fn(&mut RoutingOutcome);
        let broken: [(&str, Corrupt); 8] = [
            ("misaligned", |o| {
                o.positions.pop();
            }),
            ("wrong destination", |o| o.destinations[0] = 5),
            ("unsorted report", |o| o.undeliverable.swap(0, 1)),
            ("duplicate report", |o| o.undeliverable.push(o.undeliverable[1])),
            ("bogus report", |o| o.undeliverable.push(report(9, 0, 0))),
            ("reported token moved", |o| o.positions[1] = 3),
            ("unreported undelivered token", |o| o.positions[0] = 3),
            ("edge-load peak", |o| o.stats.max_congestion = 3),
        ];
        for (rule, corrupt) in broken {
            let mut o = good.clone();
            corrupt(&mut o);
            assert_eq!(o.verify(&inst).len(), 1, "{rule}: {:?}", o.verify(&inst));
        }
    }

    #[test]
    fn sortedness_check_works() {
        let inst = SortInstance::from_triples(&[(0, 9, 0), (1, 1, 0), (2, 5, 0)]);
        let good = SortOutcome {
            positions: vec![2, 0, 1],
            ledger: RoundLedger::new(),
            stats: QueryStats::default(),
        };
        assert!(good.is_sorted(&inst, 3, 1));
        let bad = SortOutcome {
            positions: vec![0, 1, 2],
            ledger: RoundLedger::new(),
            stats: QueryStats::default(),
        };
        assert!(!bad.is_sorted(&inst, 3, 1));
        let overloaded = SortOutcome {
            positions: vec![0, 0, 0],
            ledger: RoundLedger::new(),
            stats: QueryStats::default(),
        };
        assert!(!overloaded.is_sorted(&inst, 3, 1));
        assert!(overloaded.is_sorted(&inst, 3, 3));
    }
}
