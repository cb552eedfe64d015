//! Greedy deterministic local routing (cf. arXiv:2403.07410).
//!
//! Haeupler–Räcke–Ghaffari-style local routing makes every forwarding
//! decision from information available *at the current vertex*. This
//! baseline is the deterministic greedy member of that family:
//!
//! * Every vertex knows hop distances toward each destination in play
//!   (the local routing tables; computing them is preprocessing and
//!   stays off the query ledger, like every other algorithm's
//!   preprocessing in the arena).
//! * Time is synchronous rounds. In a round, each *directed* edge
//!   carries at most one token (unit-capacity CONGEST links) — the
//!   per-edge buffer discipline.
//! * Waiting tokens are prioritized by (remaining distance, token
//!   index); each token's next hop from vertex `v` is the fixed
//!   neighbor minimizing (distance-to-destination, vertex id). A
//!   blocked token *waits* — it never reroutes — so every token
//!   follows a static greedy path determined by `(src, dst)` alone.
//!
//! Deadlock-freedom is structural: the globally highest-priority
//! active token always wins its edge (edges are granted in priority
//! order within a round), and every granted hop strictly decreases the
//! token's remaining distance, so each round delivers progress and the
//! total rounds are bounded by the sum of initial distances. The
//! direct consequence used by the property suite: per-token paths are
//! oblivious, so per-edge loads are *additive* across tokens and
//! congestion is exactly monotone under taking any sub-instance.
//!
//! Rounds are counted directly (one ledger charge per executed
//! synchronous round, phase `baseline/local/forward`) rather than via
//! the Fact 2.2 product — this baseline actually simulates the
//! schedule the other algorithms only account for.

use expander_core::token::InstanceError;
use expander_core::{
    RoutingAlgorithm, RoutingInstance, RoutingOutcome, Undeliverable, UndeliverableReason,
};
use expander_graphs::{Graph, VertexId};

/// The greedy deterministic local-forwarding baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyLocalRouting;

impl GreedyLocalRouting {
    /// The baseline (stateless; all determinism comes from the rules).
    pub fn new() -> Self {
        GreedyLocalRouting
    }
}

impl RoutingAlgorithm for GreedyLocalRouting {
    fn name(&self) -> &'static str {
        "greedy-local"
    }

    fn route_instance(
        &self,
        g: &Graph,
        inst: &RoutingInstance,
    ) -> Result<RoutingOutcome, InstanceError> {
        crate::validate(g, inst)?;
        let n = g.n();
        let tokens = &inst.tokens;

        // Local routing tables: one BFS per distinct destination.
        let mut dsts: Vec<VertexId> = tokens.iter().map(|t| t.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        let mut table_of = vec![usize::MAX; n];
        let mut tables: Vec<Vec<u32>> = Vec::with_capacity(dsts.len());
        for (i, &d) in dsts.iter().enumerate() {
            table_of[d as usize] = i;
            tables.push(g.bfs_distances(d));
        }

        let mut out = RoutingOutcome::at_sources(inst);
        let mut edge_loads = vec![0u32; g.edge_id_count()];
        let mut dilation = 0u64;

        // Activate reachable tokens; report unreachable ones up front.
        let mut active: Vec<usize> = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.src == t.dst {
                continue;
            }
            let dist = tables[table_of[t.dst as usize]][t.src as usize];
            if dist == u32::MAX {
                out.undeliverable.push(Undeliverable {
                    token: i,
                    reason: UndeliverableReason::NoPath { src: t.src, dst: t.dst },
                });
            } else {
                dilation = dilation.max(u64::from(dist));
                active.push(i);
            }
        }
        // Synchronous execution. `used[2e + dir]` stamps the round in
        // which directed edge slot was granted; granting in priority
        // order makes the first token always progress, bounding the
        // loop by Σ distances (the cap below is a belt-and-suspenders
        // assert, not a reachable exit).
        let mut used = vec![0u64; 2 * g.edge_id_count()];
        let max_rounds: u64 = active
            .iter()
            .map(|&i| u64::from(tables[table_of[tokens[i].dst as usize]][tokens[i].src as usize]))
            .sum();
        let mut rounds = 0u64;
        while !active.is_empty() {
            rounds += 1;
            assert!(rounds <= max_rounds, "greedy local routing must progress every round");
            active.sort_by_key(|&i| {
                (tables[table_of[tokens[i].dst as usize]][out.positions[i] as usize], i)
            });
            let mut still_active = Vec::with_capacity(active.len());
            for &i in &active {
                let dst = tokens[i].dst;
                let dist = &tables[table_of[dst as usize]];
                let pos = out.positions[i];
                // Fixed next hop: best (distance, id) neighbor. A
                // strictly closer neighbor always exists on the BFS
                // tree toward `dst`.
                let hop = g
                    .neighbors(pos)
                    .iter()
                    .copied()
                    .min_by_key(|&w| (dist[w as usize], w))
                    .expect("reachable token's vertex has a neighbor");
                debug_assert_eq!(dist[hop as usize], dist[pos as usize] - 1);
                let e = g.edge_id(pos, hop).expect("adjacent") as usize;
                let slot = 2 * e + usize::from(pos > hop);
                if used[slot] == rounds {
                    still_active.push(i); // link busy this round: wait
                    continue;
                }
                used[slot] = rounds;
                edge_loads[e] += 1;
                out.positions[i] = hop;
                if hop != dst {
                    still_active.push(i);
                }
            }
            active = still_active;
        }

        if rounds > 0 {
            out.ledger.charge("baseline/local/forward", rounds);
        }
        out.stats.max_congestion = u64::from(edge_loads.iter().copied().max().unwrap_or(0));
        out.stats.max_dilation = dilation;
        out.edge_loads = edge_loads;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    #[test]
    fn delivers_permutation_on_expander() {
        let g = generators::random_regular(128, 4, 7).expect("generator");
        let inst = RoutingInstance::permutation(g.n(), 3);
        let out = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        assert!(out.fully_delivered());
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
        assert!(
            out.rounds() >= out.stats.max_dilation,
            "at least one round per hop of the longest path"
        );
    }

    #[test]
    fn dilation_is_max_shortest_path_distance() {
        // Greedy hops strictly decrease distance, so every delivered
        // token travels exactly its BFS distance.
        let g = generators::hypercube(6);
        let inst = RoutingInstance::permutation(g.n(), 9);
        let out = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        let want = inst
            .tokens
            .iter()
            .map(|t| u64::from(g.bfs_distances(t.dst)[t.src as usize]))
            .max()
            .unwrap();
        assert_eq!(out.stats.max_dilation, want);
        let moved: u64 = out.edge_loads.iter().map(|&l| u64::from(l)).sum();
        let dists: u64 =
            inst.tokens.iter().map(|t| u64::from(g.bfs_distances(t.dst)[t.src as usize])).sum();
        assert_eq!(moved, dists, "every token moves exactly its distance");
    }

    #[test]
    fn waits_under_contention_but_delivers() {
        // Three tokens start at the same vertex with the same greedy
        // path: the unit-capacity link serializes them, so rounds
        // exceed the dilation by the waiting time.
        let g = generators::ring(8);
        let inst = RoutingInstance::from_triples(&[(2, 0, 0), (2, 0, 1), (2, 0, 2)]);
        let out = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        assert!(out.fully_delivered());
        assert_eq!(out.stats.max_dilation, 2);
        assert_eq!(out.rounds(), 4, "pipeline drains one token per round behind the first");
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::power_law(200, 3, 17).expect("generator");
        let inst = RoutingInstance::hotspot(g.n(), 4, 8, 5);
        let a = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        let b = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn reports_unreachable_tokens() {
        let g = generators::disconnected_expanders(2, 32, 4, 5).expect("generator");
        let inst = RoutingInstance::from_triples(&[(0, 40, 0), (40, 1, 1), (2, 9, 2)]);
        let out = GreedyLocalRouting.route_instance(&g, &inst).expect("valid");
        let reported: Vec<usize> = out.undeliverable.iter().map(|u| u.token).collect();
        assert_eq!(reported, vec![0, 1]);
        assert!(out.verify(&inst).is_empty(), "{:?}", out.verify(&inst));
    }

    #[test]
    fn subset_loads_are_dominated() {
        // Oblivious static paths ⇒ dropping tokens can only shed load.
        let g = generators::random_regular(128, 4, 21).expect("generator");
        let full = RoutingInstance::permutation(g.n(), 13);
        let sub = RoutingInstance { tokens: full.tokens.iter().step_by(3).cloned().collect() };
        let a = GreedyLocalRouting.route_instance(&g, &full).expect("valid");
        let b = GreedyLocalRouting.route_instance(&g, &sub).expect("valid");
        for (e, (&fl, &sl)) in a.edge_loads.iter().zip(&b.edge_loads).enumerate() {
            assert!(sl <= fl, "edge {e}: subset load {sl} > full load {fl}");
        }
        assert!(b.stats.max_congestion <= a.stats.max_congestion);
    }
}
