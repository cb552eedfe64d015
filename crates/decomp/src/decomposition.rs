//! (ε, φ) expander decomposition of general graphs.
//!
//! Corollary 1.4 applies expander routing to *general* graphs through
//! an expander decomposition: remove at most an ε fraction of edges so
//! every remaining connected component is a φ-expander (paper §1.1,
//! following [CPSZ21, CS20]). This module implements the classic
//! recursive sweep-cut construction: while a component has a cut of
//! conductance below φ, split along it; components that pass the
//! spectral certificate become clusters. With `φ = ε/Θ(log n)` the
//! removed fraction is at most ε.
//!
//! Round accounting: each recursion level charges the distributed
//! sparse-cut cost at the paper's modeled rate (the deterministic
//! CONGEST construction is CS20's own result; substitution 4 in
//! `docs/ARCHITECTURE.md` applies here too).

use congest_sim::{cost, RoundLedger};
use expander_graphs::{metrics, Graph, VertexId};

/// Result of an expander decomposition.
#[derive(Debug, Clone)]
pub struct ExpanderDecomposition {
    /// Disjoint clusters covering all vertices (each sorted).
    pub clusters: Vec<Vec<VertexId>>,
    /// `cluster_of[v]` = index into `clusters`.
    pub cluster_of: Vec<u32>,
    /// Removed (inter-cluster) edges.
    pub cut_edges: Vec<(VertexId, VertexId)>,
    /// Fraction of edges removed (the achieved ε).
    pub cut_fraction: f64,
    /// The conductance certificate each cluster passed.
    pub phi: f64,
    /// Charged construction rounds.
    pub ledger: RoundLedger,
}

impl ExpanderDecomposition {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the decomposition is empty (empty graph).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// Decomposes `g` so that every cluster has no sweep cut of conductance
/// below `phi` (a Cheeger-style certificate) and at most an
/// `O(φ·log n)` fraction of edges is removed.
///
/// # Panics
///
/// Panics if `phi` is not in `(0, 1)`.
pub fn expander_decomposition(g: &Graph, phi: f64, seed: u64) -> ExpanderDecomposition {
    assert!(phi > 0.0 && phi < 1.0, "phi must be in (0, 1)");
    let n = g.n();
    let mut ledger = RoundLedger::new();
    let mut clusters: Vec<Vec<VertexId>> = Vec::new();
    // Work stack of vertex sets (global ids).
    let mut stack: Vec<Vec<VertexId>> = vec![(0..n as u32).collect()];
    let mut guard = 0usize;
    while let Some(set) = stack.pop() {
        guard += 1;
        assert!(guard <= 8 * n + 16, "decomposition failed to terminate");
        if set.len() <= 2 {
            // A 2-set handed down from a sweep-cut side can be a
            // disconnected pair; clusters must stay connected, so
            // split it into singletons. Empty sets (empty graph) are
            // dropped entirely.
            if set.len() == 2 && !g.has_edge(set[0], set[1]) {
                clusters.push(vec![set[0]]);
                clusters.push(vec![set[1]]);
            } else if !set.is_empty() {
                clusters.push(set);
            }
            continue;
        }
        let (sub, map) = g.induced_subgraph(&set);
        // Disconnected pieces split for free.
        let (comp, count) = sub.components();
        if count > 1 {
            let mut parts: Vec<Vec<VertexId>> = vec![Vec::new(); count];
            for (local, &c) in comp.iter().enumerate() {
                parts[c as usize].push(map[local]);
            }
            stack.extend(parts);
            continue;
        }
        if sub.m() == 0 {
            for v in set {
                clusters.push(vec![v]);
            }
            continue;
        }
        // Sweep cut: the constructive side of Cheeger's inequality.
        let (side, cut_phi) = metrics::sweep_cut(&sub, seed ^ set.len() as u64);
        // Charge the distributed sparse-cut computation: a
        // spectral-power-iteration style pass is O(log n / phi) rounds
        // on the component, at unit quality (we are in the base graph).
        ledger.charge(
            "decomp/sparse-cut",
            cost::diameter_primitive(
                ((set.len() as f64).log2().ceil() as u64 + 1) * (1.0 / phi).ceil() as u64,
                2,
            ),
        );
        if cut_phi >= phi || !side.iter().any(|&b| b) || side.iter().all(|&b| b) {
            // Certificate passed: this is a cluster.
            clusters.push(set);
            continue;
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (local, &s) in side.iter().enumerate() {
            if s {
                a.push(map[local]);
            } else {
                b.push(map[local]);
            }
        }
        stack.push(a);
        stack.push(b);
    }

    for c in clusters.iter_mut() {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| c.first().copied().unwrap_or(0));
    let mut cluster_of = vec![u32::MAX; n];
    for (ci, c) in clusters.iter().enumerate() {
        for &v in c {
            cluster_of[v as usize] = ci as u32;
        }
    }
    let cut_edges: Vec<(u32, u32)> =
        g.edges().filter(|&(u, v)| cluster_of[u as usize] != cluster_of[v as usize]).collect();
    let cut_fraction = if g.m() == 0 { 0.0 } else { cut_edges.len() as f64 / g.m() as f64 };
    ExpanderDecomposition { clusters, cluster_of, cut_edges, cut_fraction, phi, ledger }
}

/// Picks `φ = epsilon / (4·log₂ n)` so the recursive construction
/// removes at most an `epsilon` fraction of edges, then decomposes.
pub fn decomposition_for_epsilon(g: &Graph, epsilon: f64, seed: u64) -> ExpanderDecomposition {
    let logn = (g.n().max(2) as f64).log2();
    let phi = (epsilon / (4.0 * logn)).clamp(1e-6, 0.5);
    expander_decomposition(g, phi, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_graphs::generators;

    fn check_partition(g: &Graph, d: &ExpanderDecomposition) {
        let mut seen = vec![false; g.n()];
        for c in &d.clusters {
            for &v in c {
                assert!(!seen[v as usize], "vertex {v} in two clusters");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some vertex unclustered");
    }

    #[test]
    fn expander_stays_whole() {
        let g = generators::random_regular(256, 4, 1).unwrap();
        let d = expander_decomposition(&g, 0.05, 2);
        check_partition(&g, &d);
        assert_eq!(d.len(), 1, "an expander needs no cuts");
        assert_eq!(d.cut_edges.len(), 0);
    }

    #[test]
    fn ring_of_cliques_splits_into_cliques() {
        let g = generators::ring_of_cliques(6, 12); // 72 vertices
        let d = expander_decomposition(&g, 0.2, 3);
        check_partition(&g, &d);
        assert!(d.len() >= 4, "expected the cliques to separate, got {}", d.len());
        // Removed edges are only the ring connectors (6 of them) —
        // allow slack for uneven sweep cuts.
        assert!(d.cut_edges.len() <= 14, "cut {} edges", d.cut_edges.len());
        assert!(d.cut_fraction < 0.05);
    }

    #[test]
    fn barbell_splits_at_the_bridge() {
        let g = generators::barbell(12);
        let d = expander_decomposition(&g, 0.2, 4);
        check_partition(&g, &d);
        assert_eq!(d.len(), 2);
        assert_eq!(d.cut_edges.len(), 1, "only the bridge is removed");
    }

    #[test]
    fn clusters_pass_the_certificate() {
        let g = generators::ring_of_cliques(4, 10);
        let d = expander_decomposition(&g, 0.15, 5);
        for c in &d.clusters {
            if c.len() < 4 {
                continue;
            }
            let (sub, _) = g.induced_subgraph(c);
            if !sub.is_connected() || sub.m() == 0 {
                continue;
            }
            let (_, cut_phi) = metrics::sweep_cut(&sub, 7);
            assert!(
                cut_phi >= d.phi * 0.9,
                "cluster of size {} has sweep cut {cut_phi} < phi {}",
                c.len(),
                d.phi
            );
        }
    }

    #[test]
    fn epsilon_budget_respected_on_clustered_input() {
        let g = generators::ring_of_cliques(8, 12);
        let d = decomposition_for_epsilon(&g, 0.3, 6);
        check_partition(&g, &d);
        assert!(d.cut_fraction <= 0.3, "removed {:.3} of edges, budget 0.3", d.cut_fraction);
        assert!(d.ledger.total() > 0, "construction rounds charged");
    }

    #[test]
    fn clusters_are_always_connected() {
        // Includes a graph with isolated vertices and bridge-heavy
        // trees whose sweep-cut sides can be disconnected pairs.
        let mut zoo = vec![
            generators::bridge_tree(7, 4),
            generators::path(40),
            Graph::from_edges(10, &[(0, 1), (4, 5), (8, 9)]),
        ];
        zoo.push(generators::bridged_expanders(16, 4, 1, 3).unwrap());
        for g in zoo {
            let d = expander_decomposition(&g, 0.3, 11);
            check_partition(&g, &d);
            for c in &d.clusters {
                assert!(!c.is_empty(), "no empty clusters");
                if c.len() >= 2 {
                    let (sub, _) = g.induced_subgraph(c);
                    assert!(sub.is_connected(), "cluster {c:?} is disconnected");
                }
            }
        }
    }

    #[test]
    fn low_conductance_control_gets_many_clusters() {
        let g = generators::ring(64);
        let d = expander_decomposition(&g, 0.3, 7);
        check_partition(&g, &d);
        assert!(d.len() > 2, "a ring is no expander: {} clusters", d.len());
    }
}
