//! Deterministic k-clique enumeration (Corollary 1.4).
//!
//! The group-partition listing of Censor-Hillel–Chang–Le Gall–
//! Leitersdorf: vertices are split into `s = ⌈n^{1/k}⌉ ` ID-ordered
//! groups; each of the `≈ n` group k-multisets is assigned to a
//! responsible vertex; every edge is shipped (one routing query) to the
//! vertices responsible for multisets containing both endpoint groups;
//! each responsible vertex lists the cliques of its multiset locally.
//! The destination load — and hence the charged round count — scales as
//! `Õ(n^{1−2/k})`, the paper's headline application bound.

use expander_core::token::InstanceError;
use expander_core::{QueryEngine, Router, RoutingInstance};
use expander_graphs::Graph;
use std::collections::{HashMap, HashSet};

/// Result of the clique enumeration.
#[derive(Debug, Clone)]
pub struct CliqueOutcome {
    /// Number of k-cliques found.
    pub count: u64,
    /// Charged rounds of the edge-shipping routing query.
    pub rounds: u64,
    /// Tokens shipped (edge copies).
    pub tokens: u64,
    /// Maximum per-vertex destination load (the `Õ(n^{1−2/k})`
    /// quantity).
    pub max_load: u64,
}

/// Enumerates all `k`-cliques of the engine's graph (`k ∈ {3, 4, 5}`).
///
/// Takes the batch engine rather than a bare router so repeated
/// listings (several `k` over one preprocessed graph) share its pooled
/// query scratch.
///
/// # Errors
///
/// Propagates routing-instance validation errors.
///
/// # Panics
///
/// Panics if `k` is outside `3..=5`.
pub fn enumerate_cliques(
    engine: &QueryEngine<'_>,
    k: usize,
) -> Result<CliqueOutcome, InstanceError> {
    assert!((3..=5).contains(&k), "k must be in 3..=5");
    let g = engine.router().graph();
    let n = g.n();
    let s = (n as f64).powf(1.0 / k as f64).ceil() as usize;
    let group_size = n.div_ceil(s);
    let group_of = |v: u32| (v as usize / group_size).min(s - 1);

    // Canonical k-multisets of group ids, assigned round-robin to
    // vertices.
    let multisets = multisets_of(s, k);
    let responsible: HashMap<Vec<usize>, u32> =
        multisets.iter().enumerate().map(|(i, m)| (m.clone(), (i % n) as u32)).collect();

    // Ship every edge to each responsible vertex of a multiset
    // containing both endpoint groups.
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let mut triples: Vec<(u32, u32, u64)> = Vec::new();
    let completions = multisets_of(s, k - 2);
    for (ei, &(u, v)) in edges.iter().enumerate() {
        let (gu, gv) = (group_of(u), group_of(v));
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        for completion in &completions {
            let mut m = vec![gu, gv];
            m.extend_from_slice(completion);
            m.sort_unstable();
            if seen.insert(m.clone()) {
                let dst = responsible[&m];
                triples.push((u, dst, ei as u64));
            }
        }
    }

    // One routing query ships all edge copies.
    let inst = RoutingInstance::from_triples(&triples);
    let max_load = inst.load(n) as u64;
    let out = engine.route_one(&inst)?;
    debug_assert!(out.fully_delivered());

    // Local listing at each responsible vertex.
    let mut received: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for (i, t) in triples.iter().enumerate() {
        debug_assert_eq!(out.positions[i], t.1);
        received.entry(t.1).or_default().push(edges[t.2 as usize]);
    }
    let mut count = 0u64;
    for (m, &owner) in &responsible {
        let Some(local_edges) = received.get(&owner) else { continue };
        count += count_cliques_for_multiset(local_edges, m, &group_of, k);
    }

    Ok(CliqueOutcome { count, rounds: out.rounds(), tokens: triples.len() as u64, max_load })
}

/// All non-decreasing `k`-tuples over `0..s`.
fn multisets_of(s: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut cur = vec![0usize; k];
    loop {
        out.push(cur.clone());
        // Next non-decreasing tuple.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] + 1 < s {
                let v = cur[i] + 1;
                for x in cur.iter_mut().skip(i) {
                    *x = v;
                }
                break;
            }
        }
    }
}

/// Counts k-cliques among `edges` whose group multiset equals `m`
/// (each clique is counted at exactly one responsible vertex).
fn count_cliques_for_multiset(
    edges: &[(u32, u32)],
    m: &[usize],
    group_of: &impl Fn(u32) -> usize,
    k: usize,
) -> u64 {
    let mut adj: HashMap<u32, HashSet<u32>> = HashMap::new();
    let mut vertices: HashSet<u32> = HashSet::new();
    for &(u, v) in edges {
        adj.entry(u).or_default().insert(v);
        adj.entry(v).or_default().insert(u);
        vertices.insert(u);
        vertices.insert(v);
    }
    let mut verts: Vec<u32> = vertices.into_iter().collect();
    verts.sort_unstable();
    let mut count = 0u64;
    let mut stack: Vec<u32> = Vec::with_capacity(k);
    /// The recursion's invariant context, bundled so the walk only
    /// threads its mutable state (stack, start, count).
    struct Ctx<'a, F> {
        verts: &'a [u32],
        adj: &'a HashMap<u32, HashSet<u32>>,
        k: usize,
        m: &'a [usize],
        group_of: &'a F,
    }
    fn extend<F: Fn(u32) -> usize>(
        cx: &Ctx<'_, F>,
        stack: &mut Vec<u32>,
        start: usize,
        count: &mut u64,
    ) {
        if stack.len() == cx.k {
            let mut groups: Vec<usize> = stack.iter().map(|&v| (cx.group_of)(v)).collect();
            groups.sort_unstable();
            if groups == cx.m {
                *count += 1;
            }
            return;
        }
        for (i, &v) in cx.verts.iter().enumerate().skip(start) {
            if stack.iter().all(|&u| cx.adj.get(&u).is_some_and(|s| s.contains(&v))) {
                stack.push(v);
                extend(cx, stack, i + 1, count);
                stack.pop();
            }
        }
    }
    let cx = Ctx { verts: &verts, adj: &adj, k, m, group_of };
    extend(&cx, &mut stack, 0, &mut count);
    count
}

/// Result of triangle listing on a *general* (non-expander) graph via
/// expander decomposition (the full Corollary 1.4 pipeline).
#[derive(Debug, Clone)]
pub struct GeneralCliqueOutcome {
    /// Number of triangles found.
    pub count: u64,
    /// Rounds for the per-cluster preprocessing (decomposition +
    /// router construction), amortizable across queries.
    pub preprocessing_rounds: u64,
    /// Rounds for the listing itself.
    pub query_rounds: u64,
    /// Clusters produced by the decomposition.
    pub clusters: usize,
    /// Fraction of edges cut by the decomposition.
    pub cut_fraction: f64,
}

/// Triangle listing on a general graph: decompose into expander
/// clusters (`ε = 0.25`), run the routed listing inside every cluster
/// large enough to preprocess, count small clusters at their leaders,
/// and handle triangles touching cut edges by endpoint exchange over
/// the cut (charged at the cut volume).
///
/// # Errors
///
/// Propagates routing errors from within clusters.
pub fn enumerate_triangles_general(
    g: &Graph,
    seed: u64,
) -> Result<GeneralCliqueOutcome, InstanceError> {
    let decomp = expander_decomp::decomposition_for_epsilon(g, 0.25, seed);
    let mut preprocessing_rounds = decomp.ledger.total();
    let mut query_rounds = 0u64;
    let mut count = 0u64;

    for cluster in &decomp.clusters {
        if cluster.len() < 3 {
            continue;
        }
        let (sub, _map) = g.induced_subgraph(cluster);
        let routable = sub.n() >= 64 && sub.is_connected();
        if routable {
            if let Ok(router) =
                Router::preprocess(&sub, expander_core::RouterConfig::for_epsilon(0.4))
            {
                preprocessing_rounds += router.preprocessing_ledger().total();
                let engine = QueryEngine::new(&router);
                let out = enumerate_cliques(&engine, 3)?;
                count += out.count;
                query_rounds += out.rounds;
                continue;
            }
        }
        // Small or non-routable cluster: gather at a leader
        // (diameter + volume rounds) and count locally.
        count += count_cliques_reference(&sub, 3);
        query_rounds += (sub.n() + 2 * sub.m()) as u64;
    }

    // Triangles with at least one cut edge: each cut edge's endpoints
    // exchange adjacency lists (deg(u) + deg(v) words over that edge).
    let mut cross: HashSet<(u32, u32, u32)> = HashSet::new();
    let mut cut_volume = 0u64;
    for &(u, v) in &decomp.cut_edges {
        cut_volume += (g.degree(u) + g.degree(v)) as u64;
        let nu: HashSet<u32> = g.neighbors(u).iter().copied().collect();
        for &w in g.neighbors(v) {
            if w != u && nu.contains(&w) {
                let mut t = [u, v, w];
                t.sort_unstable();
                cross.insert((t[0], t[1], t[2]));
            }
        }
    }
    count += cross.len() as u64;
    query_rounds += cut_volume;

    Ok(GeneralCliqueOutcome {
        count,
        preprocessing_rounds,
        query_rounds,
        clusters: decomp.len(),
        cut_fraction: decomp.cut_fraction,
    })
}

/// Reference clique counter (centralized brute force).
pub fn count_cliques_reference(g: &Graph, k: usize) -> u64 {
    let n = g.n();
    let mut count = 0u64;
    let mut stack: Vec<u32> = Vec::with_capacity(k);
    fn extend(g: &Graph, n: usize, stack: &mut Vec<u32>, k: usize, start: u32, count: &mut u64) {
        if stack.len() == k {
            *count += 1;
            return;
        }
        for v in start..n as u32 {
            if stack.iter().all(|&u| g.has_edge(u, v)) {
                stack.push(v);
                extend(g, n, stack, k, v + 1, count);
                stack.pop();
            }
        }
    }
    extend(g, n, &mut stack, k, 0, &mut count);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use expander_core::RouterConfig;
    use expander_graphs::generators;

    fn router(n: usize, d: usize, seed: u64) -> Router {
        let g = generators::random_regular(n, d, seed).expect("generator");
        Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
    }

    #[test]
    fn triangles_match_reference() {
        let r = router(128, 6, 1);
        let engine = QueryEngine::new(&r);
        let reference = count_cliques_reference(r.graph(), 3);
        let out = enumerate_cliques(&engine, 3).expect("valid");
        assert_eq!(out.count, reference, "triangle count mismatch");
        assert!(out.rounds > 0);
    }

    #[test]
    fn four_cliques_match_reference() {
        let r = router(96, 8, 2);
        let engine = QueryEngine::new(&r);
        let reference = count_cliques_reference(r.graph(), 4);
        let out = enumerate_cliques(&engine, 4).expect("valid");
        assert_eq!(out.count, reference, "4-clique count mismatch");
    }

    #[test]
    fn multisets_enumeration_is_complete() {
        let ms = multisets_of(3, 2);
        assert_eq!(
            ms,
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 1], vec![1, 2], vec![2, 2],]
        );
        assert_eq!(multisets_of(4, 3).len(), 20); // C(4+3-1, 3)
    }

    #[test]
    fn general_graph_triangles_via_decomposition() {
        // Two expander communities joined by a few bridges: the
        // decomposition splits them, the routed listing runs per
        // cluster, and bridge triangles are picked up by the cut pass.
        let g = generators::planted_partition(2, 128, 6, 2, 5).expect("generator");
        let out = enumerate_triangles_general(&g, 7).expect("valid");
        let reference = count_cliques_reference(&g, 3);
        assert_eq!(out.count, reference, "general triangle count mismatch");
        assert!(out.clusters >= 2, "communities should separate");
        assert!(out.cut_fraction < 0.05);
        assert!(out.query_rounds > 0 && out.preprocessing_rounds > 0);
    }

    #[test]
    fn general_listing_handles_pure_expander_too() {
        let g = generators::random_regular(128, 6, 9).expect("generator");
        let out = enumerate_triangles_general(&g, 11).expect("valid");
        assert_eq!(out.count, count_cliques_reference(&g, 3));
        assert_eq!(out.clusters, 1, "an expander stays whole");
    }

    #[test]
    fn load_shrinks_relative_to_edges_for_larger_k() {
        // The destination load is Õ(n^{1−2/k}): the k = 3 instance has
        // lighter *relative* load than shipping all edges to one place.
        let r = router(128, 6, 3);
        let engine = QueryEngine::new(&r);
        let out = enumerate_cliques(&engine, 3).expect("valid");
        assert!(out.max_load > 0);
        assert!(
            out.max_load < out.tokens,
            "load {} should be far below total tokens {}",
            out.max_load,
            out.tokens
        );
    }
}
