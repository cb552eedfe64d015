//! Shufflers (paper §5.1, Appendix B): the cut-matching game on the
//! cluster graph `Y`, played with the cut player on `Y` and the
//! matching player on `X`.
//!
//! A shuffler is a sequence of matching embeddings
//! `M_X = ((M¹_X, f¹), …, (M^λ_X, f^λ))` whose *natural fractional
//! matchings* on `Y` (Definition 5.1) induce a lazy random walk that
//! mixes: the potential `Π(i) = Σ_y ‖R_i[y] − 1/|Y|‖²` (Definition 5.3)
//! is driven below `1/(9n³)` in `λ = O(log n)` iterations (Lemma B.5).
//! The cut player bisects a seeded projection of the walk at its
//! median every iteration (substitution 2 in `docs/ARCHITECTURE.md`).
//! The exact `t × t` walk matrix is maintained throughout and `Π` is
//! summed from it after every round, so the decay is *verified*, not
//! assumed, and the game stops on the walk's own potential.
//!
//! A shuffler holds its rounds as paths in the node's virtual graph
//! `H_X`, its potential trace, and its union quality in `H_X`. The
//! router flattens the rounds once, lowers them to base-graph edge-id
//! arenas, and reads every base-graph quality off those arenas.

use crate::cut_player::{median_split, probe_vector};
use crate::hierarchy::{Hierarchy, NodeId};
use crate::host::HostGraph;
use crate::packing::{pack_matching_with, EscalationConfig, Packer};
use congest_sim::{cost, RoundLedger};
use expander_graphs::Embedding;

/// Seed of the cut player's derandomized projections.
const SEED: u64 = 0x5EEDED;

/// Tuning knobs for [`build_shuffler`]. The game always plays to the
/// paper's target `Π ≤ 1/(9n³)` with the default packing caps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShufflerParams {
    /// Hard cap on iterations; 0 resolves against `n` at build time
    /// (see [`ShufflerParams::iteration_cap`]).
    pub max_iterations: u32,
    /// Use the paper's literal normalizer `n' = 6|X|/k` instead of the
    /// tight `max_i |X*_i|` (ablation knob; see substitution 6 in
    /// `docs/ARCHITECTURE.md` — the literal constant mixes ~6× slower).
    pub paper_normalizer: bool,
}

impl ShufflerParams {
    /// The iteration cap a shuffler of an `n`-vertex graph runs under:
    /// `max_iterations`, or `8·⌈log₂ n⌉ + 16` (`O(log n)` with a
    /// generous constant) when that is 0.
    pub fn iteration_cap(&self, n: usize) -> u32 {
        if self.max_iterations > 0 {
            self.max_iterations
        } else {
            8 * ((n as f64).log2().ceil() as u32) + 16
        }
    }
}

/// One iteration of the shuffler: the matching on `X` embedded into
/// `H_X`, and the induced fractional matching on `Y`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShufflerRound {
    /// Paths in `H_X` realizing `M^q_X`; its virtual edges are the
    /// matched `(u, v)` global-id pairs.
    pub embedding: Embedding,
    /// The natural fractional matching `{x_ab}` on `Y` (symmetric,
    /// `t × t`, zero diagonal).
    pub fractional: Vec<Vec<f64>>,
    /// Part index of each matching endpoint: `(part(u), part(v))`.
    pub endpoint_parts: Vec<(usize, usize)>,
}

/// A shuffler for one internal hierarchy node (Definition 5.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Shuffler {
    /// The matching sequence.
    pub rounds: Vec<ShufflerRound>,
    /// `Π(0), Π(1), …` — the potential of the exact walk matrix after
    /// each round.
    pub potential_trace: Vec<f64>,
    /// Quality of the union of embeddings, measured in `H_X`
    /// (Definition 5.4's `Q(M_X)`). At the root `H_X = G`, so it is the
    /// union's quality in the base graph too.
    pub quality_hx: usize,
}

impl Shuffler {
    /// Number of iterations `λ`.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the shuffler is empty (degenerate node).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Final potential `Π(λ)`.
    pub fn final_potential(&self) -> f64 {
        *self.potential_trace.last().expect("trace has Π(0)")
    }
}

/// Builds the shuffler of internal node `node`, charging preprocessing
/// rounds to `ledger`.
///
/// # Panics
///
/// Panics if `node` is a leaf or has fewer than 2 parts.
pub fn build_shuffler(
    h: &Hierarchy,
    node: NodeId,
    params: &ShufflerParams,
    ledger: &mut RoundLedger,
) -> Shuffler {
    let nd = h.node(node);
    let t = nd.part_count();
    assert!(t >= 2, "shuffler needs an internal node with >= 2 parts");
    let n = h.graph().n() as f64;
    let target = 1.0 / (9.0 * n * n * n);
    let max_iters = params.iteration_cap(h.graph().n());

    let part_sizes: Vec<usize> = nd.parts.iter().map(|p| p.all.len()).collect();
    let max_part = *part_sizes.iter().max().expect("non-empty");
    // Definition 5.1 uses n' = 6|X|/k, an upper bound on every |X*_i|
    // that keeps fractional degrees <= 1. We use the tight bound
    // max_i |X*_i| instead: the degree constraint still holds and the
    // induced walk moves up to 6x more mass per iteration, which at
    // laptop-scale n is the difference between mixing inside the
    // O(log n) budget and not (substitution 6 in docs/ARCHITECTURE.md).
    // The literal constant is kept behind `paper_normalizer` for the
    // ablation.
    let normalizer = if params.paper_normalizer {
        ((6 * nd.vertices.len()) as f64 / h.k() as f64).max(max_part as f64)
    } else {
        max_part as f64
    };

    // part id of each global vertex (dense map).
    let mut part_of = vec![usize::MAX; h.graph().n()];
    for (pi, p) in nd.parts.iter().enumerate() {
        for &v in &p.all {
            part_of[v as usize] = pi;
        }
    }

    let host = HostGraph::from_edges(h.graph().n(), nd.vertices.clone(), &nd.virtual_edges);
    // An internal node's H_X is connected, so its diameter is finite.
    let host_diam = u64::from(nd.diameter);
    let q_flat = nd.flat_quality as u64;

    // Exact walk matrix R (t × t), starting at identity.
    let mut r_mat: Vec<Vec<f64>> =
        (0..t).map(|a| (0..t).map(|b| if a == b { 1.0 } else { 0.0 }).collect()).collect();
    let mut potential = potential_of(&r_mat);
    let mut trace = vec![potential];
    let mut rounds: Vec<ShufflerRound> = Vec::new();

    for iter in 0..max_iters {
        if potential <= target {
            break;
        }
        // Cut player on Y: bisect the walk matrix's projection on a
        // seeded probe at its median.
        let r_probe = probe_vector(t, SEED.wrapping_add(iter as u64 * 0x9E37_79B9));
        let mu: Vec<f64> = (0..t).map(|a| (0..t).map(|b| r_mat[a][b] * r_probe[b]).sum()).collect();
        let sep = median_split(&mu);
        let (mut s, s_prime) = (sep.al, sep.ar);
        // Property B.1(1): |S_X| < |S'_X| — shrink S if needed.
        let size_of = |set: &[usize]| set.iter().map(|&i| part_sizes[i]).sum::<usize>();
        while !s.is_empty() && size_of(&s) >= size_of(&s_prime) {
            let (drop_pos, _) =
                s.iter().enumerate().max_by_key(|&(_, &i)| part_sizes[i]).expect("non-empty");
            s.remove(drop_pos);
        }
        if s.is_empty() {
            // Degenerate projection; try again with another probe.
            continue;
        }
        ledger.charge(
            "pre/shuffler/cut-player",
            cost::diameter_primitive(host_diam + (t * t) as u64, q_flat),
        );

        // Matching player on X: saturate S_X into S'_X.
        let mut in_s = vec![false; t];
        for &i in &s {
            in_s[i] = true;
        }
        let mut in_sp = vec![false; t];
        for &i in &s_prime {
            in_sp[i] = true;
        }
        let mut sources: Vec<u32> = Vec::new();
        let mut sink_cap = vec![0u32; host.graph().n()];
        for (pi, p) in nd.parts.iter().enumerate() {
            if in_s[pi] {
                sources.extend(p.all.iter().map(|&v| host.to_local(v)));
            } else if in_sp[pi] {
                for &v in &p.all {
                    sink_cap[host.to_local(v) as usize] = 1;
                }
            }
        }
        let mut packer = Packer::new(&host);
        let mut cfg = EscalationConfig::default();
        cfg.dilation_cap = cfg.dilation_cap.max(2 * host_diam as u32 + 2);
        let m = pack_matching_with(&mut packer, &sources, &mut sink_cap, cfg);
        // The packer was fresh, so its measured edge loads ARE the
        // embedding's congestion — same Fact 2.2 charge as
        // `route_once(to_path_set())` without rebuilding a path set.
        ledger.charge(
            "pre/shuffler/matching-player",
            cost::virtual_rounds(q_flat, m.phases as u64 * m.final_dilation_cap as u64)
                + cost::route_batched_cd(m.host_congestion as u64, m.dilation as u64, 1)
                    * q_flat
                    * q_flat,
        );
        if m.embedding.is_empty() {
            continue;
        }

        // Natural fractional matching on Y (Definition 5.1).
        let mut fractional = vec![vec![0.0f64; t]; t];
        let mut endpoint_parts = Vec::with_capacity(m.embedding.len());
        for &(u, v) in m.embedding.virtual_edges() {
            let (a, b) = (part_of[u as usize], part_of[v as usize]);
            debug_assert!(a != b, "matching edge inside one part");
            fractional[a][b] += 1.0 / normalizer;
            fractional[b][a] += 1.0 / normalizer;
            endpoint_parts.push((a, b));
        }

        // R ← R_M · R  (Definition 5.2), applied sparsely: only rows of
        // parts incident to matched pairs change. Π is then summed over
        // all t² cells, so the stop rule reads the walk's own potential.
        let mut touched: Vec<(usize, usize)> =
            endpoint_parts.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        touched.sort_unstable();
        touched.dedup();
        let entries: Vec<(usize, usize, f64)> =
            touched.into_iter().map(|(a, b)| (a, b, fractional[a][b])).collect();
        apply_fractional_sparse(&mut r_mat, &entries);
        let new_potential = potential_of(&r_mat);
        debug_assert!(
            new_potential <= potential + 1e-9,
            "potential increased: {potential} -> {new_potential}"
        );
        potential = new_potential;
        trace.push(potential);
        rounds.push(ShufflerRound { embedding: m.embedding, fractional, endpoint_parts });
    }

    // Quality of the union of all matchings' paths (Definition 5.4),
    // counted densely over the host's edge-id space instead of
    // collecting a cloned `PathSet`.
    let host_graph = host.graph();
    let mut union_load = vec![0u32; host_graph.edge_id_count()];
    let mut union_dilation = 0usize;
    for r in &rounds {
        for (_, _, p) in r.embedding.iter() {
            union_dilation = union_dilation.max(p.hops());
            for w in p.vertices().windows(2) {
                let eid = host_graph
                    .edge_id(host.to_local(w[0]), host.to_local(w[1]))
                    .expect("matching path hop outside the host graph");
                union_load[eid as usize] += 1;
            }
        }
    }
    let union_congestion = union_load.into_iter().max().unwrap_or(0) as usize;
    let quality_hx = (union_congestion + union_dilation).max(2);

    Shuffler { rounds, potential_trace: trace, quality_hx }
}

/// `R_M · R` with `R_M[i,i] = 1/2 + (1 − Σ_{k≠i} x_ik)/2`,
/// `R_M[i,j] = x_ij/2` (Definition 5.2).
pub fn apply_fractional(r_mat: &[Vec<f64>], x: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let t = r_mat.len();
    let mut out = vec![vec![0.0f64; t]; t];
    for i in 0..t {
        let off_sum: f64 = (0..t).filter(|&j| j != i).map(|j| x[i][j]).sum();
        let stay = 0.5 + 0.5 * (1.0 - off_sum);
        for c in 0..t {
            let mut acc = stay * r_mat[i][c];
            for j in 0..t {
                if j != i {
                    acc += 0.5 * x[i][j] * r_mat[j][c];
                }
            }
            out[i][c] = acc;
        }
    }
    out
}

/// In-place sparse form of [`apply_fractional`].
///
/// `entries` is the round's fractional matching as unique
/// `(a, b, x_ab)` triples with `a < b`. Only rows of parts incident to
/// an entry change (absent rows have `stay = 1`), so one update costs
/// `O(|touched| · (t + |entries|))` instead of the dense `O(t³)`
/// product. Each row adds its terms in the dense product's order, so
/// the result is the dense one bit for bit; under `debug_assertions`
/// it is checked cell-by-cell against [`apply_fractional`].
pub fn apply_fractional_sparse(r_mat: &mut [Vec<f64>], entries: &[(usize, usize, f64)]) {
    #[cfg(debug_assertions)]
    let dense_result = {
        let t = r_mat.len();
        let mut x = vec![vec![0.0f64; t]; t];
        for &(a, b, v) in entries {
            x[a][b] = v;
            x[b][a] = v;
        }
        apply_fractional(r_mat, &x)
    };
    let mut rows: Vec<usize> = entries.iter().flat_map(|&(a, b, _)| [a, b]).collect();
    rows.sort_unstable();
    rows.dedup();
    let old: Vec<Vec<f64>> = rows.iter().map(|&i| r_mat[i].clone()).collect();
    for (ri, &i) in rows.iter().enumerate() {
        let off_sum: f64 =
            entries.iter().filter(|&&(a, b, _)| a == i || b == i).map(|&(_, _, v)| v).sum();
        let stay = 0.5 + 0.5 * (1.0 - off_sum);
        let new_row = &mut r_mat[i];
        for (c, cell) in new_row.iter_mut().enumerate() {
            *cell = stay * old[ri][c];
        }
        for &(a, b, v) in entries {
            let j = if a == i {
                b
            } else if b == i {
                a
            } else {
                continue;
            };
            let oj = &old[rows.binary_search(&j).expect("entry endpoints are touched rows")];
            for (c, cell) in new_row.iter_mut().enumerate() {
                *cell += 0.5 * v * oj[c];
            }
        }
    }
    #[cfg(debug_assertions)]
    for (sparse, dense) in r_mat.iter().zip(&dense_result) {
        for (s, d) in sparse.iter().zip(dense) {
            debug_assert!((s - d).abs() <= 1e-12, "sparse/dense walk cell mismatch: {s} {d}");
        }
    }
}

/// `Π = Σ_y ‖R[y] − 1/t‖²` (Definition 5.3).
pub fn potential_of(r_mat: &[Vec<f64>]) -> f64 {
    let t = r_mat.len();
    let uniform = 1.0 / t as f64;
    r_mat.iter().map(|row| row.iter().map(|&x| (x - uniform) * (x - uniform)).sum::<f64>()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyParams;
    use expander_graphs::generators;

    fn hierarchy(n: usize, seed: u64) -> Hierarchy {
        let g = generators::random_regular(n, 4, seed).expect("generator");
        Hierarchy::build(&g, HierarchyParams { epsilon: 0.4, seed, ..Default::default() })
            .expect("hierarchy")
    }

    #[test]
    fn walk_rows_stay_stochastic() {
        let h = hierarchy(256, 1);
        let mut ledger = RoundLedger::new();
        let sh = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        // Rebuild R from the recorded fractional matchings.
        let t = h.node(h.root()).part_count();
        let mut r: Vec<Vec<f64>> =
            (0..t).map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect()).collect();
        for round in &sh.rounds {
            r = apply_fractional(&r, &round.fractional);
            for row in &r {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "row sum {sum}");
                assert!(row.iter().all(|&x| x >= -1e-12), "negative entry");
            }
        }
    }

    #[test]
    fn potential_decays_to_target() {
        let h = hierarchy(256, 2);
        let mut ledger = RoundLedger::new();
        let sh = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        let n = 256f64;
        assert!(
            sh.final_potential() <= 1.0 / (9.0 * n * n * n),
            "final potential {}",
            sh.final_potential()
        );
        // Monotone decay.
        for w in sh.potential_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "potential increased");
        }
        // λ = O(log n) with a mild constant.
        assert!(sh.len() as f64 <= 12.0 * n.log2(), "λ = {} too large for n = {n}", sh.len());
    }

    #[test]
    fn matchings_cross_parts_and_embed_validly() {
        let h = hierarchy(256, 3);
        let mut ledger = RoundLedger::new();
        let sh = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        let nd = h.node(h.root());
        for round in &sh.rounds {
            for (i, &(u, v)) in round.embedding.virtual_edges().iter().enumerate() {
                let pu = h.part_of(h.root(), u).expect("in some part");
                let pv = h.part_of(h.root(), v).expect("in some part");
                assert_ne!(pu, pv, "matching edge within a part");
                assert_eq!(round.endpoint_parts[i], (pu, pv));
                let p = round.embedding.path(i);
                assert_eq!(p.source(), u);
                assert_eq!(p.target(), v);
            }
            // Fractional degree <= 1 (Definition 5.1).
            for a in 0..nd.part_count() {
                let deg: f64 = round.fractional[a].iter().sum();
                assert!(deg <= 1.0 + 1e-9, "fractional degree {deg}");
            }
        }
    }

    #[test]
    fn mixing_makes_walk_nearly_uniform() {
        let h = hierarchy(256, 4);
        let mut ledger = RoundLedger::new();
        let sh = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        let t = h.node(h.root()).part_count();
        let mut r: Vec<Vec<f64>> =
            (0..t).map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect()).collect();
        for round in &sh.rounds {
            r = apply_fractional(&r, &round.fractional);
        }
        let uniform = 1.0 / t as f64;
        for row in &r {
            for &x in row {
                assert!((x - uniform).abs() < 1e-3, "entry {x} vs uniform {uniform}");
            }
        }
    }

    #[test]
    fn paper_normalizer_changes_behavior_not_correctness() {
        let h = hierarchy(256, 7);
        let mut l1 = RoundLedger::new();
        let tight = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut l1);
        let mut l2 = RoundLedger::new();
        let paper = build_shuffler(
            &h,
            h.root(),
            &ShufflerParams { paper_normalizer: true, max_iterations: 600 },
            &mut l2,
        );
        // Correctness invariants hold under both normalizers.
        for sh in [&tight, &paper] {
            for w in sh.potential_trace.windows(2) {
                assert!(w[1] <= w[0] + 1e-9, "potential increased");
            }
            for round in &sh.rounds {
                for row in &round.fractional {
                    assert!(row.iter().sum::<f64>() <= 1.0 + 1e-9);
                }
            }
        }
        // The paper normalizer mixes strictly slower (more iterations
        // for the same target).
        assert!(
            paper.len() > tight.len(),
            "paper normalizer {} vs tight {}",
            paper.len(),
            tight.len()
        );
    }

    #[test]
    fn sparse_update_matches_dense_product() {
        // Hand-rolled 5-part round touching parts {0, 2, 3} only.
        let t = 5usize;
        let mut r: Vec<Vec<f64>> =
            (0..t).map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect()).collect();
        let entries = [(0usize, 2usize, 0.25f64), (2, 3, 0.5)];
        let mut x = vec![vec![0.0f64; t]; t];
        for &(a, b, v) in &entries {
            x[a][b] = v;
            x[b][a] = v;
        }
        let dense = apply_fractional(&r, &x);
        apply_fractional_sparse(&mut r, &entries);
        assert_eq!(r, dense);
        // Untouched rows stay exactly the identity.
        assert_eq!(r[1][1], 1.0);
        assert_eq!(r[4][4], 1.0);
    }

    #[test]
    fn preprocessing_cost_is_charged() {
        let h = hierarchy(128, 5);
        let mut ledger = RoundLedger::new();
        let _ = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        assert!(ledger.phase("pre/shuffler/matching-player") > 0);
        assert!(ledger.phase("pre/shuffler/cut-player") > 0);
    }

    #[test]
    fn quality_is_measured_and_finite() {
        let h = hierarchy(128, 6);
        let mut ledger = RoundLedger::new();
        let sh = build_shuffler(&h, h.root(), &ShufflerParams::default(), &mut ledger);
        assert!(sh.quality_hx >= 2);
        assert!(!sh.is_empty());
    }

    #[test]
    fn potential_trace_is_the_replayed_walks_potential() {
        // Every internal node at n = 512 and 1024: replaying the
        // recorded rounds from the identity reproduces each trace entry,
        // the stopping one included, to 1e-12 relative.
        for n in [512, 1024] {
            let g = generators::random_regular(n, 4, 1).expect("generator");
            let h = Hierarchy::build(&g, HierarchyParams::for_epsilon(0.4)).expect("hierarchy");
            for nd in h.nodes().iter().filter(|nd| !nd.is_leaf()) {
                let sh =
                    build_shuffler(&h, nd.id, &ShufflerParams::default(), &mut RoundLedger::new());
                let t = nd.part_count();
                let mut r: Vec<Vec<f64>> =
                    (0..t).map(|a| (0..t).map(|b| f64::from(u8::from(a == b))).collect()).collect();
                assert_eq!(sh.potential_trace.len(), sh.len() + 1);
                for (q, &kept) in sh.potential_trace.iter().enumerate() {
                    if q > 0 {
                        r = apply_fractional(&r, &sh.rounds[q - 1].fractional);
                    }
                    let replayed = potential_of(&r);
                    assert!(
                        (kept - replayed).abs() <= 1e-12 * replayed,
                        "n = {n}, node {}: Π({q}) kept {kept:e}, replayed {replayed:e}",
                        nd.id
                    );
                }
            }
        }
    }
}
