//! The cut player: deterministic-seeded projections, the median
//! bisection, and the replayed-walk probe machinery.
//!
//! The paper's cut player (Lemma B.2) brute-forces subset pairs after
//! learning the cluster graph; we substitute the median bisection of a
//! seeded projection `μ = R_{i-1}·r` (substitution 2 in
//! `docs/ARCHITECTURE.md`), the cut rule of both cut-matching games:
//! the hierarchy's per-part games and the shufflers'. Lemma B.5's
//! potential decay is not inferred from the cut's properties: the
//! shuffler re-sums `Π` over its exact walk matrix after every round and
//! stops on it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A balanced cut of a projection: the `⌊m/2⌋` indices with the
/// smallest values and the rest.
#[derive(Debug, Clone)]
pub struct Separation {
    /// The low half (the cut player's `S`, the matching sources).
    pub al: Vec<usize>,
    /// The high half (the matching targets `S'`).
    pub ar: Vec<usize>,
}

/// The median bisection: the `⌊m/2⌋` indices with the smallest `mu`
/// versus the rest (the classic KRV bisection).
pub fn median_split(mu: &[f64]) -> Separation {
    let mut order: Vec<usize> = (0..mu.len()).collect();
    // `mu` is a deterministic projection of unit-normalized vectors:
    // every entry is a finite dot product, so NaN cannot reach here.
    order.sort_by(|&a, &b| mu[a].partial_cmp(&mu[b]).expect("finite"));
    let ar = order.split_off(mu.len() / 2);
    Separation { al: order, ar }
}

/// A seeded unit vector orthogonal to the all-ones vector.
pub fn probe_vector(dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut r: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mean = r.iter().sum::<f64>() / dim as f64;
    for x in r.iter_mut() {
        *x -= mean;
    }
    let norm = r.iter().map(|&x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in r.iter_mut() {
            *x /= norm;
        }
    }
    r
}

/// Replays a matching history on a probe vector: each matching round
/// averages matched pairs (`u ← (u + mate)/2`), exactly the lazy-walk
/// action `R_M · r` of Definition 5.2 with integral matchings.
pub fn replay_walk(history: &[Vec<(u32, u32)>], probe: &mut [f64]) {
    for matching in history {
        for &(a, b) in matching {
            let avg = 0.5 * (probe[a as usize] + probe[b as usize]);
            probe[a as usize] = avg;
            probe[b as usize] = avg;
        }
    }
}

/// The ℓ₂ deviation of `values` from their mean, restricted to `active`.
pub fn deviation_mass(values: &[f64], active: &[u32]) -> f64 {
    if active.is_empty() {
        return 0.0;
    }
    let mean = active.iter().map(|&v| values[v as usize]).sum::<f64>() / active.len() as f64;
    active.iter().map(|&v| (values[v as usize] - mean).powi(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_split_is_balanced() {
        let mu: Vec<f64> = (0..9).map(|i| (i * i) as f64).collect();
        let sep = median_split(&mu);
        assert_eq!(sep.al.len(), 4);
        assert_eq!(sep.ar.len(), 5);
        for &a in &sep.al {
            for &b in &sep.ar {
                assert!(mu[a] <= mu[b]);
            }
        }
    }

    #[test]
    fn probe_is_unit_and_centered() {
        let p = probe_vector(33, 7);
        let mean: f64 = p.iter().sum::<f64>() / 33.0;
        let norm: f64 = p.iter().map(|&x| x * x).sum::<f64>();
        assert!(mean.abs() < 1e-12);
        assert!((norm - 1.0).abs() < 1e-12);
        assert_eq!(p, probe_vector(33, 7), "deterministic per seed");
    }

    #[test]
    fn replay_walk_averages_pairs() {
        let mut probe = vec![1.0, 3.0, 5.0, 7.0];
        replay_walk(&[vec![(0, 1)], vec![(2, 3)]], &mut probe);
        assert_eq!(probe, vec![2.0, 2.0, 6.0, 6.0]);
        // A second replayed round mixes across.
        replay_walk(&[vec![(1, 2)]], &mut probe);
        assert_eq!(probe, vec![2.0, 4.0, 4.0, 6.0]);
    }

    #[test]
    fn deviation_mass_shrinks_under_mixing() {
        let mut probe = probe_vector(16, 3);
        let active: Vec<u32> = (0..16).collect();
        let before = deviation_mass(&probe, &active);
        let matching: Vec<(u32, u32)> = (0..8).map(|i| (i, i + 8)).collect();
        replay_walk(&[matching], &mut probe);
        let after = deviation_mass(&probe, &active);
        assert!(after < before, "mixing must reduce deviation");
    }
}
