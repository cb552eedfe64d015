//! The cut player: deterministic-seeded projections, the RST/Lemma B.4
//! separation, and the replayed-walk probe machinery.
//!
//! The paper's cut player (Lemma B.2) brute-forces subset pairs after
//! learning the cluster graph; we substitute the constructive
//! separation of [RST14, Lemma 3.3] applied to a seeded projection
//! `μ = R_{i-1}·r` (substitution 2 in `docs/ARCHITECTURE.md`). The
//! separation's four properties are *checked* at runtime and the
//! potential decay of Lemma B.5 is asserted numerically wherever the
//! exact walk matrix is maintained.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Lemma B.4 separation: disjoint index sets `al`, `ar` and a value
/// `gamma` with
///
/// 1. `μ` on one of them lies entirely on one side of `gamma`;
/// 2. every `v ∈ al` has `|μ(v) − γ| ≥ |μ(v) − μ̄|/3`;
/// 3. `|al| ≤ m/8` and `|ar| ≥ m/2`;
/// 4. `Σ_{al} (μ−μ̄)² ≥ (1/80)·Σ (μ−μ̄)²`.
#[derive(Debug, Clone)]
pub struct Separation {
    /// The small, far-from-mean side (the cut-player's `S`).
    pub al: Vec<usize>,
    /// The large side (the matching targets `S'`).
    pub ar: Vec<usize>,
    /// The separating value.
    pub gamma: f64,
}

/// Computes an RST separation of `mu`, trying both orientations.
/// Returns `None` when the deviations are too degenerate (callers fall
/// back to [`median_split`]).
pub fn rst_separation(mu: &[f64]) -> Option<Separation> {
    let m = mu.len();
    if m < 4 {
        return None;
    }
    let mean = mu.iter().sum::<f64>() / m as f64;
    let total_mass: f64 = mu.iter().map(|&x| (x - mean) * (x - mean)).sum();
    if total_mass <= 1e-300 {
        return None;
    }
    for orientation in [1.0f64, -1.0] {
        if let Some(sep) = try_orientation(mu, mean, total_mass, orientation) {
            return Some(sep);
        }
    }
    None
}

fn try_orientation(mu: &[f64], mean: f64, total_mass: f64, orientation: f64) -> Option<Separation> {
    let m = mu.len();
    let dev: Vec<f64> = mu.iter().map(|&x| orientation * (x - mean)).collect();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| dev[a].partial_cmp(&dev[b]).expect("finite"));
    // `ar` = the half with the smallest oriented deviation.
    let ar_len = m.div_ceil(2);
    let ar: Vec<usize> = order[..ar_len].to_vec();
    let boundary = dev[order[ar_len - 1]]; // max oriented deviation on ar

    // `al` = a prefix of the far tail satisfying the separation
    // d_min(al) >= max(3/2 * boundary, 0) and carrying >= 1/80 mass.
    let al_max = (m / 8).max(1);
    let mut al: Vec<usize> = Vec::new();
    let mut mass = 0.0;
    let mut best: Option<Separation> = None;
    for &v in order.iter().rev() {
        if al.len() >= al_max {
            break;
        }
        let d = dev[v];
        if d <= 0.0 || d < 1.5 * boundary.max(0.0) || d <= boundary {
            break; // further entries only get smaller
        }
        al.push(v);
        mass += d * d;
        if mass >= total_mass / 80.0 {
            let d_min = dev[*al.last().expect("non-empty")];
            let gamma_dev = (2.0 / 3.0) * d_min;
            if gamma_dev >= boundary {
                // Keep growing: a larger far side means a larger
                // matching, hence faster mixing; remember the largest
                // prefix satisfying all four properties.
                best = Some(Separation {
                    al: al.clone(),
                    ar: ar.clone(),
                    gamma: mean + orientation * gamma_dev,
                });
            }
        }
    }
    best
}

/// Fallback cut: the `⌊m/2⌋` indices with the smallest `mu` versus the
/// rest (the classic KRV bisection).
pub fn median_split(mu: &[f64]) -> Separation {
    let m = mu.len();
    let mut order: Vec<usize> = (0..m).collect();
    // `mu` is a deterministic projection of unit-normalized vectors:
    // every entry is a finite dot product, so NaN cannot reach here.
    order.sort_by(|&a, &b| mu[a].partial_cmp(&mu[b]).expect("finite"));
    let half = m / 2;
    let gamma = if m > 1 {
        (mu[order[half.saturating_sub(1)]] + mu[order[half.min(m - 1)]]) / 2.0
    } else {
        0.0
    };
    Separation { al: order[..half].to_vec(), ar: order[half..].to_vec(), gamma }
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

    fn check_properties(mu: &[f64], sep: &Separation) {
        let m = mu.len();
        let mean = mu.iter().sum::<f64>() / m as f64;
        let total: f64 = mu.iter().map(|&x| (x - mean) * (x - mean)).sum();
        // Disjoint.
        for a in &sep.al {
            assert!(!sep.ar.contains(a), "al/ar overlap");
        }
        // (3) sizes.
        assert!(sep.al.len() <= m / 8 + 1, "al too big: {}", sep.al.len());
        assert!(sep.ar.len() >= m / 2, "ar too small: {}", sep.ar.len());
        // (1) separation by gamma: al on one side, ar on the other.
        let al_side = mu[sep.al[0]] >= sep.gamma;
        for &v in &sep.al {
            assert_eq!(mu[v] >= sep.gamma, al_side, "al not separated");
        }
        for &v in &sep.ar {
            assert!(
                (mu[v] >= sep.gamma) != al_side || (mu[v] - sep.gamma).abs() < 1e-12,
                "ar not separated"
            );
        }
        // (2) the 1/3-distance property on al.
        for &v in &sep.al {
            assert!(
                (mu[v] - sep.gamma).abs() >= (mu[v] - mean).abs() / 3.0 - 1e-9,
                "1/3 property violated at {v}"
            );
        }
        // (4) mass.
        let al_mass: f64 = sep.al.iter().map(|&v| (mu[v] - mean) * (mu[v] - mean)).sum();
        assert!(al_mass >= total / 80.0 - 1e-12, "al mass {al_mass} < total/80 {}", total / 80.0);
    }

    #[test]
    fn separation_on_bimodal_input() {
        // Two well-separated clusters.
        let mut mu = vec![0.0f64; 32];
        for v in mu.iter_mut().take(4) {
            *v = 10.0;
        }
        let sep = rst_separation(&mu).expect("clear separation exists");
        check_properties(&mu, &sep);
        let mut al = sep.al.clone();
        al.sort_unstable();
        assert!(!al.is_empty() && al.iter().all(|&v| v < 4), "al = {al:?}");
    }

    #[test]
    fn separation_on_smooth_gradient() {
        let mu: Vec<f64> = (0..64).map(|i| i as f64).collect();
        if let Some(sep) = rst_separation(&mu) {
            check_properties(&mu, &sep);
        } else {
            // Fallback must still produce a balanced cut.
            let sep = median_split(&mu);
            assert_eq!(sep.al.len(), 32);
        }
    }

    #[test]
    fn separation_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut found = 0;
        for _ in 0..50 {
            let mu: Vec<f64> = (0..40).map(|_| rng.gen::<f64>()).collect();
            if let Some(sep) = rst_separation(&mu) {
                check_properties(&mu, &sep);
                found += 1;
            }
        }
        assert!(found >= 25, "separation found only {found}/50 times");
    }

    #[test]
    fn degenerate_input_returns_none() {
        assert!(rst_separation(&[1.0; 16]).is_none());
        assert!(rst_separation(&[1.0, 2.0]).is_none());
    }

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
