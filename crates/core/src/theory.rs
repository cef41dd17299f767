//! Theoretical round budgets from the paper and the prior work it compares against.
//!
//! These are the quantities the experiment tables print next to the measured values so the
//! reader can check the *shape* of each claim: who wins, by what factor, and where the
//! hypotheses stop applying.

use cobra_spectral::SpectralProfile;

/// All round budgets relevant to one graph instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoryBounds {
    /// Number of vertices.
    pub n: usize,
    /// The paper's `λ = max(|λ_2|, |λ_n|)`.
    pub lambda: f64,
    /// Theorem 1 / Theorem 2 budget `log(n) / (1-λ)³`.
    pub cobra_cover: f64,
    /// The per-phase budget `log(n) / (1-λ)` from Lemmas 3 and 4.
    pub phase: f64,
    /// Lemma 2 budget `13 m / (1-λ) + 24 C log(n) / (1-λ)²` with `m = 4000 log(n)/(1-λ²)` and
    /// `C = 3` as used in the proof of Theorem 2.
    pub small_set_phase: f64,
    /// The information-theoretic lower bound `log₂(n)` (the active set at most doubles with
    /// `k = 2`).
    pub doubling_lower: f64,
    /// The `O(log² n)` bound of Dutta et al. (SPAA'13) for constant-degree expanders that
    /// Theorem 1 improves upon.
    pub dutta_expander: f64,
    /// The `Ω(n log n)` cover time of a single random walk (`k = 1`).
    pub single_walk: f64,
}

impl TheoryBounds {
    /// Evaluates all budgets for an instance given its size and `λ`.
    fn from_lambda(n: usize, lambda: f64) -> Self {
        let log_n = if n <= 1 { 0.0 } else { (n as f64).ln() };
        let gap = 1.0 - lambda;
        let (cobra_cover, phase, small_set_phase) = if gap > 0.0 {
            let m = 4000.0 * log_n / (1.0 - lambda * lambda).max(f64::MIN_POSITIVE);
            (log_n / gap.powi(3), log_n / gap, 13.0 * m / gap + 24.0 * 3.0 * log_n / (gap * gap))
        } else {
            (f64::INFINITY, f64::INFINITY, f64::INFINITY)
        };
        TheoryBounds {
            n,
            lambda,
            cobra_cover,
            phase,
            small_set_phase,
            doubling_lower: if n <= 1 { 0.0 } else { (n as f64).log2() },
            dutta_expander: log_n * log_n,
            single_walk: if n <= 1 { 0.0 } else { n as f64 * log_n },
        }
    }

    /// Evaluates all budgets from a spectral profile.
    pub fn from_profile(profile: &SpectralProfile) -> Self {
        TheoryBounds::from_lambda(profile.n, profile.lambda_abs)
    }
}

/// Dutta et al.'s bound for the `d`-dimensional grid / torus on `n` vertices: `Õ(n^{1/d})`
/// (returned here without the poly-log factor, as the comparison shape).
pub fn dutta_grid_bound(n: usize, dim: u32) -> f64 {
    if n == 0 || dim == 0 {
        return 0.0;
    }
    (n as f64).powf(1.0 / f64::from(dim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    #[test]
    fn bounds_for_a_constant_gap_instance_are_logarithmic() {
        let b = TheoryBounds::from_lambda(1 << 12, 0.5);
        let log_n = (4096f64).ln();
        assert!((b.cobra_cover - log_n / 0.125).abs() < 1e-9);
        assert!((b.phase - log_n / 0.5).abs() < 1e-9);
        assert!(b.small_set_phase > b.phase);
        assert!((b.doubling_lower - 12.0).abs() < 1e-9);
        assert!((b.dutta_expander - log_n * log_n).abs() < 1e-9);
        assert!(b.single_walk > b.dutta_expander);
    }

    #[test]
    fn theorem_1_improves_on_dutta_for_large_expanders() {
        // For constant gap the new bound log n / (1-λ)³ is asymptotically smaller than log² n.
        let small = TheoryBounds::from_lambda(1 << 10, 0.5);
        let large = TheoryBounds::from_lambda(1 << 20, 0.5);
        assert!(
            small.cobra_cover / small.dutta_expander > large.cobra_cover / large.dutta_expander
        );
        assert!(large.cobra_cover < large.dutta_expander);
    }

    #[test]
    fn degenerate_gap_gives_infinite_budgets() {
        let b = TheoryBounds::from_lambda(100, 1.0);
        assert_eq!(b.cobra_cover, f64::INFINITY);
        assert_eq!(b.phase, f64::INFINITY);
        let b = TheoryBounds::from_lambda(1, 0.2);
        assert_eq!(b.cobra_cover, 0.0);
        assert_eq!(b.doubling_lower, 0.0);
    }

    #[test]
    fn bounds_from_a_profile_carry_its_size_and_lambda() {
        let g = generators::petersen().unwrap();
        let profile = cobra_spectral::analyze(&g).unwrap();
        let bounds = TheoryBounds::from_profile(&profile);
        assert_eq!(bounds, TheoryBounds::from_lambda(profile.n, profile.lambda_abs));
        assert!((bounds.lambda - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn grid_bound_shape() {
        assert!((dutta_grid_bound(10_000, 2) - 100.0).abs() < 1e-9);
        assert!((dutta_grid_bound(1_000_000, 3) - 100.0).abs() < 1e-6);
        assert_eq!(dutta_grid_bound(0, 2), 0.0);
        assert_eq!(dutta_grid_bound(100, 0), 0.0);
        // The grid bound is polynomially larger than the expander bound for the same n.
        let expander = TheoryBounds::from_lambda(1 << 16, 0.5);
        assert!(dutta_grid_bound(1 << 16, 2) > expander.cobra_cover);
    }
}
