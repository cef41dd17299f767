//! The [`SpectralProfile`] summary and the `analyze` entry points.

use cobra_graph::{ops, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dense;
use crate::lanczos::{self, LanczosOptions};
use crate::mixing;
use crate::operator::NormalizedAdjacency;
use crate::{Result, SpectralError};

/// Which eigensolver produced a [`SpectralProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Method {
    /// Dense cyclic Jacobi over the full spectrum (exact, `O(n³)`).
    DenseJacobi,
    /// Lanczos with deflation of the principal eigenvector (extreme eigenvalues only).
    Lanczos,
}

/// Summary of the spectral quantities the experiments need for one graph instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectralProfile {
    /// Number of vertices.
    pub n: usize,
    /// Degree if the graph is regular.
    pub regular_degree: Option<usize>,
    /// Signed second largest eigenvalue `λ_2` of the transition matrix.
    pub lambda_2: f64,
    /// Smallest eigenvalue `λ_n` of the transition matrix.
    pub lambda_min: f64,
    /// The paper's `λ = max(|λ_2|, |λ_n|)`.
    pub lambda_abs: f64,
    /// Which solver produced the numbers.
    pub method: Method,
    /// Whether the graph is connected.
    pub connected: bool,
    /// Whether the graph is bipartite (in which case `λ = 1` and the theorems do not apply).
    pub bipartite: bool,
}

impl SpectralProfile {
    /// The absolute spectral gap `1 - λ`.
    pub fn spectral_gap(&self) -> f64 {
        1.0 - self.lambda_abs
    }

    /// Whether the instance satisfies the hypothesis `1 - λ ≥ c·sqrt(log n / n)` of
    /// Theorems 1 and 2.
    pub fn satisfies_gap_hypothesis(&self, c: f64) -> bool {
        mixing::satisfies_gap_hypothesis(self.n, self.lambda_abs, c)
    }
}

/// Threshold below which the exact dense solver is used.
const DENSE_LIMIT: usize = 512;

/// Computes the spectral profile of a graph, choosing the solver automatically:
/// dense Jacobi for `n ≤ 512`, Lanczos beyond.
///
/// # Errors
///
/// Returns [`SpectralError::InvalidGraph`] for empty or single-vertex graphs and propagates
/// solver failures.
pub fn analyze(g: &Graph) -> Result<SpectralProfile> {
    let method =
        if g.num_vertices() <= DENSE_LIMIT { Method::DenseJacobi } else { Method::Lanczos };
    analyze_with(g, method)
}

/// Computes the spectral profile with an explicitly chosen solver.
///
/// # Errors
///
/// Returns [`SpectralError::InvalidGraph`] for graphs with fewer than two vertices and
/// propagates solver failures.
pub fn analyze_with(g: &Graph, method: Method) -> Result<SpectralProfile> {
    let n = g.num_vertices();
    if n < 2 {
        return Err(SpectralError::InvalidGraph {
            reason: format!("spectral profile needs at least 2 vertices, got {n}"),
        });
    }
    let connected = ops::is_connected(g);
    let bipartite = ops::is_bipartite(g);
    let (lambda_2, lambda_min) = match method {
        Method::DenseJacobi => {
            let eigs = dense::transition_eigenvalues(g)?;
            (eigs[1], *eigs.last().expect("n >= 2"))
        }
        Method::Lanczos => {
            let op = NormalizedAdjacency::new(g);
            // A fixed seed keeps `analyze` deterministic; the Krylov process is insensitive to
            // the particular random start.
            let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_c0b2a);
            let ext = lanczos::extreme_eigenvalues(&op, LanczosOptions::default(), &mut rng)?;
            (ext.lambda_2, ext.lambda_min)
        }
    };
    Ok(SpectralProfile {
        n,
        regular_degree: g.regular_degree(),
        lambda_2,
        lambda_min,
        lambda_abs: lambda_2.abs().max(lambda_min.abs()),
        method,
        connected,
        bipartite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    #[test]
    fn complete_graph_profile() {
        let g = generators::complete(64).unwrap();
        let p = analyze(&g).unwrap();
        assert_eq!(p.method, Method::DenseJacobi);
        assert_eq!(p.n, 64);
        assert_eq!(p.regular_degree, Some(63));
        assert!(p.connected);
        assert!(!p.bipartite);
        assert!((p.lambda_abs - 1.0 / 63.0).abs() < 1e-9);
        assert!(p.spectral_gap() > 0.98);
        assert!(p.satisfies_gap_hypothesis(1.0));
    }

    #[test]
    fn petersen_profile_matches_known_spectrum() {
        let g = generators::petersen().unwrap();
        let p = analyze(&g).unwrap();
        assert!((p.lambda_2 - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.lambda_min + 2.0 / 3.0).abs() < 1e-9);
        assert!((p.lambda_abs - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn bipartite_graphs_are_flagged() {
        let g = generators::hypercube(4).unwrap();
        let p = analyze(&g).unwrap();
        assert!(p.bipartite);
        assert!((p.lambda_abs - 1.0).abs() < 1e-9);
        assert!(!p.satisfies_gap_hypothesis(1.0));
    }

    #[test]
    fn lanczos_is_used_for_large_graphs_and_agrees_with_power_iteration() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::connected_random_regular(600, 4, &mut rng).unwrap();
        let p = analyze(&g).unwrap();
        assert_eq!(p.method, Method::Lanczos);
        // Cross-check against the independent deflated power iteration on the same instance.
        let op = NormalizedAdjacency::new(&g);
        let power = crate::power::second_eigenvalue_abs(
            &op,
            crate::power::IterationOptions::default(),
            &mut rng,
        )
        .unwrap();
        assert!(
            (p.lambda_abs - power.eigenvalue).abs() < 1e-4,
            "{} vs {}",
            p.lambda_abs,
            power.eigenvalue
        );
    }

    #[test]
    fn dense_and_lanczos_agree_on_a_mid_sized_graph() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::connected_random_regular(128, 4, &mut rng).unwrap();
        let dense = analyze_with(&g, Method::DenseJacobi).unwrap();
        let lanczos = analyze_with(&g, Method::Lanczos).unwrap();
        assert!((dense.lambda_abs - lanczos.lambda_abs).abs() < 1e-6);
        assert!((dense.lambda_2 - lanczos.lambda_2).abs() < 1e-6);
        assert!((dense.lambda_min - lanczos.lambda_min).abs() < 1e-6);
    }

    #[test]
    fn disconnected_graph_profile_has_unit_lambda() {
        let g =
            cobra_graph::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
                .unwrap();
        let p = analyze(&g).unwrap();
        assert!(!p.connected);
        assert!((p.lambda_abs - 1.0).abs() < 1e-9, "second component contributes eigenvalue 1");
    }

    #[test]
    fn tiny_graphs_rejected() {
        let g = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        assert!(analyze(&g).is_err());
        assert!(analyze(&cobra_graph::Graph::default()).is_err());
    }

    #[test]
    fn profile_serde_round_trip() {
        let g = generators::petersen().unwrap();
        let p = analyze(&g).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: SpectralProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
