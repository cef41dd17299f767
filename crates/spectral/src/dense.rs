//! Dense symmetric matrices and the cyclic Jacobi eigensolver.
//!
//! The Jacobi method is slow (`O(n³)` per sweep) but extremely robust and simple to audit,
//! which makes it the right ground-truth solver for the small instances used in unit tests and
//! the exact duality experiments. Large graphs go through [`crate::lanczos`] instead.

use cobra_graph::Graph;

use crate::{Result, SpectralError};

/// A dense symmetric `n × n` matrix stored in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SymmetricMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymmetricMatrix {
    /// Creates the zero matrix of dimension `n`.
    fn zeros(n: usize) -> Self {
        SymmetricMatrix { n, data: vec![0.0; n * n] }
    }

    /// Reads entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets entries `(i, j)` and `(j, i)` to `value`, preserving symmetry.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    fn set(&mut self, i: usize, j: usize, value: f64) {
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
    }

    /// Builds the symmetrically normalised adjacency matrix `D^{-1/2} A D^{-1/2}` of a graph.
    ///
    /// For regular graphs this equals the random-walk transition matrix `P = A/r`; in general
    /// it is similar to `P`, so the two share their spectrum. Vertices of degree zero
    /// contribute an all-zero row/column (eigenvalue 0), which keeps the matrix well-defined
    /// for degenerate test graphs.
    pub(crate) fn normalized_adjacency(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut m = SymmetricMatrix::zeros(n);
        let inv_sqrt_deg: Vec<f64> = (0..n)
            .map(|v| {
                let d = g.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        for u in g.vertices() {
            for v in g.neighbor_iter(u) {
                if u < v {
                    m.set(u, v, inv_sqrt_deg[u] * inv_sqrt_deg[v]);
                }
            }
        }
        m
    }

    /// Frobenius norm of the strictly off-diagonal part.
    fn off_diagonal_norm(&self) -> f64 {
        let mut sum = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let x = self.get(i, j);
                sum += 2.0 * x * x;
            }
        }
        sum.sqrt()
    }

    /// Computes **all** eigenvalues with the cyclic Jacobi method, sorted in descending order.
    ///
    /// # Errors
    ///
    /// Returns [`SpectralError::NoConvergence`] if the off-diagonal norm has not dropped below
    /// `1e-12 · n` after 100 sweeps (does not happen for the sizes this solver is meant for).
    fn jacobi_eigenvalues(&self) -> Result<Vec<f64>> {
        let n = self.n;
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut a = self.clone();
        const MAX_SWEEPS: usize = 100;
        let tol = 1e-12 * n as f64;
        for _sweep in 0..MAX_SWEEPS {
            if a.off_diagonal_norm() <= tol {
                let mut eigs: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
                eigs.sort_by(|x, y| y.partial_cmp(x).expect("eigenvalues are finite"));
                return Ok(eigs);
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() < f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    // Update the p and q rows/columns.
                    for k in 0..n {
                        if k != p && k != q {
                            let akp = a.get(k, p);
                            let akq = a.get(k, q);
                            a.set(k, p, c * akp - s * akq);
                            a.set(k, q, s * akp + c * akq);
                        }
                    }
                    let new_app = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                    let new_aqq = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                    a.data[p * n + p] = new_app;
                    a.data[q * n + q] = new_aqq;
                    a.set(p, q, 0.0);
                }
            }
        }
        Err(SpectralError::NoConvergence {
            solver: "jacobi",
            iterations: MAX_SWEEPS,
            residual: a.off_diagonal_norm(),
        })
    }
}

/// Computes all transition-matrix eigenvalues of a graph with the dense Jacobi solver,
/// sorted descending (so `eigs[0] ≈ 1` for connected non-empty graphs).
///
/// # Errors
///
/// Returns [`SpectralError::InvalidGraph`] for the empty graph and propagates solver failures.
pub fn transition_eigenvalues(g: &Graph) -> Result<Vec<f64>> {
    if g.num_vertices() == 0 {
        return Err(SpectralError::InvalidGraph { reason: "empty graph".to_string() });
    }
    SymmetricMatrix::normalized_adjacency(g).jacobi_eigenvalues()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn symmetric_matrix_get_set() {
        let mut m = SymmetricMatrix::zeros(3);
        m.set(0, 2, 1.5);
        assert_eq!(m.get(0, 2), 1.5);
        assert_eq!(m.get(2, 0), 1.5);
    }

    #[test]
    fn eigenvalues_of_identity_like_matrix() {
        let mut m = SymmetricMatrix::zeros(4);
        for i in 0..4 {
            m.set(i, i, 2.0);
        }
        let eigs = m.jacobi_eigenvalues().unwrap();
        for e in eigs {
            assert_close(e, 2.0, 1e-12);
        }
    }

    #[test]
    fn eigenvalues_of_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let mut m = SymmetricMatrix::zeros(2);
        m.set(0, 0, 2.0);
        m.set(1, 1, 2.0);
        m.set(0, 1, 1.0);
        let eigs = m.jacobi_eigenvalues().unwrap();
        assert_close(eigs[0], 3.0, 1e-10);
        assert_close(eigs[1], 1.0, 1e-10);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n transition matrix: eigenvalue 1 once and -1/(n-1) with multiplicity n-1.
        let g = generators::complete(8).unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        assert_close(eigs[0], 1.0, 1e-9);
        for &e in &eigs[1..] {
            assert_close(e, -1.0 / 7.0, 1e-9);
        }
    }

    #[test]
    fn cycle_graph_spectrum() {
        // C_n transition matrix eigenvalues: cos(2 pi k / n).
        let n = 12;
        let g = generators::cycle(n).unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        let mut expected: Vec<f64> =
            (0..n).map(|k| (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos()).collect();
        expected.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (e, x) in eigs.iter().zip(expected.iter()) {
            assert_close(*e, *x, 1e-9);
        }
    }

    #[test]
    fn hypercube_spectrum() {
        // Q_d transition matrix eigenvalues: 1 - 2i/d with multiplicity C(d, i).
        let d = 4u32;
        let g = generators::hypercube(d).unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        let mut expected = Vec::new();
        for i in 0..=d {
            let mult = binomial(d as usize, i as usize);
            for _ in 0..mult {
                expected.push(1.0 - 2.0 * i as f64 / d as f64);
            }
        }
        expected.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(eigs.len(), expected.len());
        for (e, x) in eigs.iter().zip(expected.iter()) {
            assert_close(*e, *x, 1e-9);
        }
    }

    fn binomial(n: usize, k: usize) -> usize {
        if k > n {
            return 0;
        }
        let mut result = 1usize;
        for i in 0..k.min(n - k) {
            result = result * (n - i) / (i + 1);
        }
        result
    }

    #[test]
    fn petersen_spectrum() {
        // Petersen adjacency eigenvalues: 3, 1 (x5), -2 (x4); transition = /3.
        let g = generators::petersen().unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        assert_close(eigs[0], 1.0, 1e-9);
        for &e in &eigs[1..6] {
            assert_close(e, 1.0 / 3.0, 1e-9);
        }
        for &e in &eigs[6..] {
            assert_close(e, -2.0 / 3.0, 1e-9);
        }
    }

    #[test]
    fn bipartite_graph_has_minus_one_eigenvalue() {
        let g = generators::complete_bipartite(4, 4).unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        assert_close(eigs[0], 1.0, 1e-9);
        assert_close(*eigs.last().unwrap(), -1.0, 1e-9);
    }

    #[test]
    fn star_graph_normalized_spectrum() {
        // Normalised adjacency of the star: eigenvalues 1, 0 (x n-2), -1.
        let g = generators::star(6).unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        assert_close(eigs[0], 1.0, 1e-9);
        assert_close(*eigs.last().unwrap(), -1.0, 1e-9);
        for &e in &eigs[1..5] {
            assert_close(e, 0.0, 1e-9);
        }
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = cobra_graph::Graph::default();
        assert!(matches!(
            transition_eigenvalues(&g).unwrap_err(),
            SpectralError::InvalidGraph { .. }
        ));
    }

    #[test]
    fn trace_is_preserved() {
        let g = generators::petersen().unwrap();
        let eigs = transition_eigenvalues(&g).unwrap();
        // Simple graphs have zero diagonal, so eigenvalues sum to ~0.
        let trace: f64 = eigs.iter().sum();
        assert_close(trace, 0.0, 1e-9);
    }
}
