//! Matrix-free application of the normalised adjacency operator.
//!
//! Iterative eigensolvers only need `y = M x`; storing the graph once and streaming over its
//! CSR adjacency keeps memory at `O(n + m)` even for the largest experiment instances.

use cobra_graph::Graph;

/// The symmetrically normalised adjacency operator `N = D^{-1/2} A D^{-1/2}` of a graph.
///
/// `N` is symmetric and similar to the random-walk transition matrix `P = D^{-1} A`
/// (via `N = D^{1/2} P D^{-1/2}`), so both have the same eigenvalues — in particular the `λ`
/// of the paper. For regular graphs `N` and `P` coincide.
#[derive(Debug, Clone)]
pub struct NormalizedAdjacency<'a> {
    graph: &'a Graph,
    inv_sqrt_deg: Vec<f64>,
}

impl<'a> NormalizedAdjacency<'a> {
    /// Wraps a graph as a normalised adjacency operator.
    pub fn new(graph: &'a Graph) -> Self {
        let inv_sqrt_deg = graph
            .vertices()
            .map(|v| {
                let d = graph.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        NormalizedAdjacency { graph, inv_sqrt_deg }
    }

    /// Dimension of the operator (the number of vertices).
    pub fn dim(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Applies the operator: `out = N x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `out` do not both have length [`dim`](Self::dim).
    pub fn apply(&self, x: &[f64], out: &mut [f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "input vector has wrong length");
        assert_eq!(out.len(), n, "output vector has wrong length");
        for (u, out_u) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for v in self.graph.neighbor_iter(u) {
                acc += self.inv_sqrt_deg[v] * x[v];
            }
            *out_u = acc * self.inv_sqrt_deg[u];
        }
    }

    /// Applies the *lazy* operator `(I + N)/2`, whose spectrum is the affinely rescaled
    /// spectrum of `N` into `[0, 1]`. Useful when a solver needs all eigenvalues
    /// non-negative so "largest modulus" coincides with "largest".
    ///
    /// # Panics
    ///
    /// Panics if `x` and `out` do not both have length [`dim`](Self::dim).
    pub fn apply_lazy(&self, x: &[f64], out: &mut [f64]) {
        self.apply(x, out);
        for (o, xi) in out.iter_mut().zip(x.iter()) {
            *o = 0.5 * (*o + *xi);
        }
    }

    /// The unit-norm principal eigenvector of `N` (eigenvalue 1 for connected graphs):
    /// proportional to `sqrt(deg(v))`.
    pub fn principal_eigenvector(&self) -> Vec<f64> {
        let mut v: Vec<f64> =
            self.graph.vertices().map(|u| (self.graph.degree(u) as f64).sqrt()).collect();
        let norm = norm2(&v);
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

/// Euclidean norm of a vector.
fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot product needs equal-length vectors");
    x.iter().zip(y.iter()).map(|(a, b)| a * b).sum()
}

/// Subtracts from `x` its projection onto the unit vector `unit`: `x ← x - (x·unit) unit`.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn deflate(x: &mut [f64], unit: &[f64]) {
    let proj = dot(x, unit);
    for (xi, ui) in x.iter_mut().zip(unit.iter()) {
        *xi -= proj * ui;
    }
}

/// Normalises `x` to unit Euclidean norm, returning the previous norm.
/// Leaves the zero vector untouched and returns 0.
pub fn normalize(x: &mut [f64]) -> f64 {
    let norm = norm2(x);
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;

    #[test]
    fn apply_matches_dense_matrix() {
        let g = generators::petersen().unwrap();
        let op = NormalizedAdjacency::new(&g);
        let dense = crate::dense::SymmetricMatrix::normalized_adjacency(&g);
        let n = g.num_vertices();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut sparse_out = vec![0.0; n];
        op.apply(&x, &mut sparse_out);
        for (i, &sparse_i) in sparse_out.iter().enumerate() {
            let dense_out: f64 = (0..n).map(|j| dense.get(i, j) * x[j]).sum();
            assert!((sparse_i - dense_out).abs() < 1e-12);
        }
    }

    #[test]
    fn principal_eigenvector_is_fixed_by_operator() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let g = generators::connected_random_regular(50, 4, &mut rng).unwrap();
        let op = NormalizedAdjacency::new(&g);
        let v = op.principal_eigenvector();
        let mut out = vec![0.0; op.dim()];
        op.apply(&v, &mut out);
        for (a, b) in v.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-12, "N v should equal v for the principal direction");
        }
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_operator_halves_spectrum() {
        let g = generators::complete(6).unwrap();
        let op = NormalizedAdjacency::new(&g);
        let v = op.principal_eigenvector();
        let mut out = vec![0.0; op.dim()];
        op.apply_lazy(&v, &mut out);
        // Lazy eigenvalue for the principal direction is (1 + 1)/2 = 1.
        for (a, b) in v.iter().zip(out.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn vector_helpers() {
        let mut x = vec![3.0, 4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(dot(&x, &[1.0, 1.0]), 7.0);
        let prev = normalize(&mut x);
        assert_eq!(prev, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);

        // Deflation removes the component along a unit vector.
        let unit = vec![1.0, 0.0];
        let mut y = vec![2.0, 5.0];
        deflate(&mut y, &unit);
        assert_eq!(y, vec![0.0, 5.0]);

        let mut zero = vec![0.0, 0.0];
        assert_eq!(normalize(&mut zero), 0.0);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn isolated_vertices_do_not_blow_up() {
        let g = cobra_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let op = NormalizedAdjacency::new(&g);
        let x = vec![1.0, 1.0, 1.0];
        let mut out = vec![0.0; 3];
        op.apply(&x, &mut out);
        assert_eq!(out[2], 0.0);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
