//! Cut conductance, sweep cuts and the Cheeger inequality.
//!
//! Conductance gives a combinatorial view of expansion that complements the spectral gap: by
//! Cheeger's inequality `(1-λ_2)/2 ≤ Φ(G) ≤ sqrt(2 (1-λ_2))`. The experiment harness uses the
//! sweep cut of the second eigenvector both to sanity-check computed gaps and to exhibit the
//! bottlenecks of the "bad expander" families.

use cobra_graph::{Graph, VertexId};
use rand::Rng;

use crate::operator::NormalizedAdjacency;
use crate::power::{second_eigenvector, IterationOptions};
use crate::{Result, SpectralError};

/// Conductance `Φ(S) = |∂S| / min(vol(S), vol(V\S))` of a vertex set `S`.
///
/// Returns `None` if `S` or its complement has zero volume (e.g. `S` empty or all of `V`).
pub fn cut_conductance(g: &Graph, in_set: &[bool]) -> Option<f64> {
    assert_eq!(in_set.len(), g.num_vertices(), "indicator must cover every vertex");
    let mut vol_s = 0usize;
    let mut vol_rest = 0usize;
    let mut boundary = 0usize;
    for u in g.vertices() {
        if in_set[u] {
            vol_s += g.degree(u);
        } else {
            vol_rest += g.degree(u);
        }
        for v in g.neighbor_iter(u) {
            if u < v && in_set[u] != in_set[v] {
                boundary += 1;
            }
        }
    }
    let denom = vol_s.min(vol_rest);
    if denom == 0 {
        None
    } else {
        Some(boundary as f64 / denom as f64)
    }
}

/// Result of a sweep cut over an eigenvector ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCut {
    /// The conductance of the best prefix cut found.
    pub conductance: f64,
    /// The vertices on the small-volume side of the best cut.
    pub side: Vec<VertexId>,
}

/// Finds the minimum-conductance prefix cut of the ordering induced by `scores`
/// (the classical spectral-partitioning sweep).
///
/// The sweep is incremental — `vol(S)` and `|∂S|` are updated in `O(deg v)` as each
/// vertex joins the prefix, so the whole sweep costs `O(n log n + m)` rather than the
/// `O(n·(n+m))` of re-scanning the graph per prefix. The counts are the same integers
/// [`cut_conductance`] would compute, so the selected cut is bit-identical to the naive
/// sweep (property-tested below); at `n = 10^5` this is the difference between
/// milliseconds and minutes, and it is what makes the E10 `adv=partition` rows feasible
/// at the full-preset scale.
///
/// # Errors
///
/// Returns [`SpectralError::InvalidGraph`] if the graph has fewer than two vertices or no
/// edges.
fn sweep_cut(g: &Graph, scores: &[f64]) -> Result<SweepCut> {
    let n = g.num_vertices();
    if n < 2 || g.num_edges() == 0 {
        return Err(SpectralError::InvalidGraph {
            reason: "sweep cut needs at least 2 vertices and 1 edge".to_string(),
        });
    }
    assert_eq!(scores.len(), n, "scores must cover every vertex");
    let mut order: Vec<VertexId> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal));

    let total_vol = 2 * g.num_edges();
    let mut in_set = vec![false; n];
    let mut vol_s = 0usize;
    let mut boundary = 0usize;
    let mut best: Option<(f64, usize)> = None;
    for (prefix_len, &v) in order.iter().enumerate().take(n - 1) {
        in_set[v] = true;
        vol_s += g.degree(v);
        // Edges to members stop crossing the cut; edges to non-members start.
        for w in g.neighbor_iter(v) {
            if in_set[w] {
                boundary -= 1;
            } else {
                boundary += 1;
            }
        }
        let denom = vol_s.min(total_vol - vol_s);
        if denom > 0 {
            let phi = boundary as f64 / denom as f64;
            if best.is_none_or(|(b, _)| phi < b) {
                best = Some((phi, prefix_len + 1));
            }
        }
    }
    let (conductance, len) = best.ok_or_else(|| SpectralError::InvalidGraph {
        reason: "no non-trivial cut found".to_string(),
    })?;
    Ok(SweepCut { conductance, side: order[..len].to_vec() })
}

/// Computes the spectral sweep-cut conductance: runs the lazy power iteration for the second
/// eigenvector and sweeps it.
///
/// # Errors
///
/// Propagates solver errors from [`second_eigenvector`], and returns
/// [`SpectralError::InvalidGraph`] if the graph has fewer than two vertices or no edges.
pub fn spectral_sweep_conductance<R: Rng>(g: &Graph, rng: &mut R) -> Result<SweepCut> {
    let op = NormalizedAdjacency::new(g);
    let vector = second_eigenvector(&op, IterationOptions::default(), rng)?;
    sweep_cut(g, &vector.eigenvector)
}

/// Checks the two-sided Cheeger inequality `(1-λ₂)/2 ≤ Φ ≤ sqrt(2(1-λ₂))` for a computed
/// conductance and second eigenvalue, returning the pair of bounds.
pub fn cheeger_bounds(lambda_2: f64) -> (f64, f64) {
    let gap = 1.0 - lambda_2;
    (gap / 2.0, (2.0 * gap).max(0.0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(5)
    }

    #[test]
    fn cut_conductance_of_barbell_bridge() {
        let g = generators::barbell(6).unwrap();
        let mut in_set = vec![false; 12];
        in_set[..6].fill(true);
        // One bridge edge; volume of each side is 6*5 + 1 = 31.
        let phi = cut_conductance(&g, &in_set).unwrap();
        assert!((phi - 1.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn cut_conductance_degenerate_sets() {
        let g = generators::complete(5).unwrap();
        assert_eq!(cut_conductance(&g, &[false; 5]), None);
        assert_eq!(cut_conductance(&g, &[true; 5]), None);
    }

    #[test]
    fn sweep_finds_the_barbell_bottleneck() {
        let g = generators::barbell(8).unwrap();
        let cut = spectral_sweep_conductance(&g, &mut rng()).unwrap();
        // The optimal cut separates the two cliques: conductance 1/(8*7+1).
        let optimal = 1.0 / 57.0;
        assert!(
            cut.conductance <= optimal * 1.0001,
            "sweep conductance {} should find the bridge cut {optimal}",
            cut.conductance
        );
        assert_eq!(cut.side.len(), 8, "the small side should be one clique");
    }

    /// The naive reference sweep: re-score every prefix with [`cut_conductance`].
    fn naive_sweep(g: &Graph, scores: &[f64]) -> SweepCut {
        let n = g.num_vertices();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut in_set = vec![false; n];
        let mut best: Option<(f64, usize)> = None;
        for (prefix_len, &v) in order.iter().enumerate().take(n - 1) {
            in_set[v] = true;
            if let Some(phi) = cut_conductance(g, &in_set) {
                if best.is_none_or(|(b, _)| phi < b) {
                    best = Some((phi, prefix_len + 1));
                }
            }
        }
        let (conductance, len) = best.expect("non-trivial cut");
        SweepCut { conductance, side: order[..len].to_vec() }
    }

    #[test]
    fn incremental_sweep_matches_the_naive_prefix_rescan() {
        let mut r = rng();
        for g in [
            generators::barbell(7).unwrap(),
            generators::random_regular(64, 6, &mut r).unwrap(),
            generators::lollipop(9, 12).unwrap(),
        ] {
            let scores: Vec<f64> = (0..g.num_vertices()).map(|_| r.gen::<f64>() - 0.5).collect();
            let fast = sweep_cut(&g, &scores).unwrap();
            let slow = naive_sweep(&g, &scores);
            // Same integer boundary/volume arithmetic, so exactly the same cut.
            assert_eq!(fast.conductance.to_bits(), slow.conductance.to_bits());
            assert_eq!(fast.side, slow.side);
        }
    }

    #[test]
    fn sweep_on_complete_graph_has_high_conductance() {
        let g = generators::complete(10).unwrap();
        let cut = spectral_sweep_conductance(&g, &mut rng()).unwrap();
        assert!(cut.conductance > 0.5, "complete graphs have no sparse cuts");
    }

    #[test]
    fn cheeger_inequality_holds_for_test_families() {
        let mut r = rng();
        let graphs = vec![
            generators::petersen().unwrap(),
            generators::cycle(17).unwrap(),
            generators::hypercube(5).unwrap(),
            generators::ring_of_cliques(6, 4).unwrap(),
            generators::connected_random_regular(40, 3, &mut r).unwrap(),
        ];
        for g in graphs {
            let eigs = crate::dense::transition_eigenvalues(&g).unwrap();
            let lambda_2 = eigs[1];
            let cut = spectral_sweep_conductance(&g, &mut r).unwrap();
            let (lower, upper) = cheeger_bounds(lambda_2);
            // The sweep cut is a real cut, so it is an upper bound on Phi(G), which is itself
            // >= the Cheeger lower bound; and Cheeger's upper bound must dominate the optimal
            // cut, which the sweep approximates within the sqrt factor.
            assert!(
                cut.conductance >= lower - 1e-9,
                "sweep {} below Cheeger lower bound {lower}",
                cut.conductance
            );
            assert!(
                cut.conductance <= upper + 1e-9,
                "sweep {} above Cheeger upper bound {upper} (graph {g:?})",
                cut.conductance
            );
        }
    }

    #[test]
    fn sweep_rejects_degenerate_graphs() {
        let g = cobra_graph::Graph::from_edges(3, &[]).unwrap();
        assert!(sweep_cut(&g, &[0.0, 0.0, 0.0]).is_err());
        let g = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        assert!(sweep_cut(&g, &[0.0]).is_err());
    }

    #[test]
    fn cheeger_bounds_shape() {
        let (lo, hi) = cheeger_bounds(0.5);
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 1.0).abs() < 1e-12);
        let (lo, hi) = cheeger_bounds(1.0);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 0.0);
    }
}
