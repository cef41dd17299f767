//! Randomised graph generators: random regular graphs, the configuration model and
//! Erdős–Rényi graphs.
//!
//! Random `r`-regular graphs are the work-horse instances of the cover-time experiments: for
//! fixed `r ≥ 3` they are, with high probability, very good expanders (`λ → 2√(r-1)/r` by
//! Friedman's theorem), which is exactly the regime of the paper's Theorem 1.
//!
//! An attempt of [`random_regular`] takes `O(n·r²)` time, linear in `n` for fixed `r`, and
//! holds two `n·r` arrays of 4-byte entries (the stubs and a partner table that becomes the
//! graph's neighbour array); [`connected_random_regular`] adds one `O(n + n·r)` BFS per
//! attempt. At `n ≫ cache` both the matching's first pass and the BFS are bound by
//! memory latency, so each hints the rows it will read a few steps ahead into cache.
//! [`erdos_renyi_gnp`] and [`chung_lu`] still scan all `n(n−1)/2` vertex pairs.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::csr::check_csr_size;
use crate::prefetch::prefetch;
use crate::{ops, Graph, GraphError, Result, VertexId};

/// Maximum number of restarts for the stub-matching procedure before giving up.
const MAX_RESTARTS: usize = 1000;

/// How many pairs ahead of the one being tested a matching pass hints both stubs' partner
/// rows into cache.
const PAIRS_AHEAD: usize = 8;

/// Generates a uniform-ish random simple `r`-regular graph on `n` vertices.
///
/// Uses the pairing (stub-matching) procedure of Steger and Wormald: each vertex gets `r`
/// stubs; stubs are repeatedly paired uniformly at random, discarding pairs that would create a
/// self-loop or parallel edge, restarting from scratch when the remaining stubs cannot be
/// completed. For fixed `r` and moderate `n` this is fast and the output distribution is
/// asymptotically uniform over simple `r`-regular graphs.
///
/// Cost: each pass shuffles the unpaired stubs and tests every candidate pair against a flat
/// `n × r` table of the partners found so far, an `O(r)` scan of one row, so an attempt takes
/// `O(n·r²)` time, linear in `n` for fixed `r` (the first pass pairs almost every stub).
/// The shuffled pairs hit random rows, so at `n ≫ cache` the first pass is bound by memory
/// latency. Each pass therefore hints the row lengths and rows of the pair 8 pairs ahead
/// into cache, which changes neither the graph nor the draws.
/// Memory is `n·r` 4-byte stubs plus the `n·r` 4-byte table and `n` row counts; the table,
/// its rows sorted, is the finished graph's neighbour array, so nothing is copied at the end.
///
/// The result is **not** guaranteed to be connected; use [`connected_random_regular`] when the
/// experiments require connectivity (for `r ≥ 3` a resample is almost never needed).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n * r` is odd, `r >= n`, or `n == 0`,
/// [`GraphError::TooLarge`] if `n` or `n * r` exceeds [`Graph::MAX_ENTRIES`] (checked before
/// anything is allocated), and [`GraphError::GenerationFailed`] if the matching procedure
/// exceeds its restart budget (practically unreachable for sensible parameters).
pub fn random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "random regular graph needs at least 1 vertex".to_string(),
        });
    }
    if r >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("degree r = {r} must be smaller than n = {n}"),
        });
    }
    // A product past `usize::MAX` saturates, so it is reported as too large, not wrapped.
    let arcs = n.saturating_mul(r);
    check_csr_size(n, arcs)?;
    if !arcs.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("n * r = {arcs} must be even"),
        });
    }
    if r == 0 {
        return Graph::from_edges(n, &[]);
    }

    // Both sizes fit `u32` by the check above, so every stub and vertex id narrows exactly.
    let mut stubs: Vec<u32> = Vec::with_capacity(arcs);
    let mut partners = PartnerTable { r, rows: vec![0; arcs], len: vec![0; n] };
    for _ in 0..MAX_RESTARTS {
        if try_regular_matching(&mut stubs, &mut partners, rng) {
            return Ok(partners.into_graph());
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!("could not realise a simple {r}-regular graph on {n} vertices"),
    })
}

/// The partners each vertex has been matched with so far: row `v` is
/// `rows[v·r .. v·r + len[v]]`, and every accepted pair is written into both rows.
struct PartnerTable {
    r: usize,
    rows: Vec<u32>,
    len: Vec<u32>,
}

impl PartnerTable {
    /// Whether `{u, v}` is already an edge: a scan of `u`'s row.
    fn contains(&self, u: u32, v: u32) -> bool {
        let start = u as usize * self.r;
        self.rows[start..start + self.len[u as usize] as usize].contains(&v)
    }

    /// Hints the row length and the row of `u` into cache; no value changes.
    fn prefetch(&self, u: u32) {
        prefetch(&self.len, u as usize);
        prefetch(&self.rows, u as usize * self.r);
    }

    /// Records the edge `{u, v}` in both rows.
    fn link(&mut self, u: u32, v: u32) {
        for (a, b) in [(u, v), (v, u)] {
            let len = &mut self.len[a as usize];
            self.rows[a as usize * self.r + *len as usize] = b;
            *len += 1;
        }
    }

    /// The finished matching as a graph: every row is full, so the table is the CSR
    /// neighbour array once each row is sorted, with `offsets[v] = v·r`.
    fn into_graph(mut self) -> Graph {
        self.rows.chunks_exact_mut(self.r).for_each(<[u32]>::sort_unstable);
        let offsets = (0..=self.len.len()).map(|v| (v * self.r) as u32).collect();
        Graph::from_valid_parts(offsets, self.rows)
    }
}

/// One attempt of the Steger–Wormald stub-matching procedure; `false` means restart.
///
/// Each pass compacts the stubs it could not pair to the front of `stubs`, in order, so the
/// next pass shuffles exactly the leftover sequence.
fn try_regular_matching<R: Rng>(
    stubs: &mut Vec<u32>,
    partners: &mut PartnerTable,
    rng: &mut R,
) -> bool {
    let (n, r) = (partners.len.len(), partners.r);
    stubs.clear();
    stubs.extend((0..n as u32).flat_map(|v| std::iter::repeat_n(v, r)));
    partners.len.fill(0);

    // The stub count starts even (`n·r` is) and each accepted pair removes two, so every
    // pass pairs all of its stubs.
    while !stubs.is_empty() {
        stubs.shuffle(rng);
        let mut kept = 0;
        for i in (0..stubs.len()).step_by(2) {
            if let Some(&[a, b]) = stubs.get(i + 2 * PAIRS_AHEAD..i + 2 * PAIRS_AHEAD + 2) {
                partners.prefetch(a);
                partners.prefetch(b);
            }
            let (u, v) = (stubs[i], stubs[i + 1]);
            if u != v && !partners.contains(u, v) {
                partners.link(u, v);
            } else {
                stubs[kept] = u;
                stubs[kept + 1] = v;
                kept += 2;
            }
        }
        let progress = kept < stubs.len();
        stubs.truncate(kept);
        // Without progress, check whether any valid pairing among the leftover stubs exists
        // at all; if not, restart the whole attempt.
        if !progress && !suitable(stubs, partners) {
            return false;
        }
    }
    true
}

/// Returns `true` if some pair of remaining stubs can still form a new simple edge.
fn suitable(stubs: &[u32], partners: &PartnerTable) -> bool {
    let mut distinct = stubs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .iter()
        .enumerate()
        .any(|(i, &u)| distinct[i + 1..].iter().any(|&v| !partners.contains(u, v)))
}

/// Generates a **connected** random simple `r`-regular graph, resampling until connected.
///
/// For `r ≥ 3` a random `r`-regular graph is connected with probability `1 - O(n^{2-r})`, so a
/// handful of attempts always suffices; the attempt budget guards against misuse with `r ≤ 2`.
///
/// # Errors
///
/// Same parameter errors as [`random_regular`], plus [`GraphError::GenerationFailed`] if no
/// connected instance is found within the attempt budget.
pub fn connected_random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Result<Graph> {
    if n == 1 && r == 0 {
        return Graph::from_edges(1, &[]);
    }
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let g = random_regular(n, r, rng)?;
        if ops::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!(
            "no connected {r}-regular graph on {n} vertices found in {ATTEMPTS} attempts"
        ),
    })
}

/// The erased configuration model: a random simple graph whose degree sequence approximates
/// `degrees`.
///
/// Stubs are paired uniformly at random; self-loops and parallel edges are **erased**, so
/// vertices may end up with slightly smaller degree than requested (the standard "erased
/// configuration model"). Use [`random_regular`] when an exactly regular graph is needed.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if the degree sum is odd or a degree is `>= n`.
pub fn configuration_model<R: Rng>(degrees: &[usize], rng: &mut R) -> Result<Graph> {
    let n = degrees.len();
    let total: usize = degrees.iter().sum();
    if !total.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("degree sum {total} must be even"),
        });
    }
    if let Some((v, &d)) = degrees.iter().enumerate().find(|&(_, &d)| d >= n.max(1)) {
        return Err(GraphError::InvalidParameters {
            reason: format!("degree {d} of vertex {v} must be smaller than n = {n}"),
        });
    }
    let mut stubs: Vec<VertexId> =
        degrees.iter().enumerate().flat_map(|(v, &d)| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    // Erase self-loops and parallel edges via sort + dedup on a plain Vec: same semantics as
    // the former hash-set filter, but with seed-deterministic edge order.
    let mut edges: Vec<(usize, usize)> = stubs
        .chunks_exact(2)
        .filter_map(|pair| {
            let (u, v) = (pair[0], pair[1]);
            (u != v).then(|| (u.min(v), u.max(v)))
        })
        .collect();
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n, &edges)
}

/// The Erdős–Rényi random graph `G(n, p)`: each of the `n(n-1)/2` possible edges is present
/// independently with probability `p`.
///
/// Not regular, but useful as a robustness workload for the simulators and for the BVDV herd
/// example.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `p` is not in `[0, 1]` or is not finite.
pub fn erdos_renyi_gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(GraphError::InvalidParameters {
            reason: format!("edge probability {p} must be in [0, 1]"),
        });
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// The Chung–Lu expected-degree power-law graph: vertex `i` gets weight
/// `w_i ∝ (n / (i + 1))^{1/(γ-1)}`, weights are rescaled so the mean expected degree is
/// `mean_degree`, and each edge `{i, j}` is present independently with probability
/// `min(1, w_i · w_j / Σw)`.
///
/// This is the heterogeneous-degree workload family: the realised degree sequence follows a
/// power law with exponent `γ`, so a handful of hubs coexist with many low-degree vertices —
/// the regime of the AMI-mesh and relay networks the COBRA robustness experiments target.
/// Like [`erdos_renyi_gnp`], the output is **not** resampled for connectivity and may contain
/// isolated vertices (the processes reject those loudly); use [`connected_chung_lu`] for
/// experiment instances.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `n < 2`, `γ <= 2` (infinite-mean regime), or
/// `mean_degree` is not in `(0, n)`.
pub fn chung_lu<R: Rng>(n: usize, gamma: f64, mean_degree: f64, rng: &mut R) -> Result<Graph> {
    if n < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("chung-lu graph needs at least 2 vertices, got n = {n}"),
        });
    }
    if !gamma.is_finite() || gamma <= 2.0 {
        return Err(GraphError::InvalidParameters {
            reason: format!("power-law exponent gamma = {gamma} must be finite and > 2"),
        });
    }
    if !mean_degree.is_finite() || mean_degree <= 0.0 || mean_degree >= n as f64 {
        return Err(GraphError::InvalidParameters {
            reason: format!("mean degree d = {mean_degree} must be in (0, n = {n})"),
        });
    }
    let exponent = 1.0 / (gamma - 1.0);
    let mut weights: Vec<f64> =
        (0..n).map(|i| (n as f64 / (i + 1) as f64).powf(exponent)).collect();
    let raw_mean = weights.iter().sum::<f64>() / n as f64;
    for w in &mut weights {
        *w *= mean_degree / raw_mean;
    }
    let total: f64 = weights.iter().sum();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (weights[u] * weights[v] / total).min(1.0);
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Generates a **connected** Chung–Lu graph, resampling until connected.
///
/// The minimum expected degree is `mean_degree` scaled down by the weight spread, so for
/// small `mean_degree` a given sample frequently has isolated vertices; the attempt budget
/// absorbs that, and exhausting it reports loudly instead of handing an unusable instance to
/// an experiment.
///
/// # Errors
///
/// Same parameter errors as [`chung_lu`], plus [`GraphError::GenerationFailed`] if no
/// connected instance is found within the attempt budget.
pub fn connected_chung_lu<R: Rng>(
    n: usize,
    gamma: f64,
    mean_degree: f64,
    rng: &mut R,
) -> Result<Graph> {
    const ATTEMPTS: usize = 200;
    for _ in 0..ATTEMPTS {
        let g = chung_lu(n, gamma, mean_degree, rng)?;
        if ops::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed {
        reason: format!(
            "no connected chung-lu graph (n = {n}, gamma = {gamma}, d = {mean_degree}) \
             found in {ATTEMPTS} attempts"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut r = rng(1);
        for &(n, d) in &[(10usize, 3usize), (20, 4), (50, 7), (16, 15), (64, 8)] {
            let g = random_regular(n, d, &mut r).unwrap();
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.regular_degree(), Some(d), "n={n} d={d}");
            assert_eq!(g.num_edges(), n * d / 2);
        }
    }

    #[test]
    fn random_regular_rejects_invalid_parameters() {
        let mut r = rng(2);
        assert!(random_regular(0, 0, &mut r).is_err());
        assert!(random_regular(5, 5, &mut r).is_err());
        assert!(random_regular(5, 3, &mut r).is_err()); // odd n*r
    }

    #[test]
    fn random_regular_rejects_oversized_requests_before_allocating() {
        // Neither request may reach an allocation: each would need tens of GB of stubs.
        let mut r = rng(3);
        let limit = Graph::MAX_ENTRIES;
        assert_eq!(
            random_regular(1 << 31, 4, &mut r),
            Err(GraphError::TooLarge { what: "arcs", count: 1 << 33, limit })
        );
        assert_eq!(
            random_regular(usize::MAX / 2, 4, &mut r),
            Err(GraphError::TooLarge { what: "vertices", count: usize::MAX / 2, limit })
        );
        // `n · r` overflows `usize` here; it is still reported as too large, not wrapped.
        assert!(matches!(
            random_regular(usize::MAX / 2, usize::MAX / 4, &mut r),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn random_regular_zero_degree_is_edgeless() {
        let mut r = rng(3);
        let g = random_regular(6, 0, &mut r).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn connected_random_regular_is_connected() {
        let mut r = rng(4);
        for &(n, d) in &[(32usize, 3usize), (64, 4), (100, 6)] {
            let g = connected_random_regular(n, d, &mut r).unwrap();
            assert!(ops::is_connected(&g), "n={n} d={d}");
            assert_eq!(g.regular_degree(), Some(d));
        }
    }

    #[test]
    fn connected_random_regular_single_vertex() {
        let mut r = rng(5);
        let g = connected_random_regular(1, 0, &mut r).unwrap();
        assert_eq!(g.num_vertices(), 1);
    }

    #[test]
    fn random_regular_complete_graph_case() {
        // r = n - 1 forces the complete graph.
        let mut r = rng(6);
        let g = random_regular(8, 7, &mut r).unwrap();
        assert_eq!(g, crate::generators::complete(8).unwrap());
    }

    #[test]
    fn random_regular_is_deterministic_given_seed() {
        let g1 = random_regular(40, 3, &mut rng(42)).unwrap();
        let g2 = random_regular(40, 3, &mut rng(42)).unwrap();
        assert_eq!(g1, g2);
        let g3 = random_regular(40, 3, &mut rng(43)).unwrap();
        assert_ne!(g1, g3, "different seeds should (almost surely) differ");
    }

    #[test]
    fn configuration_model_respects_even_degree_sum() {
        let mut r = rng(7);
        assert!(configuration_model(&[3, 2], &mut r).is_err()); // odd sum
        assert!(configuration_model(&[5, 1, 2, 2], &mut r).is_err()); // degree >= n
        let g = configuration_model(&[2, 2, 2, 2, 2, 2], &mut r).unwrap();
        assert_eq!(g.num_vertices(), 6);
        // Erased model: degrees are at most the requested ones.
        for v in g.vertices() {
            assert!(g.degree(v) <= 2);
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut r = rng(8);
        let empty = erdos_renyi_gnp(10, 0.0, &mut r).unwrap();
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi_gnp(10, 1.0, &mut r).unwrap();
        assert_eq!(full, crate::generators::complete(10).unwrap());
        assert!(erdos_renyi_gnp(10, 1.5, &mut r).is_err());
        assert!(erdos_renyi_gnp(10, f64::NAN, &mut r).is_err());
    }

    #[test]
    fn chung_lu_rejects_invalid_parameters() {
        let mut r = rng(10);
        assert!(chung_lu(1, 2.5, 0.5, &mut r).is_err()); // n too small
        assert!(chung_lu(64, 2.0, 8.0, &mut r).is_err()); // gamma <= 2
        assert!(chung_lu(64, f64::NAN, 8.0, &mut r).is_err());
        assert!(chung_lu(64, 2.5, 0.0, &mut r).is_err()); // d out of range
        assert!(chung_lu(64, 2.5, 64.0, &mut r).is_err());
    }

    #[test]
    fn chung_lu_mean_degree_is_near_target() {
        let mut r = rng(11);
        let n = 400usize;
        let d = 8.0;
        let g = chung_lu(n, 2.5, d, &mut r).unwrap();
        let measured = 2.0 * g.num_edges() as f64 / n as f64;
        // min(1, ·) capping on the hub pairs pulls the mean slightly below target.
        assert!((measured - d).abs() < 1.5, "average degree {measured} too far from target {d}");
    }

    #[test]
    fn chung_lu_degrees_are_heterogeneous() {
        let mut r = rng(12);
        let g = chung_lu(400, 2.5, 8.0, &mut r).unwrap();
        let max = g.max_degree().unwrap();
        let min = g.min_degree().unwrap();
        assert!(max >= 4 * min.max(1), "power-law spread expected, got {min}..{max}");
    }

    #[test]
    fn chung_lu_is_deterministic_given_seed() {
        let g1 = chung_lu(100, 2.8, 6.0, &mut rng(42)).unwrap();
        let g2 = chung_lu(100, 2.8, 6.0, &mut rng(42)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn connected_chung_lu_is_connected() {
        let mut r = rng(13);
        let g = connected_chung_lu(256, 3.0, 8.0, &mut r).unwrap();
        assert!(ops::is_connected(&g));
        assert!(g.min_degree().unwrap() >= 1);
        assert_eq!(g.num_vertices(), 256);
    }

    #[test]
    fn erdos_renyi_edge_count_is_near_expectation() {
        let mut r = rng(9);
        let n = 200usize;
        let p = 0.1;
        let g = erdos_renyi_gnp(n, p, &mut r).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let measured = g.num_edges() as f64;
        assert!(
            (measured - expected).abs() < 5.0 * expected.sqrt(),
            "edge count {measured} too far from expectation {expected}"
        );
    }
}
