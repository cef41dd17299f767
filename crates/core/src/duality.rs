//! Verification of the COBRA ↔ BIPS duality (Theorem 4).
//!
//! Theorem 4 of the paper states that for every vertex `v`, vertex set `C` and round `t ≥ 0`,
//!
//! ```text
//! P̂( Hit_C(v) > t | C_0 = C )  =  P( C ∩ A_t = ∅ | A_0 = {v} )
//! ```
//!
//! where the left-hand side refers to the COBRA process started from `C` (with `Hit_C(v)` the
//! first round in which `v` is active) and the right-hand side to the BIPS process with
//! persistent source `v`. This module verifies the identity two ways:
//!
//! * **exactly**, by dynamic programming over the full distribution of the active/infected set
//!   (feasible for graphs with at most [`EXACT_LIMIT`] vertices), and
//! * **statistically**, by comparing Monte-Carlo estimates of both sides with a two-proportion
//!   z-test on larger graphs.

use std::collections::BTreeMap;

use cobra_graph::{Graph, VertexId};
use rand::Rng;

use crate::bips::BipsProcess;
use crate::cobra::{Branching, CobraProcess};
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Largest number of vertices supported by the exact subset dynamic programs.
pub const EXACT_LIMIT: usize = 14;

/// Bitmask representation of a vertex subset (vertex `i` ↔ bit `i`).
type Mask = u32;

// The DP masks silently wrap (`1 << v` for `v >= Mask::BITS`) beyond the mask width, so the
// practical DP limit must never be raised past it without also widening `Mask`.
const _: () = assert!(EXACT_LIMIT <= Mask::BITS as usize);

fn mask_of(vertices: &[VertexId]) -> Mask {
    debug_assert!(
        vertices.iter().all(|&v| v < Mask::BITS as usize),
        "mask_of called with a vertex beyond Mask::BITS — validate_exact must run first"
    );
    vertices.iter().fold(0, |m, &v| m | (1 << v))
}

fn validate_exact(graph: &Graph) -> Result<()> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
    }
    // Guard the mask construction explicitly: `1 << v` on `Mask` would silently wrap for
    // vertices at or beyond the mask width, corrupting every subset in the DP.
    if n > Mask::BITS as usize {
        return Err(CoreError::InvalidParameters {
            reason: format!(
                "graph has {n} vertices but the exact duality DP masks hold at most {} \
                 (and the practical DP limit is {EXACT_LIMIT})",
                Mask::BITS
            ),
        });
    }
    if n > EXACT_LIMIT {
        return Err(CoreError::TooLargeForExact { num_vertices: n, limit: EXACT_LIMIT });
    }
    Ok(())
}

/// The distribution of the *set* of neighbours chosen by vertex `u` in one round, as a map
/// from neighbour-set mask to probability.
fn choice_set_distribution(
    graph: &Graph,
    u: VertexId,
    branching: Branching,
) -> BTreeMap<Mask, f64> {
    let degree = graph.degree(u);
    if degree == 0 {
        let mut dist = BTreeMap::new();
        dist.insert(0, 1.0);
        return dist;
    }
    let p_each = 1.0 / degree as f64;
    let one_sample = || -> BTreeMap<Mask, f64> {
        let mut dist = BTreeMap::new();
        for w in graph.neighbor_iter(u) {
            *dist.entry(1 << w).or_insert(0.0) += p_each;
        }
        dist
    };
    let convolve_one = |dist: &BTreeMap<Mask, f64>| -> BTreeMap<Mask, f64> {
        let mut next: BTreeMap<Mask, f64> = BTreeMap::new();
        for (&mask, &p) in dist {
            for w in graph.neighbor_iter(u) {
                *next.entry(mask | (1 << w)).or_insert(0.0) += p * p_each;
            }
        }
        next
    };
    match branching {
        Branching::Fixed { k } => {
            let mut dist = one_sample();
            for _ in 1..k {
                dist = convolve_one(&dist);
            }
            dist
        }
        // Degree-proportional budgets resolve to the fixed factor min(deg(u), cap) at
        // each vertex — exactly what `CobraProcess` resolves at construction.
        Branching::PerVertex { cap } => {
            let k = u32::try_from(degree).unwrap_or(u32::MAX).min(cap);
            let mut dist = one_sample();
            for _ in 1..k {
                dist = convolve_one(&dist);
            }
            dist
        }
        Branching::Fractional { rho } => {
            // With probability 1-rho a single sample, with probability rho two samples.
            let single = one_sample();
            let double = convolve_one(&single);
            let mut dist: BTreeMap<Mask, f64> = BTreeMap::new();
            for (&mask, &p) in &single {
                *dist.entry(mask).or_insert(0.0) += (1.0 - rho) * p;
            }
            for (&mask, &p) in &double {
                *dist.entry(mask).or_insert(0.0) += rho * p;
            }
            dist
        }
    }
}

/// Exact tail probabilities `P̂(Hit_C(v) > t | C_0 = C)` of the COBRA process for
/// `t = 0, 1, …, t_max`.
///
/// # Errors
///
/// Returns [`CoreError::TooLargeForExact`] for graphs above [`EXACT_LIMIT`] vertices,
/// [`CoreError::UnsuitableGraph`] for the empty graph, [`CoreError::VertexOutOfRange`] if `v`
/// or a start vertex is out of range, and [`CoreError::InvalidParameters`] for an empty `C`.
pub fn exact_cobra_hit_tail(
    graph: &Graph,
    start_set: &[VertexId],
    target: VertexId,
    branching: Branching,
    t_max: usize,
) -> Result<Vec<f64>> {
    validate_exact(graph)?;
    let n = graph.num_vertices();
    if target >= n {
        return Err(CoreError::VertexOutOfRange { vertex: target, num_vertices: n });
    }
    if start_set.is_empty() {
        return Err(CoreError::InvalidParameters {
            reason: "start set must not be empty".to_string(),
        });
    }
    if let Some(&bad) = start_set.iter().find(|&&v| v >= n) {
        return Err(CoreError::VertexOutOfRange { vertex: bad, num_vertices: n });
    }

    let target_bit: Mask = 1 << target;
    let start = mask_of(start_set);
    // Pre-compute the per-vertex one-round choice-set distributions.
    let choices: Vec<BTreeMap<Mask, f64>> =
        (0..n).map(|u| choice_set_distribution(graph, u, branching)).collect();

    // Distribution over the current active set, restricted to trajectories that have not yet
    // hit the target. Mass that reaches a set containing the target is dropped (absorbed).
    let mut tails = Vec::with_capacity(t_max + 1);
    let mut dist: BTreeMap<Mask, f64> = BTreeMap::new();
    if start & target_bit == 0 {
        dist.insert(start, 1.0);
    }
    tails.push(dist.values().sum());

    for _ in 0..t_max {
        let mut next: BTreeMap<Mask, f64> = BTreeMap::new();
        for (&current, &p) in &dist {
            // Fold the per-vertex choice distributions of the active vertices into the
            // distribution of the next active set.
            let mut partial: BTreeMap<Mask, f64> = BTreeMap::new();
            partial.insert(0, p);
            let mut u_mask = current;
            while u_mask != 0 {
                let u = u_mask.trailing_zeros() as usize;
                u_mask &= u_mask - 1;
                let mut folded: BTreeMap<Mask, f64> = BTreeMap::new();
                for (&acc_mask, &acc_p) in &partial {
                    for (&choice_mask, &choice_p) in &choices[u] {
                        *folded.entry(acc_mask | choice_mask).or_insert(0.0) += acc_p * choice_p;
                    }
                }
                partial = folded;
            }
            for (&next_mask, &next_p) in &partial {
                if next_mask & target_bit == 0 {
                    *next.entry(next_mask).or_insert(0.0) += next_p;
                }
            }
        }
        dist = next;
        tails.push(dist.values().sum());
    }
    Ok(tails)
}

/// Exact avoidance probabilities `P(C ∩ A_t = ∅ | A_0 = {source})` of the BIPS process for
/// `t = 0, 1, …, t_max`.
///
/// # Errors
///
/// Same error cases as [`exact_cobra_hit_tail`] (with `source` in place of the target vertex).
pub fn exact_bips_avoidance(
    graph: &Graph,
    source: VertexId,
    avoid_set: &[VertexId],
    branching: Branching,
    t_max: usize,
) -> Result<Vec<f64>> {
    validate_exact(graph)?;
    if matches!(branching, Branching::PerVertex { .. }) {
        // Mirrors `BipsProcess::new`: a per-sender degree budget has no meaning for pulls.
        return Err(CoreError::InvalidParameters {
            reason: "k=deg budgets are a COBRA (push) feature and undefined for BIPS".to_string(),
        });
    }
    let n = graph.num_vertices();
    if source >= n {
        return Err(CoreError::VertexOutOfRange { vertex: source, num_vertices: n });
    }
    if avoid_set.is_empty() {
        return Err(CoreError::InvalidParameters {
            reason: "avoid set must not be empty".to_string(),
        });
    }
    if let Some(&bad) = avoid_set.iter().find(|&&v| v >= n) {
        return Err(CoreError::VertexOutOfRange { vertex: bad, num_vertices: n });
    }

    let avoid = mask_of(avoid_set);
    let source_bit: Mask = 1 << source;

    // Probability that vertex u samples at least one infected neighbour, as a function of the
    // fraction q = d_A(u)/d(u), matching the process definition (and Corollary 1 for the
    // fractional variant).
    let infect_probability = |u: VertexId, infected: Mask| -> f64 {
        let degree = graph.degree(u);
        if degree == 0 {
            return 0.0;
        }
        let hits = graph.neighbor_iter(u).filter(|&w| infected & (1 << w) != 0).count();
        let q = hits as f64 / degree as f64;
        match branching {
            Branching::Fixed { k } => 1.0 - (1.0 - q).powi(k as i32),
            Branching::Fractional { rho } => 1.0 - (1.0 - q) * (1.0 - rho * q),
            Branching::PerVertex { .. } => unreachable!("rejected at entry"),
        }
    };

    let mut dist: BTreeMap<Mask, f64> = BTreeMap::new();
    dist.insert(source_bit, 1.0);
    let mut avoidance = Vec::with_capacity(t_max + 1);
    let avoid_probability = |dist: &BTreeMap<Mask, f64>| -> f64 {
        dist.iter().filter(|(&mask, _)| mask & avoid == 0).map(|(_, &p)| p).sum()
    };
    avoidance.push(avoid_probability(&dist));

    for _ in 0..t_max {
        let mut next: BTreeMap<Mask, f64> = BTreeMap::new();
        for (&current, &p) in &dist {
            // Each non-source vertex is infected independently; fold the Bernoulli choices.
            let mut partial: Vec<(Mask, f64)> = vec![(source_bit, p)];
            for u in 0..n {
                if u == source {
                    continue;
                }
                let q = infect_probability(u, current);
                if q == 0.0 {
                    continue;
                }
                let bit = 1 << u;
                let mut folded = Vec::with_capacity(partial.len() * 2);
                for &(mask, mass) in &partial {
                    if q < 1.0 {
                        folded.push((mask, mass * (1.0 - q)));
                    }
                    folded.push((mask | bit, mass * q));
                }
                partial = folded;
            }
            for (mask, mass) in partial {
                *next.entry(mask).or_insert(0.0) += mass;
            }
        }
        dist = next;
        avoidance.push(avoid_probability(&dist));
    }
    Ok(avoidance)
}

/// Result of an exact duality check.
#[derive(Debug, Clone, PartialEq)]
pub struct DualityReport {
    /// Largest absolute difference between the two sides over all rounds checked.
    pub max_abs_difference: f64,
    /// Number of `(C, v, t)` combinations compared.
    pub comparisons: usize,
}

/// Exactly verifies Theorem 4 on a small graph for **all** ordered pairs `(u, v)` of distinct
/// vertices with `C = {u}`, for every `t ≤ t_max`, returning the worst absolute discrepancy.
///
/// # Errors
///
/// Same error cases as the exact computations.
pub fn verify_duality_exact(
    graph: &Graph,
    branching: Branching,
    t_max: usize,
) -> Result<DualityReport> {
    validate_exact(graph)?;
    let n = graph.num_vertices();
    let mut worst = 0.0f64;
    let mut comparisons = 0usize;
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let cobra = exact_cobra_hit_tail(graph, &[u], v, branching, t_max)?;
            let bips = exact_bips_avoidance(graph, v, &[u], branching, t_max)?;
            for (a, b) in cobra.iter().zip(bips.iter()) {
                worst = worst.max((a - b).abs());
                comparisons += 1;
            }
        }
    }
    Ok(DualityReport { max_abs_difference: worst, comparisons })
}

/// Exactly verifies Theorem 4 for a specific start set `C` and target `v`.
///
/// # Errors
///
/// Same error cases as the exact computations.
pub fn verify_duality_exact_for_set(
    graph: &Graph,
    start_set: &[VertexId],
    target: VertexId,
    branching: Branching,
    t_max: usize,
) -> Result<DualityReport> {
    let cobra = exact_cobra_hit_tail(graph, start_set, target, branching, t_max)?;
    let bips = exact_bips_avoidance(graph, target, start_set, branching, t_max)?;
    let mut worst = 0.0f64;
    for (a, b) in cobra.iter().zip(bips.iter()) {
        worst = worst.max((a - b).abs());
    }
    Ok(DualityReport { max_abs_difference: worst, comparisons: cobra.len() })
}

/// Monte-Carlo estimate of `P̂(Hit_C(v) > t)` for the COBRA process.
///
/// # Errors
///
/// Propagates construction errors from [`CobraProcess::with_start_set`].
// cobra-lint: draws(bounded)
fn estimate_cobra_hit_tail<R: Rng + ?Sized>(
    graph: &Graph,
    start_set: &[VertexId],
    target: VertexId,
    branching: Branching,
    t: usize,
    trials: usize,
    mut rng: &mut R,
) -> Result<f64> {
    if target >= graph.num_vertices() {
        return Err(CoreError::VertexOutOfRange {
            vertex: target,
            num_vertices: graph.num_vertices(),
        });
    }
    let mut not_hit = 0usize;
    for _ in 0..trials {
        let mut process = CobraProcess::with_start_set(graph, start_set, branching)?;
        let mut hit = process.active().contains(target);
        for _ in 0..t {
            if hit {
                break;
            }
            process.step(&mut rng);
            if process.active().contains(target) {
                hit = true;
            }
        }
        if !hit {
            not_hit += 1;
        }
    }
    Ok(not_hit as f64 / trials.max(1) as f64)
}

/// Monte-Carlo estimate of `P(C ∩ A_t = ∅ | A_0 = {source})` for the BIPS process.
///
/// # Errors
///
/// Propagates construction errors from [`BipsProcess::new`].
// cobra-lint: draws(bounded)
fn estimate_bips_avoidance<R: Rng + ?Sized>(
    graph: &Graph,
    source: VertexId,
    avoid_set: &[VertexId],
    branching: Branching,
    t: usize,
    trials: usize,
    mut rng: &mut R,
) -> Result<f64> {
    if let Some(&bad) = avoid_set.iter().find(|&&v| v >= graph.num_vertices()) {
        return Err(CoreError::VertexOutOfRange {
            vertex: bad,
            num_vertices: graph.num_vertices(),
        });
    }
    let mut avoided = 0usize;
    for _ in 0..trials {
        let mut process = BipsProcess::new(graph, source, branching)?;
        for _ in 0..t {
            process.step(&mut rng);
        }
        if avoid_set.iter().all(|&v| !process.is_infected(v)) {
            avoided += 1;
        }
    }
    Ok(avoided as f64 / trials.max(1) as f64)
}

/// Result of a Monte-Carlo duality comparison at a single round `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloDuality {
    /// Estimated COBRA tail probability.
    pub cobra_tail: f64,
    /// Estimated BIPS avoidance probability.
    pub bips_avoidance: f64,
    /// Two-proportion z statistic (0 when both estimates are degenerate).
    pub z_score: f64,
    /// Trials used per side.
    pub trials: usize,
}

/// Compares Monte-Carlo estimates of both sides of Theorem 4 at round `t` with a
/// two-proportion z-test.
///
/// # Errors
///
/// Propagates the errors of the two estimators.
// cobra-lint: draws(bounded)
pub fn verify_duality_monte_carlo<R: Rng + ?Sized>(
    graph: &Graph,
    start_set: &[VertexId],
    target: VertexId,
    branching: Branching,
    t: usize,
    trials: usize,
    rng: &mut R,
) -> Result<MonteCarloDuality> {
    let cobra_tail = estimate_cobra_hit_tail(graph, start_set, target, branching, t, trials, rng)?;
    let bips_avoidance =
        estimate_bips_avoidance(graph, target, start_set, branching, t, trials, rng)?;
    let pooled = (cobra_tail + bips_avoidance) / 2.0;
    let variance = pooled * (1.0 - pooled) * 2.0 / trials.max(1) as f64;
    let z_score = if variance > 0.0 {
        (cobra_tail - bips_avoidance) / variance.sqrt()
    } else {
        // Both estimates are 0 or 1; identical means compatible, different means infinitely
        // incompatible.
        if (cobra_tail - bips_avoidance).abs() < f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        }
    };
    Ok(MonteCarloDuality { cobra_tail, bips_avoidance, z_score, trials })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    fn k2() -> Branching {
        Branching::fixed(2).unwrap()
    }

    #[test]
    fn choice_distribution_sums_to_one_and_respects_neighbourhoods() {
        let g = generators::petersen().unwrap();
        for &branching in &[
            k2(),
            Branching::fixed(1).unwrap(),
            Branching::fixed(3).unwrap(),
            Branching::fractional(0.3).unwrap(),
        ] {
            for u in g.vertices() {
                let dist = choice_set_distribution(&g, u, branching);
                let total: f64 = dist.values().sum();
                assert!((total - 1.0).abs() < 1e-12);
                let neighbourhood = mask_of(&g.neighbor_iter(u).collect::<Vec<_>>());
                for &mask in dist.keys() {
                    assert_eq!(mask & !neighbourhood, 0, "choices must be neighbours of {u}");
                    assert!(mask != 0);
                }
            }
        }
    }

    #[test]
    fn exact_tails_are_probabilities_and_monotone() {
        let g = generators::cycle(6).unwrap();
        let tails = exact_cobra_hit_tail(&g, &[0], 3, k2(), 12).unwrap();
        assert_eq!(tails.len(), 13);
        assert!((tails[0] - 1.0).abs() < 1e-12);
        for w in tails.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "tail probabilities must be non-increasing");
        }
        assert!(tails.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        // Hitting a vertex already in C has tail 0.
        let tails = exact_cobra_hit_tail(&g, &[3], 3, k2(), 4).unwrap();
        assert!(tails.iter().all(|&p| p == 0.0));
    }

    #[test]
    fn exact_bips_avoidance_is_monotone_in_t() {
        // Avoidance can only decrease in t on average? Not strictly — but from a single source
        // on a connected graph with the persistent-source monotone coupling it is in fact
        // non-increasing for singleton avoid sets by the duality (tails are non-increasing).
        let g = generators::diamond().unwrap();
        let avoid = exact_bips_avoidance(&g, 0, &[3], k2(), 10).unwrap();
        assert!((avoid[0] - 1.0).abs() < 1e-12);
        for w in avoid.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn duality_exact_on_triangle() {
        let g = generators::triangle().unwrap();
        let report = verify_duality_exact(&g, k2(), 8).unwrap();
        assert!(report.max_abs_difference < 1e-10, "difference {}", report.max_abs_difference);
        assert_eq!(report.comparisons, 6 * 9);
    }

    #[test]
    fn duality_exact_on_cycle_and_path() {
        let cycle = generators::cycle(6).unwrap();
        let report = verify_duality_exact(&cycle, k2(), 10).unwrap();
        assert!(
            report.max_abs_difference < 1e-10,
            "cycle difference {}",
            report.max_abs_difference
        );

        let path = generators::path(5).unwrap();
        let report = verify_duality_exact(&path, k2(), 10).unwrap();
        assert!(report.max_abs_difference < 1e-10, "path difference {}", report.max_abs_difference);
    }

    #[test]
    fn duality_exact_with_k1_and_k3() {
        let g = generators::diamond().unwrap();
        for k in [1u32, 3] {
            let report = verify_duality_exact(&g, Branching::fixed(k).unwrap(), 8).unwrap();
            assert!(
                report.max_abs_difference < 1e-10,
                "k = {k} difference {}",
                report.max_abs_difference
            );
        }
    }

    #[test]
    fn duality_exact_with_fractional_branching() {
        let g = generators::bull().unwrap();
        let report = verify_duality_exact(&g, Branching::fractional(0.4).unwrap(), 8).unwrap();
        assert!(report.max_abs_difference < 1e-10, "difference {}", report.max_abs_difference);
    }

    #[test]
    fn duality_exact_for_non_singleton_start_sets() {
        let g = generators::cycle(7).unwrap();
        let report = verify_duality_exact_for_set(&g, &[1, 4], 6, k2(), 10).unwrap();
        assert!(report.max_abs_difference < 1e-10, "difference {}", report.max_abs_difference);
        let report = verify_duality_exact_for_set(&g, &[0, 2, 5], 3, k2(), 10).unwrap();
        assert!(report.max_abs_difference < 1e-10);
    }

    #[test]
    fn exact_rejects_graphs_beyond_the_mask_width() {
        // 1 << v would silently wrap for v >= Mask::BITS; the guard must reject such graphs
        // with a parameter error (not the softer "too large for exact" budget error).
        let beyond_mask = generators::cycle(Mask::BITS as usize + 8).unwrap();
        for result in [
            verify_duality_exact(&beyond_mask, k2(), 2).map(|_| ()),
            exact_cobra_hit_tail(&beyond_mask, &[0], 1, k2(), 2).map(|_| ()),
            exact_bips_avoidance(&beyond_mask, 0, &[1], k2(), 2).map(|_| ()),
        ] {
            match result {
                Err(CoreError::InvalidParameters { reason }) => {
                    assert!(reason.contains("mask"), "unexpected reason: {reason}");
                }
                other => panic!("expected the mask-width guard to fire, got {other:?}"),
            }
        }
    }

    #[test]
    fn exact_rejects_large_graphs_and_bad_inputs() {
        let big = generators::complete(EXACT_LIMIT + 1).unwrap();
        assert!(matches!(
            verify_duality_exact(&big, k2(), 3),
            Err(CoreError::TooLargeForExact { .. })
        ));
        let g = generators::triangle().unwrap();
        assert!(matches!(
            exact_cobra_hit_tail(&g, &[0], 9, k2(), 3),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            exact_cobra_hit_tail(&g, &[], 1, k2(), 3),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(matches!(
            exact_bips_avoidance(&g, 7, &[0], k2(), 3),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            exact_bips_avoidance(&g, 0, &[], k2(), 3),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(matches!(
            exact_bips_avoidance(&cobra_graph::Graph::default(), 0, &[0], k2(), 3),
            Err(CoreError::UnsuitableGraph { .. })
        ));
    }

    #[test]
    fn monte_carlo_estimates_match_exact_values_on_a_small_graph() {
        let g = generators::petersen().unwrap();
        let exact_cobra = exact_cobra_hit_tail(&g, &[0], 7, k2(), 4).unwrap();
        let mut r = rng(1);
        let estimate = estimate_cobra_hit_tail(&g, &[0], 7, k2(), 4, 4000, &mut r).unwrap();
        assert!(
            (estimate - exact_cobra[4]).abs() < 0.04,
            "estimate {estimate} vs exact {}",
            exact_cobra[4]
        );
        let exact_bips = exact_bips_avoidance(&g, 7, &[0], k2(), 4).unwrap();
        let estimate = estimate_bips_avoidance(&g, 7, &[0], k2(), 4, 4000, &mut r).unwrap();
        assert!(
            (estimate - exact_bips[4]).abs() < 0.04,
            "estimate {estimate} vs exact {}",
            exact_bips[4]
        );
    }

    #[test]
    fn monte_carlo_duality_is_compatible_on_a_larger_graph() {
        let mut r = rng(2);
        let g = generators::connected_random_regular(64, 3, &mut r).unwrap();
        let check = verify_duality_monte_carlo(&g, &[0], 17, k2(), 5, 3000, &mut r).unwrap();
        assert!(
            check.z_score.abs() <= 4.0,
            "z = {} (cobra {} vs bips {})",
            check.z_score,
            check.cobra_tail,
            check.bips_avoidance
        );
        assert_eq!(check.trials, 3000);
    }

    #[test]
    fn monte_carlo_duality_flags_mismatched_processes() {
        // Deliberately compare COBRA at t = 1 with BIPS at a much later round: the identity
        // does not hold across different t, so the z-test should reject.
        let mut r = rng(3);
        let g = generators::complete(32).unwrap();
        let cobra = estimate_cobra_hit_tail(&g, &[0], 5, k2(), 1, 3000, &mut r).unwrap();
        let bips = estimate_bips_avoidance(&g, 5, &[0], k2(), 8, 3000, &mut r).unwrap();
        // cobra tail at t=1 is ~ (1 - 1/31)^2 ~ 0.94, bips avoidance at t=8 is near 0.
        assert!(cobra > 0.8);
        assert!(bips < 0.2);
    }

    #[test]
    fn degenerate_monte_carlo_inputs() {
        let g = generators::triangle().unwrap();
        let mut r = rng(4);
        assert!(estimate_cobra_hit_tail(&g, &[0], 5, k2(), 1, 10, &mut r).is_err());
        assert!(estimate_bips_avoidance(&g, 0, &[9], k2(), 1, 10, &mut r).is_err());
        // Zero trials: estimator returns 0 without dividing by zero.
        let p = estimate_cobra_hit_tail(&g, &[0], 1, k2(), 1, 0, &mut r).unwrap();
        assert_eq!(p, 0.0);
    }
}
