//! Empirical verification of the one-step growth bound (Lemma 1 / Corollary 1).
//!
//! Lemma 1 states that for BIPS with `k = 2` on an `r`-regular graph with second eigenvalue
//! `λ`, the conditional expectation of the next infected-set size satisfies
//!
//! ```text
//! E(|A_{t+1}| | A_t = A)  ≥  |A| · (1 + (1-λ²)(1 - |A|/n)),
//! ```
//!
//! and Corollary 1 gives the analogous bound with an extra factor `ρ` for the fractional
//! branching `1 + ρ`. This module computes the exact conditional expectation for a *given*
//! infected set (a sum of independent Bernoulli means — no sampling needed), estimates it by
//! Monte Carlo as a cross-check, and evaluates the theoretical lower bound.

use cobra_graph::{sample, Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::bips::BipsProcess;
use crate::cobra::Branching;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// The exact conditional expectation `E(|A_{t+1}| | A_t = A)` for the BIPS process.
///
/// The next-round states of distinct vertices are independent given `A_t`, so the expectation
/// is simply `1 + Σ_{u ≠ source} P(u samples an infected neighbour)` — computed in closed form,
/// no randomness involved.
///
/// # Errors
///
/// Returns [`CoreError::VertexOutOfRange`] for an out-of-range source or set member and
/// [`CoreError::InvalidParameters`] if the source is not a member of `infected`.
fn exact_expected_next_size(
    graph: &Graph,
    source: VertexId,
    infected: &[VertexId],
    branching: Branching,
) -> Result<f64> {
    let n = graph.num_vertices();
    if source >= n {
        return Err(CoreError::VertexOutOfRange { vertex: source, num_vertices: n });
    }
    if let Some(&bad) = infected.iter().find(|&&v| v >= n) {
        return Err(CoreError::VertexOutOfRange { vertex: bad, num_vertices: n });
    }
    if !infected.contains(&source) {
        return Err(CoreError::InvalidParameters {
            reason: "the persistent source must belong to the infected set".to_string(),
        });
    }
    if matches!(branching, Branching::PerVertex { .. }) {
        // Mirrors `BipsProcess::new`: a per-sender degree budget has no meaning for pulls.
        return Err(CoreError::InvalidParameters {
            reason: "k=deg budgets are a COBRA (push) feature and undefined for BIPS".to_string(),
        });
    }
    let mut is_infected = vec![false; n];
    for &v in infected {
        is_infected[v] = true;
    }
    let mut expectation = 1.0; // the source
    for u in 0..n {
        if u == source {
            continue;
        }
        let degree = graph.degree(u);
        if degree == 0 {
            continue;
        }
        let hits = graph.neighbor_iter(u).filter(|&w| is_infected[w]).count();
        let q = hits as f64 / degree as f64;
        let p = match branching {
            Branching::Fixed { k } => 1.0 - (1.0 - q).powi(k as i32),
            Branching::Fractional { rho } => 1.0 - (1.0 - q) * (1.0 - rho * q),
            Branching::PerVertex { .. } => unreachable!("rejected at entry"),
        };
        expectation += p;
    }
    Ok(expectation)
}

/// The Lemma 1 lower bound `|A| (1 + (1-λ²)(1 - |A|/n))` for `k = 2`, or the Corollary 1
/// bound `|A| (1 + ρ(1-λ²)(1 - |A|/n))` for fractional branching `1 + ρ`.
fn growth_lower_bound(set_size: usize, n: usize, lambda: f64, branching: Branching) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let a = set_size as f64;
    let slack = (1.0 - lambda * lambda) * (1.0 - a / n as f64);
    match branching {
        // The paper proves the k = 2 bound; larger k only helps, so the same expression is a
        // valid (slacker) lower bound for k >= 2. For k = 1 only the trivial bound |A| holds.
        Branching::Fixed { k } => {
            if k >= 2 {
                a * (1.0 + slack)
            } else {
                a
            }
        }
        Branching::Fractional { rho } => a * (1.0 + rho * slack),
        // A degree budget guarantees only one push on degree-1 vertices, so (without the
        // graph's degree sequence in hand) only the trivial bound |A| is safe.
        Branching::PerVertex { .. } => a,
    }
}

/// Monte-Carlo estimate of `E(|A_{t+1}| | A_t = A)`: performs `trials` independent single BIPS
/// steps from the state `A` and averages the resulting sizes.
///
/// # Errors
///
/// Returns [`CoreError::VertexOutOfRange`] for an out-of-range source or set member and
/// [`CoreError::InvalidParameters`] if the source is not a member of `infected` or the
/// branching is a per-vertex degree budget.
// cobra-lint: draws(bounded)
pub fn sampled_expected_next_size<R: Rng + ?Sized>(
    graph: &Graph,
    source: VertexId,
    infected: &[VertexId],
    branching: Branching,
    trials: usize,
    rng: &mut R,
) -> Result<f64> {
    // Validate inputs through the exact routine (also gives us a correctness anchor).
    let _ = exact_expected_next_size(graph, source, infected, branching)?;
    let n = graph.num_vertices();
    let mut is_infected = vec![false; n];
    for &v in infected {
        is_infected[v] = true;
    }
    let mut total = 0usize;
    for _ in 0..trials {
        let mut next = 0usize;
        for u in 0..n {
            if u == source {
                next += 1;
                continue;
            }
            let neighbors = graph.neighbors(u);
            if neighbors.is_empty() {
                continue;
            }
            let samples = branching.sample_pushes(rng);
            let hit = (0..samples).any(|_| {
                is_infected[*sample::sample_slice(neighbors, rng).expect("non-empty") as VertexId]
            });
            if hit {
                next += 1;
            }
        }
        total += next;
    }
    Ok(total as f64 / trials.max(1) as f64)
}

/// One row of a growth-bound audit: an infected set size, the exact conditional expectation of
/// the next size, and the theoretical lower bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthObservation {
    /// Size of the conditioning set `|A_t|`.
    pub set_size: usize,
    /// Exact `E(|A_{t+1}| | A_t)`.
    pub expected_next: f64,
    /// The Lemma 1 / Corollary 1 lower bound for this size.
    pub lower_bound: f64,
}

impl GrowthObservation {
    /// Whether the bound holds (with a small numerical tolerance).
    pub fn bound_holds(&self) -> bool {
        self.expected_next + 1e-9 >= self.lower_bound
    }
}

/// Audits the growth bound along an actual BIPS trajectory: runs the process for `rounds`
/// rounds and, at each round, records the exact conditional expectation for the *current*
/// infected set against the bound.
///
/// # Errors
///
/// Propagates construction errors from [`BipsProcess::new`].
// cobra-lint: draws(bounded)
pub fn audit_growth_along_trajectory<R: Rng + ?Sized>(
    graph: &Graph,
    source: VertexId,
    branching: Branching,
    lambda: f64,
    rounds: usize,
    mut rng: &mut R,
) -> Result<Vec<GrowthObservation>> {
    let mut process = BipsProcess::new(graph, source, branching)?;
    let n = graph.num_vertices();
    let mut observations = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // O(|A_t|) via the frontier list instead of an O(n) indicator scan.
        let mut infected: Vec<VertexId> = Vec::with_capacity(process.num_infected());
        process.for_each_active(&mut |v| infected.push(v));
        let expected_next = exact_expected_next_size(graph, source, &infected, branching)?;
        observations.push(GrowthObservation {
            set_size: infected.len(),
            expected_next,
            lower_bound: growth_lower_bound(infected.len(), n, lambda, branching),
        });
        if process.is_complete() {
            break;
        }
        process.step(&mut rng);
    }
    Ok(observations)
}

/// Audits the growth bound on random infected sets of a given size (the conditioning the
/// lemma actually speaks about, independent of any trajectory).
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameters`] if `set_size` is zero or exceeds `n`, and
/// propagates validation errors.
// cobra-lint: draws(bounded)
pub fn audit_growth_random_sets<R: Rng + ?Sized>(
    graph: &Graph,
    source: VertexId,
    branching: Branching,
    lambda: f64,
    set_size: usize,
    sets: usize,
    rng: &mut R,
) -> Result<Vec<GrowthObservation>> {
    let n = graph.num_vertices();
    if set_size == 0 || set_size > n {
        return Err(CoreError::InvalidParameters {
            reason: format!("set size {set_size} must be between 1 and {n}"),
        });
    }
    if source >= n {
        return Err(CoreError::VertexOutOfRange { vertex: source, num_vertices: n });
    }
    let mut others: Vec<VertexId> = (0..n).filter(|&v| v != source).collect();
    let mut observations = Vec::with_capacity(sets);
    for _ in 0..sets {
        others.shuffle(rng);
        let mut infected: Vec<VertexId> = vec![source];
        infected.extend(others.iter().copied().take(set_size - 1));
        let expected_next = exact_expected_next_size(graph, source, &infected, branching)?;
        observations.push(GrowthObservation {
            set_size,
            expected_next,
            lower_bound: growth_lower_bound(set_size, n, lambda, branching),
        });
    }
    Ok(observations)
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

    fn lambda_of(g: &cobra_graph::Graph) -> f64 {
        cobra_spectral::analyze(g).expect("spectral profile").lambda_abs
    }

    #[test]
    fn exact_expectation_on_the_complete_graph_matches_hand_computation() {
        // K_n, infected set of size a (including the source): every other vertex sees
        // a' = a or a-1 infected neighbours out of n-1.
        let n = 10;
        let g = generators::complete(n).unwrap();
        let infected: Vec<usize> = (0..4).collect();
        let expected = exact_expected_next_size(&g, 0, &infected, k2()).unwrap();
        let mut hand = 1.0;
        for u in 1..n {
            let hits = if u < 4 { 3.0 } else { 4.0 };
            let q: f64 = hits / (n as f64 - 1.0);
            hand += 1.0 - (1.0 - q) * (1.0 - q);
        }
        assert!((expected - hand).abs() < 1e-12);
    }

    #[test]
    fn exact_expectation_validates_inputs() {
        let g = generators::complete(5).unwrap();
        assert!(matches!(
            exact_expected_next_size(&g, 9, &[9], k2()),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            exact_expected_next_size(&g, 0, &[0, 7], k2()),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            exact_expected_next_size(&g, 0, &[1, 2], k2()),
            Err(CoreError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn sampled_expectation_agrees_with_exact() {
        let g = generators::petersen().unwrap();
        let infected = vec![0, 1, 2, 5];
        let exact = exact_expected_next_size(&g, 0, &infected, k2()).unwrap();
        let sampled =
            sampled_expected_next_size(&g, 0, &infected, k2(), 20_000, &mut rng(1)).unwrap();
        assert!((exact - sampled).abs() < 0.1, "exact {exact} vs sampled {sampled}");
    }

    #[test]
    fn lemma_1_bound_holds_on_expanders_for_random_sets() {
        let mut r = rng(2);
        let g = generators::connected_random_regular(64, 4, &mut r).unwrap();
        let lambda = lambda_of(&g);
        for &size in &[1usize, 4, 16, 32, 48, 63] {
            let observations =
                audit_growth_random_sets(&g, 0, k2(), lambda, size, 20, &mut r).unwrap();
            for obs in observations {
                assert!(
                    obs.bound_holds(),
                    "size {size}: expected {} < bound {}",
                    obs.expected_next,
                    obs.lower_bound
                );
            }
        }
    }

    #[test]
    fn lemma_1_bound_holds_on_the_complete_graph_and_hypercube() {
        let mut r = rng(3);
        for g in [generators::complete(32).unwrap(), generators::hypercube(6).unwrap()] {
            let lambda = lambda_of(&g);
            for &size in &[1usize, 8, 16, 31] {
                let observations =
                    audit_growth_random_sets(&g, 0, k2(), lambda, size, 10, &mut r).unwrap();
                for obs in observations {
                    assert!(obs.bound_holds(), "graph {g:?} size {size}");
                }
            }
        }
    }

    #[test]
    fn corollary_1_bound_holds_for_fractional_branching() {
        let mut r = rng(4);
        let g = generators::connected_random_regular(48, 4, &mut r).unwrap();
        let lambda = lambda_of(&g);
        let branching = Branching::fractional(0.3).unwrap();
        for &size in &[1usize, 12, 24, 40] {
            let observations =
                audit_growth_random_sets(&g, 0, branching, lambda, size, 20, &mut r).unwrap();
            for obs in observations {
                assert!(
                    obs.bound_holds(),
                    "size {size}: expected {} < bound {}",
                    obs.expected_next,
                    obs.lower_bound
                );
            }
        }
    }

    #[test]
    fn bound_holds_along_actual_trajectories() {
        let mut r = rng(5);
        let g = generators::connected_random_regular(96, 3, &mut r).unwrap();
        let lambda = lambda_of(&g);
        let observations = audit_growth_along_trajectory(&g, 0, k2(), lambda, 200, &mut r).unwrap();
        assert!(!observations.is_empty());
        for obs in &observations {
            assert!(
                obs.bound_holds(),
                "size {}: {} < {}",
                obs.set_size,
                obs.expected_next,
                obs.lower_bound
            );
        }
        // The trajectory should eventually reach large sets.
        assert!(observations.iter().map(|o| o.set_size).max().unwrap() > 48);
    }

    #[test]
    fn growth_lower_bound_shape() {
        // Bound is largest (relative to |A|) for small sets and vanishes at |A| = n.
        let bound_small = growth_lower_bound(1, 100, 0.5, k2());
        assert!(bound_small > 1.0);
        let bound_full = growth_lower_bound(100, 100, 0.5, k2());
        assert!((bound_full - 100.0).abs() < 1e-12);
        assert_eq!(growth_lower_bound(5, 0, 0.5, k2()), 0.0);
        // Fractional bound interpolates with rho.
        let full = growth_lower_bound(10, 100, 0.3, k2());
        let half = growth_lower_bound(10, 100, 0.3, Branching::fractional(0.5).unwrap());
        let none = growth_lower_bound(10, 100, 0.3, Branching::fractional(0.0).unwrap());
        assert!(none < half && half < full);
        assert!((none - 10.0).abs() < 1e-12);
    }

    #[test]
    fn random_set_audit_validates_parameters() {
        let g = generators::complete(6).unwrap();
        let mut r = rng(6);
        assert!(audit_growth_random_sets(&g, 0, k2(), 0.2, 0, 3, &mut r).is_err());
        assert!(audit_growth_random_sets(&g, 0, k2(), 0.2, 7, 3, &mut r).is_err());
        assert!(audit_growth_random_sets(&g, 9, k2(), 0.2, 2, 3, &mut r).is_err());
    }
}
