//! Infection-time measurement for the BIPS process.
//!
//! Mirrors [`crate::cover`] for the dual process: `infec(v)` is the first round in which the
//! infected set equals the whole vertex set when the persistent source is `v` (Theorem 2).
//! Like the cover helpers, these wrappers delegate the stepping to the unified
//! [`sim::Runner`](crate::sim::Runner).

use cobra_graph::{Graph, VertexId};
use rand::RngCore;

use crate::bips::BipsProcess;
use crate::cobra::Branching;
use crate::sim::{ActiveCountTrace, Runner};
use crate::Result;

/// Outcome of a single BIPS run to full infection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfectionOutcome {
    /// First round in which every vertex was infected simultaneously.
    pub rounds: usize,
    /// Number of vertices of the instance.
    pub num_vertices: usize,
}

/// Runs BIPS with source `source` until the whole graph is infected, returning the round count.
///
/// # Errors
///
/// Returns construction errors from [`BipsProcess::new`] and
/// [`CoreError::RoundBudgetExceeded`](crate::CoreError::RoundBudgetExceeded) if full
/// infection is not reached within `max_rounds`.
// cobra-lint: draws(bounded)
pub fn infection_time(
    graph: &Graph,
    source: VertexId,
    branching: Branching,
    max_rounds: usize,
    rng: &mut dyn RngCore,
) -> Result<InfectionOutcome> {
    let mut process = BipsProcess::new(graph, source, branching)?;
    let rounds = Runner::new(max_rounds).completion_rounds(&mut process, rng)?;
    Ok(InfectionOutcome { rounds, num_vertices: graph.num_vertices() })
}

/// The growth trace of one BIPS run: `|A_t|` for `t = 0, 1, …`, truncated at full infection or
/// the round budget.
///
/// # Errors
///
/// Returns construction errors from [`BipsProcess::new`].
// cobra-lint: draws(bounded)
pub fn infection_curve(
    graph: &Graph,
    source: VertexId,
    branching: Branching,
    max_rounds: usize,
    rng: &mut dyn RngCore,
) -> Result<Vec<usize>> {
    let mut process = BipsProcess::new(graph, source, branching)?;
    let mut counts = ActiveCountTrace::new();
    Runner::new(max_rounds).run_observed(&mut process, rng, &mut [&mut counts]);
    Ok(counts.into_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
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
    fn infection_time_on_complete_graph_is_logarithmic() {
        let g = generators::complete(256).unwrap();
        let outcome = infection_time(&g, 0, k2(), 10_000, &mut rng(1)).unwrap();
        assert!(outcome.rounds >= 7, "needs at least ~log2(n) rounds, got {}", outcome.rounds);
        assert!(outcome.rounds < 100, "infection time {} should be O(log n)", outcome.rounds);
        assert_eq!(outcome.num_vertices, 256);
    }

    #[test]
    fn budget_exhaustion_is_an_error() {
        let g = generators::cycle(50).unwrap();
        let err = infection_time(&g, 0, k2(), 2, &mut rng(2)).unwrap_err();
        assert_eq!(err, CoreError::RoundBudgetExceeded { max_rounds: 2 });
    }

    #[test]
    fn infection_curve_starts_at_one_and_ends_at_n() {
        let g = generators::hypercube(7).unwrap();
        let curve = infection_curve(&g, 0, k2(), 100_000, &mut rng(3)).unwrap();
        assert_eq!(curve[0], 1);
        assert_eq!(*curve.last().unwrap(), 128);
        // Unlike COBRA's visited set, |A_t| need not be monotone, but it is always >= 1.
        assert!(curve.iter().all(|&a| a >= 1));
    }

    #[test]
    fn infection_time_with_k1_still_terminates_on_small_expanders() {
        let g = generators::complete(12).unwrap();
        let outcome = infection_time(&g, 0, Branching::fixed(1).unwrap(), 1_000_000, &mut rng(9));
        assert!(outcome.is_ok());
    }
}
