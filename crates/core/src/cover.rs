//! Cover-time measurement for the COBRA process.
//!
//! The paper's central quantity is the cover time `cov(u)`: the number of rounds until every
//! vertex has been visited by a COBRA process started at `u`. [`cover_time`] is a thin
//! wrapper over the unified [`sim::Runner`](crate::sim::Runner) loop, so call sites keep a
//! COBRA-specific vocabulary while the stepping logic lives in one place.

use cobra_graph::{Graph, VertexId};
use rand::RngCore;

use crate::cobra::{Branching, CobraProcess};
use crate::sim::Runner;
use crate::Result;

/// Outcome of a single COBRA run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverOutcome {
    /// Round in which the last vertex was visited.
    pub rounds: usize,
    /// Number of vertices of the instance.
    pub num_vertices: usize,
}

/// Runs a COBRA process from `start` until the whole graph is covered and returns the number
/// of rounds taken.
///
/// # Errors
///
/// Returns construction errors from [`CobraProcess::new`] and
/// [`CoreError::RoundBudgetExceeded`](crate::CoreError::RoundBudgetExceeded) if the graph is not covered within `max_rounds`
/// (e.g. a disconnected graph, or a budget far below the true cover time).
// cobra-lint: draws(bounded)
pub fn cover_time(
    graph: &Graph,
    start: VertexId,
    branching: Branching,
    max_rounds: usize,
    rng: &mut dyn RngCore,
) -> Result<CoverOutcome> {
    let mut process = CobraProcess::new(graph, start, branching)?;
    let rounds = Runner::new(max_rounds).completion_rounds(&mut process, rng)?;
    Ok(CoverOutcome { rounds, num_vertices: graph.num_vertices() })
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
    fn cover_time_on_complete_graph_is_logarithmic() {
        let g = generators::complete(256).unwrap();
        let outcome = cover_time(&g, 0, k2(), 10_000, &mut rng(1)).unwrap();
        assert_eq!(outcome.num_vertices, 256);
        assert!(outcome.rounds >= 8, "at least log2(n) rounds are needed, got {}", outcome.rounds);
        assert!(outcome.rounds < 80, "cover time {} should be O(log n)", outcome.rounds);
    }

    #[test]
    fn cover_time_budget_exhaustion_is_an_error() {
        let g = generators::cycle(64).unwrap();
        let err = cover_time(&g, 0, k2(), 3, &mut rng(2)).unwrap_err();
        assert_eq!(err, CoreError::RoundBudgetExceeded { max_rounds: 3 });
    }

    #[test]
    fn cover_time_propagates_construction_errors() {
        let g = generators::cycle(5).unwrap();
        assert!(matches!(
            cover_time(&g, 99, k2(), 10, &mut rng(3)),
            Err(CoreError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn multi_start_covers_faster_on_average_than_single_start() {
        // Not a theorem, but overwhelmingly true on a cycle where both arcs must be traversed.
        let g = generators::cycle(60).unwrap();
        let trials = 10;
        let mut single = 0usize;
        let mut multi = 0usize;
        let rounds = |starts: &[VertexId], seed: u64| {
            let mut process = CobraProcess::with_start_set(&g, starts, k2()).unwrap();
            Runner::new(100_000).run(&mut process, &mut rng(seed)).rounds
        };
        for t in 0..trials {
            single += rounds(&[0], 100 + t);
            multi += rounds(&[0, 20, 40], 200 + t);
        }
        assert!(
            multi < single,
            "three sources should cover the cycle faster ({multi} vs {single})"
        );
    }
}
