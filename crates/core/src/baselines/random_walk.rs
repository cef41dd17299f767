//! A single simple random walk.

use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// A simple random walk used as the `k = 1` baseline.
///
/// Its cover time is `Ω(n log n)` on every graph and `Θ(n log n)` on expanders — the contrast
/// that motivates COBRA's branching: a single token cannot cover in `O(log n)` rounds no matter
/// how well the graph expands. A step is `O(1)`: one buffered neighbour sample, two bit flips.
#[derive(Debug, Clone)]
pub struct RandomWalk<'g> {
    graph: &'g Graph,
    start: VertexId,
    position: VertexId,
    active: VertexBitset,
    newly: Vec<VertexId>,
    visited: VertexBitset,
    num_visited: usize,
    round: usize,
}

impl<'g> RandomWalk<'g> {
    /// Creates a walk starting at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VertexOutOfRange`] if `start` is out of range and
    /// [`CoreError::UnsuitableGraph`] for the empty graph or graphs with isolated vertices.
    pub fn new(graph: &'g Graph, start: VertexId) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if start >= n {
            return Err(CoreError::VertexOutOfRange { vertex: start, num_vertices: n });
        }
        if n > 1 {
            if let Some(isolated) = graph.first_isolated() {
                return Err(CoreError::UnsuitableGraph {
                    reason: format!("vertex {isolated} is isolated and can never be visited"),
                });
            }
        }
        let mut active = VertexBitset::new(n);
        active.insert(start);
        let mut visited = VertexBitset::new(n);
        visited.insert(start);
        Ok(RandomWalk {
            graph,
            start,
            position: start,
            active,
            newly: vec![start],
            visited,
            num_visited: 1,
            round: 0,
        })
    }

    /// The current position of the walker.
    pub fn position(&self) -> VertexId {
        self.position
    }

    /// Number of distinct vertices visited so far.
    pub fn num_visited(&self) -> usize {
        self.num_visited
    }
}

impl RandomWalk<'_> {
    /// Where the walker moves this round, or `None` when it stays put. A crashed vertex
    /// never relays, so a walker standing on one is stuck there forever; a dropped move
    /// message leaves the token in place for this round.
    // cobra-lint: hot
    // cobra-lint: draws(bounded)
    fn hop<R: RngCore>(&self, faults: &StepFaults<'_>, rng: &mut R) -> Option<VertexId> {
        let from = self.position;
        if faults.is_crashed(from) || faults.drops_from(rng, from) {
            return None;
        }
        // A severed cut blocks the traversal (the target draw is already consumed), as does
        // a bad per-edge channel on the chosen link; otherwise the walker always moves —
        // simple graphs have no self-loops.
        let next = self.graph.sample_neighbor(from, rng)?;
        (!faults.severs(from, next) && !faults.drops_on_edge(rng, from, next)).then_some(next)
    }
}

impl SpreadingProcess for RandomWalk<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let hop = match draws {
            Draws::Trial(mut rng) => self.hop(faults, &mut rng),
            // A single walker has nothing to shard: it draws from the stream of its
            // *current position* at this round, so the trajectory is a pure function of the
            // trial key and the walk composes with the sharded processes under one contract.
            Draws::Streams(engine) => {
                self.hop(faults, &mut engine.stream(self.position as u64, self.round as u64))
            }
        };
        if let Some(next) = hop {
            self.active.remove(self.position);
            self.position = next;
            self.active.insert(next);
            self.newly.push(next);
            if self.visited.insert(next) {
                self.num_visited += 1;
            }
        }
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.active
    }

    fn num_active(&self) -> usize {
        1
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        f(self.position);
    }

    fn is_complete(&self) -> bool {
        self.num_visited == self.graph.num_vertices()
    }

    fn coverage(&self) -> Option<&VertexBitset> {
        Some(&self.visited)
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        let &position = active.first().ok_or_else(|| CoreError::InvalidParameters {
            reason: "a random walk adopts exactly one active vertex, got none".to_string(),
        })?;
        self.active.remove(self.position);
        self.position = position;
        self.active.insert(position);
        self.newly.clear();
        self.newly.push(position);
        self.visited.clear();
        match coverage {
            Some(seen) => seen.for_each(&mut |v| {
                self.visited.insert(v);
            }),
            None => {
                self.visited.insert(position);
            }
        }
        self.visited.insert(position);
        self.num_visited = self.visited.count();
        self.round = round;
        Ok(())
    }

    fn reset(&mut self) {
        self.active.remove(self.position);
        self.visited.clear();
        self.position = self.start;
        self.active.insert(self.start);
        self.visited.insert(self.start);
        self.newly.clear();
        self.newly.push(self.start);
        self.num_visited = 1;
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates() {
        let g = generators::cycle(5).unwrap();
        assert!(RandomWalk::new(&g, 7).is_err());
        assert!(RandomWalk::new(&cobra_graph::Graph::default(), 0).is_err());
        let isolated = cobra_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(RandomWalk::new(&isolated, 0).is_err());
    }

    #[test]
    fn walker_moves_along_edges_and_covers_small_graphs() {
        let g = generators::petersen().unwrap();
        let mut walk = RandomWalk::new(&g, 0).unwrap();
        let mut r = rng(1);
        let mut previous = walk.position();
        for _ in 0..50 {
            walk.step(&mut r);
            assert!(g.has_edge(previous, walk.position()), "walk must follow edges");
            assert_eq!(walk.num_active(), 1);
            assert_eq!(walk.active().iter().collect::<Vec<_>>(), vec![walk.position()]);
            assert_eq!(walk.newly_activated(), &[walk.position()]);
            previous = walk.position();
        }
        walk.reset();
        let rounds = run_until_complete(&mut walk, &mut r, 100_000).unwrap();
        assert!(rounds >= 9, "needs at least n-1 steps, got {rounds}");
    }

    #[test]
    fn cover_time_is_much_larger_than_cobra_on_expanders() {
        let g = generators::complete(64).unwrap();
        let mut r = rng(2);
        let mut walk = RandomWalk::new(&g, 0).unwrap();
        let walk_rounds = run_until_complete(&mut walk, &mut r, 1_000_000).unwrap();
        let mut cobra =
            crate::cobra::CobraProcess::new(&g, 0, crate::cobra::Branching::fixed(2).unwrap())
                .unwrap();
        let cobra_rounds = run_until_complete(&mut cobra, &mut r, 1_000_000).unwrap();
        assert!(
            walk_rounds > 3 * cobra_rounds,
            "single walk ({walk_rounds}) should be far slower than COBRA ({cobra_rounds})"
        );
    }

    #[test]
    fn reset_restores_start() {
        let g = generators::cycle(8).unwrap();
        let mut walk = RandomWalk::new(&g, 3).unwrap();
        let mut r = rng(3);
        for _ in 0..10 {
            walk.step(&mut r);
        }
        walk.reset();
        assert_eq!(walk.position(), 3);
        assert_eq!(walk.round(), 0);
        assert_eq!(walk.num_visited(), 1);
        assert!(walk.active().contains(3));
    }
}
