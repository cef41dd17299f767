//! Multiple independent random walks from a common start vertex.

use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// `w` independent simple random walks started at the same vertex.
///
/// This is the classical "many random walks" setting (Alon et al., CPC 2011; Elsässer &
/// Sauerwald, ICALP 2009) whose techniques the paper explains are *not* sufficient for COBRA
/// because COBRA's walks are highly dependent. It serves as a communication-matched baseline:
/// `w` walkers send `w` messages per round just like COBRA sends `≤ k·|C_t|`.
///
/// A round costs `O(w)`: walker moves plus dirty-list maintenance of the occupancy bitset —
/// never an `O(n)` rescan, which matters because the cover time is `Θ(n log n / w)` rounds.
#[derive(Debug, Clone)]
pub struct MultipleRandomWalks<'g> {
    graph: &'g Graph,
    start: VertexId,
    positions: Vec<VertexId>,
    /// Occupied vertices this round; members listed in `active_list`.
    active: VertexBitset,
    active_list: Vec<VertexId>,
    /// Scratch occupancy; its stale bits are exactly `next_list` between steps.
    next_active: VertexBitset,
    next_list: Vec<VertexId>,
    newly: Vec<VertexId>,
    visited: VertexBitset,
    num_visited: usize,
    round: usize,
}

impl<'g> MultipleRandomWalks<'g> {
    /// Creates `walkers` independent walks all starting at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `walkers == 0`,
    /// [`CoreError::VertexOutOfRange`] for a bad start vertex and
    /// [`CoreError::UnsuitableGraph`] for empty graphs or graphs with isolated vertices.
    pub fn new(graph: &'g Graph, start: VertexId, walkers: usize) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if start >= n {
            return Err(CoreError::VertexOutOfRange { vertex: start, num_vertices: n });
        }
        if walkers == 0 {
            return Err(CoreError::InvalidParameters {
                reason: "need at least one walker".to_string(),
            });
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
        Ok(MultipleRandomWalks {
            graph,
            start,
            positions: vec![start; walkers],
            active,
            active_list: vec![start],
            next_active: VertexBitset::new(n),
            next_list: Vec::new(),
            newly: vec![start],
            visited,
            num_visited: 1,
            round: 0,
        })
    }

    /// Number of distinct vertices visited so far.
    pub fn num_visited(&self) -> usize {
        self.num_visited
    }
}

/// One round's read-only walk inputs and the per-walker kernel that both draw sources
/// iterate.
struct Walker<'a> {
    graph: &'a Graph,
    faults: &'a StepFaults<'a>,
}

impl Walker<'_> {
    /// Where a walker standing on `from` lands this round. A walker on a crashed vertex is
    /// stuck; a dropped move stays in place; a severed cut (or a bad per-edge channel on
    /// the chosen link) blocks the traversal after the target draw.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn land<R: RngCore>(&self, from: VertexId, rng: &mut R) -> VertexId {
        if self.faults.is_crashed(from) || self.faults.drops_from(rng, from) {
            return from;
        }
        match self.graph.sample_neighbor(from, rng) {
            Some(next)
                if !self.faults.severs(from, next)
                    && !self.faults.drops_on_edge(rng, from, next) =>
            {
                next
            }
            _ => from,
        }
    }
}

/// The next-round occupancy a landed walker joins: written inline by sequential walkers,
/// and the one merge of stream mode's shard buffers.
struct NextRound<'a> {
    next: &'a mut VertexBitset,
    list: &'a mut Vec<VertexId>,
    active: &'a VertexBitset,
    newly: &'a mut Vec<VertexId>,
    visited: &'a mut VertexBitset,
    num_visited: &'a mut usize,
}

impl NextRound<'_> {
    // Always inlined: called from both draw sources, it would otherwise become an
    // out-of-line call per walker.
    #[inline(always)]
    fn occupy(&mut self, p: VertexId) {
        if self.next.insert(p) {
            self.list.push(p);
            if !self.active.contains(p) {
                self.newly.push(p);
            }
            if self.visited.insert(p) {
                *self.num_visited += 1;
            }
        }
    }
}

impl SpreadingProcess for MultipleRandomWalks<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        // Erase the two-rounds-old occupancy through its dirty list.
        self.next_active.clear_list(&self.next_list);
        self.next_list.clear();
        self.newly.clear();
        let walker = Walker { graph: self.graph, faults };
        let mut next = NextRound {
            next: &mut self.next_active,
            list: &mut self.next_list,
            active: &self.active,
            newly: &mut self.newly,
            visited: &mut self.visited,
            num_visited: &mut self.num_visited,
        };
        match draws {
            Draws::Trial(mut rng) => {
                for position in &mut self.positions {
                    *position = walker.land(*position, &mut rng);
                    next.occupy(*position);
                }
            }
            // Walker `i` owns the entity id `i` (keying by *position* would weld co-located
            // walkers together — they would share every draw and never separate), so the
            // position vector shards cleanly and merges back in walker order.
            Draws::Streams(engine) => {
                let (positions, round) = (&self.positions, self.round as u64);
                let shards = engine.shard_buffers(positions.len(), |range, landed| {
                    let walkers = range.map(|i| i as u64);
                    engine.streams().for_each_stream(walkers, round, |i, rng| {
                        landed.push(walker.land(positions[i as usize], rng));
                    });
                });
                for (position, landed) in
                    self.positions.iter_mut().zip(shards.into_iter().flatten())
                {
                    *position = landed;
                    next.occupy(landed);
                }
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        std::mem::swap(&mut self.active_list, &mut self.next_list);
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.active
    }

    fn num_active(&self) -> usize {
        self.active_list.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.active_list {
            f(v);
        }
    }

    fn for_each_token(&self, f: &mut dyn FnMut(VertexId)) {
        // One token per walker (not per occupied vertex): several walkers on the same
        // vertex appear as repeated entries, so churn migration preserves multiplicity.
        for &p in &self.positions {
            f(p);
        }
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
        if active.is_empty() {
            return Err(CoreError::InvalidParameters {
                reason: "multiple walks adopt at least one active vertex, got none".to_string(),
            });
        }
        self.active.clear_list(&self.active_list);
        self.next_active.clear_list(&self.next_list);
        self.active_list.clear();
        self.next_list.clear();
        self.newly.clear();
        self.visited.clear();
        // One adopted entry per walker (the token list `for_each_token` emits, possibly
        // with repeats) restores the exact per-vertex walker counts; any other length
        // falls back to spreading walkers round-robin over the adopted set.
        let walkers = self.positions.len();
        for (i, p) in self.positions.iter_mut().enumerate() {
            *p = if active.len() == walkers { active[i] } else { active[i % active.len()] };
        }
        // The occupancy set derives from the walker positions, never the other way round.
        for i in 0..walkers {
            let p = self.positions[i];
            if self.active.insert(p) {
                self.newly.push(p);
            }
        }
        self.active.collect_into(&mut self.active_list);
        if let Some(seen) = coverage {
            seen.for_each(&mut |v| {
                self.visited.insert(v);
            });
        }
        for &v in active {
            self.visited.insert(v);
        }
        self.num_visited = self.visited.count();
        self.round = round;
        Ok(())
    }

    fn reset(&mut self) {
        self.active.clear_list(&self.active_list);
        self.next_active.clear_list(&self.next_list);
        self.active_list.clear();
        self.next_list.clear();
        self.visited.clear();
        for p in &mut self.positions {
            *p = self.start;
        }
        self.active.insert(self.start);
        self.active_list.push(self.start);
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
        assert!(MultipleRandomWalks::new(&g, 0, 0).is_err());
        assert!(MultipleRandomWalks::new(&g, 9, 2).is_err());
        assert!(MultipleRandomWalks::new(&cobra_graph::Graph::default(), 0, 1).is_err());
    }

    #[test]
    fn more_walkers_cover_faster_on_average() {
        let g = generators::connected_random_regular(128, 3, &mut rng(1)).unwrap();
        let mut total_1 = 0usize;
        let mut total_8 = 0usize;
        for seed in 0..5u64 {
            let mut one = MultipleRandomWalks::new(&g, 0, 1).unwrap();
            total_1 += run_until_complete(&mut one, &mut rng(10 + seed), 10_000_000).unwrap();
            let mut eight = MultipleRandomWalks::new(&g, 0, 8).unwrap();
            total_8 += run_until_complete(&mut eight, &mut rng(20 + seed), 10_000_000).unwrap();
        }
        assert!(total_8 < total_1, "8 walkers ({total_8}) should beat 1 walker ({total_1})");
    }

    #[test]
    fn active_set_size_is_at_most_the_number_of_walkers() {
        let g = generators::hypercube(5).unwrap();
        let mut walks = MultipleRandomWalks::new(&g, 0, 6).unwrap();
        let mut r = rng(2);
        for _ in 0..50 {
            walks.step(&mut r);
            assert!(walks.num_active() <= 6);
            assert!(walks.num_active() >= 1);
            assert_eq!(walks.positions.len(), 6);
            assert_eq!(walks.active().count(), walks.num_active());
            // Every occupied vertex is a walker position and vice versa.
            for &p in &walks.positions {
                assert!(walks.active().contains(p));
            }
        }
    }

    #[test]
    fn tokens_enumerate_one_entry_per_walker() {
        let g = generators::complete(8).unwrap();
        let mut walks = MultipleRandomWalks::new(&g, 3, 5).unwrap();
        let mut tokens = Vec::new();
        walks.for_each_token(&mut |v| tokens.push(v));
        assert_eq!(tokens, vec![3; 5], "all walkers start stacked on the start vertex");
        let mut r = rng(11);
        for _ in 0..7 {
            walks.step(&mut r);
        }
        tokens.clear();
        walks.for_each_token(&mut |v| tokens.push(v));
        assert_eq!(tokens, walks.positions, "tokens are exactly the walker positions");
    }

    #[test]
    fn adopting_one_token_per_walker_preserves_multiplicity() {
        let g = generators::cycle(10).unwrap();
        let mut walks = MultipleRandomWalks::new(&g, 0, 4).unwrap();
        // Three walkers stacked on vertex 7, one on vertex 2: the occupancy set alone
        // would lose the stacking.
        walks.adopt_state(&[7, 7, 2, 7], None, 0).unwrap();
        assert_eq!(walks.positions, &[7, 7, 2, 7]);
        assert_eq!(walks.num_active(), 2, "two occupied vertices");
        assert!(walks.active().contains(7) && walks.active().contains(2));
        assert_eq!(walks.positions.len(), 4, "walker count is conserved");
        // The process keeps running correctly from the adopted configuration.
        let mut r = rng(4);
        assert!(run_until_complete(&mut walks, &mut r, 1_000_000).is_some());
    }

    #[test]
    fn adopting_a_plain_active_set_falls_back_to_round_robin() {
        let g = generators::cycle(10).unwrap();
        let mut walks = MultipleRandomWalks::new(&g, 0, 5).unwrap();
        walks.adopt_state(&[1, 8], None, 0).unwrap();
        assert_eq!(walks.positions, &[1, 8, 1, 8, 1]);
        assert_eq!(walks.num_active(), 2);
        assert!(walks.adopt_state(&[], None, 0).is_err(), "adopting nothing is rejected");
    }

    #[test]
    fn reset_restores_everything() {
        let g = generators::petersen().unwrap();
        let mut walks = MultipleRandomWalks::new(&g, 4, 3).unwrap();
        let mut r = rng(3);
        run_until_complete(&mut walks, &mut r, 100_000).unwrap();
        walks.reset();
        assert_eq!(walks.round(), 0);
        assert_eq!(walks.num_visited(), 1);
        assert!(walks.positions.iter().all(|&p| p == 4));
        assert_eq!(walks.positions.len(), 3);
        assert_eq!(walks.newly_activated(), &[4]);
        // The process still runs correctly after the reset.
        assert!(run_until_complete(&mut walks, &mut r, 100_000).is_some());
    }
}
