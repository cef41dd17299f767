// R5 fixture: the step path annotated hot and par, its stream-mode shard results flowing
// back through the engine's ordered merge — no shared cells, plus one documented
// membership-only exception.
impl SpreadingProcess for Demo {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let graph = self.graph;
        match draws {
            Draws::Trial(rng) => self.advance(rng, faults),
            Draws::Streams(engine) => {
                let frontier = &self.frontier;
                let shards = engine.shard_buffers(frontier.len(), |range, proposals| {
                    for &u in &frontier[range] {
                        proposals.extend(graph.neighbors(u));
                    }
                });
                for target in shards.into_iter().flatten() {
                    self.next_active.insert(target);
                }
            }
        }
    }
}

// cobra-lint: par
fn shard_probe(&self) -> usize {
    let seen = Cell::new(0usize); // cobra-lint: allow(R5, shard-local counter, never shared)
    seen.get()
}
