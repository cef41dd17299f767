// R3 fixture: a hot step whose stream-mode arm builds its shard buffer inside the shard
// closure instead of taking it from `ParallelFrontier::shard_buffers`. The closure is part
// of the hot body, so the allocation fires.
impl SpreadingProcess for Demo {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        match draws {
            Draws::Trial(rng) => self.advance(rng, faults),
            Draws::Streams(engine) => {
                let shards = engine.fan_out(&self.frontier, |_, chunk| {
                    let mut proposals = Vec::with_capacity(chunk.len());
                    proposals.extend_from_slice(chunk);
                    proposals
                });
                self.merge(shards);
            }
        }
    }
}
