// R3 fixture: the step path annotated hot, reusing scratch buffers instead of allocating.
impl SpreadingProcess for Demo {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.scratch.clear();
        self.advance(draws, faults);
    }
}
