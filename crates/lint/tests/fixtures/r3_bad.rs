// R3 fixture: an unannotated step_faulted (mandatory hot path) and a hot fn that allocates.
impl SpreadingProcess for Demo {
    // cobra-lint: par
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.advance(draws, faults);
    }
}

// cobra-lint: hot
// cobra-lint: draws(0)
fn drain(&mut self, _rng: &mut dyn RngCore) {
    let mut staged: Vec<usize> = Vec::new();
    staged.extend(self.frontier.iter().copied());
    self.log = format!("{staged:?}");
}
