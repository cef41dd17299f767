// R5 fixture: a hot step_faulted without par (mandatory par path) and a par fn that
// routes shard results through single-threaded shared state instead of the engine's merge.
impl SpreadingProcess for Demo {
    // cobra-lint: hot
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.advance(draws, faults);
    }
}

// cobra-lint: par
fn shard(&self, engine: &ParallelFrontier) {
    let hits = RefCell::new(Vec::new());
    let shared: Rc<Scratch> = Rc::new(Scratch::default());
    static mut ROUND: u64 = 0;
    engine.fan_out(&self.frontier, |_, chunk| {
        hits.borrow_mut().extend_from_slice(chunk);
        shared.observe(chunk);
    });
}
