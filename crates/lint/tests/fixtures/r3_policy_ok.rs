// R3 fixture: the same defense policy with its per-round `observe` annotated hot.
impl DefensePolicy for Demo {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        self.targets.clear();
        self.last = view.num_active();
    }

    fn actions(&self) -> DefenseActions<'_> {
        DefenseActions::INERT
    }

    fn reset(&mut self) {}
}
