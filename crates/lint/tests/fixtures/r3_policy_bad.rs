// R3 fixture: a defense policy whose per-round `observe` is not annotated hot.
impl DefensePolicy for Demo {
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
