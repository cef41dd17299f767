//! The common interface of round-based spreading processes.

use cobra_graph::{VertexBitset, VertexId};
use rand::RngCore;

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::sim::Runner;
use crate::{CoreError, Result};

/// A synchronous, round-based process spreading information (or infection) over a fixed graph.
///
/// All the processes in this workspace — COBRA, BIPS, PUSH, PUSH–PULL, random walks, the
/// contact process — advance in discrete rounds over an immutable graph, maintain a set of
/// "currently active" vertices and have a notion of completion (all vertices visited, or all
/// vertices infected). This trait captures exactly that surface so measurement code
/// ([`run_until_complete`], growth traces, the [`sim`](crate::sim) runner, the experiment
/// harness) is written once.
///
/// # Sparse-frontier contract
///
/// The trait is designed so that *observing* a process costs work proportional to what the
/// process actually did, never `O(n)` per round:
///
/// * [`active`](SpreadingProcess::active) exposes the current active set as a word-level
///   [`VertexBitset`] — membership tests are `O(1)` and full iteration is
///   `O(n/512 + |active|)`;
/// * [`newly_activated`](SpreadingProcess::newly_activated) is the per-round **delta**
///   `A_t \ A_{t-1}`: observers that track first visits or cumulative coverage consume it in
///   `O(|delta|)`;
/// * [`num_active`](SpreadingProcess::num_active) stays an `O(1)` cached counter.
///
/// Implementations in this crate also keep their *stepping* cost proportional to the frontier
/// (`O(|A_t| · k)` per round for the push-style processes) by iterating explicit frontier
/// vectors and erasing scratch bitsets through dirty lists instead of `fill(false)`.
///
/// The trait is **object-safe**: processes are routinely handled as
/// `Box<dyn SpreadingProcess>` so heterogeneous collections can be driven through the same
/// loop and a [`ProcessSpec`](crate::spec::ProcessSpec) can instantiate any process by name
/// at runtime. That is why [`step`](SpreadingProcess::step) takes `&mut dyn RngCore` instead
/// of a generic parameter — concrete RNGs coerce at the call site
/// (`process.step(&mut rng)`), so callers are unaffected.
pub trait SpreadingProcess {
    /// Advances the process by one round in sequential mode: forwards to
    /// [`step_faulted`](Self::step_faulted) with the trial RNG as the draw source and
    /// [`StepFaults::NONE`].
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        self.step_faulted(Draws::Trial(rng), &StepFaults::NONE);
    }

    /// Advances the process by one round under the given fault view, drawing from `draws` —
    /// the one required stepping method, which serves both engines.
    ///
    /// * [`Draws::Trial`] (determinism v1): every draw comes from the trial RNG, in
    ///   ascending frontier order.
    /// * [`Draws::Streams`] (determinism v2): every entity (vertex or walker) draws from its
    ///   own counter-based stream keyed by `(entity, round)`, and frontier iteration may be
    ///   sharded across the engine's threads. The trajectory is therefore **identical for
    ///   every thread count**, including `threads = 1`.
    ///
    /// Implementations write one per-entity kernel and one merge, and let `draws` choose
    /// only how the kernel is iterated. Under either source, transmissions are lost with
    /// the view's drop probability and crashed vertices never relay (they still receive);
    /// a per-transmission drop draw comes from the *initiating* entity's RNG. A benign view
    /// must not touch the RNG beyond the process's own draws, so that a zero-fault wrapper
    /// stays bit-identical to the bare process (see [`fault`](crate::fault)).
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>);

    /// Number of rounds performed so far (0 for a freshly constructed process).
    fn round(&self) -> usize;

    /// The set of vertices that are active (hold the token / are infected) **in the current
    /// round**, as a word-level bitset.
    fn active(&self) -> &VertexBitset;

    /// Number of active vertices in the current round.
    ///
    /// Implementations maintain this count incrementally, so it is `O(1)` — hot trace loops
    /// call it every round and must not pay an `O(n)` recount of [`active`](Self::active).
    fn num_active(&self) -> usize;

    /// The vertices that became active in the most recent state transition: after
    /// [`step`](Self::step) this is `A_t \ A_{t-1}` (in unspecified order); after
    /// construction or [`reset`](Self::reset) it is the initial active set.
    ///
    /// This is the delta that lets observers run in `O(|delta|)` per round instead of
    /// rescanning all `n` vertices. Vertices that were active, went inactive and became
    /// active again later re-appear in the delta of the round that re-activated them.
    fn newly_activated(&self) -> &[VertexId];

    /// Calls `f` for every currently active vertex.
    ///
    /// The default iterates [`active`](Self::active) in `O(n/512 + |active|)`; processes that
    /// maintain an explicit frontier list override this with an `O(|active|)` walk.
    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        self.active().for_each(f);
    }

    /// Calls `f` once per migratable *token* of process state — the list a churn driver
    /// feeds back into [`adopt_state`](Self::adopt_state) on the next graph instance.
    ///
    /// For most processes this is identical to [`for_each_active`](Self::for_each_active)
    /// (one token per active vertex, the default). Processes whose state carries
    /// *multiplicity* override it: multiple random walks emit one entry per **walker**, so
    /// several walkers sharing a vertex appear as repeated entries and the adopting process
    /// can restore exact per-vertex walker counts instead of collapsing them to occupancy.
    fn for_each_token(&self, f: &mut dyn FnMut(VertexId)) {
        self.for_each_active(f);
    }

    /// Number of vertices of the underlying graph.
    fn num_vertices(&self) -> usize {
        self.active().len()
    }

    /// Whether the process has reached its completion condition (e.g. every vertex visited at
    /// least once for COBRA, every vertex currently infected for BIPS).
    fn is_complete(&self) -> bool;

    /// The monotone coverage set the completion criterion tracks, when it is distinct from
    /// the currently active set: COBRA's and the walks' visited sets. `None` for processes
    /// whose completion is a predicate of [`active`](Self::active) alone (BIPS, PUSH,
    /// PUSH–PULL, contact). Used by churn migration and coverage statistics.
    fn coverage(&self) -> Option<&VertexBitset> {
        None
    }

    /// Restores a freshly built process (possibly on a *different* graph instance of the
    /// same size) to mid-run state: `active` becomes the current active set, `coverage` (if
    /// given) seeds the visited/coverage set and the round counter resumes at `round`, so a
    /// run segmented across graph instances (churn) reports one continuous round index.
    ///
    /// `active` may contain duplicates: churn drivers pass the
    /// [`for_each_token`](Self::for_each_token) list, so multiple walks receiving one entry
    /// per walker restore exact per-vertex walker counts. Processes whose state is richer
    /// than (tokens, coverage) adopt the nearest faithful configuration — e.g. an epidemic
    /// re-pins its persistent source, and multiple walks fall back to spreading walkers
    /// round-robin when the adopted list is not one-entry-per-walker.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if the process does not support adoption
    /// (the default), or if the state does not fit the graph.
    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        let _ = (active, coverage, round);
        Err(CoreError::InvalidParameters {
            reason: "process does not support state adoption (required for churn)".to_string(),
        })
    }

    /// Sets the defense layer's per-round branching multiplier: processes with a branching
    /// factor (COBRA, BIPS) multiply their sampled push/probe count by `multiplier` until the
    /// next call. Returns the *expected extra transmissions per round* the new multiplier
    /// costs over the inert `multiplier = 1` (0.0 when nothing changes), so defenses can be
    /// compared at matched total cost. The default is a no-op returning 0.0 — processes
    /// without a branching lever (walks, PUSH, contact) ignore boosts, and a multiplier of 1
    /// must always be free and bit-identical to never calling this at all.
    fn set_branching_boost(&mut self, multiplier: u32) -> f64 {
        let _ = multiplier;
        0.0
    }

    /// Re-activates the given (already valid) vertices: each becomes active/informed from the
    /// next step on, exactly as if it had just received a token. Returns how many vertices
    /// actually changed state (already-active vertices are skipped), which is also the number
    /// of extra transmissions charged to the defense budget. The default is a no-op returning
    /// 0 — position-based processes (single/multiple random walks) cannot mint tokens without
    /// changing their walker count, so they ignore re-seeding. An empty slice must be free.
    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        let _ = vertices;
        0
    }

    /// Resets the process to its initial state (round 0) so the same allocation can be reused
    /// across Monte-Carlo trials.
    ///
    /// This is a contract: after `reset` the process is in exactly the state of a fresh build
    /// of the same spec on the same graph, whatever the previous trial did to it (completed,
    /// stopped at a budget, boosted, re-seeded, crashed vertices). The next trial then draws
    /// the same words and follows the same trajectory as on a fresh build. The Monte-Carlo
    /// drivers, `repro serve` and E11 keep one process per worker and call `reset` before
    /// every trial, so any state `reset` forgets leaks from one trial into the next; the
    /// reused-process pins of `tests/stack_known_answers.rs` check this for every process
    /// under every adversity stack.
    fn reset(&mut self);
}

// `SpreadingProcess` must stay object-safe: the spec layer hands out
// `Box<dyn SpreadingProcess>` and the runner drives `&mut dyn SpreadingProcess`.
const _: fn(&mut dyn SpreadingProcess) = |_| {};

/// Shared validation for [`SpreadingProcess::adopt_state`] implementations: every adopted
/// vertex must exist and an adopted coverage set must be sized for this graph.
pub(crate) fn validate_adopted_state(
    n: usize,
    active: &[VertexId],
    coverage: Option<&VertexBitset>,
) -> Result<()> {
    if let Some(&bad) = active.iter().find(|&&v| v >= n) {
        return Err(CoreError::VertexOutOfRange { vertex: bad, num_vertices: n });
    }
    if let Some(seen) = coverage {
        if seen.len() != n {
            return Err(CoreError::InvalidParameters {
                reason: format!(
                    "adopted coverage set is sized for {} vertices, graph has {n}",
                    seen.len()
                ),
            });
        }
    }
    Ok(())
}

/// Runs `process` until [`SpreadingProcess::is_complete`] holds or `max_rounds` rounds have
/// been executed, returning the completion round or `None` on budget exhaustion.
///
/// If the process is already complete, returns `Some(current round)` without stepping.
// cobra-lint: draws(bounded)
pub fn run_until_complete(
    process: &mut dyn SpreadingProcess,
    rng: &mut dyn RngCore,
    max_rounds: usize,
) -> Option<usize> {
    Runner::new(max_rounds).run(process, rng).completion_rounds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// A deterministic fake process: one new vertex becomes active each round.
    #[derive(Debug)]
    struct Sweep {
        active: VertexBitset,
        newly: Vec<VertexId>,
        round: usize,
    }

    impl Sweep {
        fn new(n: usize) -> Self {
            let mut active = VertexBitset::new(n);
            active.insert(0);
            Sweep { active, newly: vec![0], round: 0 }
        }
    }

    impl SpreadingProcess for Sweep {
        // A deterministic fake has no transmissions to fault.
        fn step_faulted(&mut self, _draws: Draws<'_>, _faults: &StepFaults<'_>) {
            self.round += 1;
            self.newly.clear();
            if self.round < self.active.len() {
                self.active.insert(self.round);
                self.newly.push(self.round);
            }
        }

        fn round(&self) -> usize {
            self.round
        }

        fn active(&self) -> &VertexBitset {
            &self.active
        }

        fn num_active(&self) -> usize {
            (self.round + 1).min(self.active.len())
        }

        fn newly_activated(&self) -> &[VertexId] {
            &self.newly
        }

        fn is_complete(&self) -> bool {
            self.active.count() == self.active.len()
        }

        fn reset(&mut self) {
            self.active.clear();
            self.active.insert(0);
            self.newly.clear();
            self.newly.push(0);
            self.round = 0;
        }
    }

    #[test]
    fn run_until_complete_counts_rounds() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut p = Sweep::new(5);
        assert_eq!(p.num_vertices(), 5);
        assert_eq!(p.num_active(), 1);
        assert_eq!(p.newly_activated(), &[0]);
        let rounds = run_until_complete(&mut p, &mut rng, 100).unwrap();
        assert_eq!(rounds, 4);
        // Already complete: returns the current round without stepping.
        assert_eq!(run_until_complete(&mut p, &mut rng, 100), Some(4));
    }

    #[test]
    fn run_until_complete_respects_budget() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut p = Sweep::new(10);
        assert_eq!(run_until_complete(&mut p, &mut rng, 3), None);
        assert_eq!(p.round(), 3);
        assert_eq!(p.newly_activated(), &[3]);
    }

    #[test]
    fn default_for_each_active_iterates_the_bitset() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut p = Sweep::new(6);
        p.step(&mut rng);
        p.step(&mut rng);
        let mut seen = Vec::new();
        p.for_each_active(&mut |v| seen.push(v));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut p = Sweep::new(3);
        run_until_complete(&mut p, &mut rng, 10);
        p.reset();
        assert_eq!(p.round(), 0);
        assert_eq!(p.num_active(), 1);
        assert_eq!(p.newly_activated(), &[0]);
        assert!(!p.is_complete());
    }

    #[test]
    fn the_trait_is_usable_through_a_box() {
        let mut rng = ChaCha12Rng::seed_from_u64(0);
        let mut boxed: Box<dyn SpreadingProcess> = Box::new(Sweep::new(4));
        let rounds = run_until_complete(boxed.as_mut(), &mut rng, 100).unwrap();
        assert_eq!(rounds, 3);
        assert!(boxed.is_complete());
    }
}
