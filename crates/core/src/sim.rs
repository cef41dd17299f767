//! The unified simulation runner: one measurement loop for every spreading process.
//!
//! Historically each measurement helper (`cover_time`, `infection_curve`, the E1–E8
//! experiment files) hand-rolled its own construct-and-step loop. [`Runner`] replaces them
//! with a single loop composed from
//!
//! * **stop conditions** — completion (the default), a round budget, or a target coverage
//!   fraction of the active set, and
//! * **pluggable [`Observer`]s** — per-round probes recording active-count traces
//!   ([`ActiveCountTrace`]), first-visit/cover times ([`FirstVisitTimes`]), cumulative
//!   coverage curves ([`CoverageTrace`]), per-round growth ratios ([`GrowthRatios`]) and
//!   times-to-fraction ([`FractionTimes`]).
//!
//! The runner drives `&mut dyn SpreadingProcess` with `&mut dyn RngCore`, so it works with
//! any process — including ones instantiated dynamically from a
//! [`ProcessSpec`] — and plugs directly into
//! `cobra_stats::parallel::run_trials` closures for deterministic parallel Monte-Carlo.
//!
//! The loop body — step, notify the observers, check the stop conditions — exists once.
//! [`Runner::run_observed`], [`run_until_complete`](crate::process::run_until_complete) and
//! the graph-churn driver [`run_churned_observed`](crate::fault::run_churned_observed) all
//! step through it. Under churn, observers are started once and every re-instantiated
//! process resumes the run's round index through
//! [`adopt_state`](SpreadingProcess::adopt_state), so the same trace types work unchanged.
//!
//! Observers are **delta-driven**: per round they consume
//! [`newly_activated`](SpreadingProcess::newly_activated) (`O(|delta|)`) and the `O(1)`
//! [`num_active`](SpreadingProcess::num_active) counter — never a full `O(n)` rescan of the
//! active set. The only full-set walk is the single
//! [`for_each_active`](SpreadingProcess::for_each_active) at `on_start`, which costs
//! `O(|A_0|)` for the frontier processes.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use cobra_graph::{Graph, VertexBitset};

use crate::process::SpreadingProcess;
use crate::spec::ProcessSpec;
use crate::{CoreError, Result};

/// Why a [`Runner::run`] invocation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The process reported [`SpreadingProcess::is_complete`].
    Completed,
    /// The configured coverage target was reached.
    TargetReached,
    /// The round budget ran out first.
    BudgetExhausted,
}

/// The outcome of a single run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Rounds executed when the run stopped.
    pub rounds: usize,
    /// `|A_t|` at the final round.
    pub final_active: usize,
    /// Number of vertices of the instance.
    pub num_vertices: usize,
    /// Why the run stopped.
    pub reason: StopReason,
}

impl RunOutcome {
    /// Whether the run reached its goal (completion or coverage target) within the budget.
    pub fn completed(&self) -> bool {
        self.reason != StopReason::BudgetExhausted
    }

    /// The stopping round as a success value, or `None` on budget exhaustion — the shape
    /// Monte-Carlo aggregation wants (`outcome.completion_rounds().map_or(f64::NAN, ..)`).
    pub fn completion_rounds(&self) -> Option<usize> {
        self.completed().then_some(self.rounds)
    }
}

/// A per-round probe attached to a [`Runner`] run.
///
/// Observers only see the process through `&dyn SpreadingProcess`, so the same observer
/// works for every process kind.
pub trait Observer {
    /// Called once before the first step, with the process in its initial state.
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        let _ = process;
    }

    /// Called after every step.
    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        let _ = process;
    }
}

/// The unified measurement loop: a round budget plus an optional coverage target.
///
/// `Runner` is plain configuration (`Copy`), so one instance can be shared across all
/// parallel trials of a Monte-Carlo sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Runner {
    max_rounds: usize,
    target_fraction: Option<f64>,
}

impl Runner {
    /// A runner that steps until completion, giving up after `max_rounds` rounds.
    pub fn new(max_rounds: usize) -> Self {
        Runner { max_rounds, target_fraction: None }
    }

    /// Stops as soon as the *active* set reaches `ceil(fraction · n)` vertices instead of
    /// waiting for completion.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless `0 < fraction ≤ 1`.
    pub fn until_coverage(mut self, fraction: f64) -> Result<Self> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(CoreError::InvalidParameters {
                reason: format!("coverage fraction {fraction} must be in (0, 1]"),
            });
        }
        self.target_fraction = Some(fraction);
        Ok(self)
    }

    /// The round budget.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Checks the stop conditions.
    fn goal_reached(&self, process: &dyn SpreadingProcess) -> Option<StopReason> {
        if let Some(fraction) = self.target_fraction {
            let threshold = (fraction * process.num_vertices() as f64).ceil() as usize;
            if process.num_active() >= threshold {
                return Some(StopReason::TargetReached);
            }
        }
        if process.is_complete() {
            return Some(StopReason::Completed);
        }
        None
    }

    /// Runs `process` until a stop condition fires.
    // cobra-lint: draws(bounded)
    pub fn run(&self, process: &mut dyn SpreadingProcess, rng: &mut dyn RngCore) -> RunOutcome {
        self.run_observed(process, rng, &mut [])
    }

    /// Runs `process`, notifying every observer before the first step and after each round.
    // cobra-lint: draws(bounded)
    pub fn run_observed(
        &self,
        process: &mut dyn SpreadingProcess,
        rng: &mut dyn RngCore,
        observers: &mut [&mut dyn Observer],
    ) -> RunOutcome {
        for observer in observers.iter_mut() {
            observer.on_start(process);
        }
        self.run_rounds(process, rng, observers, self.max_rounds)
    }

    /// The one round loop: checks the stop conditions, then steps `process` at most
    /// `rounds` times, notifying every observer after each step and re-checking. The outcome
    /// reports [`StopReason::BudgetExhausted`] when `rounds` steps ran without a stop.
    ///
    /// [`run_observed`](Self::run_observed) calls it once with the whole budget; the churn
    /// driver ([`fault::run_churned_observed`](crate::fault::run_churned_observed)) calls it
    /// once per graph epoch, on a process that resumed the run's round index.
    // cobra-lint: draws(bounded)
    pub(crate) fn run_rounds(
        &self,
        process: &mut dyn SpreadingProcess,
        rng: &mut dyn RngCore,
        observers: &mut [&mut dyn Observer],
        rounds: usize,
    ) -> RunOutcome {
        let reason = 'run: {
            if let Some(reason) = self.goal_reached(process) {
                break 'run reason;
            }
            for _ in 0..rounds {
                process.step(rng);
                for observer in observers.iter_mut() {
                    observer.on_round(process);
                }
                if let Some(reason) = self.goal_reached(process) {
                    break 'run reason;
                }
            }
            StopReason::BudgetExhausted
        };
        RunOutcome {
            rounds: process.round(),
            final_active: process.num_active(),
            num_vertices: process.num_vertices(),
            reason,
        }
    }

    /// Builds the process described by `spec` against `graph` and runs it.
    ///
    /// # Errors
    ///
    /// Propagates [`ProcessSpec::build`] validation errors.
    // cobra-lint: draws(bounded)
    pub fn run_spec(
        &self,
        spec: &ProcessSpec,
        graph: &Graph,
        rng: &mut dyn RngCore,
    ) -> Result<RunOutcome> {
        let mut process = spec.build(graph)?;
        Ok(self.run(process.as_mut(), rng))
    }

    /// Runs to the goal and returns the stopping round, turning budget exhaustion into
    /// [`CoreError::RoundBudgetExceeded`] — the contract of the `cover_time` /
    /// `infection_time` measurement helpers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundBudgetExceeded`] if the budget runs out first.
    // cobra-lint: draws(bounded)
    pub fn completion_rounds(
        &self,
        process: &mut dyn SpreadingProcess,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        self.run(process, rng)
            .completion_rounds()
            .ok_or(CoreError::RoundBudgetExceeded { max_rounds: self.max_rounds })
    }
}

/// Records `|A_t|` after every round, starting with the initial state at index 0.
#[derive(Debug, Clone, Default)]
pub struct ActiveCountTrace {
    trace: Vec<usize>,
}

impl ActiveCountTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded counts (`trace()[t]` = `|A_t|`).
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }

    /// Consumes the observer, returning the trace.
    pub fn into_trace(self) -> Vec<usize> {
        self.trace
    }
}

impl Observer for ActiveCountTrace {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        self.trace.clear();
        self.trace.push(process.num_active());
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        self.trace.push(process.num_active());
    }
}

/// Records the first round each vertex became active — per-vertex hitting times, whose
/// maximum is the cover time.
#[derive(Debug, Clone, Default)]
pub struct FirstVisitTimes {
    first_visit: Vec<Option<usize>>,
}

impl FirstVisitTimes {
    /// An empty observer (sized lazily at `on_start`).
    pub fn new() -> Self {
        Self::default()
    }

    /// First-visit round per vertex (`None` = never active so far).
    pub fn first_visit(&self) -> &[Option<usize>] {
        &self.first_visit
    }

    /// Whether every vertex has been active at least once.
    pub fn covered(&self) -> bool {
        !self.first_visit.is_empty() && self.first_visit.iter().all(Option::is_some)
    }

    /// The cover time (maximum first-visit round), if every vertex was reached.
    pub fn cover_time(&self) -> Option<usize> {
        self.first_visit
            .iter()
            .copied()
            .collect::<Option<Vec<usize>>>()
            .map(|times| times.into_iter().max().unwrap_or(0))
    }
}

impl Observer for FirstVisitTimes {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        self.first_visit.clear();
        self.first_visit.resize(process.num_vertices(), None);
        let round = process.round();
        let slots = &mut self.first_visit;
        process.for_each_active(&mut |v| {
            if slots[v].is_none() {
                slots[v] = Some(round);
            }
        });
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        // O(|delta|): only vertices that just became active can gain a first-visit time.
        let round = process.round();
        for &v in process.newly_activated() {
            let slot = &mut self.first_visit[v];
            if slot.is_none() {
                *slot = Some(round);
            }
        }
    }
}

/// Records the cumulative number of distinct vertices ever active (the coverage curve):
/// `trace()[t]` = `|C_0 ∪ … ∪ C_t|`.
#[derive(Debug, Clone, Default)]
pub struct CoverageTrace {
    seen: Option<VertexBitset>,
    num_seen: usize,
    trace: Vec<usize>,
}

impl CoverageTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded cumulative counts.
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }

    /// The per-round coverage *increments*: `deltas()[t]` = number of vertices first
    /// covered in round `t` (`deltas()[0]` = `|A_0|`). This is the `O(|delta|)` wire
    /// encoding the serving layer streams — cumulative curves re-sum on the client, so a
    /// result stream never re-sends the monotone prefix.
    pub fn deltas(&self) -> Vec<usize> {
        self.trace
            .iter()
            .enumerate()
            .map(|(t, &c)| if t == 0 { c } else { c - self.trace[t - 1] })
            .collect()
    }
}

impl Observer for CoverageTrace {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        let mut seen = VertexBitset::new(process.num_vertices());
        self.num_seen = 0;
        self.trace.clear();
        process.for_each_active(&mut |v| {
            if seen.insert(v) {
                self.num_seen += 1;
            }
        });
        self.seen = Some(seen);
        self.trace.push(self.num_seen);
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        // O(|delta|): the cumulative union only grows by newly activated vertices.
        let seen = self.seen.as_mut().expect("on_start ran before on_round");
        for &v in process.newly_activated() {
            if seen.insert(v) {
                self.num_seen += 1;
            }
        }
        self.trace.push(self.num_seen);
    }
}

/// Records the per-round growth ratios `|A_{t+1}| / |A_t|` (rounds where `|A_t| = 0` are
/// skipped — the ratio is undefined once a process dies out).
#[derive(Debug, Clone, Default)]
pub struct GrowthRatios {
    previous: usize,
    ratios: Vec<f64>,
}

impl GrowthRatios {
    /// An empty observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded ratios, one per executed round with a non-empty predecessor set.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }
}

impl Observer for GrowthRatios {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        self.ratios.clear();
        self.previous = process.num_active();
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        let current = process.num_active();
        if self.previous > 0 {
            self.ratios.push(current as f64 / self.previous as f64);
        }
        self.previous = current;
    }
}

/// Records the first round at which the active set reaches each of a list of coverage
/// fractions — the "time to reach 25% / 50% / 90%" milestones of the phase experiments.
#[derive(Debug, Clone)]
pub struct FractionTimes {
    fractions: Vec<f64>,
    thresholds: Vec<usize>,
    times: Vec<Option<usize>>,
}

impl FractionTimes {
    /// An observer for the given coverage fractions (each in `(0, 1]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for a fraction outside `(0, 1]`.
    pub fn new(fractions: &[f64]) -> Result<Self> {
        for &fraction in fractions {
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(CoreError::InvalidParameters {
                    reason: format!("coverage fraction {fraction} must be in (0, 1]"),
                });
            }
        }
        Ok(FractionTimes {
            fractions: fractions.to_vec(),
            thresholds: Vec::new(),
            times: vec![None; fractions.len()],
        })
    }

    /// `times()[i]` = first round with `|A_t| ≥ ceil(fractions[i] · n)`, if reached.
    pub fn times(&self) -> &[Option<usize>] {
        &self.times
    }

    fn record(&mut self, process: &dyn SpreadingProcess) {
        let round = process.round();
        let active = process.num_active();
        for (time, &threshold) in self.times.iter_mut().zip(&self.thresholds) {
            if time.is_none() && active >= threshold {
                *time = Some(round);
            }
        }
    }
}

impl Observer for FractionTimes {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        let n = process.num_vertices() as f64;
        self.thresholds =
            self.fractions.iter().map(|fraction| (fraction * n).ceil() as usize).collect();
        self.times.fill(None);
        self.record(process);
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        self.record(process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProcessSpec;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn runner_completes_and_reports() {
        let graph = generators::complete(64).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let outcome = Runner::new(10_000).run_spec(&spec, &graph, &mut rng(1)).unwrap();
        assert!(outcome.completed());
        assert_eq!(outcome.reason, StopReason::Completed);
        assert_eq!(outcome.num_vertices, 64);
        assert!(outcome.rounds > 0);
        assert_eq!(outcome.completion_rounds(), Some(outcome.rounds));
    }

    #[test]
    fn runner_budget_exhaustion() {
        let graph = generators::cycle(64).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let outcome = Runner::new(2).run_spec(&spec, &graph, &mut rng(2)).unwrap();
        assert_eq!(outcome.reason, StopReason::BudgetExhausted);
        assert_eq!(outcome.rounds, 2);
        assert_eq!(outcome.completion_rounds(), None);
        let mut process = spec.build(&graph).unwrap();
        assert_eq!(
            Runner::new(2).completion_rounds(process.as_mut(), &mut rng(2)),
            Err(CoreError::RoundBudgetExceeded { max_rounds: 2 })
        );
    }

    #[test]
    fn coverage_target_stops_early() {
        let graph = generators::complete(128).unwrap();
        let spec = ProcessSpec::bips(2).unwrap();
        let full = Runner::new(100_000).run_spec(&spec, &graph, &mut rng(3)).unwrap();
        let half = Runner::new(100_000)
            .until_coverage(0.5)
            .unwrap()
            .run_spec(&spec, &graph, &mut rng(3))
            .unwrap();
        assert_eq!(half.reason, StopReason::TargetReached);
        assert!(half.rounds <= full.rounds);
        assert!(half.final_active >= 64);
        assert!(Runner::new(10).until_coverage(0.0).is_err());
        assert!(Runner::new(10).until_coverage(1.5).is_err());
    }

    #[test]
    fn coverage_target_of_an_already_satisfied_process_is_zero_rounds() {
        let graph = generators::complete(16).unwrap();
        let spec = ProcessSpec::bips(2).unwrap();
        let runner = Runner::new(100).until_coverage(1.0 / 16.0).unwrap();
        let outcome = runner.run_spec(&spec, &graph, &mut rng(4)).unwrap();
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.reason, StopReason::TargetReached);
    }

    #[test]
    fn observers_record_traces() {
        // BIPS rather than COBRA: its completion condition (`|A_t| = n`) guarantees every
        // coverage fraction of the *active* set is eventually reached, which the
        // FractionTimes assertions below rely on.
        let graph = generators::hypercube(6).unwrap();
        let spec = ProcessSpec::bips(2).unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut counts = ActiveCountTrace::new();
        let mut visits = FirstVisitTimes::new();
        let mut coverage = CoverageTrace::new();
        let mut growth = GrowthRatios::new();
        let mut fractions = FractionTimes::new(&[0.25, 0.75]).unwrap();
        let outcome = Runner::new(100_000).run_observed(
            process.as_mut(),
            &mut rng(5),
            &mut [&mut counts, &mut visits, &mut coverage, &mut growth, &mut fractions],
        );
        assert!(outcome.completed());
        // Traces hold the initial state plus one entry per round.
        assert_eq!(counts.trace().len(), outcome.rounds + 1);
        assert_eq!(counts.trace()[0], 1);
        assert_eq!(coverage.trace().len(), outcome.rounds + 1);
        assert_eq!(*coverage.trace().last().unwrap(), 64);
        assert!(coverage.trace().windows(2).all(|w| w[1] >= w[0]));
        // First-visit times: start at round 0, all visited, max = cover time <= rounds.
        assert_eq!(visits.first_visit()[0], Some(0));
        assert!(visits.covered());
        assert!(visits.cover_time().unwrap() <= outcome.rounds);
        // Growth ratios exist for every round (the COBRA active set never dies).
        assert_eq!(growth.ratios().len(), outcome.rounds);
        assert!(growth.ratios().iter().all(|&r| r > 0.0));
        // Milestones are ordered.
        let quarter = fractions.times()[0].unwrap();
        let three_quarters = fractions.times()[1].unwrap();
        assert!(quarter <= three_quarters);
    }

    #[test]
    fn coverage_deltas_resum_to_the_cumulative_trace() {
        let graph = generators::hypercube(5).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut coverage = CoverageTrace::new();
        let outcome =
            Runner::new(100_000).run_observed(process.as_mut(), &mut rng(9), &mut [&mut coverage]);
        assert!(outcome.completed());
        let deltas = coverage.deltas();
        assert_eq!(deltas.len(), coverage.trace().len());
        assert_eq!(deltas[0], 1, "delta 0 is |A_0|");
        let mut resummed = 0usize;
        for (t, &d) in deltas.iter().enumerate() {
            resummed += d;
            assert_eq!(resummed, coverage.trace()[t], "prefix sums rebuild the curve");
        }
    }

    #[test]
    fn observers_reset_between_runs() {
        let graph = generators::complete(32).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let mut counts = ActiveCountTrace::new();
        for seed in 0..2 {
            let mut process = spec.build(&graph).unwrap();
            let outcome = Runner::new(10_000).run_observed(
                process.as_mut(),
                &mut rng(seed),
                &mut [&mut counts],
            );
            assert_eq!(counts.trace().len(), outcome.rounds + 1, "observer must self-reset");
        }
    }

    #[test]
    fn observers_never_rescan_the_active_set() {
        use cobra_graph::{VertexBitset, VertexId};
        use std::cell::Cell;

        /// Counts how often observers touch the full active set. The sparse-frontier contract
        /// is that per-round observation is O(|delta|): `active()` must never be called and
        /// `for_each_active` only during `on_start` — in particular on every round where
        /// fewer than n/64 vertices changed (here: all of them), no observer may iterate the
        /// full vertex set.
        struct Instrumented<'g> {
            inner: crate::cobra::CobraProcess<'g>,
            active_calls: Cell<usize>,
            sweeps: Cell<usize>,
        }

        impl SpreadingProcess for Instrumented<'_> {
            fn step_faulted(
                &mut self,
                draws: crate::parallel::Draws<'_>,
                faults: &crate::fault::StepFaults<'_>,
            ) {
                self.inner.step_faulted(draws, faults)
            }
            fn round(&self) -> usize {
                self.inner.round()
            }
            fn active(&self) -> &VertexBitset {
                self.active_calls.set(self.active_calls.get() + 1);
                self.inner.active()
            }
            fn num_active(&self) -> usize {
                self.inner.num_active()
            }
            fn newly_activated(&self) -> &[VertexId] {
                self.inner.newly_activated()
            }
            fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
                self.sweeps.set(self.sweeps.get() + 1);
                self.inner.for_each_active(f)
            }
            fn num_vertices(&self) -> usize {
                self.inner.num_vertices()
            }
            fn is_complete(&self) -> bool {
                self.inner.is_complete()
            }
            fn reset(&mut self) {
                self.inner.reset()
            }
        }

        let graph = {
            let mut gen_rng = rng(20);
            cobra_graph::generators::connected_random_regular(512, 4, &mut gen_rng).unwrap()
        };
        let inner =
            crate::cobra::CobraProcess::new(&graph, 0, crate::cobra::Branching::fixed(2).unwrap())
                .unwrap();
        let mut process = Instrumented { inner, active_calls: Cell::new(0), sweeps: Cell::new(0) };
        let mut counts = ActiveCountTrace::new();
        let mut visits = FirstVisitTimes::new();
        let mut coverage = CoverageTrace::new();
        let mut growth = GrowthRatios::new();
        let mut fractions = FractionTimes::new(&[0.5]).unwrap();
        let outcome = Runner::new(100_000).run_observed(
            &mut process,
            &mut rng(21),
            &mut [&mut counts, &mut visits, &mut coverage, &mut growth, &mut fractions],
        );
        assert!(outcome.completed());
        assert!(outcome.rounds > 0);
        assert_eq!(
            process.active_calls.get(),
            0,
            "no observer (or runner loop) may rescan the dense active set"
        );
        assert_eq!(
            process.sweeps.get(),
            2,
            "only FirstVisitTimes and CoverageTrace walk the O(|A_0|) initial set, once each"
        );
        // The delta-driven traces are still complete and correct.
        assert_eq!(counts.trace().len(), outcome.rounds + 1);
        assert!(visits.covered());
        assert_eq!(*coverage.trace().last().unwrap(), 512);
    }

    #[test]
    fn runner_drives_every_spec_kind() {
        let graph = generators::complete(16).unwrap();
        let runner = Runner::new(100_000);
        for spec in ProcessSpec::examples() {
            let outcome = runner.run_spec(&spec, &graph, &mut rng(11)).unwrap();
            assert!(outcome.completed(), "{spec} did not complete on K_16: {outcome:?}");
        }
    }
}
