//! Spec-driven Monte-Carlo measurement: the bridge between the process-as-value API
//! ([`ProcessSpec`] + [`Runner`]) and the deterministic parallel trial executor of
//! [`cobra_stats::parallel`].
//!
//! Experiments describe *what* to measure as data — a graph, a [`ProcessSpec`], a [`Runner`]
//! (budget + stop condition) — and this module runs the trials. Each trial worker builds one
//! process from the spec and resets it before every trial (stream mode rekeys it), and a reset
//! restores exactly the state of a fresh build, so trials stay independent and the parallel
//! execution stays bit-for-bit deterministic (each trial's RNG derives from
//! `(master seed, label, index)`). The build that validates the spec becomes one worker's
//! process, so a batch on `t` workers builds `t` processes. Churned specs re-instantiate the
//! graph, and with it the process, in every trial ([`run_adverse_trials`]).

use std::sync::Mutex;

use cobra_core::fault;
use cobra_core::parallel::{ParallelFrontier, ParallelProcess};
use cobra_core::sim::{RunOutcome, Runner};
use cobra_core::spec::ProcessSpec;
use cobra_graph::generators::GraphFamily;
use cobra_graph::sample::VertexStreams;
use cobra_graph::Graph;
use cobra_stats::parallel::{run_trials, run_trials_with, TrialConfig};
use cobra_stats::rng::{SeedSequence, TrialRng};
use cobra_stats::summary::Summary;

/// Runs `config.trials` independent runs of `spec` on `graph` and returns the raw outcomes
/// in trial order.
///
/// # Panics
///
/// Panics if the spec cannot be instantiated against `graph` (experiment configurations are
/// code, not user input — same policy as [`crate::instances::Instance::build`]).
pub fn run_spec_trials(
    graph: &Graph,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> Vec<RunOutcome> {
    try_run_spec_trials(graph, spec, runner, seq, label, config)
        .unwrap_or_else(|e| panic!("invalid process spec {spec} for {label}: {e}"))
}

/// [`run_spec_trials`] for callers whose specs are *user input*, not experiment code: a
/// spec that parses but fails [`ProcessSpec::build`] (bad start vertex, unsuitable graph,
/// clause combinations rejected at build time) comes back as a structured
/// [`CoreError`](cobra_core::CoreError) instead of a panic. The serving layer routes every
/// job through this, so one bad request can never kill a worker thread.
///
/// # Errors
///
/// Propagates the [`ProcessSpec::build`] validation error, before any trial runs (also for
/// zero trials).
pub fn try_run_spec_trials(
    graph: &Graph,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> cobra_core::Result<Vec<RunOutcome>> {
    run_reused(
        || spec.build(graph),
        seq,
        label,
        config,
        |process, rng| {
            process.reset();
            runner.run(process.as_mut(), rng)
        },
    )
}

/// [`run_spec_trials`] on the sharded stream engine: every trial runs a stream-mode process
/// whose per-vertex stream key is drawn from the trial RNG exactly as
/// [`ProcessSpec::build_parallel`] draws it, and every round steps the same round body as
/// the sequential engine with a per-entity stream draw source, cut into `threads` shards.
/// The shards run on the shared worker pool when this batch is sequential; a parallel batch
/// spends the pool on trials, and each trial runs its shards inline. Each trial chunk
/// builds one [`ParallelProcess`] and [`rekey`](ParallelProcess::rekey)s it before every
/// trial, so the outcomes equal a fresh `build_parallel` per trial.
///
/// The contract (equivalence v2) is that `threads` is *not observable*: trajectories are
/// bit-identical for any `threads >= 1`, because vertex streams are keyed by
/// `(entity, round)` and shard results merge in ascending-sender order. Churned specs are
/// rejected (churn re-instantiates the graph mid-run, which a process built on one fixed
/// graph cannot do).
///
/// # Panics
///
/// Panics if the spec cannot be instantiated in stream mode (invalid spec, churn clause, or
/// `threads == 0`) — same code-not-user-input policy as [`run_spec_trials`].
pub fn run_parallel_spec_trials(
    graph: &Graph,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
    threads: usize,
) -> Vec<RunOutcome> {
    try_run_parallel_spec_trials(graph, spec, runner, seq, label, config, threads)
        .unwrap_or_else(|e| panic!("invalid stream-mode spec {spec} for {label}: {e}"))
}

/// [`run_parallel_spec_trials`] with the build error returned instead of raised, mirroring
/// [`try_run_spec_trials`].
///
/// # Errors
///
/// Propagates the [`ProcessSpec::build_parallel`] validation error, before any trial runs
/// (also for zero trials).
pub fn try_run_parallel_spec_trials(
    graph: &Graph,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
    threads: usize,
) -> cobra_core::Result<Vec<RunOutcome>> {
    let build = || -> cobra_core::Result<ParallelProcess<'_>> {
        let inner = spec.build(graph)?;
        // A placeholder key: every trial rekeys the process before its first step.
        let engine = ParallelFrontier::new(VertexStreams::new([0; 32]), threads)?;
        Ok(ParallelProcess::new(inner, engine))
    };
    run_reused(build, seq, label, config, |process, rng| {
        process.rekey(rng);
        runner.run(process, rng)
    })
}

/// Runs the trials on one process per trial chunk, and `trial` readies and runs a chunk's
/// process for each of its trials. The first `build` validates the spec before any trial
/// runs and becomes the process of the first chunk to start; every other chunk builds its
/// own once. `build` is deterministic for a fixed graph, so it cannot fail after the first
/// call.
fn run_reused<P: Send>(
    build: impl Fn() -> cobra_core::Result<P> + Sync,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
    trial: impl Fn(&mut P, &mut TrialRng) -> RunOutcome + Sync,
) -> cobra_core::Result<Vec<RunOutcome>> {
    let first = Mutex::new(Some(build()?));
    let init = || {
        let taken = first.lock().expect("no worker panics while holding the lock").take();
        taken.unwrap_or_else(|| build().expect("spec validated by the first build"))
    };
    Ok(run_trials_with(seq, label, config, init, |process, _, rng| trial(process, rng)))
}

/// Runs trials of `spec` and aggregates the completion rounds into a [`Summary`], returning
/// the raw per-trial values too (`NaN` for trials that exhausted the budget, mirroring the
/// historical per-experiment loops).
///
/// # Panics
///
/// Same policy as [`run_spec_trials`].
pub fn measure_completion_rounds(
    graph: &Graph,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> (Summary, Vec<f64>) {
    let outcomes = run_spec_trials(graph, spec, runner, seq, label, config);
    summarize_completions(&outcomes)
}

/// Runs `config.trials` independent *adverse* runs of `spec`: every trial instantiates a
/// fresh member of `family` from its trial RNG and, when the spec carries a `churn=T`
/// clause, re-instantiates the graph every `T` rounds mid-run
/// (see [`cobra_core::fault::run_churned`]). All fault clauses route through here
/// unchanged — bursty `gedrop=` channels and transient `crash=…+repair=…` dynamics live
/// inside the `FaultedProcess` each trial builds. This is the driver for fault sweeps whose
/// adversity includes the network itself; for a fixed shared instance use
/// [`run_spec_trials`].
///
/// # Panics
///
/// Panics if the spec or family is invalid (experiment configurations are code, not user
/// input — same policy as [`run_spec_trials`]).
pub fn run_adverse_trials(
    family: &GraphFamily,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> Vec<RunOutcome> {
    try_run_adverse_trials(family, spec, runner, seq, label, config)
        .unwrap_or_else(|e| panic!("invalid adverse run {spec} on {family} for {label}: {e}"))
}

/// [`run_adverse_trials`] with build/instantiation failures surfaced as a structured
/// [`CoreError`](cobra_core::CoreError) — the user-input-tolerant twin, mirroring
/// [`try_run_spec_trials`]. Trials that *did* run before the error are discarded; the
/// failure is deterministic (same spec, family and seeds ⇒ same error), so callers can
/// report it as the job's single outcome.
///
/// # Errors
///
/// Propagates the first per-trial [`fault::run_churned`] error (invalid spec, family that
/// cannot instantiate, unsuitable instance).
pub fn try_run_adverse_trials(
    family: &GraphFamily,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> cobra_core::Result<Vec<RunOutcome>> {
    run_trials(seq, label, config, |_, rng| fault::run_churned(spec, family, runner, rng))
        .into_iter()
        .collect()
}

/// [`run_adverse_trials`] with the completion rounds aggregated like
/// [`measure_completion_rounds`].
///
/// # Panics
///
/// Same policy as [`run_adverse_trials`].
pub fn measure_adverse_completion_rounds(
    family: &GraphFamily,
    spec: &ProcessSpec,
    runner: &Runner,
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
) -> (Summary, Vec<f64>) {
    let outcomes = run_adverse_trials(family, spec, runner, seq, label, config);
    summarize_completions(&outcomes)
}

/// `NaN` for budget-exhausted trials; the summary aggregates the completed ones.
fn summarize_completions(outcomes: &[RunOutcome]) -> (Summary, Vec<f64>) {
    let values: Vec<f64> = outcomes
        .iter()
        .map(|outcome| outcome.completion_rounds().map_or(f64::NAN, |rounds| rounds as f64))
        .collect();
    let summary: Summary = values.iter().copied().filter(|v| v.is_finite()).collect();
    (summary, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::sim::StopReason;
    use cobra_core::CoreError;
    use cobra_graph::generators;

    #[test]
    fn outcomes_arrive_in_trial_order_and_complete() {
        let graph = generators::complete(32).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let runner = Runner::new(10_000);
        let seq = SeedSequence::new(5);
        let outcomes =
            run_spec_trials(&graph, &spec, &runner, &seq, "unit", TrialConfig::parallel(16));
        assert_eq!(outcomes.len(), 16);
        assert!(outcomes.iter().all(|o| o.reason == StopReason::Completed));
        // Determinism: the parallel and sequential executions agree exactly.
        let sequential =
            run_spec_trials(&graph, &spec, &runner, &seq, "unit", TrialConfig::sequential(16));
        assert_eq!(outcomes, sequential);
    }

    #[test]
    fn parallel_spec_trials_are_thread_count_invariant() {
        let graph = generators::complete(32).unwrap();
        let runner = Runner::new(10_000);
        let seq = SeedSequence::new(5);
        for spec in ProcessSpec::examples() {
            let run = |config, threads| {
                run_parallel_spec_trials(&graph, &spec, &runner, &seq, "unit", config, threads)
            };
            let base = run(TrialConfig::sequential(8), 1);
            assert_eq!(base.len(), 8);
            if spec == ProcessSpec::cobra(2).unwrap() {
                assert!(base.iter().all(|o| o.reason == StopReason::Completed));
            }
            for threads in [1, 2, 4] {
                // Trials on the pool with inline shards, then inline trials with pooled shards.
                let parallel = run(TrialConfig::parallel(8), threads);
                assert_eq!(parallel, base, "{spec}: parallel batch at {threads} threads");
                let sequential = run(TrialConfig::sequential(8), threads);
                assert_eq!(sequential, base, "{spec}: sequential batch at {threads} threads");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid stream-mode spec")]
    fn parallel_spec_trials_reject_churned_specs_loudly() {
        let graph = generators::complete(16).unwrap();
        let spec: ProcessSpec = "cobra:k=2+churn=8".parse().unwrap();
        let _ = run_parallel_spec_trials(
            &graph,
            &spec,
            &Runner::new(10),
            &SeedSequence::new(1),
            "churny",
            TrialConfig::sequential(1),
            2,
        );
    }

    #[test]
    fn summaries_ignore_budget_exhausted_trials() {
        let graph = generators::cycle(64).unwrap();
        let spec = ProcessSpec::random_walk();
        // A single walk cannot cover a 64-cycle in 5 rounds: every trial exhausts.
        let runner = Runner::new(5);
        let seq = SeedSequence::new(6);
        let (summary, values) = measure_completion_rounds(
            &graph,
            &spec,
            &runner,
            &seq,
            "exhaust",
            TrialConfig::sequential(4),
        );
        assert_eq!(summary.count(), 0);
        assert_eq!(values.len(), 4);
        assert!(values.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn adverse_trials_run_churned_specs_deterministically() {
        use cobra_graph::generators::GraphFamily;
        let family = GraphFamily::RandomRegular { n: 48, r: 4 };
        let spec: ProcessSpec = "cobra:k=2+drop=0.1+churn=16".parse().unwrap();
        let runner = Runner::new(100_000);
        let seq = SeedSequence::new(12);
        let outcomes =
            run_adverse_trials(&family, &spec, &runner, &seq, "churn", TrialConfig::parallel(8));
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|o| o.reason == StopReason::Completed));
        let sequential =
            run_adverse_trials(&family, &spec, &runner, &seq, "churn", TrialConfig::sequential(8));
        assert_eq!(outcomes, sequential);
        let (summary, values) = measure_adverse_completion_rounds(
            &family,
            &spec,
            &runner,
            &seq,
            "churn",
            TrialConfig::sequential(8),
        );
        assert_eq!(summary.count(), 8);
        assert_eq!(values.len(), 8);
    }

    #[test]
    fn adverse_trials_carry_bursty_and_transient_clauses() {
        use cobra_graph::generators::GraphFamily;
        let family = GraphFamily::RandomRegular { n: 48, r: 4 };
        let spec: ProcessSpec =
            "cobra:k=2+gedrop=0.1,0.25,0.4+crash=10%+repair=0.2+churn=16".parse().unwrap();
        let runner = Runner::new(100_000);
        let seq = SeedSequence::new(21);
        let outcomes =
            run_adverse_trials(&family, &spec, &runner, &seq, "bursty", TrialConfig::parallel(6));
        assert_eq!(outcomes.len(), 6);
        let sequential =
            run_adverse_trials(&family, &spec, &runner, &seq, "bursty", TrialConfig::sequential(6));
        assert_eq!(outcomes, sequential, "adverse v2 trials stay deterministic");
    }

    #[test]
    fn try_variants_return_structured_errors_instead_of_panicking() {
        let graph = generators::complete(16).unwrap();
        let runner = Runner::new(10);
        let seq = SeedSequence::new(3);
        // A start vertex past the instance: VertexOutOfRange, not a worker-killing panic.
        let spec = ProcessSpec::cobra(2).unwrap().with_start(99);
        let error =
            try_run_spec_trials(&graph, &spec, &runner, &seq, "bad", TrialConfig::sequential(2))
                .unwrap_err();
        assert!(matches!(error, CoreError::VertexOutOfRange { vertex: 99, .. }), "{error}");
        // A plan rejected at build time (more crashes than the instance has vertices).
        let spec: ProcessSpec = "cobra:k=2+crash=40".parse().unwrap();
        let error =
            try_run_spec_trials(&graph, &spec, &runner, &seq, "bad", TrialConfig::sequential(2))
                .unwrap_err();
        assert!(matches!(error, CoreError::InvalidParameters { .. }), "{error}");
        // The adverse path surfaces the same class of error through churned runs.
        let family = GraphFamily::RandomRegular { n: 32, r: 4 };
        let churned: ProcessSpec = "cobra:k=2+churn=8".parse().unwrap();
        let churned = churned.with_start(99);
        let error = try_run_adverse_trials(
            &family,
            &churned,
            &runner,
            &seq,
            "bad",
            TrialConfig::sequential(2),
        )
        .unwrap_err();
        assert!(matches!(error, CoreError::VertexOutOfRange { vertex: 99, .. }), "{error}");
        // And the happy paths agree with the panicking wrappers.
        let spec = ProcessSpec::cobra(2).unwrap();
        let ok =
            try_run_spec_trials(&graph, &spec, &runner, &seq, "ok", TrialConfig::sequential(3))
                .unwrap();
        assert_eq!(
            ok,
            run_spec_trials(&graph, &spec, &runner, &seq, "ok", TrialConfig::sequential(3))
        );
    }

    #[test]
    fn reused_processes_match_a_fresh_build_per_trial() {
        let seq = SeedSequence::new(16);
        let family = GraphFamily::RandomRegular { n: 64, r: 4 };
        let graph = family.instantiate(&mut seq.trial_rng("graph", 0)).unwrap();
        // A budget the walks exhaust and COBRA beats, so reuse follows both kinds of stop.
        let runner = Runner::new(40);
        for spec in ProcessSpec::examples() {
            let label = spec.to_string();
            let fresh: Vec<RunOutcome> = (0..16)
                .map(|i| {
                    let mut rng = seq.trial_rng(&label, i);
                    runner.run(spec.build(&graph).unwrap().as_mut(), &mut rng)
                })
                .collect();
            for config in [TrialConfig::parallel(16), TrialConfig::sequential(16)] {
                let reused = run_spec_trials(&graph, &spec, &runner, &seq, &label, config);
                assert_eq!(reused, fresh, "{spec} at {config:?}");
            }
            let fresh_streams: Vec<RunOutcome> = (0..16)
                .map(|i| {
                    let mut rng = seq.trial_rng(&label, i);
                    let mut process = spec.build_parallel(&graph, 2, &mut rng).unwrap();
                    runner.run(process.as_mut(), &mut rng)
                })
                .collect();
            for threads in [1, 3] {
                let config = TrialConfig::parallel(16);
                let reused =
                    run_parallel_spec_trials(&graph, &spec, &runner, &seq, &label, config, threads);
                assert_eq!(reused, fresh_streams, "{spec} in stream mode at {threads} threads");
            }
        }
    }

    #[test]
    fn build_errors_come_back_before_any_trial_runs() {
        let graph = generators::complete(16).unwrap();
        let runner = Runner::new(10);
        let seq = SeedSequence::new(3);
        let bad_start = ProcessSpec::cobra(2).unwrap().with_start(99);
        let too_many_crashes: ProcessSpec = "cobra:k=2+crash=40".parse().unwrap();
        for trials in [0, 2] {
            for config in [TrialConfig::sequential(trials), TrialConfig::parallel(trials)] {
                let error = try_run_spec_trials(&graph, &bad_start, &runner, &seq, "bad", config)
                    .unwrap_err();
                assert_eq!(error.to_string(), "vertex 99 out of range for graph with 16 vertices");
                let error =
                    try_run_spec_trials(&graph, &too_many_crashes, &runner, &seq, "bad", config)
                        .unwrap_err();
                assert_eq!(
                    error.to_string(),
                    "invalid process parameters: crash=40 exceeds the 15 crashable vertices (graph has \
                     16, the start vertex never crashes)"
                );
                let error = try_run_parallel_spec_trials(
                    &graph, &bad_start, &runner, &seq, "bad", config, 2,
                )
                .unwrap_err();
                assert!(matches!(error, CoreError::VertexOutOfRange { vertex: 99, .. }));
                let spec = ProcessSpec::cobra(2).unwrap();
                let error =
                    try_run_parallel_spec_trials(&graph, &spec, &runner, &seq, "bad", config, 0)
                        .unwrap_err();
                assert!(matches!(error, CoreError::InvalidParameters { .. }), "{error}");
            }
        }
    }

    /// Every round's newly activated vertices and active count, of one stream-mode trial of
    /// `spec` at `threads` threads, driven to completion or 40 rounds.
    fn stream_trace(graph: &Graph, spec: &ProcessSpec, threads: usize) -> Vec<(Vec<usize>, usize)> {
        let mut rng = SeedSequence::new(17).trial_rng(&spec.to_string(), 0);
        let mut process = spec.build_parallel(graph, threads, &mut rng).unwrap();
        let mut trace = Vec::new();
        while !process.is_complete() && trace.len() < 40 {
            process.step(&mut rng);
            trace.push((process.newly_activated().to_vec(), process.num_active()));
        }
        trace
    }

    /// Runs `f` while another thread owns the shard pool, so every fan-out inside `f` runs
    /// inline. The holder runs two trials that wait for `f` to finish; both running at once
    /// proves the holder got the pool (a holder that ran inline, because some other test had
    /// the pool, is retried).
    fn while_another_thread_holds_the_pool<T>(f: impl Fn() -> T) -> T {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        for _ in 0..200 {
            let (running, released) = (AtomicUsize::new(0), AtomicBool::new(false));
            let outcome = std::thread::scope(|scope| {
                scope.spawn(|| {
                    run_trials(&SeedSequence::new(0), "hold", TrialConfig::parallel(2), |_, _| {
                        running.fetch_add(1, Ordering::SeqCst);
                        while !released.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    })
                });
                let deadline = Instant::now() + Duration::from_millis(200);
                while running.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let outcome = (running.load(Ordering::SeqCst) == 2).then(&f);
                released.store(true, Ordering::SeqCst);
                outcome
            });
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
        panic!("the holder never got the pool");
    }

    #[test]
    fn stream_trials_are_identical_on_every_scheduling_path() {
        let seq = SeedSequence::new(16);
        let graph = GraphFamily::RandomRegular { n: 64, r: 4 }
            .instantiate(&mut seq.trial_rng("graph", 0))
            .unwrap();
        let multi_core = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        for spec in ProcessSpec::examples() {
            let reference = stream_trace(&graph, &spec, 1);
            assert!(!reference.is_empty(), "{spec} must step");
            // Alone: the shards fan out on the pool.
            assert_eq!(stream_trace(&graph, &spec, 4), reference, "{spec} alone");
            // Nested: each trial worker of a parallel batch runs its shards inline.
            let nested = run_trials(&seq, "nested", TrialConfig::parallel(4), |_, _| {
                stream_trace(&graph, &spec, 4)
            });
            assert!(nested.iter().all(|trace| *trace == reference), "{spec} nested");
            // Held: another thread owns the pool, so the shards run inline on this one.
            if multi_core {
                let held = while_another_thread_holds_the_pool(|| stream_trace(&graph, &spec, 4));
                assert_eq!(held, reference, "{spec} while the pool is held");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid process spec")]
    fn invalid_specs_panic_loudly() {
        let graph = generators::complete(4).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap().with_start(99);
        let _ = run_spec_trials(
            &graph,
            &spec,
            &Runner::new(10),
            &SeedSequence::new(1),
            "bad",
            TrialConfig::sequential(1),
        );
    }
}
