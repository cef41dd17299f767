//! Deterministic, multi-threaded Monte-Carlo trial execution.
//!
//! Each trial receives its own RNG derived from `(master seed, label, trial index)` via
//! [`SeedSequence`], so the set of results is identical whether trials run sequentially or on
//! all cores — only their order of completion differs, and the runner re-collects them in
//! index order.
//!
//! Trials are split into contiguous index chunks (`trials.div_ceil(threads)` each,
//! `threads = min(cores, trials)`), which the caller and the vendored rayon's worker pool
//! claim one at a time. When the pool is already busy (this batch runs inside another
//! fan-out, or another thread owns the pool) the chunks run inline on the caller, in order.
//! [`run_trials_with`] gives every chunk one piece of state, built once and handed to each
//! trial of the chunk in turn: the Monte-Carlo drivers keep one process per chunk there and
//! reset it between trials. A trial's result must not depend on
//! what earlier trials left in the state, or the results would depend on the chunking.

use crate::rng::{SeedSequence, TrialRng};
use crate::summary::Summary;

/// Configuration for a batch of Monte-Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialConfig {
    /// Number of independent trials.
    pub trials: usize,
    /// Whether to run trials in parallel on the shared worker pool (`true` for experiments,
    /// `false` inside doctests or when deterministic scheduling aids debugging).
    pub parallel: bool,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig { trials: 100, parallel: true }
    }
}

impl TrialConfig {
    /// A sequential configuration with the given number of trials.
    pub fn sequential(trials: usize) -> Self {
        TrialConfig { trials, parallel: false }
    }

    /// A parallel configuration with the given number of trials.
    pub fn parallel(trials: usize) -> Self {
        TrialConfig { trials, parallel: true }
    }
}

/// Runs `config.trials` independent trials of `trial`, each with its own seeded RNG, and
/// returns the per-trial results in trial-index order.
///
/// The closure receives `(trial_index, rng)`.
pub fn run_trials<T, F>(seq: &SeedSequence, label: &str, config: TrialConfig, trial: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut TrialRng) -> T + Sync,
{
    run_trials_with(seq, label, config, || (), |(), index, rng| trial(index, rng))
}

/// [`run_trials`] with per-worker state: `init` runs once per contiguous index chunk, on
/// whichever thread claims the chunk (once in total for a sequential configuration, and not
/// at all for zero trials), and `trial(&mut state, trial_index, rng)` then runs every trial
/// of that chunk in ascending order. Seeding is the same as [`run_trials`], so the results
/// equal a fresh-state-per-trial loop whenever `trial` leaves nothing in `state` that changes
/// a later trial.
pub fn run_trials_with<S, T, I, F>(
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
    init: I,
    trial: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut TrialRng) -> T + Sync,
{
    let threads = if config.parallel { rayon::current_num_threads() } else { 1 };
    rayon::par_ranges(config.trials, threads, |chunk| {
        let mut state = init();
        chunk
            .map(|index| {
                let mut rng = seq.trial_rng(label, index as u64);
                trial(&mut state, index, &mut rng)
            })
            .collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Runs trials producing an `f64` measurement and aggregates them into a [`Summary`],
/// additionally returning the raw per-trial values (in trial order) for quantile analysis.
pub fn run_measured_trials<F>(
    seq: &SeedSequence,
    label: &str,
    config: TrialConfig,
    trial: F,
) -> (Summary, Vec<f64>)
where
    F: Fn(usize, &mut TrialRng) -> f64 + Sync,
{
    let values = run_trials(seq, label, config, trial);
    let summary: Summary = values.iter().copied().collect();
    (summary, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn parallel_and_sequential_runs_agree_exactly() {
        let seq = SeedSequence::new(77);
        let work = |i: usize, rng: &mut TrialRng| -> f64 { i as f64 + rng.gen_range(0.0..1.0) };
        let par = run_trials(&seq, "agree", TrialConfig::parallel(64), work);
        let ser = run_trials(&seq, "agree", TrialConfig::sequential(64), work);
        assert_eq!(par, ser);
    }

    #[test]
    fn results_are_in_trial_order() {
        let seq = SeedSequence::new(1);
        let results = run_trials(&seq, "order", TrialConfig::parallel(32), |i, _| i);
        assert_eq!(results, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn measured_trials_summary_matches_values() {
        let seq = SeedSequence::new(5);
        let (summary, values) =
            run_measured_trials(&seq, "measure", TrialConfig::sequential(50), |_, rng| {
                rng.gen_range(0.0..10.0)
            });
        assert_eq!(summary.count(), 50);
        assert_eq!(values.len(), 50);
        let expected: Summary = values.iter().copied().collect();
        assert!((summary.mean() - expected.mean()).abs() < 1e-12);
        assert!(values.iter().all(|&v| (0.0..10.0).contains(&v)));
    }

    #[test]
    fn zero_trials_is_fine() {
        let seq = SeedSequence::new(9);
        let results: Vec<u32> = run_trials(&seq, "none", TrialConfig::sequential(0), |_, _| 1u32);
        assert!(results.is_empty());
        let (summary, values) =
            run_measured_trials(&seq, "none", TrialConfig::parallel(0), |_, _| 1.0);
        assert_eq!(summary.count(), 0);
        assert!(values.is_empty());
    }

    #[test]
    fn state_is_built_once_per_worker_and_seeding_is_unchanged() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seq = SeedSequence::new(11);
        let draw = |i: usize, rng: &mut TrialRng| (i, rng.gen::<u64>());
        let expected: Vec<(usize, u64)> =
            (0..37).map(|i| draw(i, &mut seq.trial_rng("with", i as u64))).collect();
        for config in [TrialConfig::sequential(37), TrialConfig::parallel(37)] {
            let inits = AtomicUsize::new(0);
            let results = run_trials_with(
                &seq,
                "with",
                config,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i, rng| draw(i, rng),
            );
            assert_eq!(results, expected);
            let threads = if config.parallel { rayon::current_num_threads().min(37) } else { 1 };
            let workers = 37usize.div_ceil(37usize.div_ceil(threads));
            assert_eq!(inits.into_inner(), workers);
        }
        let none = AtomicUsize::new(0);
        let results: Vec<u8> = run_trials_with(
            &seq,
            "with",
            TrialConfig::parallel(0),
            || none.fetch_add(1, Ordering::Relaxed),
            |_, _, _| 0,
        );
        assert!(results.is_empty());
        assert_eq!(none.into_inner(), 0);
    }

    #[test]
    fn each_worker_sees_its_chunk_in_ascending_order() {
        let seq = SeedSequence::new(2);
        let results = run_trials_with(
            &seq,
            "chunks",
            TrialConfig::parallel(23),
            Vec::new,
            |seen: &mut Vec<usize>, i, _| {
                seen.push(i);
                seen.clone()
            },
        );
        for (i, seen) in results.iter().enumerate() {
            assert_eq!(seen.last(), Some(&i));
            assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "chunks are contiguous");
        }
    }

    #[test]
    fn different_labels_change_the_draws() {
        let seq = SeedSequence::new(3);
        let a = run_trials(&seq, "a", TrialConfig::sequential(8), |_, rng| rng.gen::<u64>());
        let b = run_trials(&seq, "b", TrialConfig::sequential(8), |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }
}
