//! The sharded parallel frontier engine — determinism v2.
//!
//! The sequential engines define determinism by a single global draw order: vertex `u`'s
//! pushes consume whatever words happen to come next on the shared trial stream, so any
//! change of iteration schedule changes every trajectory. That definition makes frontier
//! iteration inherently serial — the RNG stream *is* a serialization point — and it is why
//! post-saturation rounds (where |A_t| ≈ n and a round is pure sampling) gained only ~1.1×
//! from the sparse-frontier engine.
//!
//! Stream mode replaces it with **per-vertex determinism**: a trial owns one 32-byte key
//! ([`VertexStreams`]), and every entity draws from the counter-based ChaCha8 stream keyed
//! by `(key, entity, round)` ([`rand_chacha::ChaCha8Stream::stream_for`]). Draws no longer
//! have a global order at all — only per-entity orders, which are fixed by construction —
//! so frontier iteration can be sharded across threads and the trajectory is *bit-identical
//! for every thread count*, `--threads 1` included.
//!
//! A shard may open its streams one at a time ([`VertexStreams::stream`]) or four per
//! block-kernel call ([`VertexStreams::for_each_stream`]); the kernel changes how many
//! blocks one call computes, not the word order or counter layout, so both give the same
//! words.
//!
//! # Entity-id contract
//!
//! | entity id            | owner                                                        |
//! |----------------------|--------------------------------------------------------------|
//! | `0..n`               | vertex `v` (COBRA, BIPS, PUSH, PUSH–PULL, contact); the walk |
//! |                      | keys by its *current position*                               |
//! | `0..w`               | walker index (multiple walks)                                |
//! | [`FAULT_ENTITY`]     | [`FaultedProcess`](crate::FaultedProcess): plan dynamics and |
//! |                      | the per-edge channel bank                                    |
//! | [`ADVERSARY_ENTITY`] | [`FaultedProcess`](crate::FaultedProcess): adversary         |
//! |                      | `observe`                                                    |
//! | [`DEFENSE_ENTITY`]   | [`FaultedProcess`](crate::FaultedProcess): defense `observe` |
//!
//! The reserved ids sit at the top of the `u64` space, unreachable by any vertex or walker
//! count, so the environment's dynamics (crash sampling, Gilbert–Elliott sojourns, policy
//! tie-breaking) stay deterministic and schedule-independent too. Each layer of the one
//! environment wrapper keeps its own id, so adding or removing an adversary or a defense
//! never shifts the draws of the plan dynamics.
//!
//! # Equivalence contract (v2)
//!
//! * **Thread-count invariance (exact):** a stream-mode trajectory is bit-identical across
//!   `threads = 1, 2, 4, 8, …` — enforced by proptests for all seven processes.
//! * **Distribution equivalence (statistical):** stream mode is *not* bit-identical to the
//!   sequential engine (the draws come from different streams by design), but cover-time
//!   distributions match — enforced by matched-quantile tests under common random numbers
//!   at the trial level.

use cobra_graph::sample::VertexStreams;
use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;
use rand_chacha::ChaCha8Stream;

use crate::fault::StepFaults;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Reserved entity id for the plan dynamics of a [`FaultedProcess`](crate::FaultedProcess)
/// (crash resolution, repair/re-crash sweeps, Gilbert–Elliott channel advances, then the
/// per-edge channel bank).
pub const FAULT_ENTITY: u64 = u64::MAX;

/// Reserved entity id for the adversary policy's observation draws inside a
/// [`FaultedProcess`](crate::FaultedProcess).
pub const ADVERSARY_ENTITY: u64 = u64::MAX - 1;

/// Reserved entity id for the defense policy's observation draws inside a
/// [`FaultedProcess`](crate::FaultedProcess).
pub const DEFENSE_ENTITY: u64 = u64::MAX - 2;

/// The per-trial stream engine handed to [`SpreadingProcess::step_streams`]: the trial's
/// [`VertexStreams`] key plus the worker-thread count for sharded frontier iteration.
#[derive(Debug, Clone)]
pub struct ParallelFrontier {
    streams: VertexStreams,
    threads: usize,
}

impl ParallelFrontier {
    /// Builds an engine from an explicit stream key.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `threads == 0`.
    pub fn new(streams: VertexStreams, threads: usize) -> Result<Self> {
        if threads == 0 {
            return Err(CoreError::InvalidParameters {
                reason: "the parallel frontier engine needs at least one thread".to_string(),
            });
        }
        Ok(ParallelFrontier { streams, threads })
    }

    /// Draws the trial key from `rng` (the per-trial RNG), so the engine is a pure function
    /// of the trial seed and the existing `(master, label, index)` seeding path carries
    /// over unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `threads == 0`.
    // cobra-lint: draws(bounded)
    pub fn from_rng(rng: &mut dyn RngCore, threads: usize) -> Result<Self> {
        Self::new(VertexStreams::from_rng(rng), threads)
    }

    /// The per-entity stream table.
    pub fn streams(&self) -> &VertexStreams {
        &self.streams
    }

    /// The worker-thread count shard fan-outs use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The independent ChaCha8 stream of `entity` at `round` — shorthand for
    /// `self.streams().stream(entity, round)`.
    #[inline]
    pub fn stream(&self, entity: u64, round: u64) -> ChaCha8Stream {
        self.streams.stream(entity, round)
    }

    /// Shards `items` across the engine's threads, collecting each shard's result in shard
    /// order: `op(shard_base, shard_items)` runs on scoped threads via the vendored rayon.
    /// Shards are contiguous, so concatenating the results preserves item order — the
    /// property every `step_streams` merge relies on for thread-count invariance.
    pub fn fan_out<T, R, F>(&self, items: &[T], op: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        rayon::par_chunks(items, self.threads, op)
    }

    /// Range analogue of [`fan_out`](Self::fan_out) for the Θ(n)-scan processes (BIPS,
    /// PUSH–PULL): shards `0..len` into contiguous sub-ranges.
    pub fn fan_out_ranges<R, F>(&self, len: usize, op: F) -> Vec<R>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
    {
        rayon::par_ranges(len, self.threads, op)
    }
}

/// Wraps a stream-capable process so the ordinary [`SpreadingProcess`] driving loop — the
/// `Runner`, observers, the Monte-Carlo driver, `repro` — runs it in stream mode without
/// any changes: [`step_faulted`](SpreadingProcess::step_faulted) ignores the caller's RNG
/// (all randomness comes from the per-entity streams) and forwards to
/// [`step_streams`](SpreadingProcess::step_streams) with the held engine.
///
/// Construction refuses processes (or wrapper stacks) that do not support stream mode, so
/// a `ParallelProcess` can never silently fall back to sequential draw order.
pub struct ParallelProcess<'g> {
    inner: Box<dyn SpreadingProcess + Send + 'g>,
    engine: ParallelFrontier,
}

impl std::fmt::Debug for ParallelProcess<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelProcess").field("engine", &self.engine).finish_non_exhaustive()
    }
}

impl<'g> ParallelProcess<'g> {
    /// Wraps `inner` under `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `inner` (or any layer of its wrapper
    /// stack) does not implement [`SpreadingProcess::step_streams`].
    pub fn new(
        inner: Box<dyn SpreadingProcess + Send + 'g>,
        engine: ParallelFrontier,
    ) -> Result<Self> {
        if !inner.supports_streams() {
            return Err(CoreError::InvalidParameters {
                reason: "process does not support per-vertex stream stepping; the parallel \
                         engine cannot drive it"
                    .to_string(),
            });
        }
        Ok(ParallelProcess { inner, engine })
    }

    /// Convenience constructor drawing the stream key from the trial RNG.
    ///
    /// # Errors
    ///
    /// As [`ParallelProcess::new`], plus `threads == 0` rejection.
    // cobra-lint: draws(bounded)
    pub fn from_rng(
        inner: Box<dyn SpreadingProcess + Send + 'g>,
        threads: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Self> {
        Self::new(inner, ParallelFrontier::from_rng(rng, threads)?)
    }

    /// The held engine.
    pub fn engine(&self) -> &ParallelFrontier {
        &self.engine
    }

    /// The wrapped process.
    pub fn inner(&self) -> &dyn SpreadingProcess {
        self.inner.as_ref()
    }
}

impl SpreadingProcess for ParallelProcess<'_> {
    // The caller's RNG is deliberately untouched: stream mode draws only from the
    // per-entity streams, which is exactly what makes the trajectory thread-invariant.
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn step_faulted(&mut self, rng: &mut dyn RngCore, faults: &StepFaults<'_>) {
        let _ = rng;
        self.inner
            .step_streams(&self.engine, faults)
            .expect("stream support was verified at construction");
    }

    // cobra-lint: par
    fn step_streams(&mut self, engine: &ParallelFrontier, faults: &StepFaults<'_>) -> Result<()> {
        self.inner.step_streams(engine, faults)
    }

    fn supports_streams(&self) -> bool {
        true
    }

    fn round(&self) -> usize {
        self.inner.round()
    }

    fn active(&self) -> &VertexBitset {
        self.inner.active()
    }

    fn num_active(&self) -> usize {
        self.inner.num_active()
    }

    fn newly_activated(&self) -> &[VertexId] {
        self.inner.newly_activated()
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_active(f);
    }

    fn for_each_token(&self, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_token(f);
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn coverage(&self) -> Option<&VertexBitset> {
        self.inner.coverage()
    }

    fn adopt_state(&mut self, active: &[VertexId], coverage: Option<&VertexBitset>) -> Result<()> {
        self.inner.adopt_state(active, coverage)
    }

    fn set_branching_boost(&mut self, multiplier: u32) -> f64 {
        self.inner.set_branching_boost(multiplier)
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        self.inner.reseed(vertices)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Builds the stream-mode process for `spec` on `graph`: the process from
/// [`ProcessSpec::build`](crate::spec::ProcessSpec::build) (inside its environment wrapper,
/// whose fault, adversary and defense layers each draw from a reserved entity stream)
/// inside a [`ParallelProcess`] whose trial key comes from `rng`.
///
/// # Errors
///
/// Propagates spec build failures, rejects `threads == 0`, and rejects specs whose stack
/// does not support stream mode (none today — all seven processes and the environment
/// wrapper implement it; the error path guards future processes).
// cobra-lint: draws(bounded)
pub fn build_parallel<'g>(
    spec: &crate::spec::ProcessSpec,
    graph: &'g Graph,
    threads: usize,
    rng: &mut dyn RngCore,
) -> Result<ParallelProcess<'g>> {
    let inner = spec.build(graph)?;
    ParallelProcess::from_rng(inner, threads, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cobra::{Branching, CobraProcess};
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn engine_validates_thread_count() {
        assert!(ParallelFrontier::new(VertexStreams::new([0u8; 32]), 0).is_err());
        assert!(ParallelFrontier::new(VertexStreams::new([0u8; 32]), 3).is_ok());
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert!(ParallelFrontier::from_rng(&mut rng, 0).is_err());
    }

    #[test]
    fn engine_key_is_deterministic_in_the_trial_rng() {
        let key = |threads| {
            let mut rng = ChaCha12Rng::seed_from_u64(9);
            *ParallelFrontier::from_rng(&mut rng, threads).unwrap().streams().key()
        };
        assert_eq!(key(1), key(8), "the key must not depend on the thread count");
    }

    #[test]
    fn wrapper_refuses_stream_incapable_processes() {
        // OffsetRounds-style fakes don't implement step_streams; emulate with a minimal stub.
        struct NoStreams(VertexBitset);
        impl SpreadingProcess for NoStreams {
            fn step_faulted(&mut self, _: &mut dyn RngCore, _: &StepFaults<'_>) {}
            fn round(&self) -> usize {
                0
            }
            fn active(&self) -> &VertexBitset {
                &self.0
            }
            fn num_active(&self) -> usize {
                0
            }
            fn newly_activated(&self) -> &[VertexId] {
                &[]
            }
            fn is_complete(&self) -> bool {
                false
            }
            fn reset(&mut self) {}
        }
        let stub: Box<dyn SpreadingProcess + Send> = Box::new(NoStreams(VertexBitset::new(4)));
        let engine = ParallelFrontier::new(VertexStreams::new([0u8; 32]), 2).unwrap();
        assert!(ParallelProcess::new(stub, engine).is_err());
    }

    #[test]
    fn parallel_cobra_runs_to_completion_and_ignores_the_caller_rng() {
        let g = generators::connected_random_regular(128, 4, &mut ChaCha12Rng::seed_from_u64(3))
            .unwrap();
        let run = |caller_seed: u64| {
            let cobra = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
            let engine = ParallelFrontier::new(VertexStreams::new([11u8; 32]), 2).unwrap();
            let mut p = ParallelProcess::new(Box::new(cobra), engine).unwrap();
            let mut rng = ChaCha12Rng::seed_from_u64(caller_seed);
            run_until_complete(&mut p, &mut rng, 100_000).unwrap()
        };
        // Different caller RNGs, identical trajectories: the stream key decides everything.
        assert_eq!(run(1), run(2));
    }
}
