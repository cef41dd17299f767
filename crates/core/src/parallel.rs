//! The sharded parallel frontier engine — determinism v2.
//!
//! The sequential engine defines determinism by a single global draw order: vertex `u`'s
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
//! Both engines run the same round body. [`SpreadingProcess::step_faulted`] takes a
//! [`Draws`] source, and every process writes one per-entity kernel that it iterates in
//! one of two ways: over the whole frontier from the trial RNG, merging inline
//! ([`Draws::Trial`]), or shard by shard from per-entity streams into the buffers of
//! [`ParallelFrontier::shard_buffers`], merged in shard order ([`Draws::Streams`]).
//! [`ParallelProcess`] drives any process — every process and the environment wrapper
//! support both — in stream mode.
//!
//! The kernels are generic over a *sized* RNG: the sequential arm passes `&mut rng` (a
//! `&mut dyn RngCore` handle), the stream arm the entity's concrete stream. The fault hooks
//! keep their `&mut dyn RngCore` parameter, so in stream mode it is an unsizing coercion
//! from the concrete stream type that the compiler devirtualizes and inlines.
//!
//! Every process but the single walk opens its shard's streams eight per block-kernel
//! call ([`VertexStreams::for_each_stream`]); the single walk and the environment's
//! reserved entities open theirs one at a time ([`VertexStreams::stream`]). The kernel
//! changes how many blocks one call computes, not the word order or counter layout, so
//! both give the same words.
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

use std::ops::Range;

use cobra_graph::sample::VertexStreams;
use cobra_graph::{VertexBitset, VertexId};
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

/// Where one round's randomness comes from: the input of
/// [`SpreadingProcess::step_faulted`].
pub enum Draws<'a> {
    /// Sequential mode (determinism v1): every draw comes from the trial RNG, in one global
    /// order fixed by ascending frontier iteration.
    Trial(&'a mut dyn RngCore),
    /// Stream mode (determinism v2): every entity draws from its own `(entity, round)`
    /// stream, and frontier iteration may be sharded across the engine's threads.
    Streams(&'a ParallelFrontier),
}

impl std::fmt::Debug for Draws<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Draws::Trial(_) => f.write_str("Trial"),
            Draws::Streams(engine) => f.debug_tuple("Streams").field(engine).finish(),
        }
    }
}

impl Draws<'_> {
    /// Runs `f` on the RNG that `entity` draws from at `round`: the trial RNG in sequential
    /// mode, the entity's own stream in stream mode.
    // cobra-lint: draws(bounded)
    pub(crate) fn with<R>(
        &mut self,
        entity: u64,
        round: u64,
        f: impl FnOnce(&mut dyn RngCore) -> R,
    ) -> R {
        match self {
            Draws::Trial(rng) => f(&mut **rng),
            Draws::Streams(engine) => f(&mut engine.stream(entity, round)),
        }
    }
}

/// The per-trial stream engine behind [`Draws::Streams`]: the trial's [`VertexStreams`] key
/// plus the worker-thread count for sharded frontier iteration.
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

    /// The independent ChaCha8 stream of `entity` at `round` — shorthand for
    /// `self.streams().stream(entity, round)`.
    #[inline]
    pub fn stream(&self, entity: u64, round: u64) -> ChaCha8Stream {
        self.streams.stream(entity, round)
    }

    /// Shards `items` across the engine's threads, collecting each shard's result in shard
    /// order: `op(shard_base, shard_items)` runs on the vendored rayon's persistent worker
    /// pool, or inline on the caller when the pool is busy (a trial-level fan-out already
    /// owns it). Shards are contiguous, so concatenating the results preserves item order.
    pub fn fan_out<T, R, F>(&self, items: &[T], op: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        rayon::par_chunks(items, self.threads, op)
    }

    /// Shards the index range `0..len` into contiguous sub-ranges across the engine's
    /// threads and runs `op(range, buffer)` on each with a fresh output buffer, returning
    /// the buffers in shard order. This is where every stream-mode round gets its per-shard
    /// scratch: a process's kernel writes into `buffer`, and the process merges the
    /// concatenated buffers in order — the property that makes its trajectory
    /// thread-count invariant. Frontier processes index their frontier with `range`.
    pub fn shard_buffers<U, F>(&self, len: usize, op: F) -> Vec<Vec<U>>
    where
        U: Send,
        F: Fn(Range<usize>, &mut Vec<U>) + Sync,
    {
        rayon::par_ranges(len, self.threads, |range| {
            let mut buffer = Vec::with_capacity(range.len());
            op(range, &mut buffer);
            buffer
        })
    }
}

/// Runs any process in stream mode under the ordinary [`SpreadingProcess`] driving loop —
/// the `Runner`, observers, the Monte-Carlo driver, `repro` — without any changes:
/// [`step_faulted`](SpreadingProcess::step_faulted) ignores the caller's draws (all
/// randomness comes from the per-entity streams) and steps the inner process with
/// [`Draws::Streams`] over the held engine.
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
    pub fn new(inner: Box<dyn SpreadingProcess + Send + 'g>, engine: ParallelFrontier) -> Self {
        ParallelProcess { inner, engine }
    }

    /// Readies the process for its next trial: resets the inner process and redraws the
    /// stream key from `rng` exactly as [`ParallelFrontier::from_rng`] does (the same four
    /// words, in the same order), so the reused process runs the trajectory of a fresh
    /// [`ProcessSpec::build_parallel`](crate::spec::ProcessSpec::build_parallel) on `rng`.
    // cobra-lint: draws(bounded)
    pub fn rekey(&mut self, rng: &mut dyn RngCore) {
        self.inner.reset();
        self.engine.streams = VertexStreams::from_rng(rng);
    }
}

impl SpreadingProcess for ParallelProcess<'_> {
    // The caller's draws are deliberately ignored: stream mode draws only from the
    // per-entity streams, which is exactly what makes the trajectory thread-invariant.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(0)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        let _ = draws;
        self.inner.step_faulted(Draws::Streams(&self.engine), faults);
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

    fn reset(&mut self) {
        self.inner.reset();
    }
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
    fn parallel_cobra_runs_to_completion_and_ignores_the_caller_rng() {
        let g = generators::connected_random_regular(128, 4, &mut ChaCha12Rng::seed_from_u64(3))
            .unwrap();
        let run = |caller_seed: u64| {
            let cobra = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
            let engine = ParallelFrontier::new(VertexStreams::new([11u8; 32]), 2).unwrap();
            let mut p = ParallelProcess::new(Box::new(cobra), engine);
            let mut rng = ChaCha12Rng::seed_from_u64(caller_seed);
            run_until_complete(&mut p, &mut rng, 100_000).unwrap()
        };
        // Different caller RNGs, identical trajectories: the stream key decides everything.
        assert_eq!(run(1), run(2));
    }
}
