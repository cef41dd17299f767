//! Bounded uniform sampling — the single hottest operation of every spreading process.
//!
//! All seven processes of the workspace repeatedly do "pick a uniformly random neighbour of
//! `v`". [`uniform_index`] is the shared primitive: a Lemire-style bounded reduction that
//! turns one 64-bit RNG draw into an index below `bound` with a single widening multiply —
//! no division, no rejection loop, and bias below `2^-64` for every realistic degree. It
//! consumes exactly one `next_u64` per sample, which keeps the frontier engine's RNG stream
//! aligned with the dense reference engines of the equivalence tests (whose
//! `gen_range(0..degree)` performs the identical reduction).

use rand::RngCore;
use rand_chacha::{ChaCha8Stream, ChaCha8StreamGroup};

/// Draws a uniform index in `0..bound` from one `next_u64` via widening multiply.
///
/// # Behaviour at `u64::MAX`-adjacent bounds
///
/// The widening multiply `(x * bound) >> 64` stays exact for every `bound` representable as
/// `usize`, including `u64::MAX as usize` on 64-bit targets: the product fits in 128 bits
/// (both factors are below 2⁶⁴), the shift keeps the high word, and the result is strictly
/// below `bound` because `x ≤ 2⁶⁴ − 1` gives `x · bound < 2⁶⁴ · bound`. The only caveat at
/// that scale is statistical, not correctness: with `bound` near 2⁶⁴ the per-index bias is
/// on the order of `bound / 2⁶⁴` rather than the `< 2⁻⁶⁴` enjoyed by realistic degrees.
/// Graph degrees never approach this; the edge is documented and tested so the primitive is
/// safe to reuse outside the degree regime.
///
/// # Panics
///
/// Panics if `bound == 0`.
#[inline]
pub fn uniform_index<R: RngCore + ?Sized>(rng: &mut R, bound: usize) -> usize {
    assert!(bound > 0, "cannot sample an index below 0");
    ((u128::from(rng.next_u64()) * bound as u128) >> 64) as usize
}

/// Draws a uniform element of `slice`, or `None` if it is empty.
///
/// This is the buffered form of [`Graph::sample_neighbor`](crate::Graph::sample_neighbor):
/// callers that push `k` times from the same vertex fetch the neighbour row
/// ([`Graph::neighbors`](crate::Graph::neighbors)) once and sample it repeatedly without
/// re-touching the CSR offsets. The row holds `u32` ids; the caller widens the one it draws.
#[inline]
pub fn sample_slice<'a, R: RngCore + ?Sized>(slice: &'a [u32], rng: &mut R) -> Option<&'a u32> {
    if slice.is_empty() {
        None
    } else {
        Some(&slice[uniform_index(rng, slice.len())])
    }
}

/// Per-entity counter-based RNG streams for one trial — determinism v2's sampling substrate.
///
/// A `VertexStreams` holds one 32-byte trial key; [`stream`](VertexStreams::stream) derives
/// the independent ChaCha8 stream for any `(entity, round)` pair via
/// [`ChaCha8Stream::stream_for`]. Because each stream is keyed by *who draws* (a vertex or
/// walker id) and *when* (the round), not by the global order draws happen to execute in,
/// trajectories are identical no matter how frontier iteration is scheduled across threads.
///
/// [`for_each_stream`](VertexStreams::for_each_stream) opens the streams of a whole shard
/// eight entities per block-kernel call ([`ChaCha8StreamGroup`]). That changes how many
/// blocks one call computes, not the words: each stream it hands out equals
/// [`stream`](VertexStreams::stream) word for word.
///
/// The entity space is `u64`; vertex ids embed directly, and engine wrappers reserve ids
/// near `u64::MAX` (see `cobra_core::parallel`) for their own dynamics so they can never
/// collide with a vertex.
#[derive(Debug, Clone)]
pub struct VertexStreams {
    key: [u8; 32],
}

impl VertexStreams {
    /// Wraps an explicit 32-byte trial key.
    pub fn new(key: [u8; 32]) -> Self {
        VertexStreams { key }
    }

    /// Draws a fresh 32-byte trial key from `rng` (one draw of 4 × `next_u64`).
    ///
    /// Deriving the key *from the trial RNG* keeps the per-trial seeding path unchanged:
    /// the same `(master, label, index)` triple yields the same key, hence the same
    /// per-vertex streams, independent of thread count.
    pub fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut key = [0u8; 32];
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        VertexStreams { key }
    }

    /// The trial key (exposed so equivalence tests can re-derive individual streams).
    pub fn key(&self) -> &[u8; 32] {
        &self.key
    }

    /// The independent stream owned by `entity` at `round`.
    #[inline]
    pub fn stream(&self, entity: u64, round: u64) -> ChaCha8Stream {
        ChaCha8Stream::stream_for(&self.key, entity, round)
    }

    /// Calls `f(entity, stream)` for each of `entities` in order, with `stream` equal to
    /// [`stream`](Self::stream)`(entity, round)`.
    ///
    /// One [`ChaCha8StreamGroup`] of `(key, round)` is built per call, and each group of
    /// eight entities reopens its slots in place with one block-kernel call (one AVX2
    /// call, or two SSE2 calls on a host without AVX2). A tail of one to seven entities
    /// takes the single-stream path. Each stream is handed to `f` as soon as its group is
    /// opened, so nothing is collected. A caller that filters out the entities that draw
    /// nothing spends no lane on them.
    #[inline]
    pub fn for_each_stream<I, F>(&self, entities: I, round: u64, mut f: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(u64, &mut ChaCha8Stream),
    {
        let mut entities = entities.into_iter();
        let mut group = ChaCha8StreamGroup::new(&self.key, round);
        loop {
            let mut ids = [0u64; ChaCha8StreamGroup::LEN];
            let mut len = 0;
            for (slot, entity) in ids.iter_mut().zip(entities.by_ref()) {
                *slot = entity;
                len += 1;
            }
            if len < ids.len() {
                for &entity in &ids[..len] {
                    f(entity, &mut self.stream(entity, round));
                }
                return;
            }
            for (&entity, stream) in ids.iter().zip(group.open(ids)) {
                f(entity, stream);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(u64);
    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn indices_stay_in_bounds_and_cover_the_range() {
        let mut rng = Fixed(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let i = uniform_index(&mut rng, 7);
            assert!(i < 7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws should hit all 7 buckets");
    }

    #[test]
    fn matches_the_vendored_gen_range_reduction() {
        // The frontier/dense RNG-equivalence guarantee rests on this: one next_u64 put
        // through uniform_index must equal the same draw through rand's gen_range.
        for seed in 0..50u64 {
            let mut a = Fixed(seed);
            let mut b = Fixed(seed);
            for bound in [1usize, 2, 3, 8, 1000] {
                assert_eq!(uniform_index(&mut a, bound), rand::Rng::gen_range(&mut b, 0..bound));
            }
        }
    }

    #[test]
    fn sample_slice_handles_empty_and_singleton() {
        let mut rng = Fixed(1);
        assert_eq!(sample_slice::<Fixed>(&[], &mut rng), None);
        assert_eq!(sample_slice(&[42], &mut rng), Some(&42));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn zero_bound_panics() {
        uniform_index(&mut Fixed(1), 0);
    }

    /// An RNG that replays a fixed word sequence — used to probe exact reduction outputs.
    struct Script(Vec<u64>, usize);
    impl RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let w = self.0[self.1];
            self.1 += 1;
            w
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn umax_adjacent_bounds_stay_exact() {
        // The widening multiply must stay in-bounds and hit both endpoints for bounds at
        // the top of the u64 range: x = MAX maps to bound-1, x = 0 maps to 0, and a draw
        // just below the bound's reciprocal boundary maps to the expected index.
        for bound in [u64::MAX as usize, (u64::MAX - 1) as usize, (1u64 << 63) as usize] {
            let mut top = Script(vec![u64::MAX, 0], 0);
            let hi = uniform_index(&mut top, bound);
            assert!(hi < bound);
            assert_eq!(hi, bound - 1, "x = MAX must map to the last index of {bound}");
            assert_eq!(uniform_index(&mut top, bound), 0, "x = 0 must map to index 0");
        }
        // For bound = 2^63, index i is produced by exactly the draws [2i, 2i+2): check the
        // boundary between indices 0 and 1.
        let bound = (1u64 << 63) as usize;
        let mut edge = Script(vec![1, 2], 0);
        assert_eq!(uniform_index(&mut edge, bound), 0);
        assert_eq!(uniform_index(&mut edge, bound), 1);
    }

    #[test]
    fn vertex_streams_replay_identically() {
        let streams = VertexStreams::new([7u8; 32]);
        let mut a = streams.stream(42, 3);
        let mut b = streams.stream(42, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut other = streams.stream(43, 3);
        assert_ne!(a.next_u64(), other.next_u64());
    }

    #[test]
    fn from_rng_is_a_pure_function_of_the_trial_rng() {
        let mut r1 = Fixed(99);
        let mut r2 = Fixed(99);
        let s1 = VertexStreams::from_rng(&mut r1);
        let s2 = VertexStreams::from_rng(&mut r2);
        assert_eq!(s1.key(), s2.key());
    }
}
