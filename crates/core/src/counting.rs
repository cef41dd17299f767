//! The runtime draw-count sanitizer: [`CountingRng`].
//!
//! The static R4 registry (see `cobra-lint`) proves every RNG draw site sits in a function
//! with a declared contract; this wrapper proves the *counts*. Wrapping any `RngCore` in a
//! [`CountingRng`] makes the number of primitive draws observable, so the equivalence suites
//! can assert the per-round draw arithmetic exactly:
//!
//! * a benign fault wrapper (`drop=0`, empty crash set, lossless channel) performs **zero**
//!   extra draws — not "the same trajectory", literally the same number of `next_u64` calls;
//! * COBRA with fixed branching `k` draws exactly `k · |A_t|` times in round `t+1`, PUSH
//!   exactly `|informed|`, PUSH–PULL exactly `n`, a walk exactly `1`, `w` walks exactly `w`
//!   (on graphs without isolated vertices).
//!
//! Every draw in this workspace bottoms out in `next_u32`/`next_u64` (the vendored `rand`'s
//! `gen_bool`, `gen_range` and `fill_bytes` all reduce to `next_u64`; the Lemire
//! `uniform_index` consumes one `next_u64`), so counting the two primitive methods counts
//! everything.

use rand::RngCore;

/// An [`RngCore`] adaptor counting every primitive draw made through it.
///
/// The count is the number of `next_u32`/`next_u64` calls — i.e. raw words drawn, not bytes
/// and not derived quantities. Wrap the RNG, run a round, then read [`count`](Self::count)
/// (or [`take_count`](Self::take_count) for per-round accounting).
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    count: u64,
}

impl<R> CountingRng<R> {
    /// Wraps `inner` with the count at zero.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, count: 0 }
    }

    /// Number of primitive draws made through this wrapper since construction or the last
    /// reset.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the current count and resets it to zero — per-round accounting in one call.
    pub fn take_count(&mut self) -> u64 {
        std::mem::take(&mut self.count)
    }

    /// Resets the count to zero.
    pub fn reset_count(&mut self) {
        self.count = 0;
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u32(&mut self) -> u32 {
        self.count += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.count += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn counts_primitive_draws_and_resets() {
        let mut rng = CountingRng::new(ChaCha12Rng::seed_from_u64(7));
        assert_eq!(rng.count(), 0);
        rng.next_u64();
        rng.next_u32();
        assert_eq!(rng.count(), 2);
        assert_eq!(rng.take_count(), 2);
        assert_eq!(rng.count(), 0);
        rng.next_u64();
        rng.reset_count();
        assert_eq!(rng.count(), 0);
    }

    #[test]
    fn derived_draws_count_as_exactly_one_word() {
        // The sanitizer's arithmetic rests on these identities in the vendored rand:
        // gen_bool and gen_range<usize> each consume exactly one next_u64.
        let mut rng = CountingRng::new(ChaCha12Rng::seed_from_u64(1));
        let _ = rng.gen_bool(0.5);
        assert_eq!(rng.take_count(), 1);
        let _ = rng.gen_range(0..17usize);
        assert_eq!(rng.take_count(), 1);
        let _ = cobra_graph::sample::uniform_index(&mut rng, 17);
        assert_eq!(rng.take_count(), 1);
    }

    #[test]
    fn wrapping_does_not_perturb_the_stream() {
        let mut wrapped = CountingRng::new(ChaCha12Rng::seed_from_u64(42));
        let mut bare = ChaCha12Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(wrapped.next_u64(), bare.next_u64());
        }
        assert_eq!(wrapped.count(), 100);
    }
}
