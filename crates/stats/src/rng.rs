//! Deterministic random-number management.
//!
//! Every experiment is driven by a single master seed. Trials, graph instances and process
//! runs each derive their own independent ChaCha stream from `(master seed, label, index)`, so
//! results are reproducible bit-for-bit regardless of how the work is scheduled across threads.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The RNG handed to simulations and generators.
pub type TrialRng = ChaCha12Rng;

/// A factory deriving independent, reproducible RNG streams from a master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Creates a seed sequence from a master seed.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// Derives the RNG for the trial with index `index` in the stream named `label`.
    ///
    /// Different `(label, index)` pairs yield statistically independent streams; the same pair
    /// always yields the same stream.
    pub fn trial_rng(&self, label: &str, index: u64) -> TrialRng {
        let mut seed = [0u8; 32];
        let label_hash = fnv1a(label.as_bytes());
        seed[..8].copy_from_slice(&self.master.to_le_bytes());
        seed[8..16].copy_from_slice(&label_hash.to_le_bytes());
        seed[16..24].copy_from_slice(&index.to_le_bytes());
        seed[24..32].copy_from_slice(&(self.master ^ label_hash ^ index).to_le_bytes());
        ChaCha12Rng::from_seed(seed)
    }

    /// Derives a child sequence, e.g. one per experiment, so experiments can be re-ordered
    /// without perturbing each other's streams.
    pub fn child(&self, label: &str) -> SeedSequence {
        SeedSequence { master: self.master ^ fnv1a(label.as_bytes()) }
    }
}

impl Default for SeedSequence {
    /// A fixed, documented default master seed (`0xC0B2A2016`, a nod to the paper's venue year).
    fn default() -> Self {
        SeedSequence::new(0x000C_0B2A_2016)
    }
}

/// 64-bit FNV-1a hash (stable across platforms and Rust versions, unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// The first 16 words of a stream.
    fn first_words(mut rng: TrialRng) -> Vec<u64> {
        (0..16).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_inputs_give_identical_streams() {
        let seq = SeedSequence::new(42);
        let a = first_words(seq.trial_rng("cover", 7));
        let b = first_words(seq.trial_rng("cover", 7));
        assert_eq!(a, b);
    }

    #[test]
    fn different_indices_give_different_streams() {
        let seq = SeedSequence::new(42);
        let a = first_words(seq.trial_rng("cover", 0));
        let b = first_words(seq.trial_rng("cover", 1));
        assert_ne!(a, b);
    }

    #[test]
    fn different_labels_give_different_streams() {
        let seq = SeedSequence::new(42);
        let a = first_words(seq.trial_rng("cover", 0));
        let b = first_words(seq.trial_rng("infect", 0));
        assert_ne!(a, b);
    }

    #[test]
    fn different_masters_give_different_streams() {
        let a = first_words(SeedSequence::new(1).trial_rng("x", 0));
        let b = first_words(SeedSequence::new(2).trial_rng("x", 0));
        assert_ne!(a, b);
    }

    #[test]
    fn child_sequences_are_deterministic_and_distinct() {
        let seq = SeedSequence::new(7);
        let c1 = seq.child("experiment-1");
        let c2 = seq.child("experiment-2");
        assert_eq!(c1, seq.child("experiment-1"));
        assert_ne!(c1, c2);
        assert_ne!(c1, seq);
    }

    #[test]
    fn default_master_seed_is_fixed() {
        assert_eq!(SeedSequence::default(), SeedSequence::new(0x000C_0B2A_2016));
    }

    #[test]
    fn fnv_hash_differs_on_small_changes() {
        assert_ne!(fnv1a(b"cover"), fnv1a(b"cove"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
