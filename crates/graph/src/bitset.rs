//! A word-level bitset over vertex ids — the active-set substrate of the sparse-frontier
//! simulation engine.
//!
//! The spreading processes in `cobra_core` maintain "which vertices are active" sets whose
//! size is usually far below `n` (the paper's regime starts from a *single* active vertex).
//! [`VertexBitset`] stores such a set as `⌈n/64⌉` machine words plus one occupancy flag
//! byte per word, set exactly when that word is non-zero. This gives:
//!
//! * `O(1)` [`insert`](VertexBitset::insert) / [`contains`](VertexBitset::contains) /
//!   [`remove`](VertexBitset::remove) with the insert reporting whether the bit was new —
//!   the exact test-and-set the coalescing step of COBRA performs per push;
//! * **dirty-list clearing** ([`clear_list`](VertexBitset::clear_list)): a frontier that
//!   knows its members erases itself in `O(|frontier|)` instead of the `O(n)` `fill(false)`
//!   a dense `Vec<bool>` needs;
//! * ascending-order iteration ([`iter`](VertexBitset::iter),
//!   [`collect_into`](VertexBitset::collect_into), [`for_each`](VertexBitset::for_each)) in
//!   `O(n/512 + w + |set|)`, where `w` is the number of non-zero words: the flags, read
//!   eight at a time as one `u64`, name the non-zero words, and per-word `trailing_zeros`
//!   names their members. This is what lets the frontier engine reproduce the dense
//!   engine's vertex visit order (and therefore its RNG draw order) without an
//!   `O(|set| log |set|)` sort, and what keeps a growth-phase round on a million vertices
//!   from scanning the 15 625 words of its bitset. [`count`](VertexBitset::count),
//!   [`is_empty`](VertexBitset::is_empty) and [`clear`](VertexBitset::clear) walk the
//!   flags the same way.
//!
//! The flags are bytes rather than bits so that `insert` keeps them with one plain store:
//! a summary bit would need a read-modify-write per insert, and in the sequential push loop,
//! whose random neighbour fetches miss the cache, that made a growth-phase COBRA trial on
//! `n = 10⁶` about a fifth slower.

use std::fmt;

use crate::VertexId;

const WORD_BITS: usize = u64::BITS as usize;

/// Occupancy flags read together as one `u64` when walking the non-zero words.
const FLAGS_PER_GROUP: usize = 8;

/// A fixed-capacity set of vertex ids `0..len`, stored one bit per vertex.
///
/// Besides the member words it keeps one occupancy flag per word: flag `i` is 1 if and
/// only if word `i` is non-zero (the padding flags past the last word stay 0). Every
/// mutation keeps that invariant, so the flags are a function of the words and the derived
/// `PartialEq`/`Eq` compare sets exactly.
///
/// # Example
///
/// ```
/// use cobra_graph::VertexBitset;
///
/// let mut set = VertexBitset::new(100);
/// assert!(set.insert(7));
/// assert!(!set.insert(7)); // already present
/// assert!(set.insert(64));
/// assert_eq!(set.count(), 2);
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![7, 64]);
/// set.clear_list(&[7, 64]);
/// assert!(set.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct VertexBitset {
    words: Vec<u64>,
    /// `occupied[i]` is 1 if and only if `words[i] != 0`; padded with zeros to a whole
    /// number of flag groups.
    occupied: Vec<u8>,
    len: usize,
}

impl VertexBitset {
    /// An empty set over the vertex domain `0..len`.
    pub fn new(len: usize) -> Self {
        let words = len.div_ceil(WORD_BITS);
        VertexBitset {
            words: vec![0; words],
            occupied: vec![0; words.next_multiple_of(FLAGS_PER_GROUP)],
            len,
        }
    }

    /// Size of the vertex domain (`n`), **not** the number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vertex is in the set (`O(n/512)`).
    pub fn is_empty(&self) -> bool {
        flag_groups(&self.occupied).all(|flags| flags == 0)
    }

    /// Whether `v` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        assert!(v < self.len, "vertex {v} out of range for bitset of {} vertices", self.len);
        self.words[v / WORD_BITS] & (1u64 << (v % WORD_BITS)) != 0
    }

    /// Inserts `v`, returning `true` if it was **not** already present (test-and-set).
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        assert!(v < self.len, "vertex {v} out of range for bitset of {} vertices", self.len);
        let i = v / WORD_BITS;
        let word = &mut self.words[i];
        let bit = 1u64 << (v % WORD_BITS);
        let fresh = *word & bit == 0;
        *word |= bit;
        self.occupied[i] = 1;
        fresh
    }

    /// Removes `v`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.len()`.
    #[inline]
    pub fn remove(&mut self, v: VertexId) -> bool {
        assert!(v < self.len, "vertex {v} out of range for bitset of {} vertices", self.len);
        let bit = 1u64 << (v % WORD_BITS);
        let present = self.words[v / WORD_BITS] & bit != 0;
        self.clear_bit(v / WORD_BITS, bit);
        present
    }

    /// Clears `bit` of word `i` and rewrites the word's flag (a store, not a branch: at
    /// frontier densities whether the word drops to zero is a coin flip).
    #[inline]
    fn clear_bit(&mut self, i: usize, bit: u64) {
        let word = &mut self.words[i];
        *word &= !bit;
        self.occupied[i] = u8::from(*word != 0);
    }

    /// Clears every bit, zeroing only the flag groups that hold a non-zero word
    /// (`O(n/512 + w)`).
    pub fn clear(&mut self) {
        for (g, flags) in flag_groups(&self.occupied).enumerate() {
            if flags != 0 {
                let start = g * FLAGS_PER_GROUP;
                let end = (start + FLAGS_PER_GROUP).min(self.words.len());
                self.words[start..end].fill(0);
            }
        }
        self.occupied.fill(0);
    }

    /// Clears exactly the listed vertices in `O(|list|)` — the dirty-list idiom: a frontier
    /// erases itself without touching the other `n - |list|` bits.
    ///
    /// # Panics
    ///
    /// Panics if a listed vertex is out of range.
    pub fn clear_list(&mut self, list: &[VertexId]) {
        for &v in list {
            assert!(v < self.len, "vertex {v} out of range for bitset of {} vertices", self.len);
            self.clear_bit(v / WORD_BITS, 1u64 << (v % WORD_BITS));
        }
    }

    /// Number of vertices in the set (`O(n/512 + w)` popcount over the non-zero words).
    pub fn count(&self) -> usize {
        let mut count = 0;
        for_each_word(&self.occupied, |i| count += self.words[i].count_ones() as usize);
        count
    }

    /// Iterates the set in ascending vertex order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            occupied: &self.occupied,
            group: 0,
            pending: flag_group(&self.occupied, 0).unwrap_or(0),
            word_index: 0,
            current: 0,
        }
    }

    /// Appends the members in ascending order to `out` (`O(n/512 + w + |set|)`), without
    /// clearing `out` first. This is how the frontier engine materialises the next round's
    /// frontier. It does not count the members first: that second pass over the words would
    /// cost about as much as the walk, and the processes reuse their frontier vectors, so
    /// their capacity is already there after the first rounds.
    pub fn collect_into(&self, out: &mut Vec<VertexId>) {
        self.for_each_member(|v| out.push(v));
    }

    /// Calls `f` for every member in ascending order (`O(n/512 + w + |set|)`).
    pub fn for_each(&self, f: &mut dyn FnMut(VertexId)) {
        self.for_each_member(f);
    }

    /// The one member walk behind `for_each` and `collect_into`, monomorphised per caller.
    #[inline]
    fn for_each_member(&self, mut f: impl FnMut(VertexId)) {
        for_each_word(&self.occupied, |i| {
            let mut w = self.words[i];
            while w != 0 {
                f(i * WORD_BITS + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        });
    }

    /// Expands to a dense `Vec<bool>` indicator (for tests and dense-engine comparisons).
    pub fn to_indicator(&self) -> Vec<bool> {
        let mut dense = vec![false; self.len];
        self.for_each(&mut |v| dense[v] = true);
        dense
    }

    /// Asserts the occupancy invariant: flag `i` is 1 if and only if word `i` is non-zero,
    /// and every padding flag past the last word is 0.
    #[cfg(test)]
    fn assert_flags_exact(&self) {
        assert_eq!(self.occupied.len(), self.words.len().next_multiple_of(FLAGS_PER_GROUP));
        for (i, &flag) in self.occupied.iter().enumerate() {
            let expected = self.words.get(i).is_some_and(|&w| w != 0);
            assert_eq!(flag, u8::from(expected), "occupancy flag of word {i}");
        }
    }
}

/// Flag group `g` as one `u64` (flag `k` of the group in byte `k`), or `None` past the end.
#[inline]
fn flag_group(occupied: &[u8], g: usize) -> Option<u64> {
    let start = g * FLAGS_PER_GROUP;
    let bytes = occupied.get(start..start + FLAGS_PER_GROUP)?;
    Some(u64::from_le_bytes(bytes.try_into().expect("a flag group is 8 bytes")))
}

/// Every flag group as one `u64`, in order.
#[inline]
fn flag_groups(occupied: &[u8]) -> impl Iterator<Item = u64> + '_ {
    occupied
        .chunks_exact(FLAGS_PER_GROUP)
        .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("a flag group is 8 bytes")))
}

/// Calls `f(i)` for every word index `i` whose flag is set, in ascending order.
#[inline]
fn for_each_word(occupied: &[u8], mut f: impl FnMut(usize)) {
    for (g, mut flags) in flag_groups(occupied).enumerate() {
        while flags != 0 {
            f(g * FLAGS_PER_GROUP + flags.trailing_zeros() as usize / 8);
            // Each set flag is the byte 1, so this clears exactly that flag.
            flags &= flags - 1;
        }
    }
}

impl fmt::Debug for VertexBitset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VertexBitset")
            .field("len", &self.len)
            .field("count", &self.count())
            .finish()
    }
}

/// Ascending iterator over the members of a [`VertexBitset`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    occupied: &'a [u8],
    /// Index of the flag group `pending` came from.
    group: usize,
    /// Flags of that group whose words are not yet visited.
    pending: u64,
    word_index: usize,
    /// Members of `words[word_index]` not yet yielded.
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        while self.current == 0 {
            while self.pending == 0 {
                self.group += 1;
                self.pending = flag_group(self.occupied, self.group)?;
            }
            self.word_index =
                self.group * FLAGS_PER_GROUP + self.pending.trailing_zeros() as usize / 8;
            self.pending &= self.pending - 1;
            self.current = self.words[self.word_index];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut set = VertexBitset::new(130);
        assert_eq!(set.len(), 130);
        assert!(set.is_empty());
        for v in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!set.contains(v));
            assert!(set.insert(v), "first insert of {v}");
            assert!(!set.insert(v), "second insert of {v}");
            assert!(set.contains(v));
        }
        assert_eq!(set.count(), 8);
        assert!(set.remove(64));
        assert!(!set.remove(64));
        assert!(!set.contains(64));
        assert_eq!(set.count(), 7);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let mut set = VertexBitset::new(200);
        let members = [199usize, 0, 64, 3, 127, 128, 65];
        for &v in &members {
            set.insert(v);
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
        let mut collected = Vec::new();
        set.collect_into(&mut collected);
        assert_eq!(collected, sorted);
        let mut visited = Vec::new();
        set.for_each(&mut |v| visited.push(v));
        assert_eq!(visited, sorted);
    }

    #[test]
    fn clear_list_only_clears_listed_bits() {
        let mut set = VertexBitset::new(100);
        for v in [2usize, 40, 41, 99] {
            set.insert(v);
        }
        set.clear_list(&[40, 99]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![2, 41]);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.count(), 0);
    }

    #[test]
    fn indicator_conversions_roundtrip() {
        let dense = vec![true, false, false, true, true, false, true];
        let mut set = VertexBitset::new(dense.len());
        for v in [0, 3, 4, 6] {
            set.insert(v);
        }
        assert_eq!(set.to_indicator(), dense);
        assert_eq!(set.count(), 4);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 4, 6]);
    }

    #[test]
    fn empty_domain_is_fine() {
        let set = VertexBitset::new(0);
        assert_eq!(set.len(), 0);
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
        assert_eq!(set.to_indicator(), Vec::<bool>::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_panics_out_of_range() {
        let set = VertexBitset::new(10);
        let _ = set.contains(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_panics_out_of_range() {
        let mut set = VertexBitset::new(64);
        set.insert(64);
    }

    #[test]
    fn equality_and_clone() {
        let mut a = VertexBitset::new(70);
        a.insert(69);
        let b = a.clone();
        assert_eq!(a, b);
        a.remove(69);
        assert_ne!(a, b);
    }

    /// Domain sizes around the word (64), flag-group (512) and 4096 boundaries, plus one of
    /// 4097 words.
    const MODEL_LENGTHS: [usize; 12] = [0, 1, 63, 64, 65, 511, 512, 513, 4095, 4096, 4097, 262_145];

    /// One mutation of the model test. Vertex operands are drawn from a wide range and
    /// reduced modulo the domain size, so one strategy serves every length; a `Clear` is
    /// rare so the sets get time to fill.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize),
        Remove(usize),
        ClearList(Vec<usize>),
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..100, 0usize..1 << 40, proptest::collection::vec(0usize..1 << 40, 0..6)).prop_map(
            |(kind, v, list)| match kind {
                0..=54 => Op::Insert(v),
                55..=79 => Op::Remove(v),
                80..=97 => Op::ClearList(list),
                _ => Op::Clear,
            },
        )
    }

    /// Checks every read-only view of `set` against the model, and the occupancy invariant.
    fn assert_matches_model(set: &VertexBitset, model: &BTreeSet<usize>, probes: &[usize]) {
        set.assert_flags_exact();
        let members: Vec<usize> = model.iter().copied().collect();
        assert_eq!(set.count(), members.len());
        assert_eq!(set.is_empty(), members.is_empty());
        assert_eq!(set.iter().collect::<Vec<_>>(), members);
        let mut visited = Vec::new();
        set.for_each(&mut |v| visited.push(v));
        assert_eq!(visited, members);
        let mut collected = vec![usize::MAX];
        set.collect_into(&mut collected);
        assert_eq!(collected[0], usize::MAX, "collect_into must append");
        assert_eq!(collected[1..], members[..]);
        for &v in members.iter().chain(probes) {
            assert_eq!(set.contains(v), model.contains(&v), "contains({v})");
        }
        let copy = set.clone();
        copy.assert_flags_exact();
        assert_eq!(&copy, set);
        let mut rebuilt = VertexBitset::new(set.len());
        for &v in &members {
            rebuilt.insert(v);
        }
        assert_eq!(&rebuilt, set, "equal sets built differently compare equal");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random `insert`/`remove`/`clear_list`/`clear` sequences agree with a `BTreeSet`
        /// after every operation, at every length in `MODEL_LENGTHS`.
        #[test]
        fn operations_match_a_btreeset_model(ops in proptest::collection::vec(op(), 0..120)) {
            for len in MODEL_LENGTHS {
                let mut set = VertexBitset::new(len);
                let mut model = BTreeSet::new();
                assert_matches_model(&set, &model, &[]);
                if len == 0 {
                    continue;
                }
                for op in &ops {
                    let touched: Vec<usize> = match op {
                        Op::Insert(v) => {
                            let v = v % len;
                            prop_assert_eq!(set.insert(v), model.insert(v));
                            vec![v]
                        }
                        Op::Remove(v) => {
                            let v = v % len;
                            prop_assert_eq!(set.remove(v), model.remove(&v));
                            vec![v]
                        }
                        Op::ClearList(list) => {
                            let list: Vec<usize> = list.iter().map(|v| v % len).collect();
                            set.clear_list(&list);
                            for v in &list {
                                model.remove(v);
                            }
                            list
                        }
                        Op::Clear => {
                            set.clear();
                            model.clear();
                            Vec::new()
                        }
                    };
                    assert_matches_model(&set, &model, &touched);
                }
            }
        }
    }

    #[test]
    fn word_boundaries_keep_the_flags_exact() {
        // Word and flag-group boundaries, and the first and last vertex of the domain.
        for len in MODEL_LENGTHS.into_iter().filter(|&len| len > 0) {
            let mut set = VertexBitset::new(len);
            let boundary: Vec<usize> = [0, 63, 64, 511, 512, 4095, 4096, len - 1]
                .into_iter()
                .filter(|&v| v < len)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            for &v in &boundary {
                set.insert(v);
            }
            set.assert_flags_exact();
            assert_eq!(set.iter().collect::<Vec<_>>(), boundary);
            for &v in &boundary {
                set.remove(v);
                set.assert_flags_exact();
            }
            assert!(set.is_empty());
        }
    }
}
