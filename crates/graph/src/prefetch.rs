//! The crate's one software-prefetch primitive.
//!
//! Random CSR reads at n ≫ cache are two dependent misses per vertex (`offsets[v]`, then
//! the row it points to). Loops that know which vertex they will touch a few iterations
//! from now hint those lines into cache ahead of time, so the misses overlap instead of
//! queueing behind each other (Ainsworth & Jones, "Software Prefetching for Indirect
//! Memory Accesses", CGO 2017). A hint changes no value anywhere: it only moves a cache
//! line, so every caller computes exactly what it computed without it.

/// Hints the cache line holding `slice[index]` into all cache levels. An index past the
/// end is a no-op, and so is every call on a target other than x86-64.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(slice: &[T], index: usize) {
    if let Some(element) = slice.get(index) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the pointer comes from `element`, an in-bounds element of a live slice.
        // `_mm_prefetch` needs SSE, which every x86-64 target has. A prefetch never faults
        // and never reads memory into program state: it only moves a cache line.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(element).cast::<i8>());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = element;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_indices_are_no_ops() {
        let empty: [u32; 0] = [];
        prefetch(&empty, 0);
        prefetch(&empty, usize::MAX);
        let row = [1u32, 2, 3];
        for index in [0, 2, 3, usize::MAX] {
            prefetch(&row, index);
        }
        assert_eq!(row, [1, 2, 3]);
    }
}
