//! Custom memory placement library for association mining (§5 of the paper).
//!
//! The paper attributes a 2x+ speedup to *where* the hash-tree building
//! blocks live in memory. This crate provides the substrate that makes those
//! placement policies expressible in safe Rust:
//!
//! * [`words`] — the tree's frozen blocks are sequences of `u32` words
//!   allocated through a [`words::WordStoreBuilder`]. The
//!   [`words::ContiguousStore`] backend is the paper's *custom region*: one
//!   bump allocation, no boundary tags, blocks adjacent in whatever order
//!   the placement policy chooses. The [`words::ScatterStore`] backend is
//!   the *standard malloc* baseline: one heap allocation per block, with all
//!   the allocator headers and size-class scatter that entails.
//! * [`counters`] — support-counter placement: a flat shared atomic array,
//!   a cache-line-padded variant (the paper's rejected padding scheme, kept
//!   as an ablation), and per-thread private arrays with sum-reduction (the
//!   paper's *local counter array* / privatization scheme).
//! * [`stable_vec`] — an append-only concurrent arena with lock-free reads,
//!   used for the parallel hash-tree build where nodes are created while
//!   other threads traverse existing ones (§3.1.4).
//! * [`CacheAligned`] — cache-line alignment wrapper for false-sharing
//!   sensitive data.

pub mod counters;
pub mod stable_vec;
pub mod words;

pub use counters::{FlatCounters, LocalCounters, PaddedCounters, SharedCounters};
pub use stable_vec::StableVec;
pub use words::{
    ContiguousBuilder, ContiguousStore, Handle, ScatterBuilder, ScatterStore, WordStore,
    WordStoreBuilder, NULL_HANDLE,
};

/// Pads and aligns `T` to a 64-byte cache line, preventing false sharing
/// between adjacent array elements.
///
/// 64 bytes matches the line size of every mainstream x86-64 and most ARM
/// server parts; on machines with 128-byte prefetch pairs this still removes
/// the dominant sharing mode.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CacheAligned<T>(pub T);

impl<T> CacheAligned<T> {
    /// Wraps a value.
    pub fn new(v: T) -> Self {
        CacheAligned(v)
    }
    /// Unwraps the value.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> std::ops::Deref for CacheAligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CacheAligned<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_aligned_is_line_sized() {
        assert_eq!(align_of::<CacheAligned<u8>>(), 64);
        assert_eq!(size_of::<CacheAligned<u32>>(), 64);
        // Arrays of aligned cells put each element on its own line.
        let arr = [CacheAligned::new(0u32), CacheAligned::new(1u32)];
        let a = &arr[0] as *const _ as usize;
        let b = &arr[1] as *const _ as usize;
        assert_eq!(b - a, 64);
    }

    #[test]
    fn cache_aligned_deref() {
        let mut c = CacheAligned::new(5u32);
        *c += 1;
        assert_eq!(*c, 6);
        assert_eq!(c.into_inner(), 6);
    }
}
