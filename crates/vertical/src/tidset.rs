//! Tidset representations and their intersection kernels.
//!
//! A *tidset* is the set of transaction ids containing an itemset; its
//! cardinality is the itemset's support. Two physical layouts coexist:
//!
//! * [`TidSet::Sorted`] — an ascending `Vec<Tid>`. Intersection is a
//!   merge: the linear two-pointer walk (`O(|a| + |b|)`), or galloping
//!   (exponential + binary search, `O(|small| · log |large|)`) which wins
//!   when the operands' lengths are very different.
//! * [`TidSet::Bitmap`] — one bit per transaction packed into `u64`
//!   words. Intersection is a word-wise AND with a fused `count_ones`
//!   popcount; cost is `n_txns / 64` words regardless of density, so it
//!   beats the sorted merge once the operands are denser than about one
//!   tid in 64 (the break-even ratio behind
//!   [`crate::VerticalConfig::density_threshold`]).
//!
//! The raw kernels ([`intersect_linear`], [`intersect_galloping`],
//! [`and_words`]) are exported for the criterion `intersection` bench;
//! the drivers go through [`TidSet::intersect`], which also books
//! [`KernelStats`] telemetry.

use arm_dataset::Tid;

/// Per-task kernel telemetry. Accumulated locally (no atomics on the hot
/// path) and folded into the `arm-metrics` shards by the drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Tidset intersections performed.
    pub intersections: u64,
    /// `u64` words ANDed by the bitmap kernel.
    pub words_anded: u64,
    /// Bytes of tidset storage materialized (outputs and conversions).
    pub tidset_bytes: u64,
    /// Abstract work units (merge: `|a| + |b|`; AND: words touched) —
    /// the per-thread tally behind the `mine` phase's imbalance.
    pub work_units: u64,
}

impl KernelStats {
    /// Adds `other`'s tallies into `self`.
    pub fn merge(&mut self, other: &KernelStats) {
        self.intersections += other.intersections;
        self.words_anded += other.words_anded;
        self.tidset_bytes += other.tidset_bytes;
        self.work_units += other.work_units;
    }
}

/// Which physical layout a [`TidSet`] uses. The *resolved* form of the
/// [`crate::TidBackend`] knob (which adds an `Auto` mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ascending tid list.
    Sorted,
    /// Packed bit-per-transaction words.
    Bitmap,
}

/// A transaction-id set in one of two physical representations.
///
/// All members of one equivalence class share a representation, so
/// [`TidSet::intersect`] never sees mixed operands (it panics if it
/// does — that would be a driver bug, not an input condition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TidSet {
    /// Ascending list of transaction ids.
    Sorted(Vec<Tid>),
    /// Dense bitmap over the transaction space plus its cached popcount.
    Bitmap {
        /// Bit `t` of `words[t / 64]` is set iff transaction `t` is in
        /// the set. All bitmaps of one run share the same word count.
        words: Vec<u64>,
        /// Number of set bits (the support), cached at construction.
        count: u32,
    },
}

impl TidSet {
    /// The set's cardinality — the itemset's support.
    pub fn support(&self) -> u32 {
        match self {
            TidSet::Sorted(tids) => tids.len() as u32,
            TidSet::Bitmap { count, .. } => *count,
        }
    }

    /// Bytes of backing storage (4 per tid, 8 per bitmap word).
    pub fn bytes(&self) -> u64 {
        match self {
            TidSet::Sorted(tids) => 4 * tids.len() as u64,
            TidSet::Bitmap { words, .. } => 8 * words.len() as u64,
        }
    }

    /// Which layout this set uses.
    pub fn backend(&self) -> Backend {
        match self {
            TidSet::Sorted(_) => Backend::Sorted,
            TidSet::Bitmap { .. } => Backend::Bitmap,
        }
    }

    /// Converts to a bitmap over `n_words` words (no-op copy if already
    /// a bitmap).
    pub fn to_bitmap(&self, n_words: usize) -> TidSet {
        match self {
            TidSet::Bitmap { words, count } => TidSet::Bitmap {
                words: words.clone(),
                count: *count,
            },
            TidSet::Sorted(tids) => {
                let mut words = vec![0u64; n_words];
                for &t in tids {
                    words[t as usize / 64] |= 1u64 << (t % 64);
                }
                TidSet::Bitmap {
                    words,
                    count: tids.len() as u32,
                }
            }
        }
    }

    /// Converts to a sorted list (no-op copy if already sorted).
    pub fn to_sorted(&self) -> TidSet {
        match self {
            TidSet::Sorted(tids) => TidSet::Sorted(tids.clone()),
            TidSet::Bitmap { words, count } => {
                let mut tids = Vec::with_capacity(*count as usize);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        tids.push((w as u32) * 64 + b);
                        bits &= bits - 1;
                    }
                }
                TidSet::Sorted(tids)
            }
        }
    }

    /// Intersects two same-backend sets, booking telemetry into `stats`.
    ///
    /// `galloping` selects the sorted-list merge kernel; it is ignored
    /// for bitmaps (there is only one AND kernel).
    pub fn intersect(&self, other: &TidSet, galloping: bool, stats: &mut KernelStats) -> TidSet {
        match (self, other) {
            (TidSet::Sorted(a), TidSet::Sorted(b)) => {
                TidSet::Sorted(intersect_sorted(a, b, galloping, stats))
            }
            (TidSet::Bitmap { words: a, .. }, TidSet::Bitmap { words: b, .. }) => {
                stats.intersections += 1;
                let n = a.len().min(b.len()) as u64;
                stats.words_anded += n;
                stats.work_units += n.max(1);
                let mut words = Vec::new();
                let count = and_words(a, b, &mut words);
                stats.tidset_bytes += 8 * words.len() as u64;
                TidSet::Bitmap { words, count }
            }
            _ => panic!("mixed tidset backends within one equivalence class"),
        }
    }
}

/// Sorted-slice intersection dispatching on the `galloping` knob, with
/// [`KernelStats`] bookkeeping: the sorted-list arm of
/// [`TidSet::intersect`].
pub fn intersect_sorted(
    a: &[Tid],
    b: &[Tid],
    galloping: bool,
    stats: &mut KernelStats,
) -> Vec<Tid> {
    stats.intersections += 1;
    stats.work_units += (a.len() + b.len()).max(1) as u64;
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if galloping {
        intersect_galloping(a, b, &mut out);
    } else {
        intersect_linear(a, b, &mut out);
    }
    stats.tidset_bytes += 4 * out.len() as u64;
    out
}

/// Two-pointer merge intersection of ascending slices into `out`.
pub fn intersect_linear(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping (exponential + binary search) intersection of ascending
/// slices into `out`. Walks the smaller operand, galloping through the
/// larger one — `O(|small| · log(|large| / |small|))`, a large win when
/// a short deep-prefix tidset meets a long singleton tidset.
pub fn intersect_galloping(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        // Exponential probe: double the window until it passes `x` (or
        // the end), then binary-search the first element `>= x` in it.
        let mut offset = 1usize;
        while base + offset < large.len() && large[base + offset] < x {
            offset <<= 1;
        }
        let hi = (base + offset + 1).min(large.len());
        let idx = base + large[base..hi].partition_point(|&y| y < x);
        if idx < large.len() && large[idx] == x {
            out.push(x);
            base = idx + 1;
        } else {
            base = idx;
        }
    }
}

/// Word-wise AND of two equal-universe bitmaps into `out`, returning the
/// popcount of the result. The popcount folds into the AND loop so the
/// support needs no second pass.
pub fn and_words(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> u32 {
    out.clear();
    out.reserve(a.len().min(b.len()));
    let mut count = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let w = x & y;
        count += w.count_ones();
        out.push(w);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lin(a: &[Tid], b: &[Tid]) -> Vec<Tid> {
        let mut out = Vec::new();
        intersect_linear(a, b, &mut out);
        out
    }

    fn gal(a: &[Tid], b: &[Tid]) -> Vec<Tid> {
        let mut out = Vec::new();
        intersect_galloping(a, b, &mut out);
        out
    }

    #[test]
    fn kernels_agree_on_basics() {
        let cases: &[(&[Tid], &[Tid], &[Tid])] = &[
            (&[1, 3, 5], &[2, 3, 5, 7], &[3, 5]),
            (&[], &[1], &[]),
            (&[1, 2], &[3, 4], &[]),
            (&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]),
            (&[0], &[0], &[0]),
            (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8], &[7]),
        ];
        for (a, b, want) in cases {
            assert_eq!(lin(a, b), *want);
            assert_eq!(gal(a, b), *want, "gallop a={a:?} b={b:?}");
            assert_eq!(gal(b, a), *want, "gallop swapped");
        }
    }

    #[test]
    fn galloping_matches_linear_randomized() {
        // Deterministic LCG — no rand dependency needed here.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for _ in 0..200 {
            let la = next(40) as usize;
            let lb = next(400) as usize;
            let mut a: Vec<Tid> = (0..la).map(|_| next(500)).collect();
            let mut b: Vec<Tid> = (0..lb).map(|_| next(500)).collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            assert_eq!(gal(&a, &b), lin(&a, &b));
        }
    }

    #[test]
    fn and_words_counts_ones() {
        let a = vec![0b1011u64, u64::MAX];
        let b = vec![0b0110u64, 1u64 << 63];
        let mut out = Vec::new();
        let c = and_words(&a, &b, &mut out);
        assert_eq!(out, vec![0b0010, 1u64 << 63]);
        assert_eq!(c, 2);
    }

    #[test]
    fn bitmap_roundtrip_preserves_set() {
        let tids: Vec<Tid> = vec![0, 1, 63, 64, 65, 200, 511];
        let s = TidSet::Sorted(tids.clone());
        let bm = s.to_bitmap(8);
        assert_eq!(bm.support(), tids.len() as u32);
        assert_eq!(bm.backend(), Backend::Bitmap);
        assert_eq!(bm.to_sorted(), s);
        assert_eq!(bm.bytes(), 64);
        assert_eq!(s.bytes(), 4 * tids.len() as u64);
    }

    #[test]
    fn intersect_consistent_across_backends() {
        let a = TidSet::Sorted(vec![1, 3, 5, 64, 100]);
        let b = TidSet::Sorted(vec![3, 64, 99, 100]);
        let mut st = KernelStats::default();
        let sorted = a.intersect(&b, true, &mut st);
        assert_eq!(sorted, TidSet::Sorted(vec![3, 64, 100]));
        let bm = a.to_bitmap(2).intersect(&b.to_bitmap(2), false, &mut st);
        assert_eq!(bm.support(), 3);
        assert_eq!(bm.to_sorted(), sorted);
        assert_eq!(st.intersections, 2);
        assert_eq!(st.words_anded, 2);
        assert!(st.tidset_bytes > 0 && st.work_units > 0);
    }

    #[test]
    #[should_panic(expected = "mixed tidset backends")]
    fn mixed_backends_panic() {
        let a = TidSet::Sorted(vec![1]);
        let b = a.to_bitmap(1);
        a.intersect(&b, false, &mut KernelStats::default());
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = KernelStats {
            intersections: 1,
            words_anded: 2,
            tidset_bytes: 3,
            work_units: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.intersections, 2);
        assert_eq!(a.work_units, 8);
    }
}
