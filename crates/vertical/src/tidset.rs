//! Tidset representations and their intersection kernels.
//!
//! A *tidset* is the set of transaction ids containing an itemset; its
//! cardinality is the itemset's support. Two physical layouts coexist:
//!
//! * [`TidSet::Sorted`] — an ascending `Vec<Tid>`. Intersection is one
//!   kernel, the branch-free merge [`intersect_linear`]
//!   (`O(|a| + |b|)`, no data-dependent branch in its inner loop).
//! * [`TidSet::Bitmap`] — one bit per transaction packed into `u64`
//!   words. Intersection is a word-wise AND with a fused `count_ones`
//!   popcount; cost is `n_txns / 64` words regardless of density, so it
//!   beats the sorted merge once the operands are denser than about one
//!   tid in 64 (the break-even ratio behind
//!   [`crate::VerticalConfig::density_threshold`]).
//!
//! The raw kernels ([`intersect_linear`], [`and_words`]) are exported
//! for the criterion `intersection` bench; the drivers go through
//! [`TidSet::intersect`], which also books [`KernelStats`] telemetry.

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
    /// The `bool` is ignored: each backend has one kernel. It stays in
    /// the signature for callers that still pass
    /// [`crate::VerticalConfig::galloping`].
    pub fn intersect(&self, other: &TidSet, _galloping: bool, stats: &mut KernelStats) -> TidSet {
        match (self, other) {
            (TidSet::Sorted(a), TidSet::Sorted(b)) => TidSet::Sorted(intersect_sorted(a, b, stats)),
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

/// Sorted-slice intersection with [`KernelStats`] bookkeeping: the
/// sorted-list arm of [`TidSet::intersect`].
pub fn intersect_sorted(a: &[Tid], b: &[Tid], stats: &mut KernelStats) -> Vec<Tid> {
    stats.intersections += 1;
    stats.work_units += (a.len() + b.len()).max(1) as u64;
    let mut out = Vec::new();
    intersect_linear(a, b, &mut out);
    stats.tidset_bytes += 4 * out.len() as u64;
    out
}

/// Branch-free merge intersection of ascending slices, appended to
/// `out`. Each step stores `a[i]` unconditionally and advances the write
/// index by `a[i] == b[j]`, `i` by `a[i] <= b[j]` and `j` by
/// `b[j] <= a[i]`, so the loop has no data-dependent branch to
/// mispredict. The output is pre-sized to `min(|a|, |b|)` slots past
/// `out`'s length and truncated to the matches at the end.
pub fn intersect_linear(a: &[Tid], b: &[Tid], out: &mut Vec<Tid>) {
    let start = out.len();
    out.resize(start + a.len().min(b.len()), 0);
    let dst = &mut out[start..];
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // In bounds: every match advances both `i` and `j`, so
        // `n <= min(i, j) < dst.len()`.
        dst[n] = x;
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.truncate(start + n);
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn lin(a: &[Tid], b: &[Tid]) -> Vec<Tid> {
        let mut out = Vec::new();
        intersect_linear(a, b, &mut out);
        out
    }

    #[test]
    fn merge_basics() {
        let cases: &[(&[Tid], &[Tid], &[Tid])] = &[
            (&[1, 3, 5], &[2, 3, 5, 7], &[3, 5]),
            (&[], &[1], &[]),
            (&[1, 2], &[3, 4], &[]),
            (&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]),
            (&[0], &[0], &[0]),
            (&[7], &[0, 1, 2, 3, 4, 5, 6, 7, 8], &[7]),
        ];
        for (a, b, want) in cases {
            assert_eq!(lin(a, b), *want, "a={a:?} b={b:?}");
            assert_eq!(lin(b, a), *want, "swapped");
        }
    }

    /// An ascending list of `len` distinct tids spread over about
    /// `0..span`, from random gaps.
    fn ascending(rng: &mut StdRng, len: usize, span: usize) -> Vec<Tid> {
        let gap = (span / len.max(1)).max(1) as u32;
        let mut t = rng.gen_range(0..gap);
        (0..len)
            .map(|_| {
                let x = t;
                t += 1 + rng.gen_range(0..2 * gap - 1);
                x
            })
            .collect()
    }

    /// The pair the property test intersects: a short list and one
    /// `2^exp` times longer, related by `mode` (0 random, 1 identical,
    /// 2 disjoint and interleaved, 3 the short list drawn from the long).
    fn pair(short_len: usize, exp: u32, mode: u8, seed: u64) -> (Vec<Tid>, Vec<Tid>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let long_len = short_len << exp;
        match mode {
            0 => {
                let span = 2 * long_len;
                (
                    ascending(&mut rng, short_len, span),
                    ascending(&mut rng, long_len, span),
                )
            }
            1 => {
                let a = ascending(&mut rng, short_len, 3 * short_len);
                (a.clone(), a)
            }
            2 => {
                let long: Vec<Tid> = (0..long_len as u32).map(|t| 2 * t).collect();
                let stride = 1 << exp;
                let short = (0..short_len as u32).map(|t| 2 * t * stride + 1).collect();
                (short, long)
            }
            _ => {
                let long = ascending(&mut rng, long_len, 2 * long_len);
                let short = long
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_range(0..1u32 << exp) == 0)
                    .take(short_len)
                    .collect();
                (short, long)
            }
        }
    }

    proptest! {
        #[test]
        fn merge_equals_btreeset_intersection(
            short_len in 0usize..300,
            exp in 0u32..9,
            mode in 0u8..4,
            seed in 0u64..u64::MAX,
            prefix in proptest::collection::vec(0u32..u32::MAX, 0..4),
        ) {
            let (short, long) = pair(short_len, exp, mode, seed);
            let want: Vec<Tid> = short
                .iter()
                .collect::<BTreeSet<_>>()
                .intersection(&long.iter().collect::<BTreeSet<_>>())
                .map(|&&t| t)
                .collect();
            for (a, b) in [(&short, &long), (&long, &short)] {
                let got = intersect_sorted(a, b, &mut KernelStats::default());
                prop_assert_eq!(&got, &want, "intersect_sorted");
                // Appends past a non-empty `out`, leaving its prefix alone.
                let mut out = prefix.clone();
                intersect_linear(a, b, &mut out);
                prop_assert_eq!(&out[..prefix.len()], &prefix[..], "prefix");
                prop_assert_eq!(&out[prefix.len()..], &want[..], "merge");
            }
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
