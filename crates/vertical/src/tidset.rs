//! Tidset representations and their join kernels.
//!
//! A *tidset* is the set of transaction ids containing an itemset; its
//! cardinality is the itemset's support. Three physical layouts coexist:
//!
//! * [`TidSet::Sorted`] — an ascending `Vec<Tid>`. Intersection is one
//!   kernel, the branch-free merge [`intersect_linear`]
//!   (`O(|a| + |b|)`, no data-dependent branch in its inner loop).
//! * [`TidSet::Diff`] — a *diffset* (dEclat, Zaki & Gouda 2003): the
//!   ascending tids that the class prefix `PX` has and the itemset
//!   lacks, plus the itemset's support. Below Eclat's root every sorted
//!   class joins by difference, [`difference_linear`], the merge's
//!   branch-free twin: from a tidset class `d(PXY) = t(PX) \ t(PY)`,
//!   from a diffset class `d(PXY) = d(PY) \ d(PX)`, and in both cases
//!   `sup(PXY) = sup(PX) − |d(PXY)|`. The kernel takes a miss budget of
//!   `sup(PX) − min_support` and stops as soon as the diffset outgrows
//!   it: past that point `PXY` cannot be frequent.
//! * [`TidSet::Bitmap`] — one bit per transaction packed into `u64`
//!   words. Intersection is a word-wise AND with a fused `count_ones`
//!   popcount; cost is `n_txns / 64` words regardless of density, so one
//!   AND beats one merge once the operands are denser than about one tid
//!   in 64. A run picks its layout once, at the root
//!   ([`crate::VerticalConfig::choose`]): a bitmap root stays on bitmaps
//!   all the way down, and a sorted root's classes below it join by
//!   difference. Sorted lists are never rebuilt from bitmaps.
//!
//! A sorted root also joins through a [`TidMarks`] bitmap: Eclat marks
//! the tids of root member `a` once, then builds `t(ab)` for each
//! frequent partner `b` with [`intersect_marked`], which streams `t(b)`
//! and keeps the marked tids. Each step stores the tid unconditionally
//! and advances the write index by its mark bit, so no step's loads wait
//! on the previous step's, and `t(a)` is read once per row rather than
//! once per partner. The pair count gives the child's exact size, so the
//! kernel stops once it has stored that many tids, and its output is
//! allocated exactly.
//!
//! The raw kernels ([`intersect_linear`], [`difference_linear`],
//! [`intersect_marked`], [`and_words`]) are exported for the criterion
//! `intersection` bench; the drivers go through [`TidSet::intersect`]
//! and `TidMarks::join` (the root) and [`TidSet::join`] (every class
//! below it), which also book [`KernelStats`] telemetry.

use arm_dataset::Tid;

/// Per-task kernel telemetry. Accumulated locally (no atomics on the hot
/// path) and folded into the `arm-metrics` shards by the drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Joins performed: intersections and differences alike, including
    /// differences that stopped early, so the count depends only on
    /// which pairs were joined, not on how.
    pub intersections: u64,
    /// `u64` words ANDed by the bitmap kernel.
    pub words_anded: u64,
    /// Bytes of tidset storage materialized (outputs and conversions).
    pub tidset_bytes: u64,
    /// Abstract work units (merge: `|a| + |b|`; difference: the elements
    /// it consumed, fewer than `|a| + |b|` when it stops early; marked:
    /// the elements of `a` marked, once per row, plus the elements of
    /// each `b` streamed; AND: words touched) — the per-thread tally
    /// behind the `mine` phase's imbalance.
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
/// [`crate::TidBackend`] knob (which adds an `Auto` mode). A diffset is
/// a sorted list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ascending tid list.
    Sorted,
    /// Packed bit-per-transaction words.
    Bitmap,
}

/// A transaction-id set in one of three physical representations.
///
/// All members of one equivalence class share a representation, so
/// [`TidSet::intersect`] and [`TidSet::join`] never see mixed operands
/// (they panic if they do — that would be a driver bug, not an input
/// condition).
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
    /// Ascending tids of the class prefix `PX` that are not in the
    /// itemset `PXY` (its diffset), plus the itemset's support.
    Diff {
        /// `t(PX) \ t(PXY)`, ascending.
        tids: Vec<Tid>,
        /// `sup(PXY) = sup(PX) − |tids|`.
        support: u32,
    },
}

impl TidSet {
    /// The set's cardinality — the itemset's support.
    pub fn support(&self) -> u32 {
        match self {
            TidSet::Sorted(tids) => tids.len() as u32,
            TidSet::Bitmap { count, .. } => *count,
            TidSet::Diff { support, .. } => *support,
        }
    }

    /// Bytes of backing storage (4 per tid, 8 per bitmap word).
    pub fn bytes(&self) -> u64 {
        match self {
            TidSet::Sorted(tids) | TidSet::Diff { tids, .. } => 4 * tids.len() as u64,
            TidSet::Bitmap { words, .. } => 8 * words.len() as u64,
        }
    }

    /// Which layout this set uses.
    pub fn backend(&self) -> Backend {
        match self {
            TidSet::Sorted(_) | TidSet::Diff { .. } => Backend::Sorted,
            TidSet::Bitmap { .. } => Backend::Bitmap,
        }
    }

    /// Converts to a bitmap over `n_words` words (no-op copy if already
    /// a bitmap). Panics on a diffset, which holds no tidset of its own.
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
            TidSet::Diff { .. } => {
                panic!("a diffset cannot be converted without its prefix's tidset")
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
            _ => panic!("{MIXED}"),
        }
    }

    /// Joins two members of a class below the root, `self` = `PX` and a
    /// later member `other` = `PY`, into `PXY`, or `None` when `PXY`'s
    /// support is below `min_support`; books telemetry into `stats`.
    ///
    /// A sorted class joins by difference and yields a diffset: from
    /// tidsets `t(PX) \ t(PY)`, from diffsets `d(PY) \ d(PX)`. The kernel
    /// stops once the diffset exceeds `sup(PX) − min_support` tids. A
    /// bitmap class intersects. `self` must be frequent.
    pub fn join(
        &self,
        other: &TidSet,
        min_support: u32,
        stats: &mut KernelStats,
    ) -> Option<TidSet> {
        let parent = self.support();
        let budget = parent.saturating_sub(min_support) as usize;
        let diff = |a: &[Tid], b: &[Tid], stats: &mut KernelStats| {
            difference_sorted(a, b, budget, stats).map(|tids| TidSet::Diff {
                support: parent - tids.len() as u32,
                tids,
            })
        };
        match (self, other) {
            (TidSet::Sorted(a), TidSet::Sorted(b)) => diff(a, b, stats),
            (TidSet::Diff { tids: a, .. }, TidSet::Diff { tids: b, .. }) => diff(b, a, stats),
            (TidSet::Bitmap { .. }, TidSet::Bitmap { .. }) => {
                Some(self.intersect(other, false, stats)).filter(|t| t.support() >= min_support)
            }
            _ => panic!("{MIXED}"),
        }
    }
}

const MIXED: &str = "mixed tidset backends within one equivalence class";

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

/// Sorted-slice difference `a \ b` with [`KernelStats`] bookkeeping:
/// `None` when it holds more than `budget` tids (see
/// [`difference_linear`]). Work is the elements the kernel consumed.
fn difference_sorted(
    a: &[Tid],
    b: &[Tid],
    budget: usize,
    stats: &mut KernelStats,
) -> Option<Vec<Tid>> {
    stats.intersections += 1;
    let mut out = Vec::new();
    let result = difference_linear(a, b, budget, &mut out);
    let (Ok(consumed) | Err(consumed)) = result;
    stats.work_units += consumed.max(1) as u64;
    stats.tidset_bytes += 4 * out.len() as u64;
    result.ok().map(|_| out)
}

/// Branch-free merge difference `a \ b` of ascending slices, appended to
/// `out` if it holds at most `budget` tids. The loop is
/// [`intersect_linear`]'s with the write condition flipped: each step
/// stores `a[i]` and advances the write index by `a[i] < b[j]`, `i` by
/// `a[i] <= b[j]` and `j` by `b[j] <= a[i]`; once `b` runs out, the tail
/// of `a` is copied. The loop also stops as soon as the difference
/// outgrows `budget`, so the output needs at most `min(|a|, budget + 1)`
/// slots past `out`'s length.
///
/// Returns `Ok(consumed)` with the difference appended, or
/// `Err(consumed)` with `out` as it was when `|a \ b| > budget`;
/// `consumed` counts the elements of `a` and `b` the kernel read.
pub fn difference_linear(
    a: &[Tid],
    b: &[Tid],
    budget: usize,
    out: &mut Vec<Tid>,
) -> Result<usize, usize> {
    let start = out.len();
    out.resize(start + a.len().min(budget.saturating_add(1)), 0);
    let dst = &mut out[start..];
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while n <= budget && i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        // In bounds: `n <= budget`, and every write advance also
        // advances `i`, so `n <= i < |a|`.
        dst[n] = x;
        n += usize::from(x < y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    let tail = a.len() - i;
    if n + tail > budget {
        out.truncate(start);
        return Err(i + j);
    }
    dst[n..n + tail].copy_from_slice(&a[i..]);
    out.truncate(start + n + tail);
    Ok(a.len() + j)
}

/// A bitmap over the transaction space that marks one tidset at a time,
/// for the marked root joins ([`intersect_marked`]). Every bit is zero
/// between uses: [`TidMarks::unmark`] clears what [`TidMarks::mark`] set.
#[derive(Debug, Clone)]
pub struct TidMarks {
    words: Vec<u64>,
}

impl TidMarks {
    /// All-zero marks over `n_txns` transactions.
    pub fn new(n_txns: usize) -> Self {
        TidMarks {
            words: vec![0; n_txns.div_ceil(64)],
        }
    }

    /// Sets the bits of `tids` (all below the `n_txns` of [`TidMarks::new`]).
    pub fn mark(&mut self, tids: &[Tid]) {
        for &t in tids {
            self.words[t as usize / 64] |= 1 << (t % 64);
        }
    }

    /// Clears the bits [`TidMarks::mark`] set for `tids`, leaving every
    /// bit zero when `tids` was the only set marked. It zeroes whole
    /// words: no other tidset may share them.
    pub fn unmark(&mut self, tids: &[Tid]) {
        for &t in tids {
            self.words[t as usize / 64] = 0;
        }
    }

    /// True when no bit is set.
    pub(crate) fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `1` if `t` is marked, else `0`.
    #[inline]
    fn bit(&self, t: Tid) -> usize {
        (self.words[t as usize / 64] >> (t % 64) & 1) as usize
    }

    /// The marked root join: `t(a) ∩ t(b)` for the marked `t(a)` and a
    /// sorted `b` whose intersection with it holds exactly `support`
    /// tids (its pair count), into a list of exactly that capacity.
    /// Books one intersection, the streamed elements of `b` and the
    /// output's bytes into `stats` (marking `t(a)` is booked by the
    /// caller, once per row).
    pub(crate) fn join(&self, b: &TidSet, support: u32, stats: &mut KernelStats) -> TidSet {
        let TidSet::Sorted(b) = b else {
            panic!("{MIXED}");
        };
        let mut out = Vec::with_capacity(support as usize);
        let streamed = intersect_marked(self, b, support as usize, &mut out);
        debug_assert_eq!(
            out.len(),
            support as usize,
            "pair count is not |t(a) ∩ t(b)|"
        );
        stats.intersections += 1;
        stats.work_units += streamed.max(1) as u64;
        stats.tidset_bytes += 4 * out.len() as u64;
        TidSet::Sorted(out)
    }
}

/// Intersection of the tids marked in `marks` with the ascending slice
/// `b`, appended to `out`, keeping at most `limit` tids. Each step
/// stores `b[j]` unconditionally and advances the write index by its
/// mark bit, so no load waits on the previous step's outcome. The loop
/// stops once `limit` tids are kept, so with `limit` the exact size of
/// the intersection it stores into exactly `limit` slots past `out`'s
/// length, and a larger `limit` keeps the whole intersection. Returns
/// the number of elements of `b` streamed.
pub fn intersect_marked(marks: &TidMarks, b: &[Tid], limit: usize, out: &mut Vec<Tid>) -> usize {
    let start = out.len();
    out.resize(start + limit.min(b.len()), 0);
    let dst = &mut out[start..];
    let (mut j, mut n) = (0usize, 0usize);
    while n < dst.len() && j < b.len() {
        let t = b[j];
        dst[n] = t;
        n += marks.bit(t);
        j += 1;
    }
    out.truncate(start + n);
    j
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

    proptest! {
        #[test]
        fn difference_equals_btreeset_difference(
            short_len in 0usize..300,
            exp in 0u32..9,
            mode in 0u8..4,
            seed in 0u64..u64::MAX,
            prefix in proptest::collection::vec(0u32..u32::MAX, 0..4),
        ) {
            let (short, long) = pair(short_len, exp, mode, seed);
            for (a, b) in [(&short, &long), (&long, &short)] {
                let want: Vec<Tid> = a
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .difference(&b.iter().collect::<BTreeSet<_>>())
                    .map(|&&t| t)
                    .collect();
                let m = want.len();
                for budget in [0, m.saturating_sub(1), m, a.len()] {
                    // Appends past a non-empty `out`, leaving its prefix
                    // alone, and appends nothing when over budget.
                    let mut out = prefix.clone();
                    let got = difference_linear(a, b, budget, &mut out);
                    prop_assert_eq!(&out[..prefix.len()], &prefix[..], "prefix");
                    prop_assert_eq!(got.is_err(), m > budget, "budget {} |a \\ b| {}", budget, m);
                    let appended: &[Tid] = if m > budget { &[] } else { &want };
                    prop_assert_eq!(&out[prefix.len()..], appended, "difference");

                    let mut st = KernelStats::default();
                    let sorted = difference_sorted(a, b, budget, &mut st);
                    prop_assert_eq!(sorted, (m <= budget).then(|| want.clone()));
                    prop_assert_eq!(st.intersections, 1);
                    prop_assert!(st.work_units <= (a.len() + b.len()).max(1) as u64);
                }
            }
        }
    }

    /// Tids at the marks' word edges for a universe of `n_txns`, plus
    /// `extra` random ones below it, ascending and distinct.
    fn edge_tids(n_txns: u32, extra: &[u32]) -> Vec<Tid> {
        let edges = [0, 63, 64, 65, n_txns - 1];
        let set: BTreeSet<Tid> = edges.iter().chain(extra).map(|&t| t % n_txns).collect();
        set.into_iter().collect()
    }

    proptest! {
        /// The marked kernel equals `BTreeSet` intersection for random
        /// subsets of edge-rich tid lists, empty operands, a stream that
        /// is all marked and one that is all unmarked; fed its exact
        /// support it fills a list of exactly that capacity; and the
        /// marks are all zero again after each unmark.
        #[test]
        fn marked_equals_btreeset_intersection(
            n_txns in 66u32..400,
            extra in proptest::collection::vec(0u32..u32::MAX, 0..200),
            keep_a in 0u32..=100,
            keep_b in 0u32..=100,
            seed in 0u64..u64::MAX,
            prefix in proptest::collection::vec(0u32..u32::MAX, 0..4),
        ) {
            let universe = edge_tids(n_txns, &extra);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut subset = |keep: u32| -> Vec<Tid> {
                universe.iter().copied().filter(|_| rng.gen_range(0..100u32) < keep).collect()
            };
            let (a, b) = (subset(keep_a), subset(keep_b));
            let unmarked: Vec<Tid> = (0..n_txns).filter(|t| !a.contains(t)).collect();
            let mut marks = TidMarks::new(n_txns as usize);
            for (a, b) in [
                (&a, &b),
                (&a, &a),
                (&a, &unmarked),
                (&a, &vec![]),
                (&vec![], &b),
            ] {
                let want: Vec<Tid> = a
                    .iter()
                    .collect::<BTreeSet<_>>()
                    .intersection(&b.iter().collect::<BTreeSet<_>>())
                    .map(|&&t| t)
                    .collect();
                marks.mark(a);
                // A limit of |b| keeps the whole intersection, appended
                // past a non-empty `out`.
                let mut out = prefix.clone();
                let streamed = intersect_marked(&marks, b, b.len(), &mut out);
                prop_assert_eq!(&out[..prefix.len()], &prefix[..], "prefix");
                prop_assert_eq!(&out[prefix.len()..], &want[..], "marked");
                prop_assert_eq!(streamed, b.len());
                // The exact support stops at the last match, into exactly
                // that capacity.
                let mut st = KernelStats::default();
                let got = marks.join(&TidSet::Sorted(b.clone()), want.len() as u32, &mut st);
                let TidSet::Sorted(got) = got else { unreachable!() };
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got.capacity(), want.len());
                let last = want.last().map_or(0, |t| b.partition_point(|x| x <= t));
                prop_assert_eq!(st.work_units, last.max(1) as u64);
                prop_assert_eq!(st.intersections, 1);
                prop_assert_eq!(st.tidset_bytes, 4 * want.len() as u64);
                marks.unmark(a);
                prop_assert!(marks.is_clear(), "marks left set");
            }
        }
    }

    /// The ascending tids of a bitmap's set bits.
    fn decode(set: &TidSet) -> Vec<Tid> {
        let TidSet::Bitmap { words, .. } = set else {
            panic!("not a bitmap: {set:?}")
        };
        (0..64 * words.len() as Tid)
            .filter(|&t| words[t as usize / 64] >> (t % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn join_below_the_root() {
        let mut st = KernelStats::default();
        // Tidsets t(PX), t(PY), t(PZ) -> diffsets d(PXY), d(PXZ).
        let (px, py, pz) = (
            TidSet::Sorted(vec![1, 2, 3, 5, 8]),
            TidSet::Sorted(vec![2, 3, 5, 7]),
            TidSet::Sorted(vec![1, 2, 3, 5, 8, 9]),
        );
        let pxy = px.join(&py, 2, &mut st).unwrap();
        assert_eq!(
            pxy,
            TidSet::Diff {
                tids: vec![1, 8],
                support: 3
            }
        );
        let pxz = px.join(&pz, 2, &mut st).unwrap();
        assert_eq!(
            pxz,
            TidSet::Diff {
                tids: vec![],
                support: 5
            }
        );
        // One level deeper: d(PXYZ) = d(PXZ) \ d(PXY), sup = 3 - 0.
        let pxyz = pxy.join(&pxz, 3, &mut st).unwrap();
        assert_eq!(
            pxyz,
            TidSet::Diff {
                tids: vec![],
                support: 3
            }
        );
        // sup(PXY) = 3 misses minsup 4: the budget of 1 trips.
        assert_eq!(px.join(&py, 4, &mut st), None);
        assert_eq!(st.intersections, 4);
        // Bitmap classes intersect, keeping only frequent children.
        let (bx, by) = (px.to_bitmap(1), py.to_bitmap(1));
        assert_eq!(
            bx.join(&by, 3, &mut st).map(|t| decode(&t)),
            Some(vec![2, 3, 5])
        );
        assert_eq!(bx.join(&by, 4, &mut st), None);
        assert_eq!(pxy.bytes(), 8);
        assert_eq!(pxy.backend(), Backend::Sorted);
    }

    #[test]
    #[should_panic(expected = "diffset cannot be converted")]
    fn diffsets_do_not_convert() {
        TidSet::Diff {
            tids: vec![1],
            support: 3,
        }
        .to_bitmap(1);
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
        assert_eq!(decode(&bm), tids);
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
        assert_eq!(TidSet::Sorted(decode(&bm)), sorted);
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
