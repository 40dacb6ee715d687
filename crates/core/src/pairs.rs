//! The `C_2` kernel: pair supports counted in a dense upper-triangular
//! array over the frequent items, instead of a candidate hash tree.
//!
//! At `k = 2` every pair of frequent items is a candidate (all of `F_1`
//! is one equivalence class and nothing can be pruned), so the tree
//! buys nothing: an array indexed by item *ranks* in `F_1` holds every
//! counter, and a transaction's pairs are found by a double loop over
//! its frequent items. Rows are laid out row-major over the upper
//! triangle, so array index `i` is exactly the id of the `i`-th
//! candidate of [`crate::generate_candidates`] on `F_1`.
//!
//! Each worker counts its transaction ranges into a private array
//! ([`PairIndex::count_into`]); the arrays are summed by [`reduce_into_first`]
//! and [`PairIndex::frequent`] reads `F_2` off the total in one scan, in
//! canonical order, both as a level and as per-rank partner lists
//! ([`FrequentPairs`]): for each rank, the ascending higher ranks it forms
//! a frequent pair with, row after row, so a pair's slot is its `F_2` id.
//! The `k = 3` class-array pass ([`crate::class_array`]) reads each
//! transaction's `F_2` ids straight off its items with them: it marks the
//! transaction's ranks in a bitmap and keeps the marked partners of each,
//! so the work is the ranks' partner counts, not their `C(r, 2)` pairs.

use crate::apriori::IterStats;
use crate::level::FrequentLevel;
use arm_dataset::{Database, Item};
use arm_hashtree::{CandidateSet, WorkMeter};
use std::ops::Range;

/// Rank of an item outside `F_1`.
const NOT_FREQUENT: u32 = u32::MAX;

/// Maps item pairs of `F_1` to slots of a triangular counter array.
#[derive(Debug, Clone)]
pub struct PairIndex {
    /// `rank[item]`: the item's position in `F_1`, or [`NOT_FREQUENT`].
    rank: Vec<u32>,
    /// `F_1`'s items in ascending order (`items[r]` has rank `r`).
    items: Vec<Item>,
    /// `row[r]`: array index of the pair `(r, r + 1)`.
    row: Vec<usize>,
    /// `C(|F_1|, 2)`.
    len: usize,
}

/// `C(n, 2)`, or `None` when the array of that many `u32` counters would
/// not be addressable. (`n·(n-1)` overflows only when `4·C(n, 2)` does.)
pub(crate) fn n_pairs(n: usize) -> Option<usize> {
    let pairs = n.checked_mul(n.saturating_sub(1))? / 2;
    pairs.checked_mul(std::mem::size_of::<u32>())?;
    Some(pairs)
}

impl PairIndex {
    /// Indexes the pairs of `f1_items` (ascending, all below `n_items`).
    /// Returns `None` when the counter array's byte length,
    /// `4·C(|F_1|, 2)`, overflows `usize`.
    pub fn new(f1_items: &[Item], n_items: u32) -> Option<Self> {
        let n = f1_items.len();
        let len = n_pairs(n)?;
        debug_assert!(f1_items.windows(2).all(|w| w[0] < w[1]));
        let mut rank = vec![NOT_FREQUENT; n_items as usize];
        for (r, &item) in f1_items.iter().enumerate() {
            rank[item as usize] = r as u32;
        }
        // Row r starts after rows 0..r, of n-1, n-2, ..., n-r slots.
        let mut row = Vec::with_capacity(n);
        let mut start = 0usize;
        for r in 0..n {
            row.push(start);
            start += n - r - 1;
        }
        debug_assert_eq!(start, len);
        Some(PairIndex {
            rank,
            items: f1_items.to_vec(),
            row,
            len,
        })
    }

    /// `C(|F_1|, 2)`: the number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `F_1` has fewer than two items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zeroed counter array.
    pub fn zeroed(&self) -> Vec<u32> {
        vec![0; self.len]
    }

    /// Array index of the pair of ranks `a < b`.
    #[inline]
    pub fn index(&self, a: u32, b: u32) -> usize {
        debug_assert!(a < b && (b as usize) < self.items.len());
        self.row[a as usize] + (b - a - 1) as usize
    }

    /// The counters of the pairs `(a, b)` for every rank `b > a`, in
    /// order of `b`.
    fn row<'c>(&self, counts: &'c [u32], a: usize) -> &'c [u32] {
        let start = self.row[a];
        &counts[start..start + (self.items.len() - a - 1)]
    }

    /// Adds the pair occurrences of the transactions in `range` to
    /// `counts` and returns the number of increments. `rank_buf` is
    /// reusable scratch. Summing the arrays of any exact partition of the
    /// database gives the whole-database counts.
    pub fn count_into(
        &self,
        db: &Database,
        range: Range<usize>,
        counts: &mut [u32],
        rank_buf: &mut Vec<u32>,
    ) -> u64 {
        assert_eq!(counts.len(), self.len, "counter array of the wrong size");
        let mut increments = 0u64;
        for t in range {
            rank_buf.clear();
            rank_buf.extend(
                db.transaction(t)
                    .iter()
                    .map(|&item| self.rank[item as usize])
                    .filter(|&r| r != NOT_FREQUENT),
            );
            // Items are ascending and ranks preserve order, so `a < b`.
            for (i, &a) in rank_buf.iter().enumerate() {
                let start = self.row[a as usize];
                let first = a as usize + 1;
                for &b in &rank_buf[i + 1..] {
                    counts[start + (b as usize - first)] += 1;
                }
            }
            let m = rank_buf.len() as u64;
            increments += m * m.saturating_sub(1) / 2;
        }
        increments
    }

    /// `F_2`, the pairs whose count reaches `min_support`, read off the
    /// array in one scan: as a level in canonical (lexicographic) order,
    /// and as per-rank partner lists over this index's ranks in the same
    /// order, so a pair's slot is its `F_2` id.
    pub fn frequent(&self, counts: &[u32], min_support: u32) -> (FrequentLevel, FrequentPairs<'_>) {
        let mut sets = CandidateSet::new(2);
        let mut supports = Vec::new();
        let mut start = Vec::with_capacity(self.items.len() + 1);
        let mut partner = Vec::new();
        start.push(0);
        for (a, &x) in self.items.iter().enumerate() {
            for (b, &c) in (a as u32 + 1..).zip(self.row(counts, a)) {
                if c >= min_support {
                    sets.push(&[x, self.items[b as usize]]);
                    supports.push(c);
                    partner.push(b);
                }
            }
            start.push(partner.len());
        }
        let pairs = FrequentPairs {
            index: self,
            start,
            partner,
        };
        (FrequentLevel::new(sets, supports), pairs)
    }

    /// The `k = 2` iteration record of a run counted with this index:
    /// every pair is a candidate and a join pair, and no tree exists.
    pub fn iter_stats(&self, n_frequent: usize, meter: WorkMeter) -> IterStats {
        IterStats {
            k: 2,
            n_candidates: self.len,
            n_frequent,
            fanout: 0,
            tree_bytes: 0,
            tree_nodes: 0,
            join_pairs: self.len as u64,
            meter,
        }
    }
}

/// `F_2` as per-rank partner lists over a [`PairIndex`]'s ranks
/// ([`PairIndex::frequent`]), in CSR form: the partners of rank `a`
/// are `partner[start[a]..start[a + 1]]`, the ascending ranks `b > a`
/// with `(a, b)` frequent. `F_2` is lex-ordered, so the slot of a pair in
/// `partner` is its `F_2` id.
pub struct FrequentPairs<'a> {
    index: &'a PairIndex,
    /// `start[a]`: the `F_2` id of rank `a`'s first partner pair; `|F_1| + 1`
    /// entries, the last one `|F_2|`.
    start: Vec<usize>,
    /// The partner ranks of every rank, row after row.
    partner: Vec<u32>,
}

impl FrequentPairs<'_> {
    /// The partners of rank `a`: the ascending ranks `b > a` with
    /// `(a, b)` frequent.
    pub fn partners(&self, a: usize) -> &[u32] {
        &self.partner[self.start[a]..self.start[a + 1]]
    }

    /// Writes to `ids` the `F_2` ids of the frequent pairs contained in
    /// `txn` (ascending items), in ascending order. `ranks` and `marks`
    /// are scratch; `marks` is a bitmap over the ranks that must be all
    /// zero on entry (an empty `Vec` is) and is all zero again on return.
    ///
    /// The transaction's frequent ranks are marked, and each one's
    /// partners are walked: every partner's id is stored, and the write
    /// index advances by the partner's mark bit. The work is the sum of
    /// the ranks' partner counts, not the `C(r, 2)` pairs of the ranks.
    pub fn ids_into(
        &self,
        txn: &[Item],
        ranks: &mut Vec<u32>,
        marks: &mut Vec<u64>,
        ids: &mut Vec<u32>,
    ) {
        let index = self.index;
        ranks.clear();
        ranks.extend(
            txn.iter()
                .map(|&item| index.rank[item as usize])
                .filter(|&r| r != NOT_FREQUENT),
        );
        ids.clear();
        // The last rank has no marked partner: every partner is above it.
        let Some((_, walked)) = ranks.split_last() else {
            return;
        };
        let words = index.items.len().div_ceil(64);
        if marks.len() < words {
            marks.resize(words, 0);
        }
        for &r in ranks.iter() {
            marks[r as usize / 64] |= 1 << (r % 64);
        }
        let room: usize = walked
            .iter()
            .map(|&a| self.start[a as usize + 1] - self.start[a as usize])
            .sum();
        ids.resize(room, 0);
        let mut w = 0;
        // Ranks ascend and so do each rank's partners: ids come in order.
        for &a in walked {
            let first = self.start[a as usize];
            let partners = &self.partner[first..self.start[a as usize + 1]];
            for (id, &b) in (first as u32..).zip(partners) {
                ids[w] = id;
                w += (marks[b as usize / 64] >> (b % 64) & 1) as usize;
            }
        }
        ids.truncate(w);
        for &r in ranks.iter() {
            marks[r as usize / 64] = 0;
        }
    }
}

/// Sums every array into the first one and returns it (the reduction of
/// per-thread counts). `None` for an empty list.
pub fn reduce_into_first(arrays: Vec<Vec<u32>>) -> Option<Vec<u32>> {
    let mut arrays = arrays.into_iter();
    let mut total = arrays.next()?;
    for a in arrays {
        for (t, v) in total.iter_mut().zip(&a) {
            *t += v;
        }
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frequent_singletons, generate_candidates};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn paper_db() -> Database {
        Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap()
    }

    fn f1_items(db: &Database, minsup: u32) -> (FrequentLevel, Vec<Item>) {
        let f1 = frequent_singletons(db, minsup);
        let items = crate::f1_items(&f1);
        (f1, items)
    }

    #[test]
    fn index_is_a_lex_ordered_bijection() {
        for n in 0..40u32 {
            let items: Vec<Item> = (0..n).map(|i| 3 * i + 1).collect();
            let idx = PairIndex::new(&items, 3 * n + 1).unwrap();
            assert_eq!(idx.len(), (n as usize) * (n as usize).saturating_sub(1) / 2);
            let mut expected = 0usize;
            for a in 0..n {
                for b in a + 1..n {
                    assert_eq!(idx.index(a, b), expected, "n={n} ({a},{b})");
                    expected += 1;
                }
            }
            assert_eq!(expected, idx.len());
        }
    }

    #[test]
    fn index_matches_generate_candidates_ids() {
        let db = paper_db();
        for minsup in 1..=3 {
            let (f1, items) = f1_items(&db, minsup);
            let idx = PairIndex::new(&items, db.n_items()).unwrap();
            let (c2, joins) = generate_candidates(&f1);
            assert_eq!(c2.len(), idx.len());
            assert_eq!(joins, idx.len() as u64);
            for (id, pair) in c2.iter() {
                let a = items.binary_search(&pair[0]).unwrap() as u32;
                let b = items.binary_search(&pair[1]).unwrap() as u32;
                assert_eq!(idx.index(a, b), id as usize, "{pair:?}");
            }
        }
    }

    #[test]
    fn paper_f2_from_the_array() {
        let db = paper_db();
        let (_, items) = f1_items(&db, 2);
        let idx = PairIndex::new(&items, db.n_items()).unwrap();
        let mut counts = idx.zeroed();
        let hits = idx.count_into(&db, 0..db.len(), &mut counts, &mut Vec::new());
        // Frequent ranks {1,2,4,5}: txns contribute 3 + 1 + 1 + 6 pairs.
        assert_eq!(hits, 11);
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), hits);
        let (f2, _) = idx.frequent(&counts, 2);
        let got: Vec<(Vec<Item>, u32)> = f2.iter().map(|(s, c)| (s.to_vec(), c)).collect();
        assert_eq!(
            got,
            vec![
                (vec![1, 2], 2),
                (vec![1, 4], 2),
                (vec![1, 5], 2),
                (vec![4, 5], 3)
            ]
        );
        assert_eq!(idx.row(&counts, 2), &[3]);
        let s = idx.iter_stats(f2.len(), WorkMeter::default());
        assert_eq!((s.n_candidates, s.join_pairs, s.tree_bytes), (6, 6, 0));
    }

    #[test]
    fn array_length_is_checked() {
        assert_eq!(n_pairs(0), Some(0));
        assert_eq!(n_pairs(1), Some(0));
        assert_eq!(n_pairs(2), Some(1));
        assert_eq!(n_pairs(5), Some(10));
        assert_eq!(n_pairs(6), Some(15));
        assert_eq!(n_pairs(usize::MAX), None);
        // Largest n whose 4·C(n, 2) bytes still fit, and the next one.
        let fits = |n: usize| (n as u128) * (n as u128 - 1) / 2 * 4 <= usize::MAX as u128;
        let (mut lo, mut hi) = (2usize, usize::MAX);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let n = lo;
        assert_eq!(
            n_pairs(n),
            Some(((n as u128) * (n as u128 - 1) / 2) as usize)
        );
        assert_eq!(n_pairs(n + 1), None);
    }

    #[test]
    fn reduce_sums_into_the_first_array() {
        assert_eq!(reduce_into_first(Vec::new()), None);
        let total = reduce_into_first(vec![vec![1, 2], vec![10, 20], vec![100, 200]]);
        assert_eq!(total, Some(vec![111, 222]));
    }

    fn naive_pairs(db: &Database) -> BTreeMap<(Item, Item), u32> {
        let mut m = BTreeMap::new();
        for t in 0..db.len() {
            let txn = db.transaction(t);
            for (i, &a) in txn.iter().enumerate() {
                for &b in &txn[i + 1..] {
                    *m.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
        m
    }

    proptest! {
        #[test]
        fn array_counts_equal_naive_and_compose_over_chunks(
            txns in proptest::collection::vec(proptest::collection::vec(0u32..24, 0..9), 0..60),
            minsup in 1u32..4,
            cuts in proptest::collection::vec(0usize..61, 0..6),
        ) {
            let db = Database::from_transactions(24, txns).unwrap();
            let (_, items) = f1_items(&db, minsup);
            let idx = PairIndex::new(&items, db.n_items()).unwrap();
            let mut whole = idx.zeroed();
            let mut buf = Vec::new();
            let hits = idx.count_into(&db, 0..db.len(), &mut whole, &mut buf);

            let naive = naive_pairs(&db);
            let mut expected_hits = 0u64;
            for (a, &x) in items.iter().enumerate() {
                for (b, &y) in items.iter().enumerate().skip(a + 1) {
                    let want = naive.get(&(x, y)).copied().unwrap_or(0);
                    expected_hits += want as u64;
                    prop_assert_eq!(whole[idx.index(a as u32, b as u32)], want);
                }
            }
            prop_assert_eq!(hits, expected_hits);

            // Any chunking, each chunk into its own array, sums to the whole.
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(db.len())).collect();
            bounds.push(0);
            bounds.push(db.len());
            bounds.sort_unstable();
            let parts: Vec<Vec<u32>> = bounds
                .windows(2)
                .map(|w| {
                    let mut a = idx.zeroed();
                    idx.count_into(&db, w[0]..w[1], &mut a, &mut buf);
                    a
                })
                .collect();
            prop_assert_eq!(reduce_into_first(parts).unwrap(), whole);
        }

        /// One scan reads `F_2` off the array: the level is the pairs a
        /// brute-force count finds frequent, in lexicographic order, and
        /// the partner lists, read row after row, are the same pairs in
        /// the same order. `ids_into` lists exactly a transaction's
        /// frequent pairs, ascending, with one scratch reused across the
        /// database.
        #[test]
        fn frequent_pair_ids_are_f2_positions(
            txns in proptest::collection::vec(proptest::collection::vec(0u32..24, 0..12), 0..60),
            minsup in 1u32..4,
        ) {
            let db = Database::from_transactions(24, txns).unwrap();
            let (_, items) = f1_items(&db, minsup);
            let idx = PairIndex::new(&items, db.n_items()).unwrap();
            let mut counts = idx.zeroed();
            idx.count_into(&db, 0..db.len(), &mut counts, &mut Vec::new());
            let (f2, pairs) = idx.frequent(&counts, minsup);
            let brute: Vec<(Vec<Item>, u32)> = naive_pairs(&db)
                .into_iter()
                .filter(|&(_, c)| c >= minsup)
                .map(|((x, y), c)| (vec![x, y], c))
                .collect();
            let got: Vec<(Vec<Item>, u32)> = f2.iter().map(|(s, c)| (s.to_vec(), c)).collect();
            prop_assert_eq!(got, brute);
            prop_assert_eq!(pairs.partner.len(), f2.len());
            let mut listed = Vec::new();
            for (a, &x) in items.iter().enumerate() {
                listed.extend(pairs.partners(a).iter().map(|&b| [x, items[b as usize]]));
            }
            let want: Vec<[Item; 2]> = f2.iter().map(|(s, _)| [s[0], s[1]]).collect();
            prop_assert_eq!(listed, want);
            let (mut ranks, mut marks, mut ids) = (Vec::new(), Vec::new(), Vec::new());
            for txn in db.iter() {
                pairs.ids_into(txn, &mut ranks, &mut marks, &mut ids);
                let mut want = Vec::new();
                for (i, &x) in txn.iter().enumerate() {
                    for &y in &txn[i + 1..] {
                        want.extend(f2.find(&[x, y]).map(|i| i as u32));
                    }
                }
                prop_assert_eq!(&ids, &want);
                prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
            }
        }

        /// `ids_into` equals a brute-force list of the contained frequent
        /// pairs' `F_2` ids at the mark bitmap's word edges, on
        /// transactions with no frequent item, all-frequent rows and
        /// random mixes, all through one reused scratch.
        #[test]
        fn ids_into_equals_brute_force_at_word_edges(
            edge in 0usize..7,
            density in 0u64..=100,
            seed in any::<u64>(),
        ) {
            let n = [0u32, 1, 2, 63, 64, 65, 130][edge];
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // F_1 is the even items; the odd ones are infrequent.
            let items: Vec<Item> = (0..n).map(|r| 2 * r).collect();
            let idx = PairIndex::new(&items, 2 * n).unwrap();
            let counts: Vec<u32> =
                (0..idx.len()).map(|_| u32::from(next() % 100 < density)).collect();
            let (_, pairs) = idx.frequent(&counts, 1);
            // The F_2 id of a frequent pair: the frequent slots before it.
            let id_of: Vec<u32> = counts
                .iter()
                .scan(0u32, |seen, &c| {
                    *seen += c;
                    Some(*seen - c)
                })
                .collect();
            let mut txns: Vec<Vec<Item>> = vec![
                Vec::new(),
                (0..n).map(|r| 2 * r + 1).collect(),
                (0..2 * n).collect(),
                items.clone(),
            ];
            for _ in 0..40 {
                let keep = next() % 101;
                txns.push((0..2 * n).filter(|_| next() % 100 < keep).collect());
            }
            let (mut ranks, mut marks, mut ids) = (Vec::new(), Vec::new(), Vec::new());
            for txn in &txns {
                pairs.ids_into(txn, &mut ranks, &mut marks, &mut ids);
                let r: Vec<u32> = txn.iter().filter(|&&i| i % 2 == 0).map(|&i| i / 2).collect();
                let mut want = Vec::new();
                for (i, &a) in r.iter().enumerate() {
                    for &b in &r[i + 1..] {
                        let slot = idx.index(a, b);
                        if counts[slot] >= 1 {
                            want.push(id_of[slot]);
                        }
                    }
                }
                prop_assert_eq!(&ids, &want, "n={} txn={:?}", n, txn);
                prop_assert!(marks.iter().all(|&w| w == 0));
            }
        }
    }
}
