//! The `k ≥ 3` kernel: candidate supports counted in per-class triangular
//! arrays over per-transaction id lists (AprioriTid-style), instead of a
//! candidate hash tree.
//!
//! `C_k` joins `F_{k-1}` within its equivalence classes
//! ([`crate::generation`]): the candidate `P∪{a,b}` comes from the class
//! members `P∪{a}` and `P∪{b}`, and a transaction contains it exactly when
//! it contains both parents. So when each transaction carries the sorted
//! ids of the `F_{k-1}` itemsets it contains, its candidates are the pairs
//! of those ids that fall in one class. [`ClassIndex`] numbers the join
//! pairs of every class triangularly, in [`crate::generate_class`]'s
//! order, and maps each slot to its candidate id ([`NONE`] when the
//! candidate was pruned).
//!
//! Where a level's id lists come from ([`IdLists`]):
//!
//! * `k = 3`: straight from the items — [`FrequentPairs`] lists each
//!   rank's frequent partners, so a pair's `F_2` id is its slot there,
//!   and a transaction's ids are the partners of its ranks that it holds;
//! * `k ≥ 4`: the previous pass's contained `C_{k-1}` ids, which
//!   [`ClassIndex::count_into`] writes out, mapped to `F_{k-1}` ids by
//!   [`frequent_ids`]. Infrequent ids are dropped. A pass writes only the
//!   ids that share their prefix with another contained candidate (a lone
//!   one joins no pair at the next level), so lists shrink level by level.
//!
//! A transaction's list grows with the candidates it contains, not with
//! its length (up to `C(|t|, k)` ids), so dense data or long
//! transactions can make the lists far larger than the database. A pass
//! therefore writes at most its [`ListBudget`] of ids; past it, it stops
//! writing and the drivers count the next level, and every later one, on
//! the hash tree (AprioriHybrid's switch from AprioriTid back to Apriori).
//!
//! Each worker counts its transaction ranges into a private `|C_k|` array;
//! the arrays are summed by [`crate::pairs::reduce_into_first`].

use crate::level::FrequentLevel;
use crate::pairs::{n_pairs, FrequentPairs};
use arm_dataset::{Database, DatabaseBuilder};
use arm_hashtree::{CandidateSet, WorkMeter};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The candidate id of a pruned join pair, and the `F_k` id of an
/// infrequent candidate.
pub const NONE: u32 = u32::MAX;

/// Ids a pass may write per item of the input database. Sparse data
/// stays well below it (T10.I4 and T20.I6 write at most ~1.5 ids per
/// item at any level); transactions that contain most of the frequent
/// items pass it.
pub const LIST_IDS_PER_ITEM: usize = 8;

/// Transactions per [`ClassIndex::count_into`] call of
/// [`ClassIndex::count_within_budget`]: how often a worker checks the
/// pass's list budget.
const LIST_CHUNK: usize = 1024;

/// One pass's running total of written ids against its limit, shared by
/// every worker of the pass. A pass that writes more than the limit hands
/// the next level to the hash tree, so the lists read and written at any
/// time stay within a small multiple of the database.
#[derive(Debug)]
pub struct ListBudget {
    limit: usize,
    written: AtomicUsize,
}

impl ListBudget {
    /// A fresh budget for one pass over `db`'s transactions:
    /// [`LIST_IDS_PER_ITEM`] ids per item, and at most `2^31` so that the
    /// lists' `u32` offsets cannot overflow.
    pub fn new(db: &Database) -> Self {
        ListBudget {
            limit: db
                .total_items()
                .saturating_mul(LIST_IDS_PER_ITEM)
                .min(1 << 31),
            written: AtomicUsize::new(0),
        }
    }

    /// True once the pass has written more ids than its budget. The total
    /// only grows and no worker stops writing before it passes the limit,
    /// so at the end of a pass this is true exactly when the whole pass
    /// would write more than the limit: the same under any split of the
    /// transactions among workers.
    pub fn exceeded(&self) -> bool {
        self.written.load(Ordering::Relaxed) > self.limit
    }
}

/// Maps pairs of `F_{k-1}` ids in one equivalence class to `C_k` ids.
#[derive(Debug, Clone)]
pub struct ClassIndex {
    /// `base[x] + y`: the slot of the join pair `(x, y)`, `x < y` in one
    /// class (wrapping: `base[x]` is the slot of `(x, x + 1)` minus
    /// `x + 1`).
    base: Vec<usize>,
    /// `end[x]`: one past the last id of `x`'s class.
    end: Vec<u32>,
    /// `slots[s]`: the candidate id of join pair `s`, or [`NONE`].
    slots: Vec<u32>,
    /// `|C_k|`.
    n_candidates: usize,
}

impl ClassIndex {
    /// Indexes the join pairs of `classes` (the equivalence classes of
    /// `level`), whose unpruned candidates are `cands` in generation order.
    /// Returns `None` when the slot map's byte length, four bytes per join
    /// pair, overflows `usize`, or when a candidate id would reach
    /// [`NONE`].
    pub fn new(
        level: &FrequentLevel,
        classes: &[Range<u32>],
        cands: &CandidateSet,
    ) -> Option<Self> {
        if cands.len() >= NONE as usize {
            return None;
        }
        let n_slots = classes.iter().try_fold(0usize, |total, class| {
            total.checked_add(n_pairs((class.end - class.start) as usize)?)
        })?;
        n_slots.checked_mul(std::mem::size_of::<u32>())?;
        let mut base = vec![0usize; level.len()];
        let mut end = vec![0u32; level.len()];
        let mut slots = Vec::with_capacity(n_slots);
        let last = level.k() as usize;
        let mut next = 0u32;
        for class in classes {
            for x in class.clone() {
                base[x as usize] = slots.len().wrapping_sub(x as usize + 1);
                end[x as usize] = class.end;
                let a = level.get(x as usize);
                for y in x + 1..class.end {
                    // The candidate of `(x, y)` is `a` plus `y`'s last item;
                    // `cands` holds the survivors in this very order.
                    let b = level.get(y as usize)[last - 1];
                    let is_next = (next as usize) < cands.len() && {
                        let c = cands.get(next);
                        c[..last] == *a && c[last] == b
                    };
                    slots.push(if is_next { next } else { NONE });
                    next += u32::from(is_next);
                }
            }
        }
        assert_eq!(
            next as usize,
            cands.len(),
            "candidates that are no join pair of the classes"
        );
        Some(ClassIndex {
            base,
            end,
            slots,
            n_candidates: cands.len(),
        })
    }

    /// `|C_k|`: the number of counters.
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// True when every join pair was pruned.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// A zeroed counter array.
    pub fn zeroed(&self) -> Vec<u32> {
        vec![0; self.n_candidates]
    }

    /// An empty database for the lists a pass writes (over `C_k` ids).
    pub fn lists_builder(&self) -> DatabaseBuilder {
        DatabaseBuilder::new(self.n_candidates as u32)
    }

    /// Adds the candidate occurrences of the transactions in `range` of
    /// `lists` to `counts` and returns the pass's meter (`txns` = lists of
    /// at least two ids, the ones that can hold a candidate; `hits` =
    /// counter increments). With `next`, each transaction's contained
    /// candidate ids (ascending) are appended to it as the next level's
    /// list, except those that share their `(k-1)`-prefix with no other
    /// contained candidate: such a candidate is in no contained `C_{k+1}`
    /// candidate, so the cut is lossless. Empty lists are not written.
    /// Summing the arrays of any exact partition of the transactions gives
    /// the whole-database counts.
    pub fn count_into(
        &self,
        lists: &IdLists<'_>,
        range: Range<usize>,
        counts: &mut [u32],
        scratch: &mut ClassScratch,
        mut next: Option<&mut DatabaseBuilder>,
    ) -> WorkMeter {
        assert_eq!(
            counts.len(),
            self.n_candidates,
            "counter array of the wrong size"
        );
        let mut meter = WorkMeter::default();
        let ClassScratch {
            ranks,
            marks,
            ids,
            hits,
        } = scratch;
        for t in range {
            lists.fill(t, ranks, marks, ids);
            if ids.len() < 2 {
                continue;
            }
            meter.txns += 1;
            hits.clear();
            for (i, &x) in ids.iter().enumerate() {
                let (base, end) = (self.base[x as usize], self.end[x as usize]);
                let row = hits.len();
                // A class's ids are contiguous, so its pairs end at `end`.
                for &y in ids[i + 1..].iter().take_while(|&&y| y < end) {
                    let c = self.slots[base.wrapping_add(y as usize)];
                    if c != NONE {
                        counts[c as usize] += 1;
                        hits.push(c);
                    }
                }
                // The candidates of row `x` are those with prefix `x`: the
                // next level's class. A lone one joins nothing there.
                if hits.len() == row + 1 {
                    hits.pop();
                    meter.hits += 1;
                }
            }
            meter.hits += hits.len() as u64;
            if let Some(next) = next.as_deref_mut().filter(|_| !hits.is_empty()) {
                next.push_sorted(hits);
            }
        }
        meter
    }

    /// [`count_into`](Self::count_into) over `range` in pieces of
    /// `LIST_CHUNK` (1,024) transactions, writing lists to `next` while the
    /// pass stays within `budget`: each piece adds the ids it wrote to the
    /// budget, and once the budget is exceeded the lists are dropped.
    /// Returns the meter and the lists, unless dropped.
    pub fn count_within_budget(
        &self,
        lists: &IdLists<'_>,
        range: Range<usize>,
        counts: &mut [u32],
        scratch: &mut ClassScratch,
        mut next: Option<DatabaseBuilder>,
        budget: &ListBudget,
    ) -> (WorkMeter, Option<DatabaseBuilder>) {
        let mut meter = WorkMeter::default();
        for start in range.clone().step_by(LIST_CHUNK) {
            let piece = start..range.end.min(start + LIST_CHUNK);
            let before = next.as_ref().map_or(0, DatabaseBuilder::total_items);
            meter.merge(&self.count_into(lists, piece, counts, scratch, next.as_mut()));
            if let Some(next) = &next {
                let wrote = next.total_items() - before;
                budget.written.fetch_add(wrote, Ordering::Relaxed);
            }
            if budget.exceeded() {
                next = None;
            }
        }
        (meter, next)
    }
}

/// Reusable buffers of [`ClassIndex::count_into`], one per worker.
#[derive(Debug, Default)]
pub struct ClassScratch {
    ranks: Vec<u32>,
    /// [`FrequentPairs::ids_into`]'s rank bitmap (all zero between calls).
    marks: Vec<u64>,
    ids: Vec<u32>,
    hits: Vec<u32>,
}

/// The per-transaction `F_{k-1}` id lists a level counts over.
pub enum IdLists<'a> {
    /// `k = 3`: the item database; each transaction's `F_2` ids are read
    /// off its items.
    Pairs {
        /// The item database.
        db: &'a Database,
        /// `F_2` as partner lists.
        f2: &'a FrequentPairs<'a>,
    },
    /// `k ≥ 4`: the previous pass's lists of contained `C_{k-1}` ids.
    Candidates {
        /// One list per transaction, over `C_{k-1}` ids.
        db: &'a Database,
        /// `F_{k-1}` id of each `C_{k-1}` id ([`frequent_ids`]).
        frequent: &'a [u32],
    },
}

impl IdLists<'_> {
    /// The database whose transactions the lists are read from (the unit
    /// of the drivers' range splits).
    pub fn db(&self) -> &Database {
        match self {
            IdLists::Pairs { db, .. } | IdLists::Candidates { db, .. } => db,
        }
    }

    /// Writes transaction `t`'s ascending `F_{k-1}` ids to `ids`.
    fn fill(&self, t: usize, ranks: &mut Vec<u32>, marks: &mut Vec<u64>, ids: &mut Vec<u32>) {
        match self {
            IdLists::Pairs { db, f2 } => f2.ids_into(db.transaction(t), ranks, marks, ids),
            IdLists::Candidates { db, frequent } => {
                // Frequent ids keep the candidates' order, so the list stays
                // ascending.
                ids.clear();
                ids.extend(
                    db.transaction(t)
                        .iter()
                        .map(|&c| frequent[c as usize])
                        .filter(|&f| f != NONE),
                );
            }
        }
    }
}

/// `ids[c]`: candidate `c`'s `F_k` id (its position among the candidates
/// whose count reaches `min_support`), or [`NONE`].
pub fn frequent_ids(counts: &[u32], min_support: u32) -> Vec<u32> {
    let mut next = 0u32;
    counts
        .iter()
        .map(|&c| {
            if c < min_support {
                return NONE;
            }
            next += 1;
            next - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairIndex;
    use crate::{equivalence_classes, f1_items, frequent_singletons, generate_candidates};
    use arm_dataset::Item;
    use arm_hashtree::naive_counts;
    use proptest::prelude::*;

    fn level_from(k: u32, sets: &[&[Item]]) -> FrequentLevel {
        let mut c = CandidateSet::new(k);
        for s in sets {
            c.push(s);
        }
        FrequentLevel::new(c, vec![1; sets.len()])
    }

    #[test]
    fn slots_follow_join_order_and_skip_pruned_pairs() {
        // F_2 = {12, 14, 15, 45}: classes {12, 14, 15} and {45}. The joins
        // (124, 125, 145) keep only 145 (24 and 25 are infrequent).
        let f2 = level_from(2, &[&[1, 2], &[1, 4], &[1, 5], &[4, 5]]);
        let classes = equivalence_classes(&f2);
        let (c3, _) = generate_candidates(&f2);
        let index = ClassIndex::new(&f2, &classes, &c3).unwrap();
        assert_eq!(index.slots, vec![NONE, NONE, 0]);
        assert_eq!((index.len(), &index.end[..]), (1, &[3, 3, 3, 4][..]));

        // The paper's database: transactions as F_2 id lists.
        let db =
            Database::from_transactions(4, [vec![2u32, 3], vec![0], vec![3], vec![0, 1, 2, 3]])
                .unwrap();
        let lists = IdLists::Candidates {
            db: &db,
            frequent: &[0, 1, 2, 3],
        };
        let mut counts = index.zeroed();
        let mut next = DatabaseBuilder::new(1);
        let meter = index.count_into(
            &lists,
            0..db.len(),
            &mut counts,
            &mut ClassScratch::default(),
            Some(&mut next),
        );
        assert_eq!(counts, vec![1]);
        assert_eq!((meter.txns, meter.hits), (2, 1));
        // A lone candidate of its prefix joins nothing: no list is written.
        assert!(next.is_empty());
    }

    #[test]
    fn frequent_ids_number_the_survivors() {
        assert_eq!(frequent_ids(&[3, 1, 2, 5, 0], 2), vec![0, NONE, 1, 2, NONE]);
        assert!(frequent_ids(&[], 1).is_empty());
    }

    #[test]
    fn a_single_class_is_one_triangle() {
        // F_2 = {01, 02, 03, 04}: one class, every join survives.
        let f2 = level_from(2, &[&[0, 1], &[0, 2], &[0, 3], &[0, 4]]);
        let mut f3 = CandidateSet::new(3);
        for (a, b) in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)] {
            f3.push(&[0, a, b]);
        }
        let index = ClassIndex::new(&f2, &equivalence_classes(&f2), &f3).unwrap();
        assert_eq!(index.slots, (0..6).collect::<Vec<u32>>());
    }

    /// The level-wise loop of the drivers over the kernel alone: every
    /// level `k ≥ 3` is counted over the lists of the level before
    /// (`k = 3`: the items). Returns `(C_k, counts, lists written)` per
    /// level; no lists are written at the `max_k` level.
    fn mine_classes(
        db: &Database,
        minsup: u32,
        max_k: Option<u32>,
        cuts: &[usize],
    ) -> Vec<(CandidateSet, Vec<u32>, Option<Database>)> {
        let f1 = frequent_singletons(db, minsup);
        let items = f1_items(&f1);
        let pairs = PairIndex::new(&items, db.n_items()).unwrap();
        let mut c2 = pairs.zeroed();
        pairs.count_into(db, 0..db.len(), &mut c2, &mut Vec::new());
        let (mut prev, f2) = pairs.frequent(&c2, minsup);
        let mut held: Option<(Database, Vec<u32>)> = None;
        let mut out = Vec::new();
        for k in 3.. {
            if max_k.is_some_and(|m| k > m) || prev.len() < 2 {
                break;
            }
            let classes = equivalence_classes(&prev);
            let (cands, _) = generate_candidates(&prev);
            if cands.is_empty() {
                break;
            }
            let index = ClassIndex::new(&prev, &classes, &cands).unwrap();
            let lists = match &held {
                Some((db, frequent)) => IdLists::Candidates { db, frequent },
                None => IdLists::Pairs { db, f2: &f2 },
            };
            // Count chunk by chunk, as a worker claims them.
            let n = lists.db().len();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let mut counts = index.zeroed();
            let mut next = (max_k != Some(k)).then(|| index.lists_builder());
            let mut scratch = ClassScratch::default();
            for w in bounds.windows(2) {
                index.count_into(&lists, w[0]..w[1], &mut counts, &mut scratch, next.as_mut());
            }
            let next = next.map(DatabaseBuilder::finish);
            prev = FrequentLevel::from_counts(&cands, &counts, minsup);
            held = next
                .clone()
                .map(|lists| (lists, frequent_ids(&counts, minsup)));
            out.push((cands, counts, next));
        }
        out
    }

    proptest! {
        /// Class-array counts equal brute-force containment counts at
        /// every level, over chunked passes; written lists hold exactly a
        /// transaction's contained candidates that have a prefix partner,
        /// ascending, and none is written at the `max_k` level.
        #[test]
        fn class_array_counts_equal_naive_at_every_level(
            txns in proptest::collection::vec(proptest::collection::vec(0u32..16, 0..10), 0..60),
            minsup in 1u32..4,
            cap in 2u32..6,
            cuts in proptest::collection::vec(0usize..61, 0..4),
        ) {
            // 2 stands for no cap (a cap of 2 admits no class-array level).
            let cap = Some(cap).filter(|&m| m > 2);
            let db = Database::from_transactions(16, txns).unwrap();
            let levels = mine_classes(&db, minsup, cap, &cuts);
            for (cands, counts, lists) in &levels {
                let k = cands.k();
                prop_assert_eq!(counts, &naive_counts(cands, &db), "k={}", k);
                prop_assert_eq!(lists.is_none(), cap == Some(k), "k={}", k);
                if let Some(lists) = lists {
                    // One list per transaction, in database order: its
                    // contained candidates that share their (k-1)-prefix
                    // with another contained one, when there are any.
                    let want: Vec<Vec<u32>> = db
                        .iter()
                        .map(|t| {
                            let held: Vec<(u32, &[Item])> = cands
                                .iter()
                                .filter(|(_, s)| s.iter().all(|i| t.binary_search(i).is_ok()))
                                .collect();
                            let prefix = |s: &[Item]| s[..s.len() - 1].to_vec();
                            held.iter()
                                .filter(|(id, s)| {
                                    held.iter().any(|(o, r)| o != id && prefix(r) == prefix(s))
                                })
                                .map(|&(id, _)| id)
                                .collect::<Vec<u32>>()
                        })
                        .filter(|ids| !ids.is_empty())
                        .collect();
                    let got: Vec<Vec<u32>> = lists.iter().map(<[u32]>::to_vec).collect();
                    prop_assert!(got.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])));
                    prop_assert_eq!(got, want, "k={}", k);
                }
            }
            prop_assert!(cap.is_none_or(|m| levels.len() as u32 <= m - 2));
        }

        /// One equivalence class with every join kept: `F_2 = {0a}` and
        /// `C_3 = {0ab}` for all `1 ≤ a < b < 12`, counted over id lists
        /// (`{0a}` has id `a - 1`); empty transactions stay empty.
        #[test]
        fn class_array_counts_a_single_class(
            txns in proptest::collection::vec(proptest::collection::vec(1u32..12, 0..8), 0..40),
        ) {
            let mut f2 = CandidateSet::new(2);
            let mut c3 = CandidateSet::new(3);
            for a in 1..12 {
                f2.push(&[0, a]);
                for b in a + 1..12 {
                    c3.push(&[0, a, b]);
                }
            }
            let f2 = FrequentLevel::new(f2, vec![1; 11]);
            let index = ClassIndex::new(&f2, &equivalence_classes(&f2), &c3).unwrap();
            prop_assert_eq!(index.slots.len(), c3.len());
            let db = Database::from_transactions(
                12,
                txns.iter().map(|t| {
                    let mut t = t.clone();
                    if !t.is_empty() {
                        t.push(0);
                    }
                    t
                }),
            )
            .unwrap();
            let ids = Database::from_transactions(
                11,
                db.iter().map(|t| t.iter().filter(|&&i| i > 0).map(|&i| i - 1).collect::<Vec<_>>()),
            )
            .unwrap();
            let frequent: Vec<u32> = (0..11).collect();
            let lists = IdLists::Candidates { db: &ids, frequent: &frequent };
            let mut counts = index.zeroed();
            let mut next = index.lists_builder();
            let meter = index.count_into(
                &lists,
                0..ids.len(),
                &mut counts,
                &mut ClassScratch::default(),
                Some(&mut next),
            );
            let want = naive_counts(&c3, &db);
            prop_assert_eq!(meter.hits, want.iter().map(|&c| c as u64).sum::<u64>());
            prop_assert_eq!(counts, want);
            for list in next.finish().iter() {
                prop_assert!(list.len() >= 2 && list.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn a_pass_over_budget_drops_its_lists_but_counts_everything() {
        // One class: F_2 = {0a}, C_3 = {0ab}, 1 ≤ a < b < 12. Every list
        // holds all 11 ids, so a pass writes 54 ids per transaction (the
        // lone last candidate of row 9 is cut): 108,000 for 2,000 lists.
        let mut f2 = CandidateSet::new(2);
        let mut c3 = CandidateSet::new(3);
        for a in 1..12 {
            f2.push(&[0, a]);
            for b in a + 1..12 {
                c3.push(&[0, a, b]);
            }
        }
        let f2 = FrequentLevel::new(f2, vec![1; 11]);
        let index = ClassIndex::new(&f2, &equivalence_classes(&f2), &c3).unwrap();
        let ids =
            Database::from_transactions(11, vec![(0..11).collect::<Vec<u32>>(); 2000]).unwrap();
        let frequent: Vec<u32> = (0..11).collect();
        let lists = IdLists::Candidates {
            db: &ids,
            frequent: &frequent,
        };
        let mut want = index.zeroed();
        let mut all = index.lists_builder();
        let plain = index.count_into(
            &lists,
            0..ids.len(),
            &mut want,
            &mut ClassScratch::default(),
            Some(&mut all),
        );
        let all = all.finish();
        assert_eq!(all.total_items(), 108_000);
        // Budgets of 8 ids per item: 12 items a transaction, 1,000 or
        // 2,000 transactions (96,000 or 192,000 ids).
        for (n_txns, over) in [(1000usize, true), (2000, false)] {
            let items =
                Database::from_transactions(12, vec![(0..12).collect::<Vec<u32>>(); n_txns])
                    .unwrap();
            let budget = ListBudget::new(&items);
            let mut counts = index.zeroed();
            let (meter, next) = index.count_within_budget(
                &lists,
                0..ids.len(),
                &mut counts,
                &mut ClassScratch::default(),
                Some(index.lists_builder()),
                &budget,
            );
            assert_eq!(counts, want);
            assert_eq!((meter.txns, meter.hits), (plain.txns, plain.hits));
            assert_eq!(budget.exceeded(), over);
            assert_eq!(
                next.map(DatabaseBuilder::finish),
                (!over).then(|| all.clone())
            );
        }
    }

    #[test]
    fn empty_transactions_count_nothing() {
        let db = Database::from_transactions(
            6,
            [vec![], vec![0u32, 1, 2], vec![], vec![0, 1, 2], vec![]],
        )
        .unwrap();
        let levels = mine_classes(&db, 2, None, &[1, 3]);
        assert_eq!(levels.len(), 1);
        let (cands, counts, lists) = &levels[0];
        assert_eq!(cands.get(0), &[0, 1, 2]);
        assert_eq!(counts, &vec![2]);
        // One candidate per transaction: no lists for a `k = 4` pass.
        assert!(lists.as_ref().unwrap().is_empty());
    }
}
