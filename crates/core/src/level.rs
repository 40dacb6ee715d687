//! The frequent-itemset level `F_k`: lexicographically sorted itemsets
//! with their supports, and a hash table of their ids for the O(1)
//! lookups that the pruning step, the summaries and rule generation
//! rely on.

use arm_dataset::Item;
use arm_hashtree::CandidateSet;

/// A free slot of the lookup table (ids stay below it).
const EMPTY: u32 = u32::MAX;

/// All frequent k-itemsets of one iteration, sorted lexicographically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentLevel {
    itemsets: CandidateSet,
    supports: Vec<u32>,
    /// Open-addressing table of itemset ids, linear probing, a power of
    /// two of at least twice as many slots as itemsets (load ≤ 1/2, so
    /// 8–16 bytes per itemset). An itemset's id sits at or after its
    /// [`slot_of`] slot, before the next [`EMPTY`] one.
    table: Vec<u32>,
}

/// The first table slot to probe for `items`, in a table of `len` slots
/// (a power of two ≥ 2): the top bits of a fixed multiplicative hash of
/// the items (FxHash's step). It has no seed, so every run builds the
/// same tables.
#[inline]
fn slot_of(items: &[Item], len: usize) -> usize {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;
    let h = items.iter().fold(0u64, |h, &x| {
        (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(MUL)
    });
    (h >> (64 - len.trailing_zeros())) as usize
}

impl FrequentLevel {
    /// Builds a level from parallel arrays. `itemsets` must be sorted
    /// lexicographically and duplicate-free.
    pub fn new(itemsets: CandidateSet, supports: Vec<u32>) -> Self {
        assert_eq!(itemsets.len(), supports.len());
        assert!(
            itemsets.len() < EMPTY as usize,
            "too many itemsets for u32 ids"
        );
        debug_assert!(itemsets.is_sorted_unique());
        let mut table = vec![EMPTY; (2 * itemsets.len()).next_power_of_two().max(2)];
        let mask = table.len() - 1;
        for (id, items) in itemsets.iter() {
            let mut slot = slot_of(items, table.len());
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        FrequentLevel {
            itemsets,
            supports,
            table,
        }
    }

    /// The candidates of `cands` whose count (`counts[id]`) reaches
    /// `min_support`, in id order.
    pub fn from_counts(cands: &CandidateSet, counts: &[u32], min_support: u32) -> Self {
        let mut sets = CandidateSet::new(cands.k());
        let mut supports = Vec::new();
        for (id, items) in cands.iter() {
            let count = counts[id as usize];
            if count >= min_support {
                sets.push(items);
                supports.push(count);
            }
        }
        FrequentLevel::new(sets, supports)
    }

    /// Itemset length `k`.
    pub fn k(&self) -> u32 {
        self.itemsets.k()
    }

    /// Number of frequent itemsets at this level.
    pub fn len(&self) -> usize {
        self.itemsets.len()
    }

    /// True when the level is empty.
    pub fn is_empty(&self) -> bool {
        self.itemsets.is_empty()
    }

    /// Items of the `i`-th itemset.
    pub fn get(&self, i: usize) -> &[Item] {
        self.itemsets.get(i as u32)
    }

    /// Support of the `i`-th itemset.
    pub fn support(&self, i: usize) -> u32 {
        self.supports[i]
    }

    /// The underlying candidate set (for tree building and joins).
    pub fn itemsets(&self) -> &CandidateSet {
        &self.itemsets
    }

    /// The index of `items` in this level, if it is there: a hashed
    /// probe of the lookup table, comparing each probed id's itemset.
    pub fn find(&self, items: &[Item]) -> Option<usize> {
        if items.len() != self.k() as usize {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = slot_of(items, self.table.len());
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return None;
            }
            if self.itemsets.get(id) == items {
                return Some(id as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Support of `items`, if frequent at this level.
    pub fn support_of(&self, items: &[Item]) -> Option<u32> {
        self.find(items).map(|i| self.supports[i])
    }

    /// Iterates `(items, support)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[Item], u32)> + '_ {
        (0..self.len()).map(move |i| (self.get(i), self.supports[i]))
    }
}

impl AsRef<CandidateSet> for FrequentLevel {
    fn as_ref(&self) -> &CandidateSet {
        &self.itemsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn level() -> FrequentLevel {
        let mut c = CandidateSet::new(2);
        c.push(&[1, 2]);
        c.push(&[1, 4]);
        c.push(&[1, 5]);
        c.push(&[4, 5]);
        FrequentLevel::new(c, vec![2, 2, 2, 3])
    }

    #[test]
    fn find_and_support() {
        let l = level();
        assert_eq!(l.k(), 2);
        assert_eq!(l.len(), 4);
        assert_eq!(l.find(&[1, 4]), Some(1));
        assert_eq!(l.find(&[4, 5]), Some(3));
        assert_eq!(l.find(&[1, 2]), Some(0));
        assert_eq!(l.find(&[2, 4]), None);
        assert_eq!(l.support_of(&[4, 5]), Some(3));
        assert_eq!(l.support_of(&[9, 9]), None);
        assert_eq!(l.find(&[1]), None, "wrong arity");
    }

    #[test]
    fn iter_pairs() {
        let l = level();
        let v: Vec<(Vec<u32>, u32)> = l.iter().map(|(s, c)| (s.to_vec(), c)).collect();
        assert_eq!(v[0], (vec![1, 2], 2));
        assert_eq!(v[3], (vec![4, 5], 3));
    }

    #[test]
    #[should_panic]
    fn rejects_length_mismatch() {
        let mut c = CandidateSet::new(2);
        c.push(&[1, 2]);
        FrequentLevel::new(c, vec![1, 2]);
    }

    /// The index of `items` by a scan of the whole level.
    fn scan(level: &FrequentLevel, items: &[Item]) -> Option<usize> {
        (0..level.len()).find(|&i| level.get(i) == items)
    }

    /// Maps a drawn item into one of three bands: small ids, ids at the
    /// top of the `u32` range, or both ends at once.
    fn item(band: u8, x: u32) -> Item {
        match band {
            0 => x,
            1 => u32::MAX - x,
            _ if x.is_multiple_of(2) => x,
            _ => u32::MAX - x,
        }
    }

    proptest! {
        /// On random sorted levels (empty, single and crowded ones, items
        /// up to `u32::MAX`), `find` returns what a linear scan returns:
        /// every member's index, `None` for itemsets one item away from a
        /// member unless they are members too, and `None` at the wrong
        /// arity. Levels built from equal itemsets compare equal.
        #[test]
        fn find_equals_a_linear_scan(
            k in 1usize..7,
            band in 0u8..3,
            rows in proptest::collection::vec(proptest::collection::vec(0u32..16, 6), 0..90),
        ) {
            let sets: BTreeSet<Vec<Item>> = rows
                .iter()
                .map(|row| {
                    let s: BTreeSet<Item> = row.iter().map(|&x| item(band, x)).collect();
                    s.into_iter().take(k).collect::<Vec<Item>>()
                })
                .filter(|s| s.len() == k)
                .collect();
            let mut c = CandidateSet::new(k as u32);
            for s in &sets {
                c.push(s);
            }
            let supports: Vec<u32> = (0..sets.len() as u32).collect();
            let level = FrequentLevel::new(c.clone(), supports.clone());
            prop_assert_eq!(&level, &FrequentLevel::new(c, supports));
            for (i, s) in sets.iter().enumerate() {
                prop_assert_eq!(level.find(s), Some(i));
                prop_assert_eq!(level.support_of(s), Some(i as u32));
                // One item changed, kept sorted: a member or an absent set.
                for pos in 0..k {
                    for delta in [1u32, 2, u32::MAX] {
                        let mut probe = s.clone();
                        probe[pos] = probe[pos].wrapping_add(delta);
                        if probe.windows(2).all(|w| w[0] < w[1]) {
                            prop_assert_eq!(level.find(&probe), scan(&level, &probe));
                        }
                    }
                }
                prop_assert_eq!(level.find(&s[1..]), None);
                let mut longer = s.clone();
                longer.push(u32::MAX);
                prop_assert_eq!(level.find(&longer), None);
            }
            for row in &rows {
                let probe: Vec<Item> = row.iter().take(k).map(|&x| item(band, x)).collect();
                prop_assert_eq!(level.find(&probe), scan(&level, &probe));
            }
        }
    }
}
