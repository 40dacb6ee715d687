//! The frequent-itemset level `F_k`: lexicographically sorted itemsets
//! with their supports, supporting the binary-search lookups that the
//! pruning step and rule generation rely on.

use arm_dataset::Item;
use arm_hashtree::CandidateSet;

/// All frequent k-itemsets of one iteration, sorted lexicographically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentLevel {
    itemsets: CandidateSet,
    supports: Vec<u32>,
}

impl FrequentLevel {
    /// Builds a level from parallel arrays. `itemsets` must be sorted
    /// lexicographically and duplicate-free.
    pub fn new(itemsets: CandidateSet, supports: Vec<u32>) -> Self {
        assert_eq!(itemsets.len(), supports.len());
        debug_assert!(itemsets.is_sorted_unique());
        FrequentLevel { itemsets, supports }
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

    /// Binary-searches for `items`, returning its index.
    pub fn find(&self, items: &[Item]) -> Option<usize> {
        if items.len() != self.k() as usize {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.get(mid).cmp(items) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
