//! The first pass: frequent 1-itemsets via a dense per-item histogram.

use crate::level::FrequentLevel;
use arm_dataset::Database;
use arm_hashtree::CandidateSet;
use std::ops::Range;

/// Counts item occurrences over a transaction range (a processor's
/// partition when run in parallel).
pub fn count_singletons(db: &Database, range: Range<usize>) -> Vec<u32> {
    let mut counts = vec![0u32; db.n_items() as usize];
    count_singletons_into(db, range, &mut counts);
    counts
}

/// Accumulates item occurrences for `range` into an existing histogram.
/// Chunked schedulers call this once per claimed chunk; summing over any
/// exact partition of the database reproduces [`count_singletons`].
pub fn count_singletons_into(db: &Database, range: Range<usize>, counts: &mut [u32]) {
    debug_assert_eq!(counts.len(), db.n_items() as usize);
    for i in range {
        for &item in db.transaction(i) {
            counts[item as usize] += 1;
        }
    }
}

/// Builds `F_1` from an item histogram.
pub fn frequent_from_counts(counts: &[u32], min_support: u32) -> FrequentLevel {
    let mut itemsets = CandidateSet::new(1);
    let mut supports = Vec::new();
    for (item, &c) in counts.iter().enumerate() {
        if c >= min_support {
            itemsets.push(&[item as u32]);
            supports.push(c);
        }
    }
    FrequentLevel::new(itemsets, supports)
}

/// Full sequential `F_1` pass.
pub fn frequent_singletons(db: &Database, min_support: u32) -> FrequentLevel {
    frequent_from_counts(&count_singletons(db, 0..db.len()), min_support)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn paper_f1() {
        // minsup = 2 → F1 = {1, 2, 4, 5}; item 3 occurs once.
        let f1 = frequent_singletons(&paper_db(), 2);
        let items: Vec<u32> = (0..f1.len()).map(|i| f1.get(i)[0]).collect();
        assert_eq!(items, vec![1, 2, 4, 5]);
        assert_eq!(f1.support_of(&[1]), Some(3));
        assert_eq!(f1.support_of(&[2]), Some(2));
        assert_eq!(f1.support_of(&[3]), None);
        assert_eq!(f1.support_of(&[4]), Some(3));
    }

    #[test]
    fn partial_ranges_compose() {
        let db = paper_db();
        let mut a = count_singletons(&db, 0..2);
        let b = count_singletons(&db, 2..4);
        for (x, y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        assert_eq!(a, count_singletons(&db, 0..db.len()));
    }

    #[test]
    fn high_support_empties_level() {
        let f1 = frequent_singletons(&paper_db(), 10);
        assert!(f1.is_empty());
    }
}
