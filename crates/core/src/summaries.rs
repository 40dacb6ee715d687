//! Condensed representations of a mining result: *maximal* and *closed*
//! frequent itemsets.
//!
//! The paper's related-work section surveys maximal-itemset miners
//! (All-MFS, Pincer-Search, MaxMiner); downstream users routinely want
//! these summaries, so we derive them from the level-wise result:
//!
//! * an itemset is **maximal** when no frequent superset exists;
//! * an itemset is **closed** when no frequent superset has the *same*
//!   support (closed sets preserve all support information; maximal sets
//!   preserve only the frequent/infrequent border).

use crate::apriori::MiningResult;
use arm_dataset::Item;

/// Returns all maximal frequent itemsets with their supports, ordered by
/// length then lexicographically.
pub fn maximal_itemsets(result: &MiningResult) -> Vec<(Vec<Item>, u32)> {
    filter_by_superset(result, |_, _| true)
}

/// Returns all closed frequent itemsets with their supports, ordered by
/// length then lexicographically.
pub fn closed_itemsets(result: &MiningResult) -> Vec<(Vec<Item>, u32)> {
    // An itemset is pruned only when a superset with *equal* support
    // exists.
    filter_by_superset(result, |sub_support, super_support| {
        sub_support == super_support
    })
}

/// Shared engine: keep an itemset unless some frequent (k+1)-superset
/// satisfies `prunes(support(subset), support(superset))`.
///
/// Level `k+1` supersets suffice: superset relations compose, so if any
/// larger superset prunes `X`, some intermediate (k+1)-superset does too
/// (for maximality trivially; for closedness because support is
/// monotone along the chain — equal support at the far end forces equal
/// support at every step).
///
/// Each (k+1)-set marks its `k+1` subsets of length `k`, found by binary
/// search in `F_k` (all of them are frequent), so a level costs
/// `O(|F_{k+1}| · k · log |F_k|)` rather than a scan of `F_{k+1}` per
/// `F_k` set.
fn filter_by_superset(
    result: &MiningResult,
    prunes: impl Fn(u32, u32) -> bool,
) -> Vec<(Vec<Item>, u32)> {
    let mut out = Vec::new();
    let mut subset = Vec::new();
    for (li, level) in result.levels.iter().enumerate() {
        let mut pruned = vec![false; level.len()];
        if let Some(next) = result.levels.get(li + 1) {
            for (items, super_support) in next.iter() {
                for skip in 0..items.len() {
                    subset.clear();
                    subset.extend_from_slice(&items[..skip]);
                    subset.extend_from_slice(&items[skip + 1..]);
                    if let Some(i) = level.find(&subset) {
                        pruned[i] |= prunes(level.support(i), super_support);
                    }
                }
            }
        }
        out.extend(
            level
                .iter()
                .zip(&pruned)
                .filter(|(_, &p)| !p)
                .map(|((items, support), _)| (items.to_vec(), support)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::mine;
    use crate::config::{AprioriConfig, Support};
    use arm_dataset::Database;
    use proptest::prelude::*;

    fn paper_result() -> MiningResult {
        let db = Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap();
        mine(
            &db,
            &AprioriConfig {
                min_support: Support::Absolute(2),
                leaf_threshold: 2,
                ..AprioriConfig::default()
            },
        )
    }

    #[test]
    fn maximal_of_worked_example() {
        // Frequent: {1},{2},{4},{5},{1,2},{1,4},{1,5},{4,5},{1,4,5}.
        // Maximal: {1,2} and {1,4,5}.
        let m = maximal_itemsets(&paper_result());
        let names: Vec<Vec<u32>> = m.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(names, vec![vec![1, 2], vec![1, 4, 5]]);
    }

    #[test]
    fn closed_of_worked_example() {
        // Supports: 1:3 2:2 4:3 5:3 | 12:2 14:2 15:2 45:3 | 145:2.
        // {1} closed (3; no superset with 3). {2} not ({1,2} also 2).
        // {4},{5} not closed ({4,5} has 3). {1,2} closed. {1,4},{1,5}
        // not ({1,4,5} = 2). {4,5} closed. {1,4,5} closed.
        let c = closed_itemsets(&paper_result());
        let names: Vec<Vec<u32>> = c.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(names, vec![vec![1], vec![1, 2], vec![4, 5], vec![1, 4, 5]]);
    }

    #[test]
    fn maximal_is_subset_of_closed() {
        // Every maximal itemset is closed (no superset at all ⇒ no
        // equal-support superset).
        let r = paper_result();
        let closed = closed_itemsets(&r);
        for m in maximal_itemsets(&r) {
            assert!(closed.contains(&m), "{m:?} maximal but not closed");
        }
    }

    #[test]
    fn all_frequent_recoverable_from_maximal() {
        // Each frequent itemset must be a subset of some maximal one.
        let r = paper_result();
        let maximal = maximal_itemsets(&r);
        for (items, _) in r.all_itemsets() {
            assert!(
                maximal
                    .iter()
                    .any(|(m, _)| arm_hashtree::is_subset(&items, m)),
                "{items:?} not covered"
            );
        }
    }

    type Listing = Vec<(Vec<Item>, u32)>;

    /// Closed and maximal by definition: against every frequent
    /// superset of any length, not only those one item longer.
    fn brute_force(r: &MiningResult) -> (Listing, Listing) {
        let all = r.all_itemsets();
        let supersets = |x: &Vec<Item>| -> Vec<u32> {
            all.iter()
                .filter(|(s, _)| s.len() > x.len() && arm_hashtree::is_subset(x, s))
                .map(|&(_, d)| d)
                .collect()
        };
        let closed = all
            .iter()
            .filter(|(x, c)| !supersets(x).contains(c))
            .cloned()
            .collect();
        let maximal = all
            .iter()
            .filter(|(x, _)| supersets(x).is_empty())
            .cloned()
            .collect();
        (closed, maximal)
    }

    proptest! {
        /// Closed and maximal sets equal their brute-force definitions,
        /// in length-then-lex order, on random small databases.
        #[test]
        fn summaries_equal_brute_force(
            txns in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..8), 0..40),
            minsup in 1u32..5,
            max_k in 0u32..5,
        ) {
            let db = Database::from_transactions(10, txns).unwrap();
            let r = mine(
                &db,
                &AprioriConfig {
                    min_support: Support::Absolute(minsup),
                    // 0 stands for no cap.
                    max_k: Some(max_k).filter(|&m| m > 0),
                    ..AprioriConfig::default()
                },
            );
            let (closed, maximal) = brute_force(&r);
            prop_assert_eq!(closed_itemsets(&r), closed);
            prop_assert_eq!(maximal_itemsets(&r), maximal);
        }
    }

    #[test]
    fn empty_result_gives_empty_summaries() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let r = mine(&db, &AprioriConfig::default());
        assert!(maximal_itemsets(&r).is_empty());
        assert!(closed_itemsets(&r).is_empty());
    }
}
