//! Apriori's entry point and result types (Fig. 1 of the paper).
//!
//! [`mine`] runs the one level loop, [`crate::ccpd::try_mine`], at one
//! thread under the static schedule with an inert
//! [`RunControl`](arm_faults::RunControl): sequential Apriori is CCPD at
//! `P = 1`, so every counting path (pair array, class arrays, hash tree)
//! and every per-iteration statistic exists once. [`MiningResult`] (of
//! CCPD, PCCD and parallel Eclat) and [`IterStats`] are the result
//! types; [`make_hash`] and [`f1_items`] build a level's hash function.

use crate::ccpd;
use crate::config::{AprioriConfig, HashScheme};
use crate::level::FrequentLevel;
use crate::parallel_config::ParallelConfig;
use arm_balance::{AnyHash, IndirectionHash, ModHash};
use arm_dataset::{Database, Item};
use arm_exec::Scheduling;
use arm_hashtree::WorkMeter;

/// Per-iteration measurements (feed Figs. 6, 7 and 10).
#[derive(Debug, Clone)]
pub struct IterStats {
    /// Iteration number `k`.
    pub k: u32,
    /// `|C_k|` after pruning.
    pub n_candidates: usize,
    /// `|F_k|`.
    pub n_frequent: usize,
    /// Hash-table fan-out used.
    pub fanout: u32,
    /// Bytes of the frozen hash tree (0 for `k = 1`).
    pub tree_bytes: usize,
    /// Reachable tree nodes.
    pub tree_nodes: u32,
    /// Join pairs considered during candidate generation.
    pub join_pairs: u64,
    /// Counting-phase work tally.
    pub meter: WorkMeter,
}

/// The outcome of a mining run: every frequent level plus per-iteration
/// statistics.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// `levels[0]` is `F_1`, `levels[i]` is `F_{i+1}`.
    pub levels: Vec<FrequentLevel>,
    /// One entry per executed iteration, the final empty one too (none for Eclat).
    pub iter_stats: Vec<IterStats>,
    /// The resolved absolute minimum support.
    pub min_support: u32,
}

impl MiningResult {
    /// Total number of frequent itemsets across all levels.
    pub fn total_frequent(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Longest frequent itemset size.
    pub fn max_k(&self) -> u32 {
        self.levels
            .iter()
            .rev()
            .find(|l| !l.is_empty())
            .map_or(0, |l| l.k())
    }

    /// Support of an arbitrary itemset, if frequent.
    pub fn support_of(&self, items: &[Item]) -> Option<u32> {
        let k = items.len();
        if k == 0 || k > self.levels.len() {
            return None;
        }
        self.levels[k - 1].support_of(items)
    }

    /// All frequent itemsets flattened to `(items, support)`.
    pub fn all_itemsets(&self) -> Vec<(Vec<Item>, u32)> {
        let mut out = Vec::with_capacity(self.total_frequent());
        for l in &self.levels {
            for (s, c) in l.iter() {
                out.push((s.to_vec(), c));
            }
        }
        out
    }
}

/// Builds the configured hash function for fan-out `h`.
pub fn make_hash(scheme: HashScheme, h: u32, f1_items: &[Item], n_items: u32) -> AnyHash {
    match scheme {
        HashScheme::Interleaved => AnyHash::Mod(ModHash::new(h)),
        HashScheme::Bitonic => {
            AnyHash::Indirection(IndirectionHash::for_frequent_items(f1_items, n_items, h))
        }
    }
}

/// Extracts the raw item list of `F_1` (the basis of the bitonic
/// indirection vector).
pub fn f1_items(f1: &FrequentLevel) -> Vec<Item> {
    (0..f1.len()).map(|i| f1.get(i)[0]).collect()
}

/// Runs Apriori over `db` on the caller's thread: the CCPD driver at one
/// thread, under [`Scheduling::Static`], with no token and no faults.
pub fn mine(db: &Database, config: &AprioriConfig) -> MiningResult {
    let cfg = ParallelConfig::new(config.clone(), 1).with_scheduling(Scheduling::Static);
    ccpd::mine(db, &cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Support;
    use arm_hashtree::PlacementPolicy;
    use arm_metrics::{Counter, MetricsRegistry};

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

    fn paper_config() -> AprioriConfig {
        AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        }
    }

    #[test]
    fn paper_worked_example_end_to_end() {
        let r = mine(&paper_db(), &paper_config());
        assert_eq!(r.min_support, 2);
        // F1 = {1,2,4,5}; F2 = {(1,2),(1,4),(1,5),(4,5)}; F3 = {(1,4,5)}.
        assert_eq!(r.levels.len(), 3);
        assert_eq!(r.levels[0].len(), 4);
        let f2: Vec<Vec<u32>> = r.levels[1].iter().map(|(s, _)| s.to_vec()).collect();
        assert_eq!(f2, vec![vec![1, 2], vec![1, 4], vec![1, 5], vec![4, 5]]);
        assert_eq!(r.levels[2].len(), 1);
        assert_eq!(r.levels[2].get(0), &[1, 4, 5]);
        assert_eq!(r.support_of(&[1, 4, 5]), Some(2));
        assert_eq!(r.support_of(&[2, 4]), None);
        assert_eq!(r.total_frequent(), 9);
        assert_eq!(r.max_k(), 3);
    }

    #[test]
    fn all_configurations_agree() {
        let db = paper_db();
        // The default: arrays at every level, no tree.
        let reference = mine(&db, &paper_config()).all_itemsets();
        assert_eq!(reference, crate::naive::mine_exhaustive(&db, 2));
        // Every tree knob, on the tree (`pair_array: false`).
        use arm_hashtree::VisitedMode;
        for placement in PlacementPolicy::ALL {
            for scheme in [HashScheme::Interleaved, HashScheme::Bitonic] {
                for sc in [false, true] {
                    for adaptive in [false, true] {
                        for visited in [VisitedMode::PerNode, VisitedMode::LevelPath] {
                            for trim in [false, true] {
                                let cfg = AprioriConfig {
                                    min_support: Support::Absolute(2),
                                    leaf_threshold: 2,
                                    hash_scheme: scheme,
                                    adaptive_fanout: adaptive,
                                    fixed_fanout: 3,
                                    short_circuit: sc,
                                    visited,
                                    pair_array: false,
                                    placement,
                                    trim_transactions: trim,
                                    ..AprioriConfig::default()
                                };
                                let got = mine(&db, &cfg).all_itemsets();
                                assert_eq!(
                                    got, reference,
                                    "{placement} {scheme:?} sc={sc} {visited:?} trim={trim}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_k_caps_iterations() {
        let cfg = AprioriConfig {
            max_k: Some(2),
            ..paper_config()
        };
        let r = mine(&paper_db(), &cfg);
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.max_k(), 2);
    }

    #[test]
    fn stats_are_recorded_per_iteration() {
        let r = mine(&paper_db(), &paper_config());
        assert_eq!(r.iter_stats[0].k, 1);
        let s2 = &r.iter_stats[1];
        assert_eq!(s2.k, 2);
        assert_eq!(s2.n_candidates, 6);
        assert_eq!(s2.n_frequent, 4);
        assert_eq!(s2.join_pairs, 6);
        // The pair array: no tree, one hit per pair increment.
        assert_eq!((s2.tree_bytes, s2.tree_nodes, s2.fanout), (0, 0, 0));
        assert_eq!(s2.meter.txns, 4);
        assert_eq!(s2.meter.hits, 11);
        let s3 = &r.iter_stats[2];
        assert_eq!(s3.k, 3);
        assert_eq!(s3.n_candidates, 1);
        assert_eq!(s3.n_frequent, 1);
        // The class array: no tree, one hit per contained candidate.
        assert_eq!((s3.tree_bytes, s3.tree_nodes, s3.fanout), (0, 0, 0));
        assert_eq!((s3.join_pairs, s3.meter.hits), (3, 2));

        let tree = mine(
            &paper_db(),
            &AprioriConfig {
                pair_array: false,
                ..paper_config()
            },
        );
        let t2 = &tree.iter_stats[1];
        assert_eq!((t2.n_candidates, t2.n_frequent, t2.join_pairs), (6, 4, 6));
        assert!(t2.tree_bytes > 0);
        assert_eq!(t2.meter.txns, 4);
        let t3 = &tree.iter_stats[2];
        assert_eq!((t3.n_candidates, t3.n_frequent, t3.join_pairs), (1, 1, 3));
        assert!(t3.tree_bytes > 0);
        assert_eq!(t3.meter.hits, s3.meter.hits);
        assert_eq!(tree.all_itemsets(), r.all_itemsets());
    }

    #[test]
    fn one_thread_driver_records_phases_and_matches_plain_mine() {
        let db = paper_db();
        // The default counts every level in arrays; the tree path builds
        // and freezes a tree per level.
        let tree_cfg = AprioriConfig {
            pair_array: false,
            ..paper_config()
        };
        for (cfg, tree) in [(paper_config(), false), (tree_cfg, true)] {
            let reference = mine(&db, &cfg).all_itemsets();
            let pc = ParallelConfig::new(cfg, 1).with_scheduling(Scheduling::Static);
            let (r, stats) = ccpd::mine(&db, &pc);
            assert_eq!(r.all_itemsets(), reference);

            let phases = &stats.phases;
            for name in ["f1", "candgen", "count", "extract"] {
                assert!(
                    phases.iter().any(|p| p.name == name),
                    "missing phase {name}"
                );
            }
            for name in ["build", "freeze"] {
                assert_eq!(
                    phases.iter().any(|p| p.name == name),
                    tree,
                    "phase {name}, tree={tree}"
                );
            }
            // Counting phases carry a single-thread work vector.
            for k in [2, 3] {
                let count = phases
                    .iter()
                    .find(|p| p.name == "count" && p.k == k)
                    .unwrap();
                assert_eq!(count.thread_work.as_ref().map(Vec::len), Some(1));
                assert!(count.thread_work.as_ref().unwrap()[0] > 0);
            }

            let snap = &stats.metrics;
            let locks = snap.total(Counter::LeafLockAcquires);
            let bytes = snap.total(Counter::TreeBytes);
            if MetricsRegistry::enabled() && tree {
                assert!(locks > 0 && bytes > 0);
            } else {
                assert_eq!((locks, bytes), (0, 0), "tree={tree}");
            }
        }
    }

    #[test]
    fn empty_database_mines_nothing() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let r = mine(&db, &AprioriConfig::default());
        assert_eq!(r.total_frequent(), 0);
    }

    #[test]
    fn support_one_hundred_percent() {
        let db = Database::from_transactions(4, [vec![0u32, 1, 2], vec![0, 1, 2], vec![0, 1, 2]])
            .unwrap();
        let cfg = AprioriConfig {
            min_support: Support::Fraction(1.0),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let r = mine(&db, &cfg);
        // Everything is frequent: 3 singles, 3 pairs, 1 triple.
        assert_eq!(r.total_frequent(), 7);
        assert_eq!(r.support_of(&[0, 1, 2]), Some(3));
    }
}
