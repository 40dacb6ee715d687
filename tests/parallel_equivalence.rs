//! Parallel ≡ sequential: CCPD and PCCD must produce byte-identical
//! frequent-itemset results for every thread count, placement policy,
//! balancing scheme, and counter mode. The expected results come from
//! the naive levelwise miner (brute-force subset counting), which shares
//! no counting code with the drivers; the hash-tree knobs are run on the
//! tree (`pair_array: false`), where they take effect.

use parallel_arm::core::naive::mine_levelwise;
use parallel_arm::prelude::*;

const SUPPORT: f64 = 0.015;

fn synthetic(seed: u64) -> Database {
    let mut p = QuestParams::paper(10, 4, 1_500).with_seed(seed);
    p.n_patterns = 80;
    generate(&p)
}

fn base_cfg() -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Fraction(SUPPORT),
        ..AprioriConfig::default()
    }
}

/// The expected itemsets of `db` at `base_cfg`'s support.
fn expected(db: &Database) -> Vec<(Vec<u32>, u32)> {
    mine_levelwise(db, db.absolute_support(SUPPORT), None)
}

/// `base_cfg` on the hash tree at every level.
fn tree_cfg() -> AprioriConfig {
    AprioriConfig {
        pair_array: false,
        ..base_cfg()
    }
}

#[test]
fn ccpd_equals_sequential_across_thread_counts() {
    let db = synthetic(7);
    let expected = expected(&db);
    assert!(!expected.is_empty());
    for p in [1usize, 2, 3, 4, 7, 12] {
        let (r, stats) = ccpd::mine(&db, &ParallelConfig::new(base_cfg(), p));
        assert_eq!(r.all_itemsets(), expected, "P={p}");
        assert_eq!(stats.n_threads, p);
    }
}

#[test]
fn ccpd_equals_sequential_across_policies() {
    let db = synthetic(8);
    let expected = expected(&db);
    for policy in PlacementPolicy::ALL {
        let cfg = ParallelConfig::new(tree_cfg().with_placement(policy), 4);
        let (r, _) = ccpd::mine(&db, &cfg);
        assert_eq!(r.all_itemsets(), expected, "{policy}");
    }
}

#[test]
fn ccpd_equals_sequential_across_candgen_schemes() {
    let db = synthetic(9);
    let expected = expected(&db);
    for scheme in [
        Scheme::Block,
        Scheme::Interleaved,
        Scheme::Bitonic,
        Scheme::Greedy,
    ] {
        let mut cfg = ParallelConfig::new(base_cfg(), 3).with_candgen(scheme);
        cfg.parallel_candgen_min = 1;
        let (r, _) = ccpd::mine(&db, &cfg);
        assert_eq!(r.all_itemsets(), expected, "{scheme:?}");
    }
}

#[test]
fn pccd_equals_sequential() {
    let db = synthetic(10);
    let expected = expected(&db);
    for p in [1usize, 2, 5] {
        let (r, _) = pccd::try_mine(
            &db,
            &ParallelConfig::new(base_cfg(), p),
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(r.all_itemsets(), expected, "P={p}");
    }
}

#[test]
fn hash_scheme_and_short_circuit_do_not_change_results() {
    let db = synthetic(11);
    let expected = expected(&db);
    for hash_scheme in [HashScheme::Interleaved, HashScheme::Bitonic] {
        for short_circuit in [false, true] {
            for adaptive in [false, true] {
                let base = AprioriConfig {
                    hash_scheme,
                    short_circuit,
                    adaptive_fanout: adaptive,
                    fixed_fanout: 5,
                    ..tree_cfg()
                };
                let (r, _) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
                assert_eq!(
                    r.all_itemsets(),
                    expected,
                    "{hash_scheme:?} sc={short_circuit} adaptive={adaptive}"
                );
            }
        }
    }
}

#[test]
fn db_partition_strategies_do_not_change_results() {
    use parallel_arm::parallel::DbPartition;
    let db = synthetic(12);
    let expected = expected(&db);
    for part in [
        DbPartition::Block,
        DbPartition::WeightedStatic { kmax: 6 },
        DbPartition::WeightedPerIteration,
    ] {
        let cfg = ParallelConfig::new(base_cfg(), 4).with_db_partition(part);
        let (r, _) = ccpd::mine(&db, &cfg);
        assert_eq!(r.all_itemsets(), expected, "{part:?}");
    }
}

#[test]
fn phase_accounting_sanity() {
    let db = synthetic(13);
    for p in [1, 4] {
        let (_, s) = ccpd::mine(&db, &ParallelConfig::new(base_cfg(), p));
        // Phases run one after another inside the measured run.
        let names: Vec<&str> = s.phases.iter().map(|ph| ph.name).collect();
        assert!(s.wall_of(&names) <= s.wall, "P={p}");
        // Counting work should dominate candgen work (paper: ~85%).
        assert!(s.total_work("count") > s.total_work("candgen"), "P={p}");
    }
}
