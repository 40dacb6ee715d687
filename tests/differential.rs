//! Differential battery: four independent sequential miners and both
//! parallel drivers must agree, itemset-for-itemset and count-for-count,
//! on a population of randomized QUEST datasets.
//!
//! The miners share almost no code — Apriori (pair and class arrays, or
//! the hash tree), the naive levelwise reference (brute-force subset
//! counting), Eclat (tid-list intersection), and Partition (two-scan
//! local/global) — so agreement across 20 seeded datasets is strong
//! evidence each one is correct.

use parallel_arm::core::{mine_eclat, mine_partition, naive::mine_levelwise};
use parallel_arm::hashtree::VisitedMode;
use parallel_arm::prelude::*;
use parallel_arm::vertical::mine_hybrid;

const N_SEEDS: u64 = 20;
const FRACTION: f64 = 0.02;

fn dataset(seed: u64) -> Database {
    let mut p = QuestParams::paper(5, 2, 500).with_seed(seed);
    p.n_patterns = 40;
    generate(&p)
}

fn cfg() -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Fraction(FRACTION),
        ..AprioriConfig::default()
    }
}

#[test]
fn four_sequential_miners_agree_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let apriori = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        assert!(
            !apriori.is_empty(),
            "seed {seed}: degenerate dataset, nothing frequent"
        );
        let naive = mine_levelwise(&db, minsup, None);
        assert_eq!(apriori, naive, "seed {seed}: apriori vs naive");
        let eclat = mine_eclat(&db, minsup, None);
        assert_eq!(apriori, eclat, "seed {seed}: apriori vs eclat");
        for n_chunks in [1usize, 3] {
            let partition = mine_partition(&db, FRACTION, n_chunks, None);
            assert_eq!(
                apriori, partition,
                "seed {seed}: apriori vs partition({n_chunks})"
            );
        }
    }
}

#[test]
fn parallel_drivers_agree_with_sequential_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let expected = mine_levelwise(&db, db.absolute_support(FRACTION), None);
        for p in [1usize, 2, 4, 8] {
            let pc = ParallelConfig::new(cfg(), p);
            let (ccpd_r, _) = ccpd::mine(&db, &pc);
            assert_eq!(ccpd_r.all_itemsets(), expected, "seed {seed} CCPD P={p}");
            let (pccd_r, _) = pccd::try_mine(&db, &pc, &RunControl::default()).unwrap();
            assert_eq!(pccd_r.all_itemsets(), expected, "seed {seed} PCCD P={p}");
            if p == 1 {
                continue;
            }
            // Levels this small join serially by default; force the split
            // join (`parallel_candgen`) and its ordered merge.
            for scheduling in [Scheduling::Static, Scheduling::Guided] {
                let mut split = ParallelConfig::new(cfg(), p).with_scheduling(scheduling);
                split.parallel_candgen_min = 1;
                let (r, _) = ccpd::mine(&db, &split);
                assert_eq!(
                    r.all_itemsets(),
                    expected,
                    "seed {seed} CCPD split candgen {scheduling:?} P={p}"
                );
            }
        }
    }
}

/// Checks that `arrays` (a run with `pair_array`: the pair array at
/// `k = 2`, class arrays from `k = 3` on) has `tree`'s (the hash tree at
/// every level) candidates, frequent sets and containment hits at every
/// level, and that it built no tree at any `k ≥ 2`.
fn assert_arrays_match_tree(tree: &MiningResult, arrays: &MiningResult, what: &str) {
    assert_eq!(arrays.all_itemsets(), tree.all_itemsets(), "{what}");
    assert_eq!(arrays.iter_stats.len(), tree.iter_stats.len(), "{what}");
    for (t, a) in tree.iter_stats.iter().zip(&arrays.iter_stats) {
        let k = t.k;
        assert_eq!(
            (a.k, a.n_candidates, a.n_frequent, a.meter.hits),
            (k, t.n_candidates, t.n_frequent, t.meter.hits),
            "{what} k={k}"
        );
        if k >= 2 {
            assert_eq!(a.tree_bytes, 0, "{what} k={k}");
            assert!(t.tree_bytes > 0, "{what} k={k}");
        }
    }
}

#[test]
fn pair_array_and_k2_hash_tree_agree_on_twenty_datasets() {
    let tree_cfg = AprioriConfig {
        pair_array: false,
        ..cfg()
    };
    let mut deep = 0;
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let naive = mine_levelwise(&db, minsup, None);
        let array = parallel_arm::core::mine(&db, &cfg());
        let tree = parallel_arm::core::mine(&db, &tree_cfg);
        assert_eq!(tree.all_itemsets(), naive, "seed {seed}: tree vs naive");
        assert_arrays_match_tree(&tree, &array, &format!("seed {seed}: apriori"));
        deep += usize::from(
            array
                .iter_stats
                .iter()
                .any(|s| s.k >= 4 && s.n_frequent > 0),
        );
        for scheduling in [Scheduling::Static, Scheduling::Guided] {
            for p in [1usize, 2, 4, 8] {
                let run = |base: &AprioriConfig| {
                    let pc = ParallelConfig::new(base.clone(), p).with_scheduling(scheduling);
                    ccpd::mine(&db, &pc).0
                };
                let what = format!("seed {seed}: CCPD {scheduling:?} P={p}");
                let ccpd_tree = run(&tree_cfg);
                assert_eq!(ccpd_tree.all_itemsets(), naive, "{what}");
                assert_arrays_match_tree(&ccpd_tree, &run(&cfg()), &what);
            }
        }
        for p in [1usize, 2, 4, 8] {
            for (name, base) in [("array", cfg()), ("tree", tree_cfg.clone())] {
                let pc = ParallelConfig::new(base, p);
                let (h, _) = mine_hybrid(&db, &pc, &VerticalConfig::default());
                assert_eq!(h, naive, "seed {seed}: hybrid {name} P={p}");
            }
        }
    }
    assert!(
        deep > 0,
        "no dataset reached a class-array level past k = 3"
    );
}

/// Every `size`-item subset of `0..n`, `copies` times over.
fn subsets(n: u32, size: u32, copies: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for mask in 0u32..1 << n {
        if mask.count_ones() == size {
            let t: Vec<u32> = (0..n).filter(|i| mask >> i & 1 == 1).collect();
            out.extend(std::iter::repeat_n(t, copies));
        }
    }
    out
}

/// Dense data: transactions that hold most of the frequent items contain
/// many candidates, so a class-array pass writes more ids than its list
/// budget (`arm_core::class_array::ListBudget`, 8 ids per item) and hands
/// every later level to the hash tree. Apriori and CCPD stay exact: the
/// tree's candidates, frequent sets and containment hits at every level,
/// arrays up to the level that went over budget and a tree after it,
/// under both scheduling modes and every thread count.
#[test]
fn lists_over_budget_hand_later_levels_to_the_tree() {
    // (database, first tree level): every 10-of-12 subset writes ~11 ids
    // per item at k = 3; 8- and 9-of-10 subsets, half the transactions
    // each, write ~7.5 per item at k = 3 and ~9.4 at k = 4.
    let cases = [
        (subsets(12, 10, 1), 4),
        ([subsets(10, 8, 2), subsets(10, 9, 9)].concat(), 5),
    ];
    for (txns, first_tree_k) in cases {
        let db = Database::from_transactions(12, txns).unwrap();
        let arrays_cfg = AprioriConfig {
            min_support: Support::Fraction(0.1),
            ..AprioriConfig::default()
        };
        let tree_cfg = AprioriConfig {
            pair_array: false,
            ..arrays_cfg.clone()
        };
        let naive = mine_levelwise(&db, db.absolute_support(0.1), None);
        let tree = parallel_arm::core::mine(&db, &tree_cfg);
        assert_eq!(tree.all_itemsets(), naive, "tree vs naive");
        assert!(tree
            .iter_stats
            .iter()
            .any(|s| s.k > first_tree_k && s.n_frequent > 0));
        let check = |arrays: &MiningResult, what: &str| {
            assert_eq!(arrays.all_itemsets(), naive, "{what}");
            assert_eq!(arrays.iter_stats.len(), tree.iter_stats.len(), "{what}");
            for (t, a) in tree.iter_stats.iter().zip(&arrays.iter_stats) {
                let k = t.k;
                assert_eq!(
                    (a.k, a.n_candidates, a.n_frequent, a.meter.hits),
                    (k, t.n_candidates, t.n_frequent, t.meter.hits),
                    "{what} k={k}"
                );
                assert_eq!(a.tree_bytes > 0, k >= first_tree_k, "{what} k={k}: tree");
            }
        };
        let what = format!("first tree level {first_tree_k}");
        check(
            &parallel_arm::core::mine(&db, &arrays_cfg),
            &format!("{what} apriori"),
        );
        for scheduling in [Scheduling::Static, Scheduling::Guided] {
            for p in [1usize, 2, 4, 8] {
                let pc = ParallelConfig::new(arrays_cfg.clone(), p).with_scheduling(scheduling);
                let run = ccpd::mine(&db, &pc).0;
                check(&run, &format!("{what} CCPD {scheduling:?} P={p}"));
            }
        }
    }
}

/// Checks that `trimmed` (a run with `trim_transactions`) is bit-identical
/// to `untrimmed` (the same run without), with the same candidates at
/// every level and the same containment hits, over no more counted
/// transactions. Returns how many levels counted strictly fewer.
fn assert_trim_lossless(untrimmed: &MiningResult, trimmed: &MiningResult, what: &str) -> usize {
    assert_eq!(trimmed.all_itemsets(), untrimmed.all_itemsets(), "{what}");
    assert_eq!(
        trimmed.iter_stats.len(),
        untrimmed.iter_stats.len(),
        "{what}"
    );
    let mut fewer = 0;
    for (off, on) in untrimmed.iter_stats.iter().zip(&trimmed.iter_stats) {
        let k = off.k;
        assert_eq!(
            (on.k, on.n_candidates, on.n_frequent),
            (k, off.n_candidates, off.n_frequent),
            "{what} k={k}"
        );
        assert_eq!(on.meter.hits, off.meter.hits, "{what} k={k}: hits");
        assert!(on.meter.txns <= off.meter.txns, "{what} k={k}: txns");
        fewer += usize::from(on.meter.txns < off.meter.txns);
    }
    fewer
}

/// Transaction trimming on the hash-tree path (the item filter and the
/// hit-trimmed database each k ≥ 3 pass hands the next) changes no
/// result: Apriori and CCPD with it on are bit-identical to runs with it
/// off, for every placement (inline, shared and per-thread counters;
/// contiguous and scatter stores), both VISITED modes, and every thread
/// count under both scheduling modes. (`pair_array: false`: the class
/// arrays count over id lists and never reach the trim.)
#[test]
fn trimming_on_and_off_agree_for_every_placement_and_schedule() {
    let mut fewer = 0;
    for seed in 0..4 {
        let db = dataset(seed);
        for placement in PlacementPolicy::ALL {
            for visited in [VisitedMode::PerNode, VisitedMode::LevelPath] {
                let on = AprioriConfig {
                    placement,
                    visited,
                    pair_array: false,
                    ..cfg()
                };
                let off = AprioriConfig {
                    trim_transactions: false,
                    ..on.clone()
                };
                let what = format!("seed {seed} {placement} {visited:?}");
                let reference = parallel_arm::core::mine(&db, &off);
                let trimmed = parallel_arm::core::mine(&db, &on);
                fewer += assert_trim_lossless(&reference, &trimmed, &format!("{what} apriori"));
                for scheduling in [Scheduling::Static, Scheduling::Guided] {
                    for p in [1usize, 2, 4, 8] {
                        let run = |base: &AprioriConfig| {
                            let pc =
                                ParallelConfig::new(base.clone(), p).with_scheduling(scheduling);
                            ccpd::mine(&db, &pc).0
                        };
                        let what = format!("{what} CCPD {scheduling:?} P={p}");
                        let untrimmed = run(&off);
                        assert_eq!(untrimmed.all_itemsets(), reference.all_itemsets(), "{what}");
                        fewer += assert_trim_lossless(&untrimmed, &run(&on), &what);
                    }
                }
            }
        }
    }
    assert!(fewer > 0, "trimming never shortened a counted database");
}

#[test]
fn vertical_miners_agree_with_apriori_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let expected = parallel_arm::core::mine(&db, &cfg());
        let eclat = |vc: &VerticalConfig, p| {
            try_mine_eclat_parallel(&db, minsup, None, vc, p, &RunControl::default()).unwrap()
        };
        // Both tidset backends (and the density-adaptive default), each
        // on every thread count, one included: CCPD's levels, level for
        // level.
        for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
            let vc = VerticalConfig::default().with_backend(backend);
            for p in [1usize, 2, 4, 8] {
                let (par, _) = eclat(&vc, p);
                assert_eq!(par.min_support, expected.min_support, "seed {seed}");
                assert_eq!(
                    par.levels, expected.levels,
                    "seed {seed}: parallel {backend:?} P={p}"
                );
            }
        }
        // Unoptimized path (linear merge, static schedule, lists only).
        let (un, _) = eclat(&VerticalConfig::unoptimized(), 1);
        assert_eq!(
            un.levels, expected.levels,
            "seed {seed}: unoptimized vertical"
        );
    }
}

/// Eclat's `count` phase and CCPD's `k = 2` pass both run `count_pairs`
/// over the same `F_1`, so Eclat's per-thread count meters must sum to
/// CCPD's `k = 2` hits (pair increments) at any thread count.
#[test]
fn eclat_count_meters_match_ccpd_pair_hits() {
    let paper = Database::from_transactions(
        8,
        [
            vec![1u32, 4, 5],
            vec![1, 2],
            vec![3, 4, 5],
            vec![1, 2, 4, 5],
        ],
    )
    .unwrap();
    let quest = dataset(0);
    let quest_minsup = quest.absolute_support(FRACTION);
    for (db, minsup) in [(paper, 2), (quest, quest_minsup)] {
        let base = AprioriConfig {
            min_support: Support::Absolute(minsup),
            ..AprioriConfig::default()
        };
        for p in [1usize, 2] {
            let ctrl = RunControl::default();
            let (ccpd_r, _) =
                ccpd::try_mine(&db, &ParallelConfig::new(base.clone(), p), &ctrl).unwrap();
            assert!(ccpd_r.levels[0].len() >= 2, "|F_1| < 2");
            assert_eq!(ccpd_r.iter_stats[1].k, 2);
            let want = ccpd_r.iter_stats[1].meter.hits;
            assert!(want > 0);
            let vc = VerticalConfig::default();
            let (_, stats) = try_mine_eclat_parallel(&db, minsup, None, &vc, p, &ctrl).unwrap();
            assert_eq!(stats.count_meters.len(), p);
            let hits: u64 = stats.count_meters.iter().map(|m| m.hits).sum();
            assert_eq!(hits, want, "P={p} minsup={minsup}");
        }
    }
}
