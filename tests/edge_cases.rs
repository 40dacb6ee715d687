//! Edge cases and failure injection across the stack.

use parallel_arm::prelude::*;

fn cfg_abs(minsup: u32) -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Absolute(minsup),
        leaf_threshold: 2,
        ..AprioriConfig::default()
    }
}

#[test]
fn single_item_universe() {
    let db = Database::from_transactions(1, [vec![0u32], vec![0], vec![]]).unwrap();
    let r = parallel_arm::core::mine(&db, &cfg_abs(2));
    assert_eq!(r.total_frequent(), 1);
    assert_eq!(r.support_of(&[0]), Some(2));
    assert!(
        generate_rules(&r, 0.5).is_empty(),
        "no rules from singletons"
    );
}

#[test]
fn identical_transactions_everything_frequent() {
    let txn: Vec<u32> = (0..6).collect();
    let db = Database::from_transactions(6, std::iter::repeat_n(txn, 10)).unwrap();
    let r = parallel_arm::core::mine(&db, &cfg_abs(10));
    // 2^6 - 1 frequent itemsets, all with support 10.
    assert_eq!(r.total_frequent(), 63);
    assert!(r.all_itemsets().iter().all(|(_, s)| *s == 10));
    // Exactly one maximal itemset: the full transaction.
    let maximal = parallel_arm::core::maximal_itemsets(&r);
    assert_eq!(maximal.len(), 1);
    assert_eq!(maximal[0].0, (0..6).collect::<Vec<u32>>());
    // All rules have confidence 1.
    let rules = generate_rules(&r, 1.0);
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|ru| (ru.confidence - 1.0).abs() < 1e-12));
}

#[test]
fn support_above_database_size() {
    let db = Database::from_transactions(4, [vec![0u32, 1], vec![0, 1]]).unwrap();
    let r = parallel_arm::core::mine(&db, &cfg_abs(3));
    assert_eq!(r.total_frequent(), 0);
    assert!(parallel_arm::core::maximal_itemsets(&r).is_empty());
}

#[test]
fn max_k_zero_and_one_yield_only_singletons() {
    let db = Database::from_transactions(4, [vec![0u32, 1], vec![0, 1], vec![0, 1]]).unwrap();
    for cap in [0u32, 1] {
        let cfg = AprioriConfig {
            max_k: Some(cap),
            ..cfg_abs(2)
        };
        let r = all_paths(&db, &cfg);
        assert!(
            r.all_itemsets().iter().all(|(s, _)| s.len() == 1),
            "cap={cap}"
        );
    }
}

#[test]
fn more_threads_than_transactions() {
    let db = Database::from_transactions(6, [vec![0u32, 1, 2], vec![0, 1]]).unwrap();
    let expected = parallel_arm::core::mine(&db, &cfg_abs(2)).all_itemsets();
    let (r, stats) = ccpd::mine(&db, &ParallelConfig::new(cfg_abs(2), 16));
    assert_eq!(r.all_itemsets(), expected);
    assert_eq!(stats.n_threads, 16);
    let (r2, _) = pccd::try_mine(
        &db,
        &ParallelConfig::new(cfg_abs(2), 16),
        &RunControl::default(),
    )
    .unwrap();
    assert_eq!(r2.all_itemsets(), expected);
}

#[test]
fn extreme_leaf_threshold_and_fanout() {
    let db = Database::from_transactions(
        20,
        (0..30).map(|i| vec![i % 20, (i + 1) % 20, (i + 3) % 20]),
    )
    .unwrap();
    let reference = parallel_arm::core::mine(&db, &cfg_abs(2)).all_itemsets();
    for (threshold, fanout) in [(1usize, 2u32), (1, 64), (1000, 2), (1000, 64)] {
        let cfg = AprioriConfig {
            leaf_threshold: threshold,
            adaptive_fanout: false,
            fixed_fanout: fanout,
            ..cfg_abs(2)
        };
        let got = parallel_arm::core::mine(&db, &cfg).all_itemsets();
        assert_eq!(got, reference, "T={threshold} H={fanout}");
    }
}

#[test]
fn rule_confidence_extremes() {
    let db = Database::from_transactions(4, [vec![0u32, 1], vec![0, 1], vec![0]]).unwrap();
    let r = parallel_arm::core::mine(&db, &cfg_abs(2));
    // conf 0.0: every rule from every frequent itemset qualifies.
    let all = generate_rules(&r, 0.0);
    // {0,1} is the only multi-item frequent set → 2 rules.
    assert_eq!(all.len(), 2);
    // conf above 1.0: nothing qualifies.
    assert!(generate_rules(&r, 1.01).is_empty());
}

#[test]
fn transactions_shorter_than_k_are_ignored() {
    // Mix of long and very short transactions; short ones must simply not
    // contribute to deep iterations (and not crash the kernel).
    let mut txns: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4]; 5];
    txns.extend((0..10).map(|_| vec![0u32]));
    txns.push(vec![]);
    let db = Database::from_transactions(8, txns).unwrap();
    let r = parallel_arm::core::mine(&db, &cfg_abs(5));
    assert_eq!(r.support_of(&[0, 1, 2, 3, 4]), Some(5));
    assert_eq!(r.support_of(&[0]), Some(15));
}

/// Runs the same config through the sequential, CCPD, PCCD and parallel
/// Eclat paths and asserts all four agree (Eclat level for level);
/// returns the sequential result for further checks.
fn all_paths(db: &Database, cfg: &AprioriConfig) -> MiningResult {
    let seq = parallel_arm::core::mine(db, cfg);
    let expected = seq.all_itemsets();
    let vcfg = VerticalConfig::default();
    for p in [1usize, 4] {
        let ctrl = RunControl::default();
        let (e, _) =
            try_mine_eclat_parallel(db, seq.min_support, cfg.max_k, &vcfg, p, &ctrl).unwrap();
        assert_eq!(e.levels, seq.levels, "Eclat P={p}");
        assert_eq!(e.min_support, seq.min_support, "Eclat P={p}");
        let (c, _) = ccpd::mine(db, &ParallelConfig::new(cfg.clone(), p));
        assert_eq!(c.all_itemsets(), expected, "CCPD P={p}");
        let (q, _) = pccd::try_mine(
            db,
            &ParallelConfig::new(cfg.clone(), p),
            &RunControl::default(),
        )
        .unwrap();
        assert_eq!(q.all_itemsets(), expected, "PCCD P={p}");
    }
    seq
}

#[test]
fn empty_database_all_paths() {
    let db = Database::from_transactions(8, Vec::<Vec<u32>>::new()).unwrap();
    let r = all_paths(&db, &cfg_abs(1));
    assert_eq!(r.total_frequent(), 0);
    assert_eq!(r.max_k(), 0);
}

#[test]
fn min_support_zero_clamps_to_one() {
    // `Support::Absolute(0)` resolves to 1 (documented clamp): every item
    // that appears at all is frequent, and all paths agree on that.
    let db = Database::from_transactions(4, [vec![0u32, 1], vec![1, 2], vec![3]]).unwrap();
    let r = all_paths(&db, &cfg_abs(0));
    assert_eq!(r.min_support, 1);
    assert_eq!(r.support_of(&[3]), Some(1));
    assert_eq!(r.support_of(&[1, 2]), Some(1));
    // Fraction 0.0 clamps identically.
    let frac = AprioriConfig {
        min_support: Support::Fraction(0.0),
        ..cfg_abs(0)
    };
    assert_eq!(
        all_paths(&db, &frac).all_itemsets(),
        r.all_itemsets(),
        "Fraction(0.0) vs Absolute(0)"
    );
}

#[test]
fn min_support_equal_to_database_size() {
    // Only itemsets present in *every* transaction survive.
    let db = Database::from_transactions(
        5,
        [
            vec![0u32, 1, 2],
            vec![0, 1, 3],
            vec![0, 1, 2, 4],
            vec![0, 1],
        ],
    )
    .unwrap();
    let r = all_paths(&db, &cfg_abs(4));
    assert_eq!(r.min_support, 4);
    let sets: Vec<Vec<u32>> = r.all_itemsets().into_iter().map(|(s, _)| s).collect();
    assert_eq!(sets, vec![vec![0], vec![1], vec![0, 1]]);
    // One above |D|: nothing qualifies.
    assert_eq!(all_paths(&db, &cfg_abs(5)).total_frequent(), 0);
}

#[test]
fn single_item_transactions_never_reach_k2() {
    // Every transaction has exactly one item: F1 is non-empty but no pair
    // can be frequent, so mining must stop cleanly after candidate
    // generation at k = 2.
    let db = Database::from_transactions(4, (0..12).map(|i| vec![i % 4u32])).unwrap();
    let r = all_paths(&db, &cfg_abs(2));
    assert_eq!(r.levels.len(), 1);
    assert_eq!(r.total_frequent(), 4);
    assert!(r
        .all_itemsets()
        .iter()
        .all(|(s, c)| s.len() == 1 && *c == 3));
}

#[test]
fn transaction_longer_than_tree_depth() {
    // A 40-item transaction walked against a depth-2 tree: the k-subset
    // traversal must enumerate C(40,2) pairs without overflowing any
    // depth-bounded scratch, in all paths.
    let wide: Vec<u32> = (0..40).collect();
    let mut txns = vec![wide.clone(), wide];
    txns.push(vec![0, 1]);
    let db = Database::from_transactions(40, txns).unwrap();
    let cfg = AprioriConfig {
        max_k: Some(2),
        ..cfg_abs(2)
    };
    let r = all_paths(&db, &cfg);
    // All C(40,2) = 780 pairs occur in both wide transactions.
    assert_eq!(r.levels[1].len(), 780);
    assert_eq!(r.support_of(&[0, 1]), Some(3));
    assert_eq!(r.support_of(&[38, 39]), Some(2));
}

#[test]
fn quest_generator_edge_parameters() {
    // Tiny universes and degenerate pattern pools must still generate.
    let mut p = QuestParams::paper(2, 1, 100);
    p.n_items = 5;
    p.n_patterns = 1;
    let db = generate(&p);
    assert_eq!(db.len(), 100);
    for t in &db {
        assert!(t.iter().all(|&i| i < 5));
    }
}

#[test]
fn pccd_with_single_candidate() {
    // One candidate, many threads: most local trees are empty.
    let db = Database::from_transactions(4, [vec![0u32, 1], vec![0, 1], vec![2]]).unwrap();
    let (r, _) = pccd::try_mine(
        &db,
        &ParallelConfig::new(cfg_abs(2), 6),
        &RunControl::default(),
    )
    .unwrap();
    assert_eq!(r.support_of(&[0, 1]), Some(2));
}
