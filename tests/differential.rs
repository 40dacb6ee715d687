//! Differential battery: four independent sequential miners and both
//! parallel drivers must agree, itemset-for-itemset and count-for-count,
//! on a population of randomized QUEST datasets.
//!
//! The miners share almost no code — Apriori (hash tree), the naive
//! levelwise reference (brute-force subset counting), Eclat (tid-list
//! intersection), and Partition (two-scan local/global) — so agreement
//! across 20 seeded datasets is strong evidence each one is correct.

use parallel_arm::core::{mine_eclat, mine_partition, naive::mine_levelwise};
use parallel_arm::prelude::*;
use parallel_arm::vertical::{mine_eclat_parallel, mine_vertical};

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
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        for p in [1usize, 2, 4, 8] {
            let pc = ParallelConfig::new(cfg(), p);
            let (ccpd_r, _) = ccpd::mine(&db, &pc);
            assert_eq!(ccpd_r.all_itemsets(), expected, "seed {seed} CCPD P={p}");
            let (pccd_r, _) = pccd::mine(&db, &pc);
            assert_eq!(pccd_r.all_itemsets(), expected, "seed {seed} PCCD P={p}");
        }
    }
}

/// `IterStats` of `k = 2`: `(|C_2|, |F_2|)`.
fn c2_f2(r: &MiningResult) -> (usize, usize) {
    let s = &r.iter_stats[1];
    assert_eq!(s.k, 2);
    (s.n_candidates, s.n_frequent)
}

#[test]
fn pair_array_and_k2_hash_tree_agree_on_twenty_datasets() {
    let tree_cfg = AprioriConfig {
        pair_array: false,
        ..cfg()
    };
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let naive = mine_levelwise(&db, minsup, None);
        let array = parallel_arm::core::mine(&db, &cfg());
        let tree = parallel_arm::core::mine(&db, &tree_cfg);
        assert_eq!(array.all_itemsets(), naive, "seed {seed}: array vs naive");
        assert_eq!(tree.all_itemsets(), naive, "seed {seed}: tree vs naive");
        assert_eq!(c2_f2(&array), c2_f2(&tree), "seed {seed}: k = 2 stats");
        assert_eq!(array.iter_stats[1].tree_bytes, 0, "seed {seed}");
        assert!(tree.iter_stats[1].tree_bytes > 0, "seed {seed}");
        for p in [1usize, 2, 4, 8] {
            for (name, base) in [("array", cfg()), ("tree", tree_cfg.clone())] {
                let pc = ParallelConfig::new(base, p);
                let (r, _) = ccpd::mine(&db, &pc);
                assert_eq!(r.all_itemsets(), naive, "seed {seed}: CCPD {name} P={p}");
                assert_eq!(c2_f2(&r), c2_f2(&tree), "seed {seed}: CCPD {name} P={p}");
                let (h, _) = mine_hybrid(&db, &pc, &VerticalConfig::default());
                assert_eq!(h, naive, "seed {seed}: hybrid {name} P={p}");
            }
        }
    }
}

#[test]
fn vertical_miners_agree_with_apriori_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let minsup = db.absolute_support(FRACTION);
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        // Both tidset backends (and the density-adaptive default), each
        // sequentially and on every thread count.
        for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
            let vc = VerticalConfig::default().with_backend(backend);
            let seq = mine_vertical(&db, minsup, None, &vc);
            assert_eq!(
                seq, expected,
                "seed {seed}: vertical {backend:?} vs apriori"
            );
            for p in [1usize, 2, 4, 8] {
                let (par, _) = mine_eclat_parallel(&db, minsup, None, &vc, p);
                assert_eq!(par, expected, "seed {seed}: parallel {backend:?} P={p}");
            }
        }
        // Unoptimized path (linear merge, static schedule, lists only).
        let un = mine_vertical(&db, minsup, None, &VerticalConfig::unoptimized());
        assert_eq!(un, expected, "seed {seed}: unoptimized vertical");
    }
}

#[test]
fn hybrid_driver_agrees_with_apriori_on_twenty_datasets() {
    for seed in 0..N_SEEDS {
        let db = dataset(seed);
        let expected = parallel_arm::core::mine(&db, &cfg()).all_itemsets();
        for switch_level in [1u32, 2, 3] {
            for p in [1usize, 2, 4, 8] {
                let vc = VerticalConfig::default().with_switch_level(switch_level);
                let (got, _) = mine_hybrid(&db, &ParallelConfig::new(cfg(), p), &vc);
                assert_eq!(got, expected, "seed {seed}: hybrid s={switch_level} P={p}");
            }
        }
    }
}
