//! Property-based tests over the whole stack (proptest).

use parallel_arm::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: a small random database over `n_items` items.
fn db_strategy(n_items: u32, max_txns: usize) -> impl Strategy<Value = Database> {
    vec(vec(0..n_items, 0..8), 0..max_txns)
        .prop_map(move |txns| Database::from_transactions(n_items, txns).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full miner == exhaustive powerset miner on tiny universes.
    #[test]
    fn mining_matches_exhaustive(db in db_strategy(10, 30), minsup in 1u32..5) {
        let cfg = AprioriConfig {
            min_support: Support::Absolute(minsup),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let got = parallel_arm::core::mine(&db, &cfg).all_itemsets();
        let expected = parallel_arm::core::naive::mine_exhaustive(&db, minsup);
        prop_assert_eq!(got, expected);
    }

    /// Every placement policy and hash scheme yields identical results:
    /// the tree with the knobs set equals the default (array) path.
    #[test]
    fn policies_agree(db in db_strategy(12, 25), minsup in 1u32..4, policy_ix in 0usize..8) {
        let policy = PlacementPolicy::ALL[policy_ix];
        let reference = AprioriConfig {
            min_support: Support::Absolute(minsup),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let variant = AprioriConfig {
            placement: policy,
            hash_scheme: HashScheme::Interleaved,
            short_circuit: false,
            adaptive_fanout: false,
            fixed_fanout: 3,
            pair_array: false,
            ..reference.clone()
        };
        let a = parallel_arm::core::mine(&db, &reference).all_itemsets();
        let b = parallel_arm::core::mine(&db, &variant).all_itemsets();
        prop_assert_eq!(a, b);
    }

    /// CCPD on random thread counts == sequential.
    #[test]
    fn ccpd_matches_sequential(db in db_strategy(12, 30), minsup in 1u32..4, p in 1usize..6) {
        let cfg = AprioriConfig {
            min_support: Support::Absolute(minsup),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let seq = parallel_arm::core::mine(&db, &cfg).all_itemsets();
        let mut pcfg = ParallelConfig::new(cfg, p);
        pcfg.parallel_candgen_min = 1;
        let (par, _) = ccpd::mine(&db, &pcfg);
        prop_assert_eq!(par.all_itemsets(), seq);
    }

    /// Rules: confidence bounds, disjointness, and support consistency.
    #[test]
    fn rules_are_well_formed(db in db_strategy(8, 25), conf in 0.3f64..1.0) {
        let cfg = AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let result = parallel_arm::core::mine(&db, &cfg);
        for rule in generate_rules(&result, conf) {
            prop_assert!(rule.confidence >= conf);
            prop_assert!(rule.confidence <= 1.0 + 1e-12);
            let mut x = rule.antecedent.clone();
            x.extend(&rule.consequent);
            x.sort_unstable();
            prop_assert_eq!(result.support_of(&x), Some(rule.support));
        }
    }

    /// Partitioning schemes always cover all items exactly once, and
    /// bitonic never does worse than block on triangular workloads.
    #[test]
    fn partition_schemes_cover(n in 1usize..120, parts in 1usize..10) {
        let weights = parallel_arm::balance::partition::triangular_weights(n);
        for scheme in [Scheme::Block, Scheme::Interleaved, Scheme::Bitonic, Scheme::Greedy] {
            let a = scheme.assign(&weights, parts);
            let mut all: Vec<usize> = a.bins.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
        let block = Scheme::Block.assign(&weights, parts);
        let bitonic = Scheme::Bitonic.assign(&weights, parts);
        prop_assert!(bitonic.max_load() <= block.max_load());
    }

    /// The quest generator is deterministic and respects its bounds.
    #[test]
    fn quest_is_deterministic(seed in 0u64..1000) {
        let mut p = QuestParams::paper(5, 2, 200).with_seed(seed);
        p.n_patterns = 20;
        let a = generate(&p);
        let b = generate(&p);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), 200);
        for t in &a {
            prop_assert!(t.iter().all(|&i| i < p.n_items));
        }
    }

    /// Binary IO round-trips arbitrary databases.
    #[test]
    fn io_roundtrip(db in db_strategy(40, 40)) {
        let mut buf = Vec::new();
        parallel_arm::dataset::io::write_binary(&db, &mut buf).unwrap();
        let back = parallel_arm::dataset::io::read_binary(&buf[..]).unwrap();
        prop_assert_eq!(db, back);
    }

    /// Support monotonicity: every subset of a frequent itemset is
    /// frequent with at least the same support.
    #[test]
    fn support_is_anti_monotone(db in db_strategy(10, 30)) {
        let cfg = AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let r = parallel_arm::core::mine(&db, &cfg);
        for (items, sup) in r.all_itemsets() {
            if items.len() < 2 { continue; }
            for drop in 0..items.len() {
                let subset: Vec<u32> = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, &v)| v)
                    .collect();
                let sub_sup = r.support_of(&subset);
                prop_assert!(sub_sup.is_some(), "subset {subset:?} of {items:?} missing");
                prop_assert!(sub_sup.unwrap() >= sup);
            }
        }
    }
}
