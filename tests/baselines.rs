//! Cross-algorithm agreement: the optimized parallel CCPD, sequential
//! Apriori (counting `C_2` in the pair array and in the paper's hash
//! tree), the vertical (Eclat-style) miner and the two-scan Partition
//! algorithm must all produce the same frequent itemsets.

use parallel_arm::prelude::*;

fn synthetic() -> Database {
    let mut p = QuestParams::paper(10, 4, 2_000).with_seed(21);
    p.n_patterns = 120;
    generate(&p)
}

#[test]
fn five_miners_agree() {
    let db = synthetic();
    let frac = 0.01;
    let minsup = db.absolute_support(frac);

    let apriori_cfg = AprioriConfig {
        min_support: Support::Fraction(frac),
        ..AprioriConfig::default()
    };
    let apriori = parallel_arm::core::mine(&db, &apriori_cfg).all_itemsets();
    assert!(!apriori.is_empty());

    let (ccpd_res, _) = ccpd::mine(&db, &ParallelConfig::new(apriori_cfg.clone(), 3));
    assert_eq!(ccpd_res.all_itemsets(), apriori, "CCPD");

    let eclat = parallel_arm::core::mine_eclat(&db, minsup, None);
    assert_eq!(eclat, apriori, "Eclat");

    let partition = parallel_arm::core::mine_partition(&db, frac, 4, None);
    assert_eq!(partition, apriori, "Partition");

    let tree_cfg = AprioriConfig {
        pair_array: false,
        ..apriori_cfg
    };
    let tree = parallel_arm::core::mine(&db, &tree_cfg).all_itemsets();
    assert_eq!(tree, apriori, "Apriori with the k = 2 hash tree");
}
