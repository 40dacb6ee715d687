//! `max_k` edge-case battery: every miner in the workspace must treat
//! the depth cap identically —
//!
//! * `Some(0)` allows nothing (empty result, not "just F1");
//! * `Some(1)` yields exactly the frequent singletons;
//! * `Some(d)` for the exact natural depth `d` changes nothing;
//! * `Some(big)` and `None` agree.
//!
//! `Some(0)` used to leak F1 out of the level-wise miners; this suite
//! pins the uniform semantics across apriori, naive, eclat, partition,
//! CCPD, PCCD, and the vertical miners.

use parallel_arm::core::{mine, mine_eclat, mine_partition, naive::mine_levelwise};
use parallel_arm::prelude::*;

const FRACTION: f64 = 0.02;

fn dataset() -> Database {
    let mut p = QuestParams::paper(5, 2, 400).with_seed(7);
    p.n_patterns = 40;
    generate(&p)
}

fn cfg(max_k: Option<u32>) -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Fraction(FRACTION),
        max_k,
        ..AprioriConfig::default()
    }
}

/// A miner's output: itemsets with their supports, length-then-lex order.
type Mined = Vec<(Vec<u32>, u32)>;

/// Runs every miner with the given cap and returns the (named) results.
fn all_miners(db: &Database, max_k: Option<u32>) -> Vec<(String, Mined)> {
    let minsup = db.absolute_support(FRACTION);
    let mut out = vec![
        ("apriori".to_string(), mine(db, &cfg(max_k)).all_itemsets()),
        ("naive".to_string(), mine_levelwise(db, minsup, max_k)),
        ("eclat".to_string(), mine_eclat(db, minsup, max_k)),
        (
            "partition".to_string(),
            mine_partition(db, FRACTION, 2, max_k),
        ),
    ];
    for p in [1usize, 4] {
        let pc = ParallelConfig::new(cfg(max_k), p);
        let (r, _) = ccpd::mine(db, &pc);
        out.push((format!("ccpd-p{p}"), r.all_itemsets()));
        let (r, _) = pccd::try_mine(db, &pc, &RunControl::default()).unwrap();
        out.push((format!("pccd-p{p}"), r.all_itemsets()));
        let vcfg = VerticalConfig::default();
        let ctrl = RunControl::default();
        let (r, _) = try_mine_eclat_parallel(db, minsup, max_k, &vcfg, p, &ctrl).unwrap();
        out.push((format!("par-eclat-p{p}"), r.all_itemsets()));
    }
    out
}

#[test]
fn max_k_zero_is_empty_everywhere() {
    let db = dataset();
    for (name, result) in all_miners(&db, Some(0)) {
        assert!(result.is_empty(), "{name}: Some(0) must allow nothing");
    }
}

#[test]
fn max_k_one_is_exactly_the_singletons() {
    let db = dataset();
    let runs = all_miners(&db, Some(1));
    let (_, reference) = &runs[0];
    assert!(!reference.is_empty());
    assert!(reference.iter().all(|(s, _)| s.len() == 1));
    for (name, result) in &runs {
        assert_eq!(result, reference, "{name}: Some(1) disagrees");
    }
}

#[test]
fn max_k_at_exact_depth_and_beyond_match_uncapped() {
    let db = dataset();
    let uncapped = all_miners(&db, None);
    let (_, reference) = &uncapped[0];
    let natural = reference.iter().map(|(s, _)| s.len()).max().unwrap() as u32;
    assert!(natural >= 2, "fixture must mine beyond singletons");
    for (name, result) in &uncapped {
        assert_eq!(result, reference, "{name}: uncapped disagrees");
    }
    for cap in [natural, natural + 1, u32::MAX] {
        for (name, result) in all_miners(&db, Some(cap)) {
            assert_eq!(&result, reference, "{name}: cap {cap} disagrees");
        }
    }
    // An interior cap is a strict prefix of the uncapped result.
    let interior: Vec<_> = reference
        .iter()
        .filter(|(s, _)| s.len() <= (natural - 1) as usize)
        .cloned()
        .collect();
    for (name, result) in all_miners(&db, Some(natural - 1)) {
        assert_eq!(result, interior, "{name}: interior cap disagrees");
    }
}
