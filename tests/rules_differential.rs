//! Differential test for rule generation: `generate_rules` (the
//! ap-genrules consequent-growing strategy, `crates/core/src/rules.rs`)
//! against a naive all-subsets enumerator, across 20 seeded QUEST
//! databases.
//!
//! For every frequent itemset `X` and every non-empty proper subset `Y`,
//! the oracle emits `X − Y ⇒ Y` iff `support(X) / support(X − Y)` meets
//! the confidence bar. The optimized generator must produce exactly the
//! same rule *set* — same (antecedent, consequent) pairs, same supports,
//! same confidences — and the derived interest measures (lift, leverage)
//! must match their from-first-principles formulas.

use parallel_arm::dataset::Item;
use parallel_arm::prelude::*;
use std::collections::BTreeMap;

/// A rule keyed for set comparison: (antecedent, consequent) is unique.
type RuleKey = (Vec<Item>, Vec<Item>);

fn mined(seed: u64) -> (Database, MiningResult) {
    let mut p = QuestParams::paper(5, 2, 500).with_seed(seed);
    p.n_patterns = 40;
    let db = generate(&p);
    let cfg = AprioriConfig {
        min_support: Support::Fraction(0.02),
        max_k: Some(5),
        ..AprioriConfig::default()
    };
    let result = parallel_arm::core::mine(&db, &cfg);
    (db, result)
}

/// The oracle: enumerate every non-empty proper subset of every frequent
/// itemset as a consequent, no pruning.
fn brute_force_rules(result: &MiningResult, min_confidence: f64) -> BTreeMap<RuleKey, (u32, f64)> {
    let mut out = BTreeMap::new();
    for (items, sup) in result.all_itemsets() {
        let n = items.len();
        if n < 2 {
            continue;
        }
        assert!(n < 31, "mask enumeration below assumes small itemsets");
        for mask in 1u32..(1 << n) - 1 {
            let mut ant = Vec::new();
            let mut con = Vec::new();
            for (b, &it) in items.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    con.push(it);
                } else {
                    ant.push(it);
                }
            }
            let sup_ant = result
                .support_of(&ant)
                .expect("subset of a frequent itemset is frequent");
            let confidence = sup as f64 / sup_ant as f64;
            if confidence >= min_confidence {
                let prev = out.insert((ant, con), (sup, confidence));
                assert!(prev.is_none(), "oracle produced a duplicate rule");
            }
        }
    }
    out
}

#[test]
fn matches_all_subsets_oracle_on_20_seeded_databases() {
    for seed in 0..20u64 {
        let (_, result) = mined(seed);
        for min_conf in [0.5, 0.7, 0.9, 1.0] {
            let rules = generate_rules(&result, min_conf);
            let oracle = brute_force_rules(&result, min_conf);

            let mut got: BTreeMap<RuleKey, (u32, f64)> = BTreeMap::new();
            for r in &rules {
                let prev = got.insert(
                    (r.antecedent.clone(), r.consequent.clone()),
                    (r.support, r.confidence),
                );
                assert!(
                    prev.is_none(),
                    "seed={seed} conf={min_conf}: duplicate rule {r}"
                );
            }

            assert_eq!(
                got.len(),
                oracle.len(),
                "seed={seed} conf={min_conf}: rule count diverges"
            );
            for (key, &(sup, conf)) in &oracle {
                let &(gsup, gconf) = got
                    .get(key)
                    .unwrap_or_else(|| panic!("seed={seed} conf={min_conf}: missing rule {key:?}"));
                assert_eq!(gsup, sup, "seed={seed} conf={min_conf}: support of {key:?}");
                assert!(
                    (gconf - conf).abs() < 1e-12,
                    "seed={seed} conf={min_conf}: confidence of {key:?}: {gconf} vs {conf}"
                );
            }
        }
    }
}

#[test]
fn confidence_lift_leverage_match_first_principles() {
    for seed in 0..20u64 {
        let (db, result) = mined(seed);
        let n = db.len();
        for rule in generate_rules(&result, 0.5) {
            let mut x = rule.antecedent.clone();
            x.extend(&rule.consequent);
            x.sort_unstable();
            let sup_x = result.support_of(&x).expect("rule itemset is frequent");
            let sup_ant = result
                .support_of(&rule.antecedent)
                .expect("antecedent is frequent");
            let sup_con = result
                .support_of(&rule.consequent)
                .expect("consequent is frequent");

            assert_eq!(rule.support, sup_x, "seed={seed} rule {rule}");
            let conf = sup_x as f64 / sup_ant as f64;
            assert!(
                (rule.confidence - conf).abs() < 1e-12,
                "seed={seed} rule {rule}"
            );

            // lift = P(X) / (P(ant) · P(con)) = conf / P(con)
            let lift = conf / (sup_con as f64 / n as f64);
            assert!(
                (rule.lift(sup_con, n) - lift).abs() < 1e-12,
                "seed={seed} lift of {rule}"
            );

            // leverage = P(X) − P(ant) · P(con)
            let lev =
                sup_x as f64 / n as f64 - (sup_ant as f64 / n as f64) * (sup_con as f64 / n as f64);
            assert!(
                (rule.leverage(sup_ant, sup_con, n) - lev).abs() < 1e-12,
                "seed={seed} leverage of {rule}"
            );

            // Sanity on the measures' ranges.
            assert!(rule.confidence > 0.0 && rule.confidence <= 1.0 + 1e-12);
            assert!(rule.lift(sup_con, n).is_finite());
        }
    }
}

#[test]
fn rules_agree_across_sequential_and_parallel_mining() {
    // The rule generator consumes a MiningResult; CCPD's, parallel
    // Eclat's and the sequential miner's results are interchangeable
    // inputs.
    for seed in [3u64, 9] {
        let (db, sequential) = mined(seed);
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.02),
            max_k: Some(5),
            ..AprioriConfig::default()
        };
        let ctrl = RunControl::default();
        let vcfg = VerticalConfig::default();
        let minsup = sequential.min_support;
        let runs = [
            (
                "CCPD",
                ccpd::try_mine(&db, &ParallelConfig::new(cfg, 4), &ctrl),
            ),
            (
                "Eclat",
                try_mine_eclat_parallel(&db, minsup, Some(5), &vcfg, 4, &ctrl),
            ),
        ];
        for (miner, run) in runs {
            let (par, _) = run.unwrap();
            for min_conf in [0.6, 0.9] {
                let a = generate_rules(&sequential, min_conf);
                let b = generate_rules(&par, min_conf);
                let what = format!("{miner} seed={seed} conf={min_conf}");
                assert_eq!(a.len(), b.len(), "{what}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.antecedent, y.antecedent, "{what}");
                    assert_eq!(x.consequent, y.consequent, "{what}");
                    assert_eq!(x.support, y.support, "{what}");
                    assert!((x.confidence - y.confidence).abs() < 1e-12, "{what}");
                }
            }
        }
    }
}
