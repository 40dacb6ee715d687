//! Rule generation — the second step of association mining (§2).
//!
//! For every frequent itemset `X` and non-empty `Y ⊂ X`, the rule
//! `X - Y ⇒ Y` holds when `support(X) / support(X - Y) ≥ min_confidence`.
//! We implement the ap-genrules strategy of Agrawal & Srikant: consequents
//! grow level-wise, and a consequent is extended only if it met the
//! confidence bar (confidence is anti-monotone in the consequent —
//! `support(X - Y)` can only grow as `Y` shrinks).

use crate::apriori::MiningResult;
use crate::generation::equivalence_classes;
use crate::level::FrequentLevel;
use arm_dataset::Item;
use arm_hashtree::CandidateSet;

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The left-hand side (`X - Y`), sorted.
    pub antecedent: Vec<Item>,
    /// The right-hand side (`Y`), sorted, disjoint from the antecedent.
    pub consequent: Vec<Item>,
    /// `support(X)` in absolute transactions.
    pub support: u32,
    /// `support(X) / support(X - Y)`.
    pub confidence: f64,
}

impl Rule {
    /// Lift: `P(A ∧ B) / (P(A) · P(B))` — how much more often the rule
    /// fires than if the sides were independent (1.0 = independent).
    /// Needs the consequent's standalone support and the database size.
    pub fn lift(&self, consequent_support: u32, n_txns: usize) -> f64 {
        if consequent_support == 0 || n_txns == 0 {
            return 0.0;
        }
        self.confidence / (consequent_support as f64 / n_txns as f64)
    }

    /// Leverage: `P(A ∧ B) - P(A) · P(B)` (0.0 = independent).
    pub fn leverage(&self, antecedent_support: u32, consequent_support: u32, n_txns: usize) -> f64 {
        if n_txns == 0 {
            return 0.0;
        }
        let n = n_txns as f64;
        self.support as f64 / n - (antecedent_support as f64 / n) * (consequent_support as f64 / n)
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} => {:?} (sup {}, conf {:.3})",
            self.antecedent, self.consequent, self.support, self.confidence
        )
    }
}

/// Generates all rules meeting `min_confidence` from a mining result.
/// Rules are emitted in order of the generating itemset, then consequent
/// size.
pub fn generate_rules(result: &MiningResult, min_confidence: f64) -> Vec<Rule> {
    let mut rules = Vec::new();
    for level in result.levels.iter().filter(|l| l.k() >= 2) {
        for i in 0..level.len() {
            rules_for_itemset(result, level, i, min_confidence, &mut rules);
        }
    }
    rules
}

/// The first `n` rules of `rules` by confidence, then support, both
/// descending, ties kept in generation order: the first `n` of a stable
/// sort, found by selecting them (`O(|rules|)`) and sorting only those.
pub fn top_rules(rules: &[Rule], n: usize) -> Vec<Rule> {
    let order = |&i: &usize, &j: &usize| {
        let (a, b) = (&rules[i], &rules[j]);
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.cmp(&a.support))
            .then(i.cmp(&j))
    };
    let mut picked: Vec<usize> = (0..rules.len()).collect();
    if n < picked.len() {
        if n > 0 {
            picked.select_nth_unstable_by(n - 1, order);
        }
        picked.truncate(n);
    }
    picked.sort_unstable_by(order);
    picked.into_iter().map(|i| rules[i].clone()).collect()
}

/// ap-genrules for one frequent itemset.
fn rules_for_itemset(
    result: &MiningResult,
    level: &FrequentLevel,
    idx: usize,
    min_confidence: f64,
    out: &mut Vec<Rule>,
) {
    let x = level.get(idx);
    let support_x = level.support(idx);
    let k = x.len();

    // Level 1 consequents: single items.
    let mut current = CandidateSet::new(1);
    for &item in x {
        current.push(&[item]);
    }

    let mut consequent_len = 1usize;
    while consequent_len < k && !current.is_empty() {
        let mut survivors = CandidateSet::new(consequent_len as u32);
        for (_, y) in current.iter() {
            let antecedent = difference(x, y);
            let support_ant = result
                .support_of(&antecedent)
                .expect("antecedent of a frequent itemset must be frequent");
            let confidence = support_x as f64 / support_ant as f64;
            if confidence >= min_confidence {
                out.push(Rule {
                    antecedent,
                    consequent: y.to_vec(),
                    support: support_x,
                    confidence,
                });
                survivors.push(y);
            }
        }
        // Grow consequents by joining the survivors (Apriori-style).
        consequent_len += 1;
        if consequent_len >= k {
            break;
        }
        current = join_consequents(&survivors);
    }
}

/// Sorted set difference `x \ y`.
fn difference(x: &[Item], y: &[Item]) -> Vec<Item> {
    let mut out = Vec::with_capacity(x.len() - y.len());
    let mut j = 0usize;
    for &v in x {
        if j < y.len() && y[j] == v {
            j += 1;
        } else {
            out.push(v);
        }
    }
    out
}

/// Joins size-m consequents into size-(m+1) candidates (prefix join, no
/// pruning — the confidence test dominates at these sizes).
fn join_consequents(survivors: &CandidateSet) -> CandidateSet {
    let m = survivors.k();
    let mut out = CandidateSet::new(m + 1);
    if survivors.len() < 2 {
        return out;
    }
    let mut scratch = Vec::with_capacity(m as usize + 1);
    for class in equivalence_classes(survivors) {
        for i in class.clone() {
            for j in (i + 1)..class.end {
                let a = survivors.get(i);
                let b = survivors.get(j);
                scratch.clear();
                scratch.extend_from_slice(a);
                scratch.push(b[m as usize - 1]);
                out.push(&scratch);
            }
        }
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
        let cfg = AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        mine(&db, &cfg)
    }

    proptest! {
        /// `top_rules` prints what the first `n` rules of a stable full
        /// sort print, under many tied confidences and supports.
        #[test]
        fn top_rules_equal_the_stable_sort(
            keys in proptest::collection::vec((0u32..4, 1u32..4), 0..80),
            n in 0usize..90,
        ) {
            let rules: Vec<Rule> = keys
                .iter()
                .enumerate()
                .map(|(i, &(num, support))| Rule {
                    antecedent: vec![i as Item],
                    consequent: vec![1000],
                    support,
                    confidence: f64::from(num + 1) / 4.0,
                })
                .collect();
            let mut sorted = rules.clone();
            sorted.sort_by(|a, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap()
                    .then(b.support.cmp(&a.support))
            });
            sorted.truncate(n);
            let top = top_rules(&rules, n);
            let print = |rs: &[Rule]| rs.iter().map(|r| format!("# {r}\n")).collect::<String>();
            prop_assert_eq!(print(&top), print(&sorted));
            prop_assert_eq!(top, sorted);
        }
    }

    #[test]
    fn difference_works() {
        assert_eq!(difference(&[1, 4, 5], &[4]), vec![1, 5]);
        assert_eq!(difference(&[1, 4, 5], &[1, 5]), vec![4]);
        assert_eq!(difference(&[1, 2], &[]), vec![1, 2]);
    }

    #[test]
    fn full_confidence_rules() {
        let r = paper_result();
        let rules = generate_rules(&r, 1.0);
        // Conf-1.0 rules from the worked example:
        //   2 ⇒ 1 (2/2); 5 ⇒ 4 (3/3); 4 ⇒ 5 (3/3);
        //   from (1,4,5): (1,4) ⇒ 5, (1,5) ⇒ 4 (2/2 each), 4,5 ⇒ 1? 2/3 no.
        //   1 ⇒ ... 2/3 no.
        let fmt: Vec<String> = rules
            .iter()
            .map(|r| format!("{:?}=>{:?}", r.antecedent, r.consequent))
            .collect();
        assert!(fmt.contains(&"[2]=>[1]".to_string()), "{fmt:?}");
        assert!(fmt.contains(&"[4]=>[5]".to_string()));
        assert!(fmt.contains(&"[5]=>[4]".to_string()));
        assert!(fmt.contains(&"[1, 4]=>[5]".to_string()));
        assert!(fmt.contains(&"[1, 5]=>[4]".to_string()));
        assert!(!fmt.contains(&"[4, 5]=>[1]".to_string()));
        for rule in &rules {
            assert!(rule.confidence >= 1.0);
        }
    }

    #[test]
    fn lower_confidence_adds_rules() {
        let r = paper_result();
        let strict = generate_rules(&r, 1.0);
        let loose = generate_rules(&r, 0.6);
        assert!(loose.len() > strict.len());
        // 4,5 ⇒ 1 has confidence 2/3 ≈ 0.667.
        let found = loose
            .iter()
            .find(|ru| ru.antecedent == vec![4, 5] && ru.consequent == vec![1])
            .expect("4,5 => 1 at conf 0.6");
        assert!((found.confidence - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(found.support, 2);
    }

    #[test]
    fn multi_item_consequents_appear() {
        let r = paper_result();
        let rules = generate_rules(&r, 0.5);
        // 1 ⇒ 4,5 : support(1,4,5)/support(1) = 2/3 ≥ 0.5.
        assert!(
            rules
                .iter()
                .any(|ru| ru.antecedent == vec![1] && ru.consequent == vec![4, 5]),
            "expected 1 => 4,5 among {rules:?}"
        );
    }

    #[test]
    fn lift_and_leverage() {
        let r = paper_result();
        let n = 4usize;
        let rules = generate_rules(&r, 0.6);
        // 4 ⇒ 5: conf 1.0, P(5) = 3/4 → lift 4/3; leverage 3/4 - (3/4)(3/4).
        let rule = rules
            .iter()
            .find(|ru| ru.antecedent == vec![4] && ru.consequent == vec![5])
            .unwrap();
        let sup5 = r.support_of(&[5]).unwrap();
        let sup4 = r.support_of(&[4]).unwrap();
        assert!((rule.lift(sup5, n) - 4.0 / 3.0).abs() < 1e-12);
        assert!((rule.leverage(sup4, sup5, n) - (0.75 - 0.5625)).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(rule.lift(0, n), 0.0);
        assert_eq!(rule.lift(sup5, 0), 0.0);
        assert_eq!(rule.leverage(sup4, sup5, 0), 0.0);
    }

    #[test]
    fn confidence_anti_monotone_pruning_is_sound() {
        // Every rule in loose mode must also be derivable brute-force.
        let r = paper_result();
        for min_conf in [0.4, 0.6, 0.8, 1.0] {
            let rules = generate_rules(&r, min_conf);
            for rule in &rules {
                let mut x = rule.antecedent.clone();
                x.extend(&rule.consequent);
                x.sort_unstable();
                let sx = r.support_of(&x).unwrap();
                let sa = r.support_of(&rule.antecedent).unwrap();
                assert_eq!(rule.support, sx);
                assert!((rule.confidence - sx as f64 / sa as f64).abs() < 1e-12);
                assert!(rule.confidence >= min_conf);
            }
            // And none missed: brute-force enumeration.
            let mut brute = 0usize;
            for (items, sup) in r.all_itemsets() {
                if items.len() < 2 {
                    continue;
                }
                let n = items.len();
                for mask in 1..(1u32 << n) - 1 {
                    let mut ant = Vec::new();
                    let mut con = Vec::new();
                    for (b, &it) in items.iter().enumerate() {
                        if mask & (1 << b) != 0 {
                            con.push(it);
                        } else {
                            ant.push(it);
                        }
                    }
                    let sa = r.support_of(&ant).unwrap();
                    if sup as f64 / sa as f64 >= min_conf {
                        brute += 1;
                    }
                }
            }
            assert_eq!(rules.len(), brute, "min_conf={min_conf}");
        }
    }
}
