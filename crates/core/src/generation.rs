//! Candidate generation: optimized join over prefix equivalence classes,
//! subset pruning, and the adaptive fan-out formula (§3.1.1).
//!
//! `C_k` is formed by joining `F_{k-1}` with itself. Because `F_{k-1}` is
//! lexicographically sorted, itemsets sharing a `(k-2)`-prefix form a
//! contiguous *equivalence class*; joins happen only within a class (all
//! `C(|S_i|, 2)` member pairs), and the resulting candidate is pruned
//! unless its remaining `k-2` subsets are frequent too.

use crate::level::FrequentLevel;
use arm_dataset::Item;
use arm_hashtree::CandidateSet;
use std::ops::Range;

/// Contiguous ranges of `level` sharing a common `(k-1)-1`-item prefix.
/// For `F_1` there is a single class (the empty prefix).
pub fn equivalence_classes(level: &FrequentLevel) -> Vec<Range<u32>> {
    let n = level.len() as u32;
    if n == 0 {
        return Vec::new();
    }
    let prefix = level.k() as usize - 1;
    let mut classes = Vec::new();
    let mut start = 0u32;
    for i in 1..n {
        if level.get(i as usize)[..prefix] != level.get(start as usize)[..prefix] {
            classes.push(start..i);
            start = i;
        }
    }
    classes.push(start..n);
    classes
}

/// Join workload of one class: `C(|S|, 2)` pairs.
pub fn class_weight(class: &Range<u32>) -> u64 {
    let s = (class.end - class.start) as u64;
    s * (s - 1) / 2
}

/// The adaptive fan-out rule `H > (Σ C(|S_i|,2) / T)^(1/k)` (§3.1.1),
/// clamped to at least 2.
pub fn adaptive_fanout(classes: &[Range<u32>], leaf_threshold: usize, k: u32) -> u32 {
    let total: u64 = classes.iter().map(class_weight).sum();
    if total == 0 {
        return 2;
    }
    let x = (total as f64 / leaf_threshold as f64).powf(1.0 / k as f64);
    (x.floor() as u32 + 1).max(2)
}

/// Generates the candidates of one equivalence class into `out`,
/// returning the number of join pairs considered (the class's workload):
/// each member's [`generate_class_member`] unit, in order. `scratch`
/// holds each candidate and its pruning subsets, so it is the one
/// allocation of the loop.
pub fn generate_class(
    level: &FrequentLevel,
    class: Range<u32>,
    out: &mut CandidateSet,
    scratch: &mut Vec<Item>,
) -> u64 {
    class
        .clone()
        .map(|i| generate_class_member(level, i..class.end, out, scratch))
        .sum()
}

/// Generates the candidates initiated by the *first* member of `range`
/// (joins with every later member of the same equivalence class), with
/// pruning. This is the member-granularity work unit of the parallel
/// computation-balancing scheme (§3.1.2): the paper's triangular
/// workloads `w_i = n - i - 1` are exactly the join counts of these
/// units.
///
/// The paper's pruning refinement is applied: the two `(k-1)`-subsets that
/// produced the candidate are frequent by construction, so only the
/// remaining `k-2` subsets are checked.
pub fn generate_class_member(
    level: &FrequentLevel,
    range: Range<u32>,
    out: &mut CandidateSet,
    scratch: &mut Vec<Item>,
) -> u64 {
    let k_prev = level.k() as usize;
    let Some(i) = range.clone().next() else {
        return 0;
    };
    let mut pairs = 0u64;
    for j in (i + 1)..range.end {
        pairs += 1;
        let a = level.get(i as usize);
        let b = level.get(j as usize);
        scratch.clear();
        scratch.extend_from_slice(a);
        scratch.push(b[k_prev - 1]);
        if survives_prune(level, scratch) {
            out.push(scratch);
        }
    }
    pairs
}

/// Checks the `k-2` non-parent `(k-1)`-subsets of the candidate in
/// `buf` for frequency. (Removing index `k-1` or `k-2` yields the two
/// parents.) Each subset is built in `buf` past the candidate, which is
/// left as it was.
fn survives_prune(level: &FrequentLevel, buf: &mut Vec<Item>) -> bool {
    let k = buf.len();
    if k <= 2 {
        return true; // both subsets are the parents themselves
    }
    // Without item 0, then each next subset puts back the item dropped
    // before and drops the following one.
    buf.extend_from_within(1..k);
    let mut frequent = true;
    for drop in 0..k - 2 {
        if drop > 0 {
            buf[k + drop - 1] = buf[drop - 1];
        }
        if level.find(&buf[k..]).is_none() {
            frequent = false;
            break;
        }
    }
    buf.truncate(k);
    frequent
}

/// Generates the full candidate set `C_k` from `F_{k-1}` (sequential).
/// Returns the candidates (lexicographically sorted by construction) and
/// the total join workload.
pub fn generate_candidates(level: &FrequentLevel) -> (CandidateSet, u64) {
    let k = level.k() + 1;
    let mut out = CandidateSet::new(k);
    let mut scratch = Vec::with_capacity(2 * k as usize);
    let mut pairs = 0u64;
    for class in equivalence_classes(level) {
        pairs += generate_class(level, class, &mut out, &mut scratch);
    }
    debug_assert!(out.is_sorted_unique());
    (out, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_from(k: u32, sets: &[&[Item]], supports: &[u32]) -> FrequentLevel {
        let mut c = CandidateSet::new(k);
        for s in sets {
            c.push(s);
        }
        FrequentLevel::new(c, supports.to_vec())
    }

    #[test]
    fn f1_single_class() {
        let l = level_from(1, &[&[1], &[2], &[4], &[5]], &[3, 2, 3, 3]);
        let classes = equivalence_classes(&l);
        assert_eq!(classes, vec![0..4]);
        assert_eq!(class_weight(&classes[0]), 6);
    }

    #[test]
    fn paper_c2_from_f1() {
        // §2.1.3: F1 = {1,2,4,5} → C2 = all 6 pairs.
        let l = level_from(1, &[&[1], &[2], &[4], &[5]], &[3, 2, 3, 3]);
        let (c2, pairs) = generate_candidates(&l);
        assert_eq!(pairs, 6);
        let got: Vec<Vec<Item>> = c2.iter().map(|(_, s)| s.to_vec()).collect();
        assert_eq!(
            got,
            vec![
                vec![1, 2],
                vec![1, 4],
                vec![1, 5],
                vec![2, 4],
                vec![2, 5],
                vec![4, 5]
            ]
        );
    }

    #[test]
    fn paper_c3_pruning() {
        // §2.1.3: F2 = {(1,2),(1,4),(1,5),(4,5)}. The join yields
        // (1,2,4),(1,2,5),(1,4,5); pruning kills the first two because
        // (2,4) and (2,5) are not frequent.
        let l = level_from(2, &[&[1, 2], &[1, 4], &[1, 5], &[4, 5]], &[2, 2, 2, 3]);
        let classes = equivalence_classes(&l);
        assert_eq!(classes, vec![0..3, 3..4]);
        let (c3, pairs) = generate_candidates(&l);
        assert_eq!(pairs, 3);
        assert_eq!(c3.len(), 1);
        assert_eq!(c3.get(0), &[1, 4, 5]);
    }

    #[test]
    fn classes_split_on_prefix() {
        let l = level_from(
            2,
            &[&[0, 1], &[0, 2], &[1, 2], &[1, 3], &[1, 4], &[7, 9]],
            &[1; 6],
        );
        let classes = equivalence_classes(&l);
        assert_eq!(classes, vec![0..2, 2..5, 5..6]);
        assert_eq!(class_weight(&classes[1]), 3);
        assert_eq!(class_weight(&classes[2]), 0);
    }

    #[test]
    fn empty_level_generates_nothing() {
        let l = level_from(2, &[], &[]);
        assert!(equivalence_classes(&l).is_empty());
        let (c, pairs) = generate_candidates(&l);
        assert!(c.is_empty());
        assert_eq!(pairs, 0);
    }

    #[test]
    fn adaptive_fanout_grows_with_candidates() {
        // One class of 100 items: ~4950 pairs. T=8, k=2: H > (4950/8)^0.5
        // ≈ 24.9 → 25.
        let h = adaptive_fanout(std::slice::from_ref(&(0..100)), 8, 2);
        assert_eq!(h, 25);
        // Deeper iterations need smaller H for the same volume.
        let h3 = adaptive_fanout(std::slice::from_ref(&(0..100)), 8, 3);
        assert!(h3 < h);
        assert_eq!(adaptive_fanout(&[], 8, 2), 2);
        assert_eq!(adaptive_fanout(std::slice::from_ref(&(0..1)), 8, 2), 2);
    }

    #[test]
    fn prune_checks_non_parent_subsets_only() {
        // F3 with a hole: candidate (0,1,2,3) joins from (0,1,2)+(0,1,3);
        // parents frequent, but (0,2,3) missing → pruned; (1,2,3) present.
        let l = level_from(3, &[&[0, 1, 2], &[0, 1, 3], &[1, 2, 3]], &[5, 5, 5]);
        let (c4, _) = generate_candidates(&l);
        assert!(c4.is_empty());

        // Now with (0,2,3) present the candidate survives.
        let l2 = level_from(
            3,
            &[&[0, 1, 2], &[0, 1, 3], &[0, 2, 3], &[1, 2, 3]],
            &[5; 4],
        );
        let (c4b, _) = generate_candidates(&l2);
        assert_eq!(c4b.len(), 1);
        assert_eq!(c4b.get(0), &[0, 1, 2, 3]);
    }
}
