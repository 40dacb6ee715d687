//! Database partitioning for parallel support counting (§3.2.2).
//!
//! CCPD logically splits the database among processors. The paper uses a
//! blocked split ([`block_ranges`]) and notes that per-transaction workload
//! is polynomial in transaction length, `O(min(l^k, l^(l-k)))`, suggesting a
//! static weighted heuristic based on the mean of `C(l, k)` over the
//! expected iterations ([`weighted_ranges`] with [`txn_weight`]).

use crate::Database;
use std::ops::Range;

/// Splits `n` elements into `parts` contiguous blocks whose sizes differ by
/// at most one. Surplus elements go to the *last* blocks, matching the
/// paper's computation-balancing example (`A2 = {6,7,8,9}` for n=10, P=3).
///
/// `parts == 0` yields an empty vector; empty ranges are produced when
/// `parts > n` so that every processor always has a (possibly empty) block.
pub fn block_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if parts == 0 {
        return Vec::new();
    }
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        // The last `rem` parts get one extra element.
        let extra = usize::from(p >= parts - rem);
        let len = base + extra;
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// The static workload heuristic for one transaction of length `l`:
/// `(Σ_{k=1..kmax} C(l, k)) / kmax`, saturating at `u64::MAX`. This is the
/// paper's "mean estimated workload over all iterations" (§3.2.2).
pub fn txn_weight(l: usize, kmax: usize) -> u64 {
    if kmax == 0 {
        return 0;
    }
    let mut sum: u64 = 0;
    for k in 1..=kmax {
        sum = sum.saturating_add(binomial_saturating(l as u64, k as u64));
    }
    (sum / kmax as u64).max(1)
}

/// `C(n, k)` with saturating arithmetic (workload estimates only need the
/// right order of magnitude, not exact huge values).
pub fn binomial_saturating(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        // acc * (n - i) / (i + 1); compute in u128 to delay overflow.
        let wide = (acc as u128).saturating_mul((n - i) as u128) / (i as u128 + 1);
        acc = u64::try_from(wide).unwrap_or(u64::MAX);
        if acc == u64::MAX {
            return u64::MAX;
        }
    }
    acc
}

/// Splits the database into `parts` contiguous ranges with approximately
/// equal *estimated workload* (sum of [`txn_weight`] over each range).
///
/// Contiguity is preserved deliberately: the paper stresses "respecting the
/// locality of the partition by moving transactions only when absolutely
/// necessary".
///
/// The weights model the hash-tree subset walk (`C(l, k)` subsets per
/// transaction), not CCPD's default pair and class arrays: there, at
/// P = 2 on a skewed database, these seeds counted 39–55% slower than
/// block seeds although they balanced the work (EXPERIMENTS.md,
/// "Ablations").
pub fn weighted_ranges(db: &Database, parts: usize, kmax: usize) -> Vec<Range<usize>> {
    if parts == 0 {
        return Vec::new();
    }
    let n = db.len();
    if n == 0 {
        return vec![0..0; parts];
    }
    let weights: Vec<u64> = (0..n)
        .map(|i| txn_weight(db.transaction(i).len(), kmax))
        .collect();
    split_by_weights(&weights, parts)
}

/// Splits the database into `parts` contiguous ranges with approximately
/// equal `C(l, k)` workload for iteration `k` — the paper's *per-iteration
/// re-partitioning* alternative (§3.2.2). Contiguity again preserves
/// partition locality. As in [`weighted_ranges`], `C(l, k)` models the
/// hash-tree walk, not the default array path.
pub fn weighted_ranges_for_k(db: &Database, parts: usize, k: u32) -> Vec<Range<usize>> {
    if parts == 0 {
        return Vec::new();
    }
    let n = db.len();
    if n == 0 {
        return vec![0..0; parts];
    }
    let weights: Vec<u64> = (0..n)
        .map(|i| binomial_saturating(db.transaction(i).len() as u64, k as u64).max(1))
        .collect();
    split_by_weights(&weights, parts)
}

/// Greedy contiguous split of `weights` into `parts` ranges (at least
/// one) of roughly equal total weight; trailing ranges are empty when
/// there are fewer weights than parts.
pub fn split_by_weights(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let target = (total as f64 / parts as f64).max(1.0);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let remaining = parts - out.len();
        if remaining > 1 && acc as f64 >= target && n - (i + 1) >= remaining - 1 {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(start..n);
    while out.len() < parts {
        out.push(n..n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    #[test]
    fn block_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 10, 100, 101] {
            for p in 1..=8 {
                let r = block_ranges(n, p);
                assert_eq!(r.len(), p);
                assert_eq!(r[0].start, 0);
                assert_eq!(r.last().unwrap().end, n);
                for w in r.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = r.iter().map(|x| x.len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} p={p} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn block_ranges_paper_example() {
        // n = 10, P = 3 -> {0,1,2}, {3,4,5}, {6,7,8,9} (§3.1.2).
        let r = block_ranges(10, 3);
        assert_eq!(r, vec![0..3, 3..6, 6..10]);
    }

    #[test]
    fn block_ranges_zero_parts() {
        assert!(block_ranges(5, 0).is_empty());
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial_saturating(5, 0), 1);
        assert_eq!(binomial_saturating(5, 2), 10);
        assert_eq!(binomial_saturating(5, 5), 1);
        assert_eq!(binomial_saturating(5, 6), 0);
        assert_eq!(binomial_saturating(20, 10), 184_756);
    }

    #[test]
    fn binomial_saturates() {
        assert_eq!(binomial_saturating(1000, 500), u64::MAX);
    }

    #[test]
    fn txn_weight_grows_with_length() {
        let w5 = txn_weight(5, 4);
        let w20 = txn_weight(20, 4);
        assert!(w20 > w5 * 10, "w5={w5} w20={w20}");
        assert_eq!(txn_weight(0, 4), 1); // clamped floor
        assert_eq!(txn_weight(10, 0), 0);
    }

    fn uneven_db() -> Database {
        // Two huge transactions followed by many tiny ones.
        let mut txns: Vec<Vec<u32>> = vec![(0..30).collect(), (0..28).collect()];
        for i in 0..20 {
            txns.push(vec![i % 30, (i + 1) % 30]);
        }
        Database::from_transactions(30, txns).unwrap()
    }

    #[test]
    fn weighted_ranges_cover_and_balance() {
        let db = uneven_db();
        let parts = 4;
        let r = weighted_ranges(&db, parts, 6);
        assert_eq!(r.len(), parts);
        assert_eq!(r[0].start, 0);
        assert_eq!(r.last().unwrap().end, db.len());
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // The heavy head must not be lumped together with everything else:
        // block partitioning puts both huge transactions in range 0 along
        // with 3 more; the weighted split should cut earlier.
        assert!(r[0].len() <= 2, "weighted first range {:?}", r[0]);
    }

    #[test]
    fn weighted_ranges_empty_db() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let r = weighted_ranges(&db, 3, 5);
        assert_eq!(r, vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn per_iteration_ranges_follow_k() {
        let db = uneven_db();
        for k in [2u32, 4, 8] {
            let r = weighted_ranges_for_k(&db, 3, k);
            assert_eq!(r.len(), 3);
            assert_eq!(r[0].start, 0);
            assert_eq!(r.last().unwrap().end, db.len());
            for w in r.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
        // At high k the giant transactions dominate even more strongly:
        // the first range should be a single transaction.
        let r8 = weighted_ranges_for_k(&db, 3, 8);
        assert_eq!(r8[0].len(), 1, "ranges {r8:?}");
    }

    #[test]
    fn per_iteration_ranges_empty_db() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        assert_eq!(weighted_ranges_for_k(&db, 2, 3), vec![0..0, 0..0]);
        assert!(weighted_ranges_for_k(&db, 0, 3).is_empty());
    }
}
