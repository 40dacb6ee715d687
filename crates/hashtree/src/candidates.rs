//! Flat storage for the candidate k-itemsets of one iteration.
//!
//! Candidates are identified by dense ids (`0 .. len`). Items of candidate
//! `c` occupy the k-stride slice `items[c*k .. (c+1)*k]`, giving the
//! generation and extraction phases a cache-friendly layout and the hash
//! tree a compact thing to reference.

use arm_dataset::Item;

/// The candidate set `C_k` for one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateSet {
    k: u32,
    items: Vec<Item>,
}

impl CandidateSet {
    /// Creates an empty candidate set for k-itemsets (`k >= 1`).
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "candidate itemsets must have at least one item");
        CandidateSet {
            k,
            items: Vec::new(),
        }
    }

    /// Creates an empty set with capacity for `n` candidates.
    pub fn with_capacity(k: u32, n: usize) -> Self {
        let mut s = Self::new(k);
        s.items.reserve(n * k as usize);
        s
    }

    /// Itemset length `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len() / self.k as usize
    }

    /// True when no candidates are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Appends a candidate (must be strictly sorted, length `k`); returns
    /// its id.
    pub fn push(&mut self, itemset: &[Item]) -> u32 {
        assert_eq!(itemset.len(), self.k as usize, "itemset length != k");
        debug_assert!(
            itemset.windows(2).all(|w| w[0] < w[1]),
            "itemset must be strictly sorted: {itemset:?}"
        );
        let id = self.len() as u32;
        self.items.extend_from_slice(itemset);
        id
    }

    /// The items of candidate `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &[Item] {
        let k = self.k as usize;
        let base = id as usize * k;
        &self.items[base..base + k]
    }

    /// Iterates over `(id, items)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Item])> + '_ {
        (0..self.len() as u32).map(move |id| (id, self.get(id)))
    }

    /// Appends all candidates of `other` (same `k`).
    pub fn extend_from(&mut self, other: &CandidateSet) {
        assert_eq!(
            self.k, other.k,
            "cannot merge candidate sets of different k"
        );
        self.items.extend_from_slice(&other.items);
    }

    /// Sorts candidates lexicographically, making the set canonical
    /// regardless of (parallel) generation order. Returns the permutation
    /// applied (`perm[new_id] = old_id`).
    pub fn sort_lex(&mut self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&a, &b| self.get(a).cmp(self.get(b)));
        let mut sorted = Vec::with_capacity(self.items.len());
        for &old in &order {
            sorted.extend_from_slice(self.get(old));
        }
        self.items = sorted;
        order
    }

    /// True if candidates are in strictly increasing lexicographic order
    /// (implies no duplicates).
    pub fn is_sorted_unique(&self) -> bool {
        (1..self.len() as u32).all(|id| self.get(id - 1) < self.get(id))
    }
}

impl AsRef<CandidateSet> for CandidateSet {
    fn as_ref(&self) -> &CandidateSet {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = CandidateSet::new(3);
        assert!(c.is_empty());
        let a = c.push(&[1, 4, 5]);
        let b = c.push(&[2, 3, 9]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), &[1, 4, 5]);
        assert_eq!(c.get(1), &[2, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "length != k")]
    fn rejects_wrong_length() {
        CandidateSet::new(2).push(&[1, 2, 3]);
    }

    #[test]
    fn iter_yields_all() {
        let mut c = CandidateSet::new(2);
        c.push(&[0, 1]);
        c.push(&[0, 2]);
        let v: Vec<(u32, Vec<Item>)> = c.iter().map(|(i, s)| (i, s.to_vec())).collect();
        assert_eq!(v, vec![(0, vec![0, 1]), (1, vec![0, 2])]);
    }

    #[test]
    fn sort_lex_canonicalizes() {
        let mut c = CandidateSet::new(2);
        c.push(&[3, 5]);
        c.push(&[1, 2]);
        c.push(&[1, 9]);
        let perm = c.sort_lex();
        assert_eq!(perm, vec![1, 2, 0]);
        assert_eq!(c.get(0), &[1, 2]);
        assert_eq!(c.get(1), &[1, 9]);
        assert_eq!(c.get(2), &[3, 5]);
        assert!(c.is_sorted_unique());
    }

    #[test]
    fn sorted_unique_detects_duplicates() {
        let mut c = CandidateSet::new(2);
        c.push(&[1, 2]);
        c.push(&[1, 2]);
        assert!(!c.is_sorted_unique());
    }
}
