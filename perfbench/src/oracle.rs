//! The correctness oracle: sequential Apriori's output, flattened into
//! canonical (length, then lexicographic) order, plus a digest of it.

use arm_dataset::Item;

/// A flattened frequent-itemset list.
pub type Itemsets = Vec<(Vec<Item>, u32)>;

/// Sorts `sets` into canonical length-then-lex order.
pub fn canonical(mut sets: Itemsets) -> Itemsets {
    sets.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
    sets
}

/// FNV-1a digest over every itemset's length, items and support, in
/// canonical order.
pub fn digest(sets: &Itemsets) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (items, support) in sets {
        eat(items.len() as u32);
        for &i in items {
            eat(i);
        }
        eat(*support);
    }
    h
}

/// The reference output every mining call is compared against.
pub struct Oracle {
    /// Canonical itemsets.
    pub sets: Itemsets,
    /// [`digest`] of the itemsets translated back to the generator's item
    /// labels, so it is the same for every relabelling of one database.
    pub digest: u64,
}

impl Oracle {
    /// Builds the oracle from a miner's output; `original[i]` is the
    /// generator's label of item `i`.
    pub fn new(sets: Itemsets, original: &[Item]) -> Self {
        let sets = canonical(sets);
        let relabelled = sets
            .iter()
            .map(|(items, s)| {
                let mut o: Vec<Item> = items.iter().map(|&i| original[i as usize]).collect();
                o.sort_unstable();
                (o, *s)
            })
            .collect();
        let digest = digest(&canonical(relabelled));
        Oracle { sets, digest }
    }

    /// Whether `got` holds exactly the oracle's itemsets and supports.
    pub fn matches(&self, got: Itemsets) -> bool {
        canonical(got) == self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_insensitive_but_support_sensitive() {
        let id = [0, 1, 2];
        let o = Oracle::new(vec![(vec![1, 2], 3), (vec![1], 5), (vec![2], 4)], &id);
        assert_eq!(o.sets[0], (vec![1], 5));
        assert!(o.matches(vec![(vec![2], 4), (vec![1, 2], 3), (vec![1], 5)]));
        assert!(!o.matches(vec![(vec![2], 4), (vec![1, 2], 2), (vec![1], 5)]));
        assert!(!o.matches(vec![(vec![2], 4), (vec![1], 5)]));
    }

    #[test]
    fn digest_tracks_content() {
        let id = [0, 1, 2];
        let a = Oracle::new(vec![(vec![1], 5), (vec![2], 4)], &id);
        let b = Oracle::new(vec![(vec![1], 5), (vec![2], 3)], &id);
        let c = Oracle::new(vec![(vec![2], 4), (vec![1], 5)], &id);
        assert_ne!(a.digest, b.digest);
        assert_eq!(a.digest, c.digest);
        // Swapping labels 1 and 2 in both the data and the map keeps it.
        let swapped = Oracle::new(vec![(vec![2], 5), (vec![1], 4)], &[0, 2, 1]);
        assert_eq!(swapped.digest, a.digest);
    }
}
