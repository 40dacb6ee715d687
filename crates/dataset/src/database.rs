//! CSR-layout transaction database.
//!
//! Transactions are stored back to back in a single `Vec<Item>` with an
//! offsets array, so a full database scan (the hot loop of support counting)
//! is a purely sequential memory walk. Each transaction is sorted and
//! duplicate-free, which the subset-enumeration kernel relies on.

use crate::Item;

/// An immutable database of transactions in CSR layout.
///
/// Invariants (enforced by [`DatabaseBuilder`] and checked in debug builds):
/// * `offsets.len() == len() + 1`, `offsets[0] == 0`, non-decreasing;
/// * every transaction slice is strictly increasing (sorted, deduplicated);
/// * every item is `< n_items`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Database {
    n_items: u32,
    offsets: Vec<u32>,
    items: Vec<Item>,
}

impl Database {
    /// Builds a database from an iterator of transactions. Each transaction
    /// is sorted and deduplicated; items `>= n_items` are rejected.
    pub fn from_transactions<I, T>(n_items: u32, txns: I) -> Result<Self, DatabaseError>
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = Item>,
    {
        let mut b = DatabaseBuilder::new(n_items);
        for t in txns {
            b.push(t)?;
        }
        Ok(b.finish())
    }

    /// Number of distinct items this database draws from (`N` in the paper).
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of transactions (`D` in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the database holds no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th transaction as a sorted item slice.
    #[inline]
    pub fn transaction(&self, i: usize) -> &[Item] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.items[lo..hi]
    }

    /// Iterates over all transactions in order.
    #[inline]
    pub fn iter(&self) -> TransactionIter<'_> {
        TransactionIter { db: self, next: 0 }
    }

    /// Total number of item occurrences across all transactions.
    #[inline]
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Mean transaction length (`T` in the paper's dataset naming).
    pub fn avg_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.items.len() as f64 / self.len() as f64
        }
    }

    /// Length of the longest transaction.
    pub fn max_len(&self) -> usize {
        (0..self.len())
            .map(|i| self.transaction(i).len())
            .max()
            .unwrap_or(0)
    }

    /// In-memory size of the raw CSR arrays in bytes (used for Table 2).
    pub fn size_bytes(&self) -> usize {
        self.items.len() * size_of::<Item>() + self.offsets.len() * size_of::<u32>()
    }

    /// Absolute support count corresponding to a fractional `min_support`
    /// (e.g. `0.005` for the paper's 0.5%). Rounds up and clamps to at
    /// least 1 so that "0%" never means "every itemset is frequent for free".
    pub fn absolute_support(&self, min_support: f64) -> u32 {
        let s = (min_support * self.len() as f64).ceil();
        (s.max(1.0)) as u32
    }

    /// Raw offsets array (for IO and zero-copy consumers).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Raw concatenated item array (for IO and zero-copy consumers).
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    pub(crate) fn from_raw_unchecked(n_items: u32, offsets: Vec<u32>, items: Vec<Item>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, items.len());
        Database {
            n_items,
            offsets,
            items,
        }
    }
}

impl<'a> IntoIterator for &'a Database {
    type Item = &'a [Item];
    type IntoIter = TransactionIter<'a>;
    fn into_iter(self) -> TransactionIter<'a> {
        self.iter()
    }
}

/// Iterator over the transactions of a [`Database`].
pub struct TransactionIter<'a> {
    db: &'a Database,
    next: usize,
}

impl<'a> Iterator for TransactionIter<'a> {
    type Item = &'a [Item];

    #[inline]
    fn next(&mut self) -> Option<&'a [Item]> {
        if self.next < self.db.len() {
            let t = self.db.transaction(self.next);
            self.next += 1;
            Some(t)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.db.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for TransactionIter<'_> {}

/// Errors raised while assembling a [`Database`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// A transaction referenced an item `>= n_items`.
    ItemOutOfRange { item: Item, n_items: u32 },
    /// The database would exceed `u32::MAX` total item occurrences.
    TooLarge,
}

impl std::fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatabaseError::ItemOutOfRange { item, n_items } => {
                write!(f, "item {item} out of range (n_items = {n_items})")
            }
            DatabaseError::TooLarge => write!(f, "database exceeds u32 item-offset capacity"),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// Incremental builder for [`Database`]. Sorts and deduplicates each pushed
/// transaction; keeps the CSR arrays tight.
#[derive(Debug, Clone)]
pub struct DatabaseBuilder {
    n_items: u32,
    offsets: Vec<u32>,
    items: Vec<Item>,
    scratch: Vec<Item>,
}

impl DatabaseBuilder {
    /// Creates a builder for a database over `n_items` distinct items.
    pub fn new(n_items: u32) -> Self {
        DatabaseBuilder {
            n_items,
            offsets: vec![0],
            items: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Creates a builder with pre-reserved capacity for `txns` transactions
    /// of roughly `avg_len` items each.
    pub fn with_capacity(n_items: u32, txns: usize, avg_len: usize) -> Self {
        let mut b = Self::new(n_items);
        b.offsets.reserve(txns);
        b.items.reserve(txns * avg_len);
        b
    }

    /// Appends one transaction. Empty transactions are allowed (they simply
    /// never support any itemset).
    pub fn push<T: IntoIterator<Item = Item>>(&mut self, txn: T) -> Result<(), DatabaseError> {
        self.scratch.clear();
        self.scratch.extend(txn);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        if let Some(&max) = self.scratch.last() {
            if max >= self.n_items {
                return Err(DatabaseError::ItemOutOfRange {
                    item: max,
                    n_items: self.n_items,
                });
            }
        }
        let new_len = self.items.len() + self.scratch.len();
        if new_len > u32::MAX as usize {
            return Err(DatabaseError::TooLarge);
        }
        self.items.extend_from_slice(&self.scratch);
        self.offsets.push(new_len as u32);
        Ok(())
    }

    /// Appends a transaction that is already sorted, duplicate-free and in
    /// range (a trimmed copy of a transaction of a database over the same
    /// items), skipping [`push`](Self::push)'s sort. The invariants are
    /// checked in debug builds only.
    pub fn push_sorted(&mut self, txn: &[Item]) {
        debug_assert!(txn.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(txn.last().is_none_or(|&i| i < self.n_items));
        self.items.extend_from_slice(txn);
        self.offsets.push(
            u32::try_from(self.items.len()).expect("database exceeds u32 item-offset capacity"),
        );
    }

    /// Appends every transaction of `db` (a database over the same items),
    /// in order.
    pub fn append(&mut self, db: &Database) {
        debug_assert_eq!(db.n_items, self.n_items);
        let base = self.items.len();
        let offsets = &db.offsets[1..];
        self.offsets.extend(offsets.iter().map(|&o| {
            u32::try_from(base + o as usize).expect("database exceeds u32 item-offset capacity")
        }));
        self.items.extend_from_slice(&db.items);
    }

    /// Number of transactions pushed so far.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if no transactions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items pushed so far, over all transactions.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Finalizes the database.
    pub fn finish(self) -> Database {
        Database::from_raw_unchecked(self.n_items, self.offsets, self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(txns: &[&[Item]]) -> Database {
        Database::from_transactions(100, txns.iter().map(|t| t.iter().copied())).unwrap()
    }

    #[test]
    fn empty_database() {
        let d = db(&[]);
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
        assert_eq!(d.avg_len(), 0.0);
        assert_eq!(d.max_len(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn paper_worked_example() {
        // D = {T1=(1,4,5), T2=(1,2), T3=(3,4,5), T4=(1,2,4,5)} from §2.1.3.
        let d = db(&[&[1, 4, 5], &[1, 2], &[3, 4, 5], &[1, 2, 4, 5]]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.transaction(0), &[1, 4, 5]);
        assert_eq!(d.transaction(3), &[1, 2, 4, 5]);
        assert_eq!(d.total_items(), 12);
        assert_eq!(d.max_len(), 4);
        assert!((d.avg_len() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sorts_and_dedups() {
        let d = db(&[&[5, 1, 5, 3, 1]]);
        assert_eq!(d.transaction(0), &[1, 3, 5]);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Database::from_transactions(4, [[1u32, 9].into_iter()]).unwrap_err();
        assert_eq!(
            err,
            DatabaseError::ItemOutOfRange {
                item: 9,
                n_items: 4
            }
        );
    }

    #[test]
    fn empty_transaction_allowed() {
        let d = db(&[&[], &[2, 3]]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.transaction(0), &[] as &[Item]);
        assert_eq!(d.transaction(1), &[2, 3]);
    }

    #[test]
    fn absolute_support_rounds_up_and_clamps() {
        let d = db(&[&[0], &[1], &[2], &[3]]);
        assert_eq!(d.absolute_support(0.5), 2);
        assert_eq!(d.absolute_support(0.26), 2); // ceil(1.04)
        assert_eq!(d.absolute_support(0.0), 1); // clamp
        assert_eq!(d.absolute_support(1.0), 4);
    }

    #[test]
    fn iterator_matches_indexing() {
        let d = db(&[&[1, 2], &[3], &[4, 5, 6]]);
        let via_iter: Vec<_> = d.iter().collect();
        let via_index: Vec<_> = (0..d.len()).map(|i| d.transaction(i)).collect();
        assert_eq!(via_iter, via_index);
        assert_eq!(d.iter().len(), 3);
    }

    #[test]
    fn push_sorted_and_append_concatenate() {
        let mut a = DatabaseBuilder::new(100);
        a.push_sorted(&[1, 2]);
        a.push_sorted(&[]);
        let a = a.finish();
        let mut b = DatabaseBuilder::new(100);
        b.push_sorted(&[3]);
        b.append(&a);
        b.append(&db(&[]));
        b.append(&db(&[&[4, 5]]));
        assert_eq!((b.len(), b.total_items()), (4, 5));
        assert_eq!(b.finish(), db(&[&[3], &[1, 2], &[], &[4, 5]]));
    }

    #[test]
    fn size_bytes_counts_csr_arrays() {
        let d = db(&[&[1, 2, 3]]);
        assert_eq!(d.size_bytes(), 3 * 4 + 2 * 4);
    }
}
