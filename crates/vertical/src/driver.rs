//! The shared vertical-mining machinery: database transposition, class
//! construction, and the prefix-class DFS the driver in
//! [`crate::parallel`] is built from.
//!
//! The DFS step is `Dfs::extend_one`, which grows one member of a class
//! and recurses into its children: a parallel task is exactly one
//! `extend_one` call on the root class, and a class's subtree never
//! depends on any other class's traversal, so every schedule emits the
//! same itemsets.

use crate::config::VerticalConfig;
use crate::tidset::{Backend, KernelStats, TidMarks, TidSet};
use arm_core::{FrequentPairs, PairIndex};
use arm_dataset::{partition::block_ranges, Database, Item, Tid};
use arm_faults::{try_run_threads, MiningError, RunControl};
use arm_hashtree::CandidateSet;

/// One root class's itemsets by length: entry `i` holds the `(i + 2)`-itemsets
/// and their supports in lex order (empty past the class's depth in a reused one).
pub(crate) type ClassLevels = Vec<(CandidateSet, Vec<u32>)>;

/// A prefix-class member during the DFS: the extending item, its rank
/// in the root class (the index of the root member holding it), and the
/// tidset of `prefix ∪ {item}`.
#[derive(Debug, Clone)]
pub(crate) struct Member {
    pub item: Item,
    pub rank: u32,
    pub tids: TidSet,
}

/// Bitmap word count covering `n_txns` transactions.
pub(crate) fn n_words_for(n_txns: usize) -> usize {
    n_txns.div_ceil(64)
}

/// Transposes the database into per-item ascending tidlists using `p`
/// threads over contiguous transaction blocks. Each worker counts its
/// block's items first and sizes every list from that count before
/// filling it; blocks are merged in thread (= tid) order into lists
/// sized from the summed counts, so the result is deterministic, each
/// list stays sorted, and no list grows by reallocation. Returns the
/// lists and the per-thread work tally (items visited).
///
/// Each worker checkpoints the control's token once before scanning its
/// block (the block is one indivisible unit of transposition work) and
/// fires fault-plan sites in phase `transpose`. A cancelled run's
/// partial lists are discarded by the caller's phase gate, never merged
/// into results.
pub(crate) fn try_transpose(
    db: &Database,
    p: usize,
    ctrl: &RunControl,
) -> Result<(Vec<Vec<Tid>>, Vec<u64>), MiningError> {
    let p = p.max(1);
    let n_items = db.n_items() as usize;
    let ranges = block_ranges(db.len(), p);
    let partials: Vec<(Vec<Vec<Tid>>, u64)> = try_run_threads(p, "transpose", &ctrl.cancel, |t| {
        ctrl.faults.fire("transpose", t, 0);
        if !ctrl.cancel.checkpoint() {
            return (vec![Vec::new(); n_items], 0);
        }
        let range = ranges[t].clone();
        let offsets = db.offsets();
        let block = &db.items()[offsets[range.start] as usize..offsets[range.end] as usize];
        let mut sizes = vec![0usize; n_items];
        for &item in block {
            sizes[item as usize] += 1;
        }
        let mut lists: Vec<Vec<Tid>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for tid in range {
            for &item in db.transaction(tid) {
                lists[item as usize].push(tid as Tid);
            }
        }
        (lists, block.len() as u64)
    })?;
    let work: Vec<u64> = partials.iter().map(|(_, w)| *w).collect();
    let mut partials = partials.into_iter().map(|(lists, _)| lists);
    let mut merged = partials.next().expect("one block per thread");
    let rest: Vec<Vec<Vec<Tid>>> = partials.collect();
    if !rest.is_empty() {
        for (i, dst) in merged.iter_mut().enumerate() {
            let len = dst.len() + rest.iter().map(|lists| lists[i].len()).sum::<usize>();
            let mut list = Vec::with_capacity(len);
            list.append(dst);
            for lists in &rest {
                list.extend_from_slice(&lists[i]);
            }
            *dst = list;
        }
    }
    Ok((merged, work))
}

/// Filters the transposed lists down to the frequent singletons — the
/// root equivalence class, always materialized as sorted lists first.
pub(crate) fn build_root(
    tidlists: Vec<Vec<Tid>>,
    min_support: u32,
    stats: &mut KernelStats,
) -> Vec<Member> {
    let mut root = Vec::new();
    for (i, tids) in tidlists.into_iter().enumerate() {
        if tids.len() >= min_support as usize {
            stats.tidset_bytes += 4 * tids.len() as u64;
            root.push(Member {
                item: i as Item,
                rank: root.len() as u32,
                tids: TidSet::Sorted(tids),
            });
        }
    }
    root
}

/// The pair index over the root class's items (ranks = member
/// indices), or `None` when its counter array is unaddressable — the
/// root then intersects every pair.
pub(crate) fn root_pairs(root: &[Member], n_items: u32) -> Option<PairIndex> {
    let items: Vec<Item> = root.iter().map(|m| m.item).collect();
    PairIndex::new(&items, n_items)
}

/// The root class's pair counts, borrowed in place: the summed counter
/// array over a [`PairIndex`] of the root's ranks, and its frequent
/// partner lists ([`PairIndex::frequent_pairs`]).
pub(crate) struct RootPairs<'a> {
    index: &'a PairIndex,
    counts: &'a [u32],
    frequent: FrequentPairs<'a>,
}

impl<'a> RootPairs<'a> {
    /// Reads the frequent partners off `counts`, the pair counts over
    /// `index`.
    pub(crate) fn new(index: &'a PairIndex, counts: &'a [u32], min_support: u32) -> Self {
        RootPairs {
            index,
            counts,
            frequent: index.frequent_pairs(counts, min_support),
        }
    }

    /// The support of the pair of root ranks `a < b`.
    fn count(&self, a: u32, b: u32) -> u32 {
        self.counts[self.index.index(a, b)]
    }

    /// The weight of root class `a`: the summed supports of its frequent
    /// pairs, the tidset lengths its children start from.
    pub(crate) fn weight(&self, a: usize) -> u64 {
        let partners = self.frequent.partners(a);
        partners
            .iter()
            .map(|&b| self.count(a as u32, b) as u64)
            .sum()
    }
}

/// What every class of one run is mined under: the root's pair counts
/// (`None` when the pair array is unaddressable), the support and
/// depth bounds, the backend policy and the transaction count.
pub(crate) struct Dfs<'a> {
    pub pairs: Option<&'a RootPairs<'a>>,
    pub min_support: u32,
    pub max_k: Option<u32>,
    pub cfg: &'a VerticalConfig,
    pub n_txns: usize,
}

/// Converts every member of a tidset class to `target` (members already
/// there are untouched, so repeated calls are idempotent). Diffset
/// classes are never converted.
pub(crate) fn convert_members(
    members: &mut [Member],
    target: Backend,
    n_words: usize,
    stats: &mut KernelStats,
) {
    for m in members {
        if m.tids.backend() != target {
            let converted = match target {
                Backend::Bitmap => m.tids.to_bitmap(n_words),
                Backend::Sorted => m.tids.to_sorted(),
            };
            stats.tidset_bytes += converted.bytes();
            m.tids = converted;
        }
    }
}

impl Dfs<'_> {
    /// Grows member `i` of `class`: joins it with later members, appends
    /// the surviving children (itemsets of length `prefix.len() + 2`) to
    /// their length's entry of `out`, and recurses while `max_k` allows.
    /// `marks` is the worker's [`TidMarks`], all zero on entry and on return.
    ///
    /// At the root (empty `prefix`) member `a` intersects only its
    /// frequent partners, read off the pair counts, so the 2-itemsets
    /// keep their tidsets; a sorted `a` is marked once and each child is
    /// built by [`TidMarks::join`] into a list sized by its pair count.
    /// Below the root, members join by [`TidSet::join`]: a sorted class
    /// yields diffsets, and a join stops as soon as the child cannot be
    /// frequent. A join `PX ⋈ PY` whose 2-subset `{x, y}` is below
    /// `min_support` is skipped without touching a tidset (one lookup in
    /// the pair counts). A child class of tidsets re-decides its backend
    /// by its own density — deep classes are typically much sparser than
    /// the root; a class of diffsets is never converted.
    pub(crate) fn extend_one(
        &self,
        class: &[Member],
        i: usize,
        prefix: &mut Vec<Item>,
        marks: &mut TidMarks,
        stats: &mut KernelStats,
        out: &mut ClassLevels,
    ) {
        let a = &class[i];
        let mut child = if prefix.is_empty() {
            self.root_children(class, i, marks, stats)
        } else {
            self.class_children(class, i, stats)
        };
        if child.is_empty() {
            return;
        }
        if !matches!(child[0].tids, TidSet::Diff { .. }) {
            let total_support = child.iter().map(|m| m.tids.support() as u64).sum();
            let target = self.cfg.choose(total_support, child.len(), self.n_txns);
            convert_members(&mut child, target, n_words_for(self.n_txns), stats);
        }
        prefix.push(a.item);
        let depth = prefix.len() + 1; // length of the emitted itemsets
        if out.len() < depth - 1 {
            // Reached through a parent of the length before: one entry short.
            out.push((CandidateSet::new(depth as u32), Vec::new()));
        }
        let (sets, supports) = &mut out[depth - 2];
        for m in &child {
            prefix.push(m.item);
            sets.push(prefix);
            prefix.pop();
            supports.push(m.tids.support());
        }
        if self.max_k.is_none_or(|cap| (depth as u32) < cap) {
            for j in 0..child.len() {
                self.extend_one(&child, j, prefix, marks, stats, out);
            }
        }
        prefix.pop();
    }

    /// The frequent 2-itemsets of root member `i`, as tidsets.
    fn root_children(
        &self,
        root: &[Member],
        i: usize,
        marks: &mut TidMarks,
        stats: &mut KernelStats,
    ) -> Vec<Member> {
        let a = &root[i];
        let Some(pairs) = self.pairs else {
            return root[i + 1..]
                .iter()
                .filter_map(|b| {
                    let tids = a.tids.intersect(&b.tids, false, stats);
                    (tids.support() >= self.min_support).then_some(Member { tids, ..*b })
                })
                .collect();
        };
        let partners = pairs.frequent.partners(i);
        let marked = match &a.tids {
            TidSet::Sorted(tids) if !partners.is_empty() => {
                marks.mark(tids);
                stats.work_units += tids.len() as u64;
                Some(tids)
            }
            _ => None,
        };
        let child = partners
            .iter()
            .map(|&rank| {
                let b = &root[rank as usize];
                let support = pairs.count(a.rank, rank);
                let tids = match marked {
                    Some(_) => marks.join(&b.tids, support, stats),
                    None => a.tids.intersect(&b.tids, false, stats),
                };
                debug_assert_eq!(
                    tids.support(),
                    support,
                    "tidset support disagrees with the pair count of ({}, {})",
                    a.item,
                    b.item
                );
                Member { tids, ..*b }
            })
            .collect();
        if let Some(tids) = marked {
            marks.unmark(tids);
            debug_assert!(marks.is_clear(), "marks left set after row {}", a.item);
        }
        child
    }

    /// The frequent children of member `i` of a class below the root:
    /// its joins with every later member whose 2-subset is frequent.
    fn class_children(&self, class: &[Member], i: usize, stats: &mut KernelStats) -> Vec<Member> {
        let a = &class[i];
        let mut child = Vec::new();
        for b in &class[i + 1..] {
            if self
                .pairs
                .is_some_and(|pairs| pairs.count(a.rank, b.rank) < self.min_support)
            {
                continue;
            }
            let Some(tids) = a.tids.join(&b.tids, self.min_support, stats) else {
                continue;
            };
            if let TidSet::Diff {
                tids: diff,
                support,
            } = &tids
            {
                debug_assert!(
                    *support >= self.min_support
                        && *support as usize + diff.len() == a.tids.support() as usize,
                    "diffset support {support} of ({}, {}) is not sup(PX) {} - |d| {}",
                    a.item,
                    b.item,
                    a.tids.support(),
                    diff.len()
                );
            }
            child.push(Member { tids, ..*b });
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_db() -> Database {
        Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap()
    }

    #[test]
    fn transpose_is_deterministic_across_thread_counts() {
        let db = paper_db();
        let transpose = |p| try_transpose(&db, p, &RunControl::default()).unwrap();
        let (one, w1) = transpose(1);
        assert_eq!(w1, vec![db.total_items() as u64]);
        for p in [2, 3, 4, 8] {
            let (many, w) = transpose(p);
            assert_eq!(many, one, "p={p}");
            assert_eq!(w.iter().sum::<u64>(), db.total_items() as u64);
            assert_eq!(w.len(), p);
        }
        assert_eq!(one[4], vec![0, 2, 3]);
        assert_eq!(one[0], Vec::<Tid>::new());
    }
}
