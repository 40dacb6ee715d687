//! The shared vertical-mining machinery: database transposition, class
//! construction, and the prefix-class DFS the driver in
//! [`crate::parallel`] is built from.
//!
//! The DFS is split into `extend_one` (grow one member of a class) and
//! `extend_all` (grow every member in order): a parallel task is
//! exactly one `extend_one` call, and a class's subtree never depends on
//! any other class's traversal, so every schedule emits the same itemsets.

use crate::config::VerticalConfig;
use crate::tidset::{Backend, KernelStats, TidSet};
use arm_core::PairIndex;
use arm_dataset::{partition::block_ranges, Database, Item, Tid};
use arm_faults::{try_run_threads, MiningError, RunControl};

/// One mined itemset with its support — the element type of every
/// miner's output buffer.
pub(crate) type Emitted = (Vec<Item>, u32);

/// A per-class output buffer tagged with the index of the first-level
/// class that produced it, so parallel results merge deterministically.
pub(crate) type ClassBuf = (usize, Vec<Emitted>);

/// A prefix-class member during the DFS: the extending item and the
/// tidset of `prefix ∪ {item}`.
#[derive(Debug, Clone)]
pub(crate) struct Member {
    pub item: Item,
    pub tids: TidSet,
}

/// Bitmap word count covering `n_txns` transactions.
pub(crate) fn n_words_for(n_txns: usize) -> usize {
    n_txns.div_ceil(64)
}

/// Transposes the database into per-item ascending tidlists using `p`
/// threads over contiguous transaction blocks. Blocks are merged in
/// thread (= tid) order, so the result is deterministic and each list
/// stays sorted. Returns the lists and the per-thread work tally
/// (items visited).
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
    let ranges = block_ranges(db.len(), p);
    let partials: Vec<(Vec<Vec<Tid>>, u64)> = try_run_threads(p, "transpose", &ctrl.cancel, |t| {
        ctrl.faults.fire("transpose", t, 0);
        let mut lists: Vec<Vec<Tid>> = vec![Vec::new(); db.n_items() as usize];
        let mut visited = 0u64;
        if !ctrl.cancel.checkpoint() {
            return (lists, visited);
        }
        for tid in ranges[t].clone() {
            let txn = db.transaction(tid);
            visited += txn.len() as u64;
            for &item in txn {
                lists[item as usize].push(tid as Tid);
            }
        }
        (lists, visited)
    })?;
    let work: Vec<u64> = partials.iter().map(|(_, w)| *w).collect();
    let mut merged: Vec<Vec<Tid>> = vec![Vec::new(); db.n_items() as usize];
    for (lists, _) in partials {
        for (dst, src) in merged.iter_mut().zip(lists) {
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.extend_from_slice(&src);
            }
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

/// Converts every member of a class to `target` (members already there
/// are untouched, so repeated calls are idempotent).
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

/// Grows member `i` of `class`: joins it with every later member, emits
/// the surviving children (itemsets of length `prefix.len() + 2`), and
/// recurses while `max_k` allows. The child class re-decides its tidset
/// backend by its own density — deep classes are typically much sparser
/// than the root.
///
/// At the root, `pair_row` holds the pair counts of member `i` with each
/// later member ([`PairIndex::row`]); a pair below `min_support` is
/// skipped without intersecting, since its tidset would be dropped anyway.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_one(
    class: &[Member],
    i: usize,
    pair_row: Option<&[u32]>,
    prefix: &mut Vec<Item>,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_txns: usize,
    stats: &mut KernelStats,
    out: &mut Vec<(Vec<Item>, u32)>,
) {
    let a = &class[i];
    let mut child: Vec<Member> = Vec::new();
    let mut total_support = 0u64;
    for (d, b) in class[i + 1..].iter().enumerate() {
        if pair_row.is_some_and(|row| row[d] < min_support) {
            continue;
        }
        let tids = a.tids.intersect(&b.tids, false, stats);
        debug_assert!(
            pair_row.is_none_or(|row| row[d] == tids.support()),
            "tidset support disagrees with the pair count of ({}, {})",
            a.item,
            b.item
        );
        if tids.support() >= min_support {
            total_support += tids.support() as u64;
            child.push(Member { item: b.item, tids });
        }
    }
    if child.is_empty() {
        return;
    }
    let target = cfg.choose(total_support, child.len(), n_txns);
    convert_members(&mut child, target, n_words_for(n_txns), stats);
    prefix.push(a.item);
    for m in &child {
        let mut items = prefix.clone();
        items.push(m.item);
        out.push((items, m.tids.support()));
    }
    let depth = prefix.len() as u32 + 1; // length of the emitted itemsets
    if max_k.is_none_or(|cap| depth < cap) {
        extend_all(&child, prefix, min_support, max_k, cfg, n_txns, stats, out);
    }
    prefix.pop();
}

/// [`extend_one`] over every member of `class`, in order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_all(
    class: &[Member],
    prefix: &mut Vec<Item>,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_txns: usize,
    stats: &mut KernelStats,
    out: &mut Vec<(Vec<Item>, u32)>,
) {
    for i in 0..class.len() {
        extend_one(
            class,
            i,
            None,
            prefix,
            min_support,
            max_k,
            cfg,
            n_txns,
            stats,
            out,
        );
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
