//! The support-counting kernel (§2.1.2, §4.2) and its work accounting.
//!
//! For each transaction the kernel conceptually enumerates all k-subsets in
//! lexicographic order by recursively hashing on transaction items; on
//! reaching a leaf it checks each stored candidate for containment and
//! increments its counter. Leaves are stamped VISITED so a leaf is
//! processed at most once per transaction (required for correctness);
//! extending the stamps to internal nodes is the paper's *short-circuited
//! subset checking* optimization, enabled with
//! [`CountOptions::short_circuit`].
//!
//! On top of that algorithmic layer sit four mechanical fast-path knobs,
//! each independently toggleable so its effect can be ablated:
//!
//! * **Hash memoization** ([`CountOptions::hash_memo`]): each transaction
//!   item is hashed once into a reusable table in [`CountScratch`]; the
//!   walk indexes the table instead of re-hashing the same item at every
//!   tree level (and paying enum dispatch per call for `AnyHash`).
//! * **Transaction trimming** ([`ItemFilter`], [`count_trimmed`]): before
//!   the walk each transaction is cut to the items that can still be part
//!   of a candidate it contains, which shrinks the subset space the walk
//!   enumerates without changing a single count. Two rules, each
//!   lossless:
//!   - *item filter* ([`ItemFilter`]): an item in no candidate never
//!     satisfies a containment test;
//!   - *hit trim* (DHP's transaction trimming): if a transaction contains
//!     `X ∈ C_{k+1}`, all `k + 1` of `X`'s `k`-subsets are `C_k`
//!     candidates it contains, and each item of `X` lies in `k` of them.
//!     So a pass that is asked for survivors tallies, per item, the
//!     contained candidates it belongs to, and writes out only the items
//!     with at least `k` hits — and only when at least `k + 1` remain.
//!     That output is the database the `k + 1` pass reads.
//! * **Explicit-stack traversal** ([`CountOptions::iterative`]): the
//!   recursive walk (a 12-argument frame per level) is replaced by an
//!   iterative loop over a small reusable frame stack, visiting nodes in
//!   the exact same order (the [`WorkMeter`] tallies are bit-identical).
//! * **Scratch reuse**: [`CountScratch::retarget`] re-aims an existing
//!   scratch (with all its allocations) at a new tree, so drivers keep one
//!   scratch per thread across all iterations instead of reallocating.

use crate::freeze::{AnyFrozenTree, FrozenTree};
use crate::policy::LeafLayout;
use arm_balance::HashFn;
use arm_dataset::{Database, DatabaseBuilder, Item};
use arm_mem::{LocalCounters, SharedCounters, WordStore, NULL_HANDLE};
use std::ops::Range;

/// Where counter increments go during counting.
pub enum CounterRef<'a> {
    /// Counters are inline tree words (`fetch_add` on the store).
    Inline,
    /// Shared segregated array (`L-*` policies).
    Shared(&'a dyn SharedCounters),
    /// Thread-private array (`LCA-*` policies).
    Local(&'a mut LocalCounters),
}

/// Storage scheme for the VISITED stamps.
///
/// The plain scheme keeps one stamp per tree node (`O(nodes)` ≈
/// `O(H^k)` memory, times `P` processors). The paper's §4.2 refinement
/// reduces this to `k · H` stamps per processor: one slot per
/// (depth, hash cell), tagged with the exact root-to-node cell path so a
/// slot collision between different nodes is detected rather than
/// miscounted. Because a node's cell path is unique, a matching tag
/// identifies the node exactly; with internal short-circuiting on (which
/// this mode implies), a subtree is never re-entered after its slot has
/// been reused, so counts are identical to the per-node scheme.
///
/// `LevelPath` requires the packed path to fit in 64 bits
/// (`k · ceil(log2 H) ≤ 64`); the kernel falls back to `PerNode`
/// automatically when it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VisitedMode {
    /// One stamp per node (`P · H^k` memory in the paper's terms).
    #[default]
    PerNode,
    /// One path-tagged stamp per (depth, cell) (`k · H · P` memory).
    LevelPath,
}

/// Tunable knobs of the counting phase.
#[derive(Debug, Clone, Copy)]
pub struct CountOptions {
    /// Enable VISITED stamps on internal nodes (§4.2). Leaf stamps are
    /// always on — they are required for correct counts. Forced on when
    /// `visited` is [`VisitedMode::LevelPath`] (see its docs).
    pub short_circuit: bool,
    /// VISITED stamp storage scheme.
    pub visited: VisitedMode,
    /// Hash each transaction item once per transaction (via
    /// [`HashFn::hash_slice`]) and index the memo table during the walk
    /// instead of calling `HashFn::hash` per node visit.
    pub hash_memo: bool,
    /// Drive the walk with an explicit frame stack reused across
    /// transactions instead of native recursion. Traversal order and
    /// [`WorkMeter`] tallies are identical either way.
    pub iterative: bool,
}

impl Default for CountOptions {
    fn default() -> Self {
        CountOptions {
            short_circuit: true,
            visited: VisitedMode::PerNode,
            hash_memo: true,
            iterative: true,
        }
    }
}

/// Per-thread abstract work tally, the basis of the work-unit imbalance
/// metric behind Figs. 8–10 (see DESIGN.md): load-balance effects show up
/// as differences in per-thread work regardless of how many physical
/// cores execute it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkMeter {
    /// Transactions processed.
    pub txns: u64,
    /// Tree nodes entered (after any short-circuit).
    pub node_visits: u64,
    /// Leaf lists scanned.
    pub leaf_scans: u64,
    /// Candidate-vs-transaction containment tests.
    pub subset_checks: u64,
    /// Successful containment tests (counter increments).
    pub hits: u64,
}

impl WorkMeter {
    /// Merges another meter into this one.
    pub fn merge(&mut self, other: &WorkMeter) {
        self.txns += other.txns;
        self.node_visits += other.node_visits;
        self.leaf_scans += other.leaf_scans;
        self.subset_checks += other.subset_checks;
        self.hits += other.hits;
    }

    /// A single scalar "work units" figure: each tallied event weighted by
    /// a rough relative cost (node visit ≈ hash + load, subset check ≈ k
    /// bitmap probes, hit ≈ one atomic RMW).
    pub fn work_units(&self) -> u64 {
        self.node_visits + 3 * self.subset_checks + 2 * self.hits + self.txns
    }
}

/// One slot of the reduced (`k·H`) stamp table: epoch plus the packed
/// cell path of the node that last claimed the slot.
#[derive(Clone, Copy, Default)]
struct LevelStamp {
    epoch: u32,
    sig: u64,
}

/// A bitmap of items that can matter when counting a candidate set: an
/// item outside every candidate never satisfies a containment test and
/// never needs to be hashed, so dropping it from transactions before the
/// walk is lossless while shrinking the subset space the walk enumerates.
///
/// Built once per iteration (read-only, shared across threads) from the
/// candidates themselves — a tighter set than "items of some member of
/// F_{k-1}", since every C_k candidate is a union of F_{k-1} members.
pub struct ItemFilter {
    bits: Vec<u64>,
}

impl ItemFilter {
    /// Builds the filter from the items of every candidate in `cands`.
    pub fn from_candidates(cands: &crate::candidates::CandidateSet, n_items: u32) -> Self {
        let mut f = Self::empty(n_items);
        for (_, items) in cands.iter() {
            for &i in items {
                f.insert(i);
            }
        }
        f
    }

    /// Builds the filter from an explicit item list (e.g. the union of
    /// F_{k-1} members).
    pub fn from_items(items: impl IntoIterator<Item = Item>, n_items: u32) -> Self {
        let mut f = Self::empty(n_items);
        for i in items {
            f.insert(i);
        }
        f
    }

    fn empty(n_items: u32) -> Self {
        ItemFilter {
            bits: vec![0; (n_items as usize).div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, item: Item) {
        self.bits[(item / 64) as usize] |= 1 << (item % 64);
    }

    /// True when `item` appears in some candidate.
    #[inline(always)]
    pub fn contains(&self, item: Item) -> bool {
        self.bits[(item / 64) as usize] & (1 << (item % 64)) != 0
    }

    /// Copies the items of `txn` that pass the filter into `out` (cleared
    /// first), preserving order.
    pub fn retain_into(&self, txn: &[Item], out: &mut Vec<Item>) {
        out.clear();
        out.extend(txn.iter().copied().filter(|&i| self.contains(i)));
    }
}

/// One level of the explicit-stack walk: the node being expanded and the
/// remaining range of transaction positions to hash at this level.
#[derive(Clone, Copy)]
struct Frame {
    handle: u32,
    /// Next transaction position to hash.
    i: u32,
    /// Last admissible position (inclusive).
    last: u32,
    depth: u32,
    sig: u64,
}

/// Reusable per-thread scratch: the transaction bitmap, the VISITED
/// stamp storage (epoch-tagged so clearing is O(1) per transaction), and
/// the fast-path buffers (hash memo table, trimmed-transaction buffer,
/// explicit-walk frame stack, hit-trim tallies). All allocations survive
/// [`CountScratch::retarget`], so a driver holding one scratch per thread
/// across iterations performs no per-iteration allocation beyond a
/// possible one-time growth.
pub struct CountScratch {
    bitmap: Vec<u64>,
    touched: Vec<Item>,
    /// Per-node stamps ([`VisitedMode::PerNode`]).
    stamps: Vec<u32>,
    /// Per-(depth, cell) stamps ([`VisitedMode::LevelPath`]); length
    /// `(k + 1) * H` once sized.
    level_stamps: Vec<LevelStamp>,
    level_fanout: u32,
    epoch: u32,
    /// Per-transaction hash memo ([`CountOptions::hash_memo`]).
    hash_memo: Vec<u32>,
    /// Per-transaction trimmed copy (when an [`ItemFilter`] is in use).
    trimmed: Vec<Item>,
    /// Explicit-walk stack ([`CountOptions::iterative`]); at most `k + 1`
    /// frames deep.
    frames: Vec<Frame>,
    /// Per-item contained-candidate tallies of the hit trim; sized on the
    /// first pass that asks for survivors and all-zero between
    /// transactions.
    item_hits: Vec<u32>,
    /// The current transaction's hit-trim survivors.
    kept: Vec<Item>,
}

impl CountScratch {
    /// Creates scratch for databases over `n_items` items and trees with
    /// up to `n_nodes` nodes.
    pub fn new(n_items: u32, n_nodes: u32) -> Self {
        CountScratch {
            bitmap: vec![0; (n_items as usize).div_ceil(64)],
            touched: Vec::new(),
            stamps: vec![0; n_nodes as usize],
            level_stamps: Vec::new(),
            level_fanout: 0,
            epoch: 0,
            hash_memo: Vec::new(),
            trimmed: Vec::new(),
            frames: Vec::new(),
            item_hits: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Re-targets the scratch at a new tree (new iteration), reusing every
    /// buffer allocation (bitmap, memo, trim, frames; the stamp tables are
    /// re-zeroed in place and only grow).
    pub fn retarget(&mut self, n_nodes: u32) {
        self.stamps.clear();
        self.stamps.resize(n_nodes as usize, 0);
        self.level_stamps.clear();
        self.level_fanout = 0;
        self.epoch = 0;
    }

    /// Bytes of VISITED-stamp storage currently allocated — the quantity
    /// the paper's `k·H·P` refinement shrinks (per-node needs
    /// `4 · nodes`, level-path needs `12 · (k+1) · H`).
    pub fn stamp_bytes(&self) -> usize {
        self.stamps.len() * size_of::<u32>() + self.level_stamps.len() * size_of::<LevelStamp>()
    }

    fn ensure_levels(&mut self, k: u32, fanout: u32) {
        let need = ((k + 1) * fanout) as usize;
        if self.level_stamps.len() < need || self.level_fanout != fanout {
            self.level_stamps.clear();
            self.level_stamps.resize(need, LevelStamp::default());
            self.level_fanout = fanout;
        }
    }

    #[inline]
    fn begin_txn(&mut self, txn: &[Item]) {
        // O(|txn|) clear via the touched list instead of zeroing the map.
        for &i in &self.touched {
            self.bitmap[(i / 64) as usize] = 0;
        }
        self.touched.clear();
        for &i in txn {
            self.bitmap[(i / 64) as usize] |= 1 << (i % 64);
            self.touched.push(i);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could collide; reset.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.level_stamps
                .iter_mut()
                .for_each(|s| *s = LevelStamp::default());
            self.epoch = 1;
        }
    }

    #[inline(always)]
    fn contains(&self, item: Item) -> bool {
        self.bitmap[(item / 64) as usize] & (1 << (item % 64)) != 0
    }

    /// Returns true on the first visit of `node_id` this transaction.
    #[inline(always)]
    fn first_visit(&mut self, node_id: u32) -> bool {
        let s = &mut self.stamps[node_id as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// Reduced-scheme visit check: slot `(depth, cell)` tagged with the
    /// node's exact packed path. A tag mismatch means a *different* node
    /// reused the slot — claim it and report "first visit".
    #[inline(always)]
    fn first_visit_level(&mut self, depth: u32, cell: u32, sig: u64) -> bool {
        let slot = &mut self.level_stamps[(depth * self.level_fanout + cell) as usize];
        if slot.epoch == self.epoch && slot.sig == sig {
            false
        } else {
            *slot = LevelStamp {
                epoch: self.epoch,
                sig,
            };
            true
        }
    }
}

/// Resolved per-call traversal context.
#[derive(Clone, Copy)]
struct VisitCtx {
    /// Effective visited mode (LevelPath falls back to PerNode when the
    /// packed path exceeds 64 bits).
    level_path: bool,
    /// Internal-node short-circuiting in effect.
    short_circuit: bool,
    /// Bits per path step in the packed signature.
    bits: u32,
    /// Tally per-item hits for the hit trim.
    tally: bool,
}

/// Counts one transaction against the tree.
///
/// When `filter` is given, the transaction is first trimmed to the items
/// the filter admits (losslessly — see [`ItemFilter`]); `None` counts the
/// transaction as-is.
#[allow(clippy::too_many_arguments)] // the paper's knobs are orthogonal
pub fn count_transaction<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    txn: &[Item],
    filter: Option<&ItemFilter>,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    opts: CountOptions,
    meter: &mut WorkMeter,
) {
    count_txn(tree, hash, txn, filter, scratch, counter, opts, meter, None);
}

/// The one counting walk behind every entry point: trims `txn` with
/// `filter`, walks it, and — when `survivors` is given — appends its
/// hit-trimmed copy there (see the module docs).
#[allow(clippy::too_many_arguments)]
fn count_txn<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    txn: &[Item],
    filter: Option<&ItemFilter>,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    opts: CountOptions,
    meter: &mut WorkMeter,
    survivors: Option<&mut DatabaseBuilder>,
) {
    debug_assert_eq!(hash.fanout(), tree.fanout);
    // The trim and memo buffers live in the scratch but are walked while
    // the scratch's stamps are mutated, so they are moved out for the call
    // and restored at the end (keeping their allocations).
    let mut trimmed = std::mem::take(&mut scratch.trimmed);
    let txn: &[Item] = match filter {
        Some(f) => {
            f.retain_into(txn, &mut trimmed);
            &trimmed
        }
        None => txn,
    };
    if (txn.len() as u32) < tree.k {
        scratch.trimmed = trimmed;
        return;
    }
    let bits = u64::BITS - u64::from(tree.fanout.max(2) - 1).leading_zeros();
    let level_path = opts.visited == VisitedMode::LevelPath && (tree.k + 1) * bits <= 64;
    let ctx = VisitCtx {
        level_path,
        // LevelPath soundness relies on subtrees never being re-entered,
        // i.e. on internal short-circuiting (see VisitedMode docs).
        short_circuit: opts.short_circuit || level_path,
        bits,
        tally: survivors.is_some(),
    };
    if level_path {
        scratch.ensure_levels(tree.k, tree.fanout);
    }
    if ctx.tally && scratch.item_hits.len() < scratch.bitmap.len() * 64 {
        scratch.item_hits.resize(scratch.bitmap.len() * 64, 0);
    }
    scratch.begin_txn(txn);
    meter.txns += 1;
    let mut memo_buf = std::mem::take(&mut scratch.hash_memo);
    let memo: Option<&[u32]> = if opts.hash_memo {
        hash.hash_slice(txn, &mut memo_buf);
        Some(&memo_buf)
    } else {
        None
    };
    if opts.iterative {
        walk_iterative(tree, hash, txn, memo, ctx, scratch, counter, meter);
    } else {
        walk(
            tree, hash, txn, memo, 0, tree.root, 0, 0, 0, ctx, scratch, counter, meter,
        );
    }
    if let Some(out) = survivors {
        // Hit trim: keep the items of at least k contained candidates,
        // resetting every tally this transaction raised.
        scratch.kept.clear();
        for &i in txn {
            let hits = std::mem::take(&mut scratch.item_hits[i as usize]);
            if hits >= tree.k {
                scratch.kept.push(i);
            }
        }
        if scratch.kept.len() as u32 > tree.k {
            out.push_sorted(&scratch.kept);
        }
    }
    scratch.hash_memo = memo_buf;
    scratch.trimmed = trimmed;
}

/// Counts a contiguous range of database transactions (one processor's
/// partition in CCPD).
#[allow(clippy::too_many_arguments)] // mirrors count_transaction's knobs
pub fn count_partition<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    db: &Database,
    range: Range<usize>,
    filter: Option<&ItemFilter>,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    opts: CountOptions,
    meter: &mut WorkMeter,
) {
    count_trimmed(
        tree, hash, db, range, filter, scratch, counter, opts, meter, None,
    );
}

/// Counts a range of transactions like [`count_partition`], trimming each
/// one with `filter` before its walk. With `survivors`, every transaction
/// that can still contain a `C_{k+1}` candidate is appended there, cut to
/// its hit-trim survivors, in range order: the database the next pass
/// reads.
#[allow(clippy::too_many_arguments)]
pub fn count_trimmed<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    db: &Database,
    range: Range<usize>,
    filter: Option<&ItemFilter>,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    opts: CountOptions,
    meter: &mut WorkMeter,
    mut survivors: Option<&mut DatabaseBuilder>,
) {
    for i in range {
        count_txn(
            tree,
            hash,
            db.transaction(i),
            filter,
            scratch,
            counter,
            opts,
            meter,
            survivors.as_deref_mut(),
        );
    }
}

/// Resolves the hash cell for transaction position `i`: memo lookup when
/// memoized, direct hash otherwise.
#[inline(always)]
fn cell_at<F: HashFn>(hash: &F, txn: &[Item], memo: Option<&[u32]>, i: usize) -> u32 {
    match memo {
        Some(m) => m[i],
        None => hash.hash(txn[i]),
    }
}

/// Enters `handle` during a walk: performs the VISITED bookkeeping, scans
/// the node if it is a leaf, and otherwise returns the expansion frame for
/// its children. Shared by the recursive and iterative drivers so their
/// per-node semantics (and [`WorkMeter`] tallies) cannot drift apart.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn enter_node<S: WordStore>(
    tree: &FrozenTree<S>,
    txn: &[Item],
    handle: u32,
    pos: usize,
    depth: u32,
    cell: u32,
    sig: u64,
    ctx: VisitCtx,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    meter: &mut WorkMeter,
) -> Option<Frame> {
    let header = tree.store.load(handle, 0);
    let node_id = header >> 1;
    let is_leaf = header & 1 == 1;

    if is_leaf {
        // Leaf stamps are mandatory: the same leaf is reachable through
        // many subset prefixes and must contribute once per transaction.
        let first = if ctx.level_path {
            scratch.first_visit_level(depth, cell, sig)
        } else {
            scratch.first_visit(node_id)
        };
        if !first {
            return None;
        }
        meter.node_visits += 1;
        meter.leaf_scans += 1;
        scan_leaf(tree, handle, ctx.tally, scratch, counter, meter);
        return None;
    }

    if ctx.short_circuit {
        let first = if ctx.level_path {
            scratch.first_visit_level(depth, cell, sig)
        } else {
            scratch.first_visit(node_id)
        };
        if !first {
            return None;
        }
    }
    meter.node_visits += 1;

    // At depth d we may hash on transaction items [pos ..= n - (k - d)]:
    // enough items must remain to complete a k-subset.
    let remaining_needed = (tree.k - depth) as usize;
    let last = txn.len() - remaining_needed;
    Some(Frame {
        handle,
        i: pos as u32,
        last: last as u32,
        depth,
        sig,
    })
}

#[allow(clippy::too_many_arguments)]
fn walk<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    txn: &[Item],
    memo: Option<&[u32]>,
    pos: usize,
    handle: u32,
    depth: u32,
    cell: u32,
    sig: u64,
    ctx: VisitCtx,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    meter: &mut WorkMeter,
) {
    let Some(frame) = enter_node(
        tree, txn, handle, pos, depth, cell, sig, ctx, scratch, counter, meter,
    ) else {
        return;
    };
    for i in frame.i as usize..=frame.last as usize {
        let child_cell = cell_at(hash, txn, memo, i);
        let child = tree.store.load(handle, 1 + child_cell);
        if child != NULL_HANDLE {
            walk(
                tree,
                hash,
                txn,
                memo,
                i + 1,
                child,
                depth + 1,
                child_cell,
                (sig << ctx.bits) | u64::from(child_cell),
                ctx,
                scratch,
                counter,
                meter,
            );
        }
    }
}

/// The explicit-stack twin of [`walk`]: same depth-first order, same
/// stamps, same meter tallies, but the per-level state is a 24-byte
/// [`Frame`] in a reusable buffer instead of a native call frame carrying
/// a dozen spilled arguments.
#[allow(clippy::too_many_arguments)]
fn walk_iterative<S: WordStore, F: HashFn>(
    tree: &FrozenTree<S>,
    hash: &F,
    txn: &[Item],
    memo: Option<&[u32]>,
    ctx: VisitCtx,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    meter: &mut WorkMeter,
) {
    let mut frames = std::mem::take(&mut scratch.frames);
    frames.clear();
    if let Some(f) = enter_node(
        tree, txn, tree.root, 0, 0, 0, 0, ctx, scratch, counter, meter,
    ) {
        frames.push(f);
    }
    while let Some(top) = frames.last_mut() {
        if top.i > top.last {
            frames.pop();
            continue;
        }
        let i = top.i as usize;
        top.i += 1;
        let (handle, depth, sig) = (top.handle, top.depth, top.sig);
        let child_cell = cell_at(hash, txn, memo, i);
        let child = tree.store.load(handle, 1 + child_cell);
        if child != NULL_HANDLE {
            if let Some(f) = enter_node(
                tree,
                txn,
                child,
                i + 1,
                depth + 1,
                child_cell,
                (sig << ctx.bits) | u64::from(child_cell),
                ctx,
                scratch,
                counter,
                meter,
            ) {
                frames.push(f);
            }
        }
    }
    scratch.frames = frames;
}

#[inline]
fn scan_leaf<S: WordStore>(
    tree: &FrozenTree<S>,
    leaf: u32,
    tally: bool,
    scratch: &mut CountScratch,
    counter: &mut CounterRef<'_>,
    meter: &mut WorkMeter,
) {
    let n = tree.store.load(leaf, 1);
    let k = tree.k;
    let count_words = u32::from(tree.counters_inline);
    let cand_words = 1 + k + count_words;
    for e in 0..n {
        // Resolve the candidate words' (block, offset).
        let (block, off) = match tree.leaf_layout {
            LeafLayout::Linked => (tree.store.load(leaf, 2 + e), 0),
            LeafLayout::Fused => (leaf, 2 + e * cand_words),
        };
        meter.subset_checks += 1;
        let mut contained = true;
        for j in 0..k {
            let item = tree.store.load(block, off + 1 + j);
            if !scratch.contains(item) {
                contained = false;
                break;
            }
        }
        if contained {
            meter.hits += 1;
            if tally {
                for j in 0..k {
                    scratch.item_hits[tree.store.load(block, off + 1 + j) as usize] += 1;
                }
            }
            match counter {
                CounterRef::Inline => {
                    tree.store.fetch_add(block, off + 1 + k, 1);
                }
                CounterRef::Shared(c) => {
                    let cand = tree.store.load(block, off);
                    c.increment(cand);
                }
                CounterRef::Local(c) => {
                    let cand = tree.store.load(block, off);
                    c.increment(cand);
                }
            }
        }
    }
}

impl AnyFrozenTree {
    /// Counts a range of transactions, dispatching the storage backend
    /// once (outside the hot loop).
    #[allow(clippy::too_many_arguments)]
    pub fn count_partition<F: HashFn>(
        &self,
        hash: &F,
        db: &Database,
        range: Range<usize>,
        filter: Option<&ItemFilter>,
        scratch: &mut CountScratch,
        counter: &mut CounterRef<'_>,
        opts: CountOptions,
        meter: &mut WorkMeter,
    ) {
        self.count_trimmed(hash, db, range, filter, scratch, counter, opts, meter, None);
    }

    /// Counts a range of transactions with trimming and optional
    /// survivors (see [`count_trimmed`]), dispatching the storage backend
    /// once.
    #[allow(clippy::too_many_arguments)]
    pub fn count_trimmed<F: HashFn>(
        &self,
        hash: &F,
        db: &Database,
        range: Range<usize>,
        filter: Option<&ItemFilter>,
        scratch: &mut CountScratch,
        counter: &mut CounterRef<'_>,
        opts: CountOptions,
        meter: &mut WorkMeter,
        survivors: Option<&mut DatabaseBuilder>,
    ) {
        match self {
            AnyFrozenTree::Contiguous(t) => count_trimmed(
                t, hash, db, range, filter, scratch, counter, opts, meter, survivors,
            ),
            AnyFrozenTree::Scatter(t) => count_trimmed(
                t, hash, db, range, filter, scratch, counter, opts, meter, survivors,
            ),
        }
    }

    /// Counts a single transaction.
    #[allow(clippy::too_many_arguments)]
    pub fn count_transaction<F: HashFn>(
        &self,
        hash: &F,
        txn: &[Item],
        filter: Option<&ItemFilter>,
        scratch: &mut CountScratch,
        counter: &mut CounterRef<'_>,
        opts: CountOptions,
        meter: &mut WorkMeter,
    ) {
        match self {
            AnyFrozenTree::Contiguous(t) => {
                count_transaction(t, hash, txn, filter, scratch, counter, opts, meter)
            }
            AnyFrozenTree::Scatter(t) => {
                count_transaction(t, hash, txn, filter, scratch, counter, opts, meter)
            }
        }
    }
}

/// Reference implementation: counts supports by brute-force subset testing
/// (no tree). Used by tests and property checks as ground truth.
pub fn naive_counts(cands: &crate::candidates::CandidateSet, db: &Database) -> Vec<u32> {
    let mut counts = vec![0u32; cands.len()];
    for t in db {
        for (id, items) in cands.iter() {
            if is_subset(items, t) {
                counts[id as usize] += 1;
            }
        }
    }
    counts
}

/// Two-pointer subset test over sorted slices.
pub fn is_subset(needle: &[Item], hay: &[Item]) -> bool {
    let mut h = 0usize;
    'outer: for &x in needle {
        while h < hay.len() {
            match hay[h].cmp(&x) {
                std::cmp::Ordering::Less => h += 1,
                std::cmp::Ordering::Equal => {
                    h += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::TreeBuilder;
    use crate::candidates::CandidateSet;
    use crate::freeze::freeze_policy;
    use crate::policy::PlacementPolicy;
    use arm_balance::{BitonicHash, HashFn, ModHash};
    use arm_mem::FlatCounters;

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

    fn c2() -> CandidateSet {
        let mut c = CandidateSet::new(2);
        for s in [[1u32, 2], [1, 4], [1, 5], [2, 4], [2, 5], [4, 5]] {
            c.push(&s);
        }
        c
    }

    #[test]
    fn is_subset_cases() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1], &[]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn paper_c2_counts() {
        // Expected supports (§2.1.3): (1,2)=2 (1,4)=2 (1,5)=2 (2,4)=1
        // (2,5)=1 (4,5)=3.
        let db = paper_db();
        let cands = c2();
        assert_eq!(naive_counts(&cands, &db), vec![2, 2, 2, 1, 1, 3]);
    }

    fn tree_counts_opts(
        policy: PlacementPolicy,
        cands: &CandidateSet,
        db: &Database,
        hash: &dyn HashFn,
        opts: CountOptions,
        trim: bool,
    ) -> Vec<u32> {
        // dyn HashFn is fine for tests.
        struct Dyn<'a>(&'a dyn HashFn);
        impl HashFn for Dyn<'_> {
            fn hash(&self, i: u32) -> u32 {
                self.0.hash(i)
            }
            fn fanout(&self) -> u32 {
                self.0.fanout()
            }
        }
        let hash = Dyn(hash);
        let b = TreeBuilder::new(cands, &hash, 2);
        b.insert_all();
        let tree = freeze_policy(&b, policy);
        let filter = trim.then(|| ItemFilter::from_candidates(cands, db.n_items()));
        let filter = filter.as_ref();
        let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
        let mut meter = WorkMeter::default();
        if tree.counters_inline() {
            let mut cref = CounterRef::Inline;
            tree.count_partition(
                &hash,
                db,
                0..db.len(),
                filter,
                &mut scratch,
                &mut cref,
                opts,
                &mut meter,
            );
            tree.inline_counts()
        } else if policy.per_thread_counters() {
            let mut local = arm_mem::LocalCounters::new(cands.len());
            let mut cref = CounterRef::Local(&mut local);
            tree.count_partition(
                &hash,
                db,
                0..db.len(),
                filter,
                &mut scratch,
                &mut cref,
                opts,
                &mut meter,
            );
            arm_mem::counters::reduce(&[local])
        } else {
            let shared = FlatCounters::new(cands.len());
            let mut cref = CounterRef::Shared(&shared);
            tree.count_partition(
                &hash,
                db,
                0..db.len(),
                filter,
                &mut scratch,
                &mut cref,
                opts,
                &mut meter,
            );
            shared.snapshot()
        }
    }

    fn tree_counts(
        policy: PlacementPolicy,
        cands: &CandidateSet,
        db: &Database,
        hash: &dyn HashFn,
        short_circuit: bool,
    ) -> Vec<u32> {
        let opts = CountOptions {
            short_circuit,
            ..CountOptions::default()
        };
        tree_counts_opts(policy, cands, db, hash, opts, false)
    }

    #[test]
    fn all_policies_match_naive_counts() {
        let db = paper_db();
        let cands = c2();
        let expected = naive_counts(&cands, &db);
        let hashes: Vec<Box<dyn HashFn>> =
            vec![Box::new(ModHash::new(2)), Box::new(BitonicHash::new(3))];
        for policy in PlacementPolicy::ALL {
            for h in &hashes {
                for sc in [false, true] {
                    for fast in [false, true] {
                        let opts = CountOptions {
                            short_circuit: sc,
                            visited: VisitedMode::PerNode,
                            hash_memo: fast,
                            iterative: fast,
                        };
                        let got = tree_counts_opts(policy, &cands, &db, h.as_ref(), opts, fast);
                        assert_eq!(got, expected, "{policy} sc={sc} fast={fast}");
                    }
                }
            }
        }
    }

    #[test]
    fn paper_c3_worked_example() {
        let db = paper_db();
        let mut cands = CandidateSet::new(3);
        cands.push(&[1, 4, 5]);
        let h = ModHash::new(2);
        let got = tree_counts(PlacementPolicy::Gpp, &cands, &db, &h, true);
        assert_eq!(got, vec![2]); // F3 = {(1,4,5)} with support 2
    }

    #[test]
    fn short_transactions_are_skipped() {
        let db = Database::from_transactions(8, [vec![1u32], vec![2, 3]]).unwrap();
        let mut cands = CandidateSet::new(3);
        cands.push(&[1, 2, 3]);
        let h = ModHash::new(2);
        let got = tree_counts(PlacementPolicy::Spp, &cands, &db, &h, true);
        assert_eq!(got, vec![0]);
    }

    /// The iterative and recursive walks must not merely agree on counts —
    /// their WorkMeter tallies must be bit-identical, since the imbalance
    /// metrics and the traced per-layer counts are built on those tallies.
    #[test]
    fn iterative_walk_meter_is_bit_identical() {
        let db = paper_db();
        let cands = c2();
        let h = BitonicHash::new(3);
        let b = TreeBuilder::new(&cands, &h, 2);
        b.insert_all();
        for visited in [VisitedMode::PerNode, VisitedMode::LevelPath] {
            for sc in [false, true] {
                for memo in [false, true] {
                    let mut meters = Vec::new();
                    for iterative in [false, true] {
                        let tree = freeze_policy(&b, PlacementPolicy::Gpp);
                        let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
                        let mut meter = WorkMeter::default();
                        let mut cref = CounterRef::Inline;
                        let opts = CountOptions {
                            short_circuit: sc,
                            visited,
                            hash_memo: memo,
                            iterative,
                        };
                        tree.count_partition(
                            &h,
                            &db,
                            0..db.len(),
                            None,
                            &mut scratch,
                            &mut cref,
                            opts,
                            &mut meter,
                        );
                        assert_eq!(tree.inline_counts(), naive_counts(&cands, &db));
                        meters.push(meter);
                    }
                    assert_eq!(
                        meters[0], meters[1],
                        "visited={visited:?} sc={sc} memo={memo}"
                    );
                }
            }
        }
    }

    #[test]
    fn item_filter_retains_only_candidate_items() {
        let cands = c2(); // items {1, 2, 4, 5}
        let f = ItemFilter::from_candidates(&cands, 8);
        for i in [1u32, 2, 4, 5] {
            assert!(f.contains(i), "item {i}");
        }
        for i in [0u32, 3, 6, 7] {
            assert!(!f.contains(i), "item {i}");
        }
        let mut out = vec![9u32]; // stale contents must be cleared
        f.retain_into(&[0, 1, 2, 3, 4, 5, 6, 7], &mut out);
        assert_eq!(out, vec![1, 2, 4, 5]);

        let g = ItemFilter::from_items([0u32, 65, 127], 128);
        assert!(g.contains(65) && g.contains(0) && g.contains(127));
        assert!(!g.contains(64) && !g.contains(1));
    }

    /// Trimming edge cases: a transaction trimmed below k items (or to
    /// nothing) must simply count zero, and a transaction of all-frequent
    /// items must count exactly as if untrimmed.
    #[test]
    fn trimming_edge_cases() {
        let mut cands = CandidateSet::new(2);
        cands.push(&[1, 4]);
        let h = ModHash::new(3);
        let db = Database::from_transactions(
            16,
            [
                vec![1u32, 4, 7],      // all of {1,4} present + noise → count
                vec![1u32, 7, 9, 12],  // trims to [1]: below k
                vec![7u32, 9, 12, 15], // trims to empty
                vec![1u32, 4],         // all items frequent: untouched by trim
            ],
        )
        .unwrap();
        for trim in [false, true] {
            let got = tree_counts_opts(
                PlacementPolicy::Gpp,
                &cands,
                &db,
                &h,
                CountOptions::default(),
                trim,
            );
            assert_eq!(got, vec![2], "trim={trim}");
        }
    }

    /// Trimming must reduce the walk's work (that is its whole point) on
    /// transactions carrying non-candidate noise. Short-circuiting is off
    /// here so the reduction shows in the visit tally — with stamps on,
    /// every node is entered at most once per transaction either way and
    /// the saving moves to the per-position hash/probe loop instead.
    #[test]
    fn trimming_reduces_node_visits() {
        let mut cands = CandidateSet::new(3);
        cands.push(&[0, 2, 4]);
        cands.push(&[0, 4, 6]);
        let h = ModHash::new(4);
        let b = TreeBuilder::new(&cands, &h, 1);
        b.insert_all();
        // Transactions heavy in items 8..32, none of which appear in a
        // candidate.
        let txns: Vec<Vec<u32>> = (0..8)
            .map(|t| {
                let mut v: Vec<u32> = vec![0, 2, 4, 6];
                v.extend((8..32).filter(|i| (i + t) % 3 != 0));
                v.sort_unstable();
                v
            })
            .collect();
        let db = Database::from_transactions(32, txns).unwrap();
        let mut visits = Vec::new();
        for trim in [false, true] {
            let tree = freeze_policy(&b, PlacementPolicy::Gpp);
            let filter = trim.then(|| ItemFilter::from_candidates(&cands, db.n_items()));
            let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
            let mut meter = WorkMeter::default();
            let mut cref = CounterRef::Inline;
            tree.count_partition(
                &h,
                &db,
                0..db.len(),
                filter.as_ref(),
                &mut scratch,
                &mut cref,
                CountOptions {
                    short_circuit: false,
                    ..CountOptions::default()
                },
                &mut meter,
            );
            assert_eq!(tree.inline_counts(), vec![8, 8], "trim={trim}");
            visits.push(meter.node_visits);
        }
        assert!(
            visits[1] < visits[0],
            "trimmed visits {} !< untrimmed visits {}",
            visits[1],
            visits[0]
        );
    }

    #[test]
    fn short_circuit_reduces_node_visits() {
        // A long transaction over a sizeable tree: with internal VISITED
        // stamps the walk touches strictly fewer nodes.
        let mut cands = CandidateSet::new(3);
        for a in 0..12u32 {
            for b in (a + 1)..12 {
                for c in (b + 1)..12 {
                    cands.push(&[a, b, c]);
                }
            }
        }
        let db = Database::from_transactions(12, [(0..12u32).collect::<Vec<_>>()]).unwrap();
        let h = ModHash::new(3);
        let b = TreeBuilder::new(&cands, &h, 4);
        b.insert_all();
        let tree = freeze_policy(&b, PlacementPolicy::Gpp);

        let mut visits = Vec::new();
        for sc in [false, true] {
            let mut scratch = CountScratch::new(12, tree.n_nodes());
            let mut meter = WorkMeter::default();
            let mut cref = CounterRef::Inline;
            tree.count_partition(
                &h,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut cref,
                CountOptions {
                    short_circuit: sc,
                    ..CountOptions::default()
                },
                &mut meter,
            );
            visits.push(meter.node_visits);
            // Every candidate is a subset of the single transaction.
            assert_eq!(meter.hits, cands.len() as u64, "sc={sc}");
        }
        assert!(
            visits[1] < visits[0],
            "short-circuit visits {} !< base visits {}",
            visits[1],
            visits[0]
        );
    }

    /// Exercises both visited modes over an adversarial configuration:
    /// small fan-out (deep trees, many same-cell nodes per level) and
    /// long transactions (heavy node revisiting).
    #[test]
    fn level_path_mode_matches_per_node_counts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..12 {
            let n_items = 16u32;
            let k = 2 + trial % 3; // 2..=4
                                   // Random candidate set.
            let mut raw: Vec<Vec<u32>> = Vec::new();
            for _ in 0..40 {
                let mut s: Vec<u32> = (0..n_items).collect();
                for i in 0..k as usize {
                    let j = rng.gen_range(i..s.len());
                    s.swap(i, j);
                }
                s.truncate(k as usize);
                s.sort_unstable();
                raw.push(s);
            }
            raw.sort();
            raw.dedup();
            let mut cands = CandidateSet::new(k);
            for s in &raw {
                cands.push(s);
            }
            // Random database with long transactions.
            let txns: Vec<Vec<u32>> = (0..60)
                .map(|_| (0..12).map(|_| rng.gen_range(0..n_items)).collect())
                .collect();
            let db = Database::from_transactions(n_items, txns).unwrap();
            let expected = naive_counts(&cands, &db);

            for h in [2u32, 3, 5] {
                let hash = ModHash::new(h);
                let b = TreeBuilder::new(&cands, &hash, 2);
                b.insert_all();
                let tree = freeze_policy(&b, PlacementPolicy::Gpp);
                for visited in [VisitedMode::PerNode, VisitedMode::LevelPath] {
                    let mut scratch = CountScratch::new(n_items, tree.n_nodes());
                    let mut meter = WorkMeter::default();
                    let mut cref = CounterRef::Inline;
                    // Re-freeze per mode so inline counters start at zero.
                    let tree = freeze_policy(&b, PlacementPolicy::Gpp);
                    tree.count_partition(
                        &hash,
                        &db,
                        0..db.len(),
                        None,
                        &mut scratch,
                        &mut cref,
                        CountOptions {
                            short_circuit: true,
                            visited,
                            ..CountOptions::default()
                        },
                        &mut meter,
                    );
                    assert_eq!(
                        tree.inline_counts(),
                        expected,
                        "trial={trial} k={k} h={h} mode={visited:?}"
                    );
                    let _ = &tree;
                }
                let _ = &tree;
            }
        }
    }

    #[test]
    fn level_path_reduces_stamp_memory() {
        // A deep tree with far more nodes than `(k+1) * H` level slots —
        // the regime the paper's refinement targets (it cites ~0.5M
        // candidates in early iterations).
        let mut cands = CandidateSet::new(3);
        for a in 0..40u32 {
            for b in (a + 1)..40 {
                for c in (b + 1)..40 {
                    if (a + b + c) % 2 == 0 {
                        cands.push(&[a, b, c]);
                    }
                }
            }
        }
        // Large fan-out: the per-node table scales with H^k node counts
        // while the level table stays at (k+1)*H slots.
        let h = ModHash::new(64);
        let b = TreeBuilder::new(&cands, &h, 1);
        b.insert_all();
        let tree = freeze_policy(&b, PlacementPolicy::Gpp);
        let db = Database::from_transactions(40, [(0..20u32).collect::<Vec<_>>()]).unwrap();
        assert!(
            tree.n_nodes() > 1000,
            "need a big tree, got {}",
            tree.n_nodes()
        );

        let measure = |visited: VisitedMode| {
            let mut scratch = CountScratch::new(60, tree.n_nodes());
            if visited == VisitedMode::LevelPath {
                // The kernel sizes the level table on first use; the
                // per-node table is what we avoid paying for.
                scratch = CountScratch::new(60, 0);
            }
            let mut meter = WorkMeter::default();
            let mut cref = CounterRef::Inline;
            tree.count_partition(
                &h,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut cref,
                CountOptions {
                    short_circuit: true,
                    visited,
                    ..CountOptions::default()
                },
                &mut meter,
            );
            scratch.stamp_bytes()
        };
        let per_node = measure(VisitedMode::PerNode);
        let level = measure(VisitedMode::LevelPath);
        assert!(
            level < per_node,
            "level-path stamps {level} B should undercut per-node {per_node} B"
        );
    }

    #[test]
    fn level_path_falls_back_when_path_too_deep() {
        // k=9, H=256 → 9 * 8 bits = 72 > 64: must fall back to per-node
        // stamps and still count correctly.
        let mut cands = CandidateSet::new(9);
        cands.push(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let h = ModHash::new(256);
        let b = TreeBuilder::new(&cands, &h, 1);
        b.insert_all();
        let tree = freeze_policy(&b, PlacementPolicy::Spp);
        let db = Database::from_transactions(300, [(0..10u32).collect::<Vec<_>>()]).unwrap();
        let mut scratch = CountScratch::new(300, tree.n_nodes());
        let mut meter = WorkMeter::default();
        let mut cref = CounterRef::Inline;
        tree.count_partition(
            &h,
            &db,
            0..db.len(),
            None,
            &mut scratch,
            &mut cref,
            CountOptions {
                short_circuit: true,
                visited: VisitedMode::LevelPath,
                ..CountOptions::default()
            },
            &mut meter,
        );
        assert_eq!(tree.inline_counts(), vec![1]);
    }

    #[test]
    fn meter_merge_and_units() {
        let mut a = WorkMeter {
            txns: 1,
            node_visits: 2,
            leaf_scans: 3,
            subset_checks: 4,
            hits: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.txns, 2);
        assert_eq!(a.subset_checks, 8);
        assert!(a.work_units() > 0);
    }

    #[test]
    fn scratch_epoch_wrap_resets_stamps() {
        let mut s = CountScratch::new(4, 2);
        s.epoch = u32::MAX;
        s.begin_txn(&[0, 1]);
        assert_eq!(s.epoch, 1);
        assert!(s.first_visit(0));
        assert!(!s.first_visit(0));
        assert!(s.first_visit(1));
    }

    #[test]
    fn scratch_bitmap_clears_between_txns() {
        let mut s = CountScratch::new(128, 1);
        s.begin_txn(&[0, 64, 127]);
        assert!(s.contains(64));
        s.begin_txn(&[1]);
        assert!(!s.contains(64));
        assert!(!s.contains(0));
        assert!(s.contains(1));
    }
}
