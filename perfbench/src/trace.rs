//! The traced run's instruments: sequential Apriori re-driven through the
//! public functions of `core`, `hashtree` and `mem` with a span around
//! each call, the `vertical` intersection kernels over all pairs of
//! frequent items, and readers for the statistics the parallel drivers
//! already return. Nothing inside the miners is instrumented.

use crate::oracle::Itemsets;
use arm_core::{
    adaptive_fanout, equivalence_classes, f1_items, frequent_singletons, generate_candidates,
    make_hash, AprioriConfig, FrequentLevel, Support,
};
use arm_dataset::{Database, Tid};
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter, TreeBuilder,
    WorkMeter,
};
use arm_mem::counters::reduce;
use arm_mem::{FlatCounters, LocalCounters};
use arm_parallel::ParallelRunStats;
use arm_vertical::tidset::{Backend, KernelStats, TidSet};
use arm_vertical::VerticalConfig;
use std::time::Instant;

/// Seconds spent in each layer call of one traced Apriori run.
#[derive(Debug, Default)]
pub struct Spans {
    /// `core::frequent_singletons`.
    pub f1: f64,
    /// `core::generate_candidates`, `equivalence_classes`, `adaptive_fanout`.
    pub candgen: f64,
    /// `core::make_hash` plus `hashtree::TreeBuilder::insert_all`.
    pub build: f64,
    /// `hashtree::freeze_policy`.
    pub freeze: f64,
    /// `hashtree` `count_partition` at k = 2 (with its item filter).
    pub count_k2: f64,
    /// `count_partition` at k ≥ 3.
    pub count_k3p: f64,
    /// Reading support counts back out of the counters (`mem`).
    pub readout: f64,
    /// Selecting `F_k` from the counts (`core::FrequentLevel::new`).
    pub extract: f64,
}

impl Spans {
    /// Sum of all spans.
    pub fn total(&self) -> f64 {
        self.f1
            + self.candgen
            + self.build
            + self.freeze
            + self.count_k2
            + self.count_k3p
            + self.readout
            + self.extract
    }
}

/// One traced Apriori run.
pub struct TracedApriori {
    /// Its frequent itemsets (checked against the oracle like any miner).
    pub sets: Itemsets,
    /// Wall seconds of the whole traced run.
    pub wall: f64,
    /// Per-layer spans.
    pub spans: Spans,
    /// `Σ |C_k|` over k ≥ 2.
    pub candidates: u64,
    /// Frozen-tree bytes summed over iterations.
    pub tree_bytes: u64,
    /// Counting work summed over iterations.
    pub meter: WorkMeter,
}

/// Seconds since `t`, restarting `t`.
fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let d = now.duration_since(*t).as_secs_f64();
    *t = now;
    d
}

/// Sequential Apriori at the default configuration, one span per call.
/// Mirrors `arm_core::mine` step for step.
pub fn traced_apriori(db: &Database, minsup: u32) -> TracedApriori {
    let cfg = AprioriConfig::default().with_support(Support::Absolute(minsup));
    let start = Instant::now();
    let mut spans = Spans::default();
    let mut candidates = 0u64;
    let mut tree_bytes = 0u64;
    let mut meter = WorkMeter::default();
    let mut t = Instant::now();

    let f1 = frequent_singletons(db, minsup);
    let f1_list = f1_items(&f1);
    spans.f1 += lap(&mut t);
    let opts = CountOptions {
        short_circuit: cfg.short_circuit,
        visited: cfg.visited,
        hash_memo: cfg.hash_memo,
        iterative: cfg.iterative_walk,
    };
    let mut scratch = CountScratch::new(db.n_items(), 0);
    let mut levels = vec![f1];
    for k in 2u32.. {
        let prev = levels.last().unwrap();
        if prev.len() < 2 {
            break;
        }
        lap(&mut t);
        let (cands, _) = generate_candidates(prev);
        let classes = equivalence_classes(prev);
        let fanout = adaptive_fanout(&classes, cfg.leaf_threshold, k);
        spans.candgen += lap(&mut t);
        if cands.is_empty() {
            break;
        }
        candidates += cands.len() as u64;

        let hash = make_hash(cfg.hash_scheme, fanout, &f1_list, db.n_items());
        let builder = TreeBuilder::new(&cands, &hash, cfg.leaf_threshold);
        builder.insert_all();
        spans.build += lap(&mut t);
        let tree = freeze_policy(&builder, cfg.placement);
        spans.freeze += lap(&mut t);
        tree_bytes += tree.total_bytes() as u64;

        let filter = cfg
            .trim_transactions
            .then(|| ItemFilter::from_candidates(&cands, db.n_items()));
        if cfg.reuse_scratch {
            scratch.retarget(tree.n_nodes());
        } else {
            scratch = CountScratch::new(db.n_items(), tree.n_nodes());
        }
        let mut count = |cref: &mut CounterRef<'_>| {
            tree.count_partition(
                &hash,
                db,
                0..db.len(),
                filter.as_ref(),
                &mut scratch,
                cref,
                opts,
                &mut meter,
            )
        };
        let mut count_span = 0.0;
        let counts: Vec<u32> = if tree.counters_inline() {
            count(&mut CounterRef::Inline);
            count_span += lap(&mut t);
            tree.inline_counts()
        } else if cfg.placement.per_thread_counters() {
            let mut local = LocalCounters::new(cands.len());
            count(&mut CounterRef::Local(&mut local));
            count_span += lap(&mut t);
            reduce(&[local])
        } else {
            let shared = FlatCounters::new(cands.len());
            count(&mut CounterRef::Shared(&shared));
            count_span += lap(&mut t);
            shared.snapshot()
        };
        spans.readout += lap(&mut t);
        if k == 2 {
            spans.count_k2 += count_span;
        } else {
            spans.count_k3p += count_span;
        }

        let fk = frequent_level(&cands, &counts, minsup);
        spans.extract += lap(&mut t);
        if fk.is_empty() {
            break;
        }
        levels.push(fk);
    }
    let wall = start.elapsed().as_secs_f64();
    let sets = levels
        .iter()
        .flat_map(|l| l.iter().map(|(s, c)| (s.to_vec(), c)))
        .collect();
    TracedApriori {
        sets,
        wall,
        spans,
        candidates,
        tree_bytes,
        meter,
    }
}

/// The candidates of `cands` whose count reaches `minsup`.
fn frequent_level(cands: &CandidateSet, counts: &[u32], minsup: u32) -> FrequentLevel {
    let mut sets = CandidateSet::new(cands.k());
    let mut supports = Vec::new();
    for (id, items) in cands.iter() {
        if counts[id as usize] >= minsup {
            sets.push(items);
            supports.push(counts[id as usize]);
        }
    }
    FrequentLevel::new(sets, supports)
}

/// The vertical kernels over every pair of frequent items.
pub struct Kernels {
    /// Nanoseconds per sorted-list `TidSet::intersect`.
    pub sorted_ns: f64,
    /// Nanoseconds per bitmap `TidSet::intersect`.
    pub bitmap_ns: f64,
    /// Share of non-empty first-level classes on which
    /// `VerticalConfig::default().choose` picks bitmaps.
    pub auto_bitmap_frac: f64,
    /// Whether both backends agreed on every pair's support.
    pub agree: bool,
}

/// Intersects every pair of frequent-item tidsets with both backends.
pub fn vertical_kernels(db: &Database, minsup: u32) -> Kernels {
    let cfg = VerticalConfig::default();
    let mut lists: Vec<Vec<Tid>> = vec![Vec::new(); db.n_items() as usize];
    for tid in 0..db.len() {
        for &item in db.transaction(tid) {
            lists[item as usize].push(tid as Tid);
        }
    }
    let sorted: Vec<TidSet> = lists
        .into_iter()
        .filter(|l| l.len() >= minsup as usize)
        .map(TidSet::Sorted)
        .collect();
    let n_words = db.len().div_ceil(64);
    let bitmaps: Vec<TidSet> = sorted.iter().map(|s| s.to_bitmap(n_words)).collect();

    let mut stats = KernelStats::default();
    let mut supports = Vec::new();
    let (mut bitmap_classes, mut classes) = (0usize, 0usize);
    let start = Instant::now();
    for (i, a) in sorted.iter().enumerate() {
        let (mut total, mut members) = (0u64, 0usize);
        for b in &sorted[i + 1..] {
            let s = a.intersect(b, cfg.galloping, &mut stats).support();
            supports.push(s);
            if s >= minsup {
                total += s as u64;
                members += 1;
            }
        }
        if members > 0 {
            classes += 1;
            if cfg.choose(total, members, db.len()) == Backend::Bitmap {
                bitmap_classes += 1;
            }
        }
    }
    let sorted_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut agree = true;
    let mut pair = 0usize;
    for (i, a) in bitmaps.iter().enumerate() {
        for b in &bitmaps[i + 1..] {
            agree &= a.intersect(b, cfg.galloping, &mut stats).support() == supports[pair];
            pair += 1;
        }
    }
    let bitmap_secs = start.elapsed().as_secs_f64();
    let per = |secs: f64| secs * 1e9 / pair.max(1) as f64;
    Kernels {
        sorted_ns: per(sorted_secs),
        bitmap_ns: per(bitmap_secs),
        auto_bitmap_frac: bitmap_classes as f64 / classes.max(1) as f64,
        agree,
    }
}

/// Total wall seconds of the phases named `name`, restricted to
/// iterations for which `k_ok` holds.
pub fn phase_secs(stats: &ParallelRunStats, name: &str, k_ok: impl Fn(u32) -> bool) -> f64 {
    stats
        .phases
        .iter()
        .filter(|p| p.name == name && k_ok(p.k))
        .map(|p| p.wall.as_secs_f64())
        .sum()
}
