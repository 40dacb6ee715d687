//! CCPD — Common Candidate, Partitioned Database (§3.3): the workspace's
//! one Apriori level loop.
//!
//! One shared candidate set; the database is logically split among the
//! workers. Sequential Apriori is this loop at one thread
//! ([`crate::mine`] runs it under `Scheduling::Static`, where every phase
//! is a single chunk on the caller's thread). Every phase mirrors the
//! paper:
//!
//! * `F_1`: per-thread histograms over database blocks + sum reduction;
//! * `C_2` (with `pair_array`, the default): each thread counts its
//!   partition's pairs into a private triangular array ([`count_pairs`]),
//!   summed into thread 0's array at extraction — no candidates, no tree;
//! * candidate generation: equivalence classes balanced across threads by
//!   the configured scheme (§3.1.2), with adaptive parallelism (§3.1.3);
//!   with `pair_array`, the class arrays' slot map ([`ClassIndex`]) is
//!   built after the join;
//! * support counting, `k ≥ 3`, with `pair_array`: each thread counts
//!   its chunks of the per-transaction id lists into a private `|C_k|`
//!   array (`count_classes`; at `k = 3` the lists are read off the items
//!   through `F_2`'s partner lists). Each claimed chunk writes its
//!   transactions' contained candidate ids to a segment keyed by the
//!   chunk's start; the segments, concatenated in start order, are the
//!   lists the next level counts over (identical under every scheduling
//!   mode and thread count). A pass that writes more ids than its budget
//!   ([`ListBudget`]) stops writing and hands the next level to the
//!   tree; otherwise no tree is built at any level;
//! * on the hash-tree path (`pair_array: false`, the paper's CCPD, or
//!   from a level whose slot map is unaddressable or that follows an
//!   over-budget pass, and every later one):
//!   - tree build: all threads insert into the shared tree under per-leaf
//!     locks (§3.1.4);
//!   - freeze: the placement policy's memory image is laid out (GPP's
//!     remap);
//!   - support counting: each thread scans its partition against the
//!     shared tree, with counters inline / segregated / privatized per
//!     policy. With `trim_transactions` each transaction is first cut to
//!     the candidates' items ([`arm_hashtree::ItemFilter`]), and each
//!     claimed chunk writes its transactions' hit-trimmed survivors to a
//!     segment, concatenated in start order like the id lists;
//! * extraction: the master thread selects `F_k`.
//!
//! The data-parallel phases (F1, tree build, every count) draw their work
//! from an [`arm_exec::ChunkPool`] seeded with the phase's static split:
//! under `Scheduling::Static` each thread receives exactly its block (the
//! paper's behavior and the differential oracle), while the default
//! `Guided` mode re-balances the same indices at run time without changing
//! any result.
//!
//! Every phase records wall time and per-thread work for the imbalance
//! metrics in [`crate::stats`].

use crate::apriori::{f1_items, make_hash, IterStats, MiningResult};
use crate::class_array::{frequent_ids, ClassIndex, ClassScratch, IdLists, ListBudget};
use crate::f1::{count_singletons_into, frequent_from_counts};
use crate::generation::{
    adaptive_fanout, class_weight, equivalence_classes, generate_class, generate_class_member,
};
use crate::level::FrequentLevel;
use crate::pairs::{reduce_into_first, PairIndex};
use crate::parallel_config::{DbPartition, ParallelConfig};
use crate::stats::ParallelRunStats;
use arm_dataset::{
    block_ranges, weighted_ranges, weighted_ranges_for_k, Database, DatabaseBuilder,
};
use arm_exec::{ChunkPool, Scheduling};
use arm_faults::{try_run_threads, CancelToken, MiningError, RunControl};
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter, TreeBuilder,
    WorkMeter,
};
use arm_mem::counters::reduce;
use arm_mem::{FlatCounters, LocalCounters};
use arm_metrics::{Counter, MetricsRegistry, TalliedCounters};
use std::ops::Range;
use std::time::Instant;

/// Runs CCPD, returning the mining result (the same at every thread
/// count and schedule) and the run's phase statistics.
///
/// Infallible wrapper over [`try_mine`] with an inert [`RunControl`]: no
/// token, no faults. A worker panic is re-raised on the caller. It stays
/// only because `perfbench/` calls it and [`crate::mine`] is it at one
/// thread.
pub fn mine(db: &Database, cfg: &ParallelConfig) -> (MiningResult, ParallelRunStats) {
    try_mine(db, cfg, &RunControl::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs CCPD under a [`RunControl`]: the token is checkpointed at every
/// chunk claim and phase boundary, worker panics are contained and
/// returned as [`MiningError::WorkerPanicked`], and armed fault-plan
/// sites fire at each instrumented claim (phases `f1` and `count`, plus
/// `build` on the hash-tree path; the pair-array and class-array counts
/// are phase `count` too).
///
/// On `Err` every worker thread has joined and all shared state built by
/// the run is discarded; retrying with a live control yields results
/// bit-identical to an undisturbed run.
pub fn try_mine(
    db: &Database,
    cfg: &ParallelConfig,
    ctrl: &RunControl,
) -> Result<(MiningResult, ParallelRunStats), MiningError> {
    let run_start = Instant::now();
    let p = cfg.n_threads.max(1);
    let min_support = cfg.base.min_support.absolute(db.len());
    let metrics = MetricsRegistry::new(p);
    let mut run_meters = vec![WorkMeter::default(); p];

    // ---- F1: parallel histograms ----------------------------------------
    let span = metrics.phase("f1", 1);
    let ranges = block_ranges(db.len(), p);
    let pool = ChunkPool::new(&ranges, cfg.scheduling).with_cancel_token(ctrl.cancel.clone());
    let partials: Vec<(Vec<u32>, u64)> = try_run_threads(p, "f1", &ctrl.cancel, |t| {
        let mut singles = vec![0u32; db.n_items() as usize];
        let mut items = 0u64;
        let mut chunk = 0u64;
        while let Some(r) = pool.next(t) {
            ctrl.faults.fire("f1", t, chunk);
            chunk += 1;
            items += (db.offsets()[r.end] - db.offsets()[r.start]) as u64;
            count_singletons_into(db, r, &mut singles);
        }
        (singles, items)
    })?;
    record_exec(&metrics, &pool);
    ctrl.gate("f1", run_start)?;
    // Work units stay what they were under the static split — items
    // actually scanned by each thread — so imbalance remains comparable
    // across scheduling modes.
    let f1_work: Vec<u64> = partials.iter().map(|(_, items)| *items).collect();
    span.finish(f1_work);

    let span = metrics.phase("reduce", 1);
    let mut counts = vec![0u32; db.n_items() as usize];
    for (part, _) in &partials {
        for (c, v) in counts.iter_mut().zip(part) {
            *c += v;
        }
    }
    let f1 = frequent_from_counts(&counts, min_support);
    span.finish_serial();

    let f1_item_list = f1_items(&f1);
    // `None` (the knob off, or an unaddressable array) counts `C_2` in
    // the hash tree like every other level.
    let pair_index = cfg
        .base
        .pair_array
        .then(|| PairIndex::new(&f1_item_list, db.n_items()))
        .flatten();
    let mut iter_stats = vec![IterStats {
        k: 1,
        n_candidates: db.n_items() as usize,
        n_frequent: f1.len(),
        fanout: 0,
        tree_bytes: 0,
        tree_nodes: 0,
        join_pairs: 0,
        meter: WorkMeter::default(),
    }];
    // With the pair array: `F_2`'s partner lists. While they are
    // set, every level k ≥ 3 counts in class arrays, over the id lists the
    // level before wrote (`None` at k = 3: the items via `f2`).
    let mut f2 = None;
    let mut id_lists: Option<(Database, Vec<u32>)> = None;
    // On the tree path with `trim_transactions`, the hit-trimmed database
    // the next level counts over (`None` = `db`).
    let mut trimmed: Option<Database> = None;
    // Uniform `max_k` semantics: a cap of 0 admits no level at all (the
    // k-loop below then breaks immediately on `k > m`).
    let mut levels = if cfg.base.max_k == Some(0) {
        Vec::new()
    } else {
        vec![f1]
    };

    // ---- Iterations k >= 2 ----------------------------------------------
    let mut k = 2u32;
    loop {
        if cfg.base.max_k.is_some_and(|m| k > m) {
            break;
        }
        let Some(prev) = levels.last() else { break };
        if prev.len() < 2 {
            break;
        }
        let db_ranges = |db: &Database| -> Vec<Range<usize>> {
            match cfg.db_partition {
                DbPartition::Block => block_ranges(db.len(), p),
                DbPartition::WeightedStatic { kmax } => weighted_ranges(db, p, kmax),
                DbPartition::WeightedPerIteration => weighted_ranges_for_k(db, p, k),
            }
        };

        if let Some(index) = pair_index.as_ref().filter(|_| k == 2) {
            let span = metrics.phase("count", k);
            let (arrays, meters) =
                count_pairs(db, index, &db_ranges(db), cfg.scheduling, ctrl, &metrics)?;
            ctrl.gate("count", run_start)?;
            let mut total_meter = WorkMeter::default();
            for (rm, m) in run_meters.iter_mut().zip(&meters) {
                rm.merge(m);
                total_meter.merge(m);
            }
            span.finish(meters.iter().map(WorkMeter::work_units).collect());

            let span = metrics.phase("extract", k);
            let total = reduce_into_first(arrays).expect("one array per thread");
            let (fk, pairs) = index.frequent(&total, min_support);
            f2 = Some(pairs);
            span.finish_serial();
            iter_stats.push(index.iter_stats(fk.len(), total_meter));
            if fk.is_empty() {
                break;
            }
            levels.push(fk);
            k += 1;
            continue;
        }

        // Candidate generation.
        let span = metrics.phase("candgen", k);
        let classes = equivalence_classes(prev);
        let weights: Vec<u64> = classes.iter().map(class_weight).collect();
        let (cands, candgen_work, join_pairs) = if p > 1 && prev.len() >= cfg.parallel_candgen_min {
            parallel_candgen(prev, &classes, &weights, cfg, p, &ctrl.cancel)?
        } else {
            // Adaptive parallelism: not enough frequent itemsets to be
            // worth forking (§3.1.3).
            let mut out = CandidateSet::new(k);
            let mut scratch = Vec::with_capacity(2 * k as usize);
            let mut pairs = 0u64;
            for class in &classes {
                pairs += generate_class(prev, class.clone(), &mut out, &mut scratch);
            }
            let mut work = vec![0u64; p];
            work[0] = pairs;
            (out, work, pairs)
        };
        // The class arrays' slot map while `F_2` is at hand; an
        // unaddressable map hands this level and every later one to the
        // tree.
        let class_index = f2
            .as_ref()
            .filter(|_| !cands.is_empty())
            .and_then(|_| ClassIndex::new(prev, &classes, &cands));
        span.finish(candgen_work);
        ctrl.gate("candgen", run_start)?;
        if cands.is_empty() {
            break;
        }
        debug_assert!(cands.is_sorted_unique());

        if let Some(index) = &class_index {
            let span = metrics.phase("count", k);
            let held = id_lists.take();
            let lists = match &held {
                Some((db, frequent)) => IdLists::Candidates { db, frequent },
                None => IdLists::Pairs {
                    db,
                    f2: f2.as_ref().expect("class arrays count with F_2"),
                },
            };
            let emit = cfg.base.max_k != Some(k);
            let (arrays, meters, segments) = count_classes(
                index,
                &lists,
                &db_ranges(lists.db()),
                emit.then(|| ListBudget::new(db)),
                cfg.scheduling,
                ctrl,
                &metrics,
            )?;
            drop(held);
            ctrl.gate("count", run_start)?;
            let mut total_meter = WorkMeter::default();
            for (rm, m) in run_meters.iter_mut().zip(&meters) {
                rm.merge(m);
                total_meter.merge(m);
            }
            span.finish(meters.iter().map(WorkMeter::work_units).collect());

            let span = metrics.phase("extract", k);
            let total = reduce_into_first(arrays).expect("one array per thread");
            let fk = FrequentLevel::from_counts(&cands, &total, min_support);
            match segments {
                Some(segments) => {
                    id_lists = Some((
                        concat_segments(index.len() as u32, segments),
                        frequent_ids(&total, min_support),
                    ));
                }
                // Over budget (or the `max_k` level): the tree counts on.
                None => f2 = None,
            }
            span.finish_serial();
            iter_stats.push(IterStats {
                k,
                n_candidates: cands.len(),
                n_frequent: fk.len(),
                fanout: 0,
                tree_bytes: 0,
                tree_nodes: 0,
                join_pairs,
                meter: total_meter,
            });
            if fk.is_empty() {
                break;
            }
            levels.push(fk);
            k += 1;
            continue;
        }
        (f2, id_lists) = (None, None);

        let fanout = if cfg.base.adaptive_fanout {
            adaptive_fanout(&classes, cfg.base.leaf_threshold, k)
        } else {
            cfg.base.fixed_fanout
        };
        let hash = make_hash(cfg.base.hash_scheme, fanout, &f1_item_list, db.n_items());

        // Parallel tree build (shared tree, per-leaf locks). The per-leaf
        // lock telemetry of §3.1.4 is attributed to each inserter's shard.
        let span = metrics.phase("build", k);
        let builder = TreeBuilder::new(&cands, &hash, cfg.base.leaf_threshold);
        let cand_ranges = block_ranges(cands.len(), p);
        let pool =
            ChunkPool::new(&cand_ranges, cfg.scheduling).with_cancel_token(ctrl.cancel.clone());
        let build_work: Vec<u64> = try_run_threads(p, "build", &ctrl.cancel, |t| {
            let shard = metrics.shard(t);
            let mut inserted = 0u64;
            let mut chunk = 0u64;
            while let Some(r) = pool.next(t) {
                ctrl.faults.fire("build", t, chunk);
                chunk += 1;
                inserted += r.len() as u64;
                for id in r {
                    builder.insert_tallied(id as u32, shard);
                }
            }
            inserted
        })?;
        record_exec(&metrics, &pool);
        span.finish(build_work);
        ctrl.gate("build", run_start)?;

        // Freeze into the placement policy's image (serial, like the
        // paper's remap).
        let span = metrics.phase("freeze", k);
        let tree = freeze_policy(&builder, cfg.base.placement);
        span.finish_serial();
        let master = metrics.shard(0);
        master.add(Counter::TreeBytes, tree.total_bytes() as u64);
        master.add(Counter::TreeNodes, tree.n_nodes() as u64);

        // Parallel support counting, over the previous level's survivors
        // when trimming.
        let span = metrics.phase("count", k);
        let counted = trimmed.take();
        let input = counted.as_ref().unwrap_or(db);
        let db_ranges = db_ranges(input);
        let opts = CountOptions {
            short_circuit: cfg.base.short_circuit,
            visited: cfg.base.visited,
            ..CountOptions::default()
        };
        // Shared read-only item filter for this iteration's candidates.
        let filter = cfg
            .base
            .trim_transactions
            .then(|| ItemFilter::from_candidates(&cands, db.n_items()));
        let emit = cfg.base.hit_trim_at(k);
        let inline = tree.counters_inline();
        let per_thread = cfg.base.placement.per_thread_counters();
        let shared = (!inline && !per_thread).then(|| FlatCounters::new(cands.len()));

        // Guided scheduling re-chunks the very same partition the static
        // split would use, and its chunks never cross a seed boundary, so a
        // weighted DbPartition's cost-based boundaries still hold.
        let pool =
            ChunkPool::new(&db_ranges, cfg.scheduling).with_cancel_token(ctrl.cancel.clone());
        let outcomes = try_run_threads(p, "count", &ctrl.cancel, |t| {
            let shard = metrics.shard(t);
            let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
            shard.incr(Counter::ScratchAllocs);
            let mut meter = WorkMeter::default();
            let mut local = per_thread.then(|| LocalCounters::new(cands.len()));
            let mut segments = Vec::new();
            // Shared counters go through the tallying wrapper so striped
            // increments and their CAS retries land in this thread's shard.
            let tallied = shared.as_ref().map(|s| TalliedCounters::new(s, shard));
            {
                let mut cref = if inline {
                    CounterRef::Inline
                } else if let Some(l) = local.as_mut() {
                    CounterRef::Local(l)
                } else {
                    // `shared` is built exactly when neither inline nor
                    // per-thread counters are selected.
                    CounterRef::Shared(tallied.as_ref().expect("shared counters exist"))
                };
                let mut chunk = 0u64;
                while let Some(r) = pool.next(t) {
                    ctrl.faults.fire("count", t, chunk);
                    chunk += 1;
                    let start = r.start;
                    let mut survivors = emit.then(|| DatabaseBuilder::new(db.n_items()));
                    tree.count_trimmed(
                        &hash,
                        input,
                        r,
                        filter.as_ref(),
                        &mut scratch,
                        &mut cref,
                        opts,
                        &mut meter,
                        survivors.as_mut(),
                    );
                    if let Some(s) = survivors {
                        segments.push((start, s.finish()));
                    }
                }
            }
            shard.add(Counter::ScratchStampBytes, scratch.stamp_bytes() as u64);
            (meter, local, segments)
        })?;
        record_exec(&metrics, &pool);
        ctrl.gate("count", run_start)?;
        let mut meters = Vec::with_capacity(p);
        let mut locals = Vec::new();
        let mut segments = Vec::new();
        for (meter, local, segs) in outcomes {
            meters.push(meter);
            locals.extend(local);
            segments.extend(segs);
        }
        let count_work: Vec<u64> = meters.iter().map(|m| m.work_units()).collect();
        for (rm, m) in run_meters.iter_mut().zip(&meters) {
            rm.merge(m);
        }
        drop(counted);
        if emit {
            trimmed = Some(concat_segments(db.n_items(), segments));
        }
        span.finish(count_work);

        // Reduction + extraction (master).
        let span = metrics.phase("extract", k);
        let final_counts: Vec<u32> = if inline {
            tree.inline_counts()
        } else if per_thread {
            // Every worker built a local table under `per_thread`.
            reduce(&locals)
        } else {
            shared.expect("shared counters exist").snapshot()
        };
        let fk = FrequentLevel::from_counts(&cands, &final_counts, min_support);
        span.finish_serial();

        let mut total_meter = WorkMeter::default();
        for m in &meters {
            total_meter.merge(m);
        }
        iter_stats.push(IterStats {
            k,
            n_candidates: cands.len(),
            n_frequent: fk.len(),
            fanout,
            tree_bytes: tree.total_bytes(),
            tree_nodes: tree.n_nodes(),
            join_pairs,
            meter: total_meter,
        });

        let done = fk.is_empty();
        if !done {
            levels.push(fk);
        }
        k += 1;
        if done {
            break;
        }
    }

    // Successful runs fold the fault-layer tallies into the report; runs
    // that returned Err above discard their registry with everything else.
    metrics
        .shard(0)
        .add(Counter::FaultsInjected, ctrl.faults.injected());

    let result = MiningResult {
        levels,
        iter_stats,
        min_support,
    };
    let stats = ParallelRunStats {
        n_threads: p,
        phases: metrics.take_phases(),
        wall: run_start.elapsed(),
        count_meters: run_meters,
        metrics: metrics.snapshot(),
    };
    Ok((result, stats))
}

/// Concatenates the workers' segments (hit-trimmed survivors or
/// class-array id lists), each keyed by the start of the chunk it came
/// from, in start order: the next level's database, independent of which
/// thread claimed which chunk. A lone segment (one thread under the
/// static schedule) is the next level's database as it stands.
fn concat_segments(n_items: u32, mut segments: Vec<(usize, Database)>) -> Database {
    if segments.len() == 1 {
        return segments.pop().expect("one segment").1;
    }
    segments.sort_unstable_by_key(|(start, _)| *start);
    let mut next = DatabaseBuilder::new(n_items);
    for (_, segment) in segments {
        next.append(&segment);
    }
    next.finish()
}

/// Per-thread `|C_k|` arrays and meters of one class-array pass, and its
/// list segments unless it wrote none or went over budget.
type ClassCounts = (
    Vec<Vec<u32>>,
    Vec<WorkMeter>,
    Option<Vec<(usize, Database)>>,
);

/// Counts the candidates of the transactions of `lists` in `ranges` (one
/// seed range per thread) into one private [`ClassIndex`] array per
/// thread, drawing chunks from a [`ChunkPool`] in phase `count`: each
/// claim checkpoints the control's token and fires its `count` fault
/// site. With a `budget`, each claimed chunk writes its id lists to a
/// segment keyed by the chunk's start while the pass stays within it
/// ([`ClassIndex::count_within_budget`]); the segments are returned only
/// if it did, which is the same under every schedule. Returns the arrays
/// and meters in thread order; the caller gates the phase, sums the
/// arrays and concatenates the segments.
fn count_classes(
    index: &ClassIndex,
    lists: &IdLists<'_>,
    ranges: &[Range<usize>],
    budget: Option<ListBudget>,
    scheduling: Scheduling,
    ctrl: &RunControl,
    metrics: &MetricsRegistry,
) -> Result<ClassCounts, MiningError> {
    let pool = ChunkPool::new(ranges, scheduling).with_cancel_token(ctrl.cancel.clone());
    let budget = budget.as_ref();
    let within = || budget.filter(|b| !b.exceeded());
    let outcomes = try_run_threads(pool.n_threads(), "count", &ctrl.cancel, |t| {
        let mut counts = index.zeroed();
        let mut scratch = ClassScratch::default();
        let mut meter = WorkMeter::default();
        let mut segments = Vec::new();
        let mut chunk = 0u64;
        while let Some(r) = pool.next(t) {
            ctrl.faults.fire("count", t, chunk);
            chunk += 1;
            let start = r.start;
            let m = match within() {
                Some(budget) => {
                    let next = Some(index.lists_builder());
                    let (m, next) = index.count_within_budget(
                        lists,
                        r,
                        &mut counts,
                        &mut scratch,
                        next,
                        budget,
                    );
                    segments.extend(next.map(|next| (start, next.finish())));
                    m
                }
                None => index.count_into(lists, r, &mut counts, &mut scratch, None),
            };
            meter.merge(&m);
        }
        (counts, meter, segments)
    })?;
    record_exec(metrics, &pool);
    let mut out: ClassCounts = (Vec::new(), Vec::new(), None);
    let mut all = Vec::new();
    for (counts, meter, segments) in outcomes {
        out.0.push(counts);
        out.1.push(meter);
        all.extend(segments);
    }
    out.2 = within().map(|_| all);
    Ok(out)
}

/// Counts the pairs of the transactions in `ranges` (one seed range per
/// thread) into one private [`PairIndex`] array per thread, drawing
/// chunks from a [`ChunkPool`] in phase `count`: each claim checkpoints
/// the control's token and fires its `count` fault site. Returns the
/// arrays and meters (`txns`, `hits` = pair increments) in thread order;
/// the caller gates the phase and sums the arrays.
pub fn count_pairs(
    db: &Database,
    index: &PairIndex,
    ranges: &[Range<usize>],
    scheduling: Scheduling,
    ctrl: &RunControl,
    metrics: &MetricsRegistry,
) -> Result<(Vec<Vec<u32>>, Vec<WorkMeter>), MiningError> {
    let pool = ChunkPool::new(ranges, scheduling).with_cancel_token(ctrl.cancel.clone());
    let outcomes = try_run_threads(pool.n_threads(), "count", &ctrl.cancel, |t| {
        let mut counts = index.zeroed();
        let mut rank_buf = Vec::new();
        let mut meter = WorkMeter::default();
        let mut chunk = 0u64;
        while let Some(r) = pool.next(t) {
            ctrl.faults.fire("count", t, chunk);
            chunk += 1;
            meter.txns += r.len() as u64;
            meter.hits += index.count_into(db, r, &mut counts, &mut rank_buf);
        }
        (counts, meter)
    })?;
    record_exec(metrics, &pool);
    Ok(outcomes.into_iter().unzip())
}

/// Candidate generation balanced across `p` threads at *member*
/// granularity (§3.1.2): the unit of work is one itemset of `F_{k-1}`,
/// whose workload is the number of joins it initiates within its
/// equivalence class (`|S| - i - 1`, the triangular profile of the
/// paper's running example). This matters most for `C_2`, where all of
/// `F_1` forms a single class and class-granularity partitioning would
/// serialize the join.
///
/// Returns the merged (lex-ordered) candidates, per-thread join
/// workloads, and the total pair count.
fn parallel_candgen(
    prev: &FrequentLevel,
    classes: &[Range<u32>],
    weights: &[u64],
    cfg: &ParallelConfig,
    p: usize,
    cancel: &CancelToken,
) -> Result<(CandidateSet, Vec<u64>, u64), MiningError> {
    let k = prev.k() + 1;
    // Work units: (class index, member index) with triangular weights.
    let mut units: Vec<(u32, u32)> = Vec::new();
    let mut unit_weights: Vec<u64> = Vec::new();
    for (ci, class) in classes.iter().enumerate() {
        let size = class.end - class.start;
        for m in 0..size {
            units.push((ci as u32, m));
            unit_weights.push((size - m - 1) as u64);
        }
    }
    let assignment = cfg.candgen_scheme.assign(&unit_weights, p);

    // Each thread generates the candidates its members initiate, keyed by
    // unit index for the deterministic lex-order merge.
    let outputs: Vec<Vec<(usize, CandidateSet)>> = try_run_threads(p, "candgen", cancel, |t| {
        let mut scratch = Vec::with_capacity(2 * k as usize);
        let mut out = Vec::with_capacity(assignment.bins[t].len());
        for &u in &assignment.bins[t] {
            let (ci, m) = units[u];
            let class = &classes[ci as usize];
            let mut set = CandidateSet::new(k);
            generate_class_member(prev, (class.start + m)..class.end, &mut set, &mut scratch);
            out.push((u, set));
        }
        out
    })?;
    // Units are (class, member) in lexicographic generation order, so
    // concatenating by unit index restores the sequential ordering.
    let mut by_unit: Vec<(usize, CandidateSet)> = outputs.into_iter().flatten().collect();
    by_unit.sort_by_key(|(u, _)| *u);
    let mut merged = CandidateSet::new(k);
    for (_, set) in &by_unit {
        merged.extend_from(set);
    }
    let pairs = weights.iter().sum();
    Ok((merged, assignment.loads, pairs))
}

/// Folds a drained [`ChunkPool`]'s per-thread scheduling telemetry into
/// the matching metrics shards. Shared by every pool-driven phase in the
/// workspace (this driver, and the vertical miner in `arm-vertical`).
pub fn record_exec(metrics: &MetricsRegistry, pool: &ChunkPool) {
    for t in 0..pool.n_threads() {
        let s = pool.thread_stats(t);
        let shard = metrics.shard(t);
        shard.add(Counter::ChunksExecuted, s.chunks);
        shard.add(Counter::CursorCasRetries, s.cursor_retries);
        shard.add(Counter::CancelChecks, s.cancel_checks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AprioriConfig, Support};
    use crate::naive::mine_levelwise;
    use arm_balance::Scheme;
    use arm_hashtree::PlacementPolicy;

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

    fn base_cfg() -> AprioriConfig {
        AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        }
    }

    #[test]
    fn matches_naive_on_worked_example() {
        let db = paper_db();
        let expected = mine_levelwise(&db, 2, None);
        for p in [1usize, 2, 3, 4] {
            let cfg = ParallelConfig::new(base_cfg(), p);
            let (r, stats) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), expected, "P={p}");
            assert_eq!(stats.n_threads, p);
            assert!(stats.wall.as_nanos() > 0);
        }
    }

    #[test]
    fn all_policies_and_schemes_agree() {
        let db = paper_db();
        let expected = mine_levelwise(&db, 2, None);
        for policy in PlacementPolicy::ALL {
            for scheme in [
                Scheme::Block,
                Scheme::Interleaved,
                Scheme::Bitonic,
                Scheme::Greedy,
            ] {
                // Placement only matters on the tree.
                let tree = AprioriConfig {
                    pair_array: false,
                    ..base_cfg()
                };
                let mut cfg =
                    ParallelConfig::new(tree.with_placement(policy), 3).with_candgen(scheme);
                cfg.parallel_candgen_min = 1; // force parallel candgen
                let (r, _) = mine(&db, &cfg);
                assert_eq!(r.all_itemsets(), expected, "{policy} {scheme:?}");
            }
        }
    }

    #[test]
    fn db_partition_strategies_agree() {
        let db = paper_db();
        let expected = mine_levelwise(&db, 2, None);
        for part in [
            DbPartition::Block,
            DbPartition::WeightedStatic { kmax: 6 },
            DbPartition::WeightedPerIteration,
        ] {
            let cfg = ParallelConfig::new(base_cfg(), 2).with_db_partition(part);
            let (r, _) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), expected, "{part:?}");
        }
    }

    #[test]
    fn scheduling_modes_agree() {
        let db = paper_db();
        let expected = mine_levelwise(&db, 2, None);
        for mode in [Scheduling::Static, Scheduling::Guided] {
            for p in [1usize, 2, 4] {
                let cfg = ParallelConfig::new(base_cfg(), p).with_scheduling(mode);
                let (r, _) = mine(&db, &cfg);
                assert_eq!(r.all_itemsets(), expected, "{mode:?} P={p}");
            }
        }
    }

    #[test]
    fn phase_stats_are_recorded() {
        let db = paper_db();
        // Class arrays at every level by default; a tree per level with
        // `pair_array: false`.
        let tree_cfg = AprioriConfig {
            pair_array: false,
            ..base_cfg()
        };
        for (base, tree) in [(base_cfg(), false), (tree_cfg, true)] {
            let (r, stats) = mine(&db, &ParallelConfig::new(base, 2));
            let names: Vec<&str> = stats.phases.iter().map(|p| p.name).collect();
            for name in ["f1", "candgen", "count", "extract"] {
                assert!(names.contains(&name), "{name}");
            }
            for name in ["build", "freeze"] {
                assert_eq!(names.contains(&name), tree, "{name}");
            }
            assert!(stats.total_work("count") > 0);
            assert!(r.iter_stats[1..].iter().all(|s| (s.tree_bytes > 0) == tree));
        }
    }

    #[test]
    fn empty_database() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let (r, _) = mine(&db, &ParallelConfig::new(AprioriConfig::default(), 2));
        assert_eq!(r.total_frequent(), 0);
    }
}
