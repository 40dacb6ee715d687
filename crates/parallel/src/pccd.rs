//! PCCD — Partitioned Candidate, Common Database (§3.3).
//!
//! The comparison baseline: candidates are split across workers, each
//! worker builds a *local* hash tree and scans the **entire** database
//! against it. Total counting work is therefore ~`P×` the CCPD work —
//! the paper measured a speed-*down* and dropped the approach; we keep it
//! as the baseline it is (Fig. 11 commentary, DESIGN.md experiment index).
//! Being that baseline, it always runs the paper's static split and
//! ignores [`ParallelConfig::scheduling`].

use crate::config::ParallelConfig;
use crate::scratch::ScratchPool;
use crate::stats::ParallelRunStats;
use arm_faults::{try_run_threads, MiningError, RunControl};
use arm_metrics::{Counter, MetricsRegistry};

use arm_core::{
    adaptive_fanout, count_singletons, equivalence_classes, f1_items, frequent_from_counts,
    generate_class, make_hash, FrequentLevel, IterStats, MiningResult,
};
use arm_dataset::Database;
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter, TreeBuilder,
    WorkMeter,
};
use arm_mem::LocalCounters;
use std::time::Instant;

/// Runs PCCD, returning the mining result (identical to sequential) and
/// phase statistics.
///
/// Infallible wrapper over [`try_mine`] with an inert [`RunControl`]; a
/// contained worker panic is re-raised on the caller.
pub fn mine(db: &Database, cfg: &ParallelConfig) -> (MiningResult, ParallelRunStats) {
    try_mine(db, cfg, &RunControl::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs PCCD under a [`RunControl`]: cancellation is observed once per
/// worker scan; fault-plan sites fire in phase `count`.
/// Same `Err` guarantees as [`crate::ccpd::try_mine`].
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

    // F1 is identical to CCPD (histograms are cheap; keep it serial here
    // to emphasize that PCCD's pathology is in the counting phase).
    let span = metrics.phase("f1", 1);
    let counts = count_singletons(db, 0..db.len());
    let f1 = frequent_from_counts(&counts, min_support);
    span.finish_serial();
    ctrl.gate("f1", run_start)?;

    let f1_item_list = f1_items(&f1);
    // Same pooling as CCPD: one scratch per worker across all iterations.
    let scratch_pool = cfg
        .base
        .reuse_scratch
        .then(|| ScratchPool::new(p, db.n_items()));
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
    // Uniform `max_k` semantics: a cap of 0 admits no level at all (the
    // k-loop below then breaks immediately on `k > m`).
    let mut levels = if cfg.base.max_k == Some(0) {
        Vec::new()
    } else {
        vec![f1]
    };

    let mut k = 2u32;
    loop {
        if cfg.base.max_k.is_some_and(|m| k > m) {
            break;
        }
        let Some(prev) = levels.last() else { break };
        if prev.len() < 2 {
            break;
        }

        // Sequential candidate generation (master), as in the paper's
        // PCCD variant; the candidates are then *partitioned*.
        let span = metrics.phase("candgen", k);
        let classes = equivalence_classes(prev);
        let mut cands = CandidateSet::new(k);
        let mut scratch = Vec::with_capacity(2 * k as usize);
        let mut join_pairs = 0u64;
        for class in &classes {
            join_pairs += generate_class(prev, class.clone(), &mut cands, &mut scratch);
        }
        span.finish_serial();
        ctrl.gate("candgen", run_start)?;
        if cands.is_empty() {
            break;
        }

        let fanout = if cfg.base.adaptive_fanout {
            adaptive_fanout(&classes, cfg.base.leaf_threshold, k)
        } else {
            cfg.base.fixed_fanout
        };
        let hash = make_hash(cfg.base.hash_scheme, fanout, &f1_item_list, db.n_items());

        // Partition candidates across threads (greedy over uniform
        // weights ≈ equal tree sizes, §3.2.1).
        let weights = vec![1u64; cands.len()];
        let assignment = cfg.candgen_scheme.assign(&weights, p);

        // Each thread: local tree over its candidates, full database scan
        // start-to-finish by the bin's owner (the paper's formulation).
        let span = metrics.phase("count", k);
        let opts = CountOptions {
            short_circuit: cfg.base.short_circuit,
            visited: cfg.base.visited,
            hash_memo: cfg.base.hash_memo,
            iterative: cfg.base.iterative_walk,
        };
        let (bin_counts, meters, tree_bytes, tree_nodes) = count_static(
            db,
            cfg,
            &cands,
            &hash,
            &assignment.bins,
            &scratch_pool,
            opts,
            &metrics,
            p,
            ctrl,
        )?;
        let count_work: Vec<u64> = meters.iter().map(|m| m.work_units()).collect();
        for (rm, m) in run_meters.iter_mut().zip(&meters) {
            rm.merge(m);
        }
        span.finish(count_work);
        ctrl.gate("count", run_start)?;

        // Reduction: scatter local counts back to global candidate ids.
        let span = metrics.phase("extract", k);
        let mut final_counts = vec![0u32; cands.len()];
        let mut total_meter = WorkMeter::default();
        for (ids, local_counts) in &bin_counts {
            for (slot, &id) in ids.iter().enumerate() {
                final_counts[id as usize] = local_counts[slot];
            }
        }
        for m in &meters {
            total_meter.merge(m);
        }
        let fk = FrequentLevel::from_counts(&cands, &final_counts, min_support);
        span.finish_serial();

        iter_stats.push(IterStats {
            k,
            n_candidates: cands.len(),
            n_frequent: fk.len(),
            fanout,
            tree_bytes,
            tree_nodes,
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

/// Per-bin scatter-back data: the bin's global candidate ids and their
/// final counts, slot-aligned.
type BinCounts = Vec<(Vec<u32>, Vec<u32>)>;

/// The paper's static formulation: bin `t`'s owner builds its local tree
/// and scans the entire database alone, accumulating into private
/// `LocalCounters`.
///
/// Returns per-bin (ids, counts), per-thread meters, and total tree
/// bytes/nodes across bins.
#[allow(clippy::too_many_arguments)]
fn count_static(
    db: &Database,
    cfg: &ParallelConfig,
    cands: &CandidateSet,
    hash: &arm_balance::AnyHash,
    bins: &[Vec<usize>],
    scratch_pool: &Option<ScratchPool>,
    opts: CountOptions,
    metrics: &MetricsRegistry,
    p: usize,
    ctrl: &RunControl,
) -> Result<(BinCounts, Vec<WorkMeter>, usize, u32), MiningError> {
    let k = cands.k();
    // (global candidate ids, their counts, meter, tree bytes, tree nodes)
    type ThreadOutcome = (Vec<u32>, Vec<u32>, WorkMeter, usize, u32);
    let outcomes: Vec<ThreadOutcome> = try_run_threads(p, "count", &ctrl.cancel, |t| {
        let shard = metrics.shard(t);
        let ids = &bins[t]; // sorted → lexicographic subset
        let mut local_set = CandidateSet::new(k);
        for &id in ids {
            local_set.push(cands.get(id as u32));
        }
        let mut meter = WorkMeter::default();
        // The static formulation is one indivisible full-database scan per
        // thread, so this single checkpoint is its whole cancellation
        // surface — the latency bound counts it as one claim. The caller's
        // phase gate discards the empty partial on cancellation.
        ctrl.faults.fire("count", t, 0);
        if local_set.is_empty() || !ctrl.cancel.checkpoint() {
            return (Vec::new(), Vec::new(), meter, 0, 0);
        }
        // Local trees are private, so lock telemetry here records the
        // uncontended baseline PCCD trades CCPD's shared tree for.
        let builder = TreeBuilder::new(&local_set, hash, cfg.base.leaf_threshold);
        builder.insert_all_tallied(shard);
        let tree = freeze_policy(&builder, cfg.base.placement);
        shard.add(Counter::TreeBytes, tree.total_bytes() as u64);
        shard.add(Counter::TreeNodes, tree.n_nodes() as u64);
        // Each worker trims against its *own* candidate subset — a
        // tighter (still lossless) filter than the global one.
        let filter = cfg
            .base
            .trim_transactions
            .then(|| ItemFilter::from_candidates(&local_set, db.n_items()));
        let filter = filter.as_ref();
        let mut pooled;
        let mut fresh;
        let scratch: &mut CountScratch = match scratch_pool {
            Some(pool) => {
                shard.incr(Counter::ScratchRetargets);
                pooled = pool.slot(t);
                pooled.retarget(tree.n_nodes());
                &mut pooled
            }
            None => {
                shard.incr(Counter::ScratchAllocs);
                fresh = CountScratch::new(db.n_items(), tree.n_nodes());
                &mut fresh
            }
        };
        let local_counts: Vec<u32> = if tree.counters_inline() {
            let mut cref = CounterRef::Inline;
            tree.count_partition(
                hash,
                db,
                0..db.len(),
                filter,
                scratch,
                &mut cref,
                opts,
                &mut meter,
            );
            tree.inline_counts()
        } else {
            let mut local = LocalCounters::new(local_set.len());
            {
                let mut cref = CounterRef::Local(&mut local);
                tree.count_partition(
                    hash,
                    db,
                    0..db.len(),
                    filter,
                    scratch,
                    &mut cref,
                    opts,
                    &mut meter,
                );
            }
            local.slots().to_vec()
        };
        shard.add(Counter::ScratchStampBytes, scratch.stamp_bytes() as u64);
        let ids_u32: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
        (
            ids_u32,
            local_counts,
            meter,
            tree.total_bytes(),
            tree.n_nodes(),
        )
    })?;
    let mut bin_counts = Vec::with_capacity(p);
    let mut meters = Vec::with_capacity(p);
    let mut tree_bytes = 0usize;
    let mut tree_nodes = 0u32;
    for (ids, counts, meter, tb, tn) in outcomes {
        bin_counts.push((ids, counts));
        meters.push(meter);
        tree_bytes += tb;
        tree_nodes += tn;
    }
    Ok((bin_counts, meters, tree_bytes, tree_nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccpd;
    use arm_core::{mine as mine_seq, AprioriConfig, Support};
    use arm_exec::Scheduling;

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
    fn matches_sequential() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        for p in [1usize, 2, 3] {
            let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), p));
            assert_eq!(r.all_itemsets(), expected, "P={p}");
        }
    }

    #[test]
    fn scheduling_is_ignored() {
        // PCCD always runs the paper's static split, so the configured
        // mode changes neither the itemsets nor any thread's count work.
        let db = paper_db();
        for p in [1usize, 2, 3, 8] {
            let (oracle, oracle_stats) = mine(
                &db,
                &ParallelConfig::new(base_cfg(), p).with_scheduling(Scheduling::Static),
            );
            let cfg = ParallelConfig::new(base_cfg(), p).with_scheduling(Scheduling::Guided);
            let (r, stats) = mine(&db, &cfg);
            assert_eq!(r.all_itemsets(), oracle.all_itemsets(), "P={p}");
            assert_eq!(stats.count_meters, oracle_stats.count_meters, "P={p}");
        }
    }

    #[test]
    fn duplicated_scan_work_exceeds_ccpd() {
        // PCCD's defining pathology: total counting work grows with P
        // because every thread scans the full database. Trimming is off so
        // the transaction tallies reflect the raw duplicated scans (PCCD's
        // per-thread filters would otherwise skip trimmed-short txns).
        let db = paper_db();
        let cfg = AprioriConfig {
            trim_transactions: false,
            ..base_cfg()
        };
        let (_, ccpd_stats) = ccpd::mine(&db, &ParallelConfig::new(cfg.clone(), 3));
        let (_, pccd_stats) = mine(&db, &ParallelConfig::new(cfg, 3));
        let ccpd_txns: u64 = ccpd_stats.count_meters.iter().map(|m| m.txns).sum();
        let pccd_txns: u64 = pccd_stats.count_meters.iter().map(|m| m.txns).sum();
        assert!(
            pccd_txns > 2 * ccpd_txns,
            "PCCD txns {pccd_txns} vs CCPD {ccpd_txns}"
        );
    }

    #[test]
    fn handles_more_threads_than_candidates() {
        let db = paper_db();
        let expected = mine_seq(&db, &base_cfg()).all_itemsets();
        let (r, _) = mine(&db, &ParallelConfig::new(base_cfg(), 8));
        assert_eq!(r.all_itemsets(), expected);
    }
}
