//! Hybrid Apriori → vertical mining (the authors' follow-up observation
//! that breadth-first counting wins on shallow, wide levels while
//! tidlist intersection wins on deep, narrow ones).
//!
//! Levels `k ≤ switch_level` run as plain CCPD: counting over the
//! horizontal database (the pair array at `k = 2`, the hash tree beyond),
//! which amortizes beautifully while candidate sets are huge. The surviving `F_s` itemsets are then *transposed*
//! into tidsets — one shared `(s-1)`-prefix intersection per equivalence
//! class plus one intersection per member — and the deep levels finish
//! vertically with the same weighted class scheduling as
//! [`crate::mine_eclat_parallel`].
//!
//! Output is bit-identical to full CCPD / sequential Eclat: the class
//! partition of `F_s` is exact (equivalence classes share their first
//! `s-1` items), every frequent `(s+1)`-itemset has both its generating
//! `s`-subsets in one class, and deeper levels follow inductively inside
//! the child classes.

use crate::config::VerticalConfig;
use crate::driver::{convert_members, extend_one, n_words_for, try_transpose, ClassBuf, Member};
use crate::parallel::{class_seeds, fold_kernel_stats, TryMineOutcome};
use crate::tidset::{intersect_sorted, KernelStats, TidSet};
use arm_core::{equivalence_classes, FrequentLevel};
use arm_dataset::{Database, Item, Tid};
use arm_exec::ChunkPool;
use arm_faults::{try_run_threads, RunControl};
use arm_hashtree::WorkMeter;
use arm_metrics::{Counter, MetricsRegistry, MetricsSnapshot, N_COUNTERS};
use arm_parallel::{ccpd, record_exec, ParallelConfig, ParallelRunStats};
use std::ops::Range;
use std::time::Instant;

/// Element-wise sum of two per-thread counter snapshots (padded to the
/// wider thread count).
fn merge_snapshots(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let n = a.per_thread.len().max(b.per_thread.len());
    let mut per_thread = vec![[0u64; N_COUNTERS]; n];
    for (t, row) in per_thread.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = a.per_thread.get(t).map_or(0, |r| r[c]) + b.per_thread.get(t).map_or(0, |r| r[c]);
        }
    }
    MetricsSnapshot {
        enabled: a.enabled || b.enabled,
        per_thread,
    }
}

/// Transposes one `F_s` equivalence class into tidset members and mines
/// its subtree. The class's shared `(s-1)`-prefix tidset is intersected
/// once; each member then costs a single extra intersection with its
/// distinguishing last item's singleton tidlist.
#[allow(clippy::too_many_arguments)]
fn mine_deep_class(
    fs: &FrequentLevel,
    class: Range<u32>,
    tidlists: &[Vec<Tid>],
    n_txns: usize,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    stats: &mut KernelStats,
    out: &mut Vec<(Vec<Item>, u32)>,
) {
    let s = fs.k() as usize;
    let shared = &fs.get(class.start as usize)[..s - 1];
    // Tidset of the shared prefix; `None` at s == 1 (the full database).
    let prefix_tids: Option<Vec<Tid>> = shared.iter().fold(None, |acc, &item| {
        let list = &tidlists[item as usize];
        Some(match acc {
            None => list.clone(),
            Some(a) => intersect_sorted(&a, list, cfg.galloping, stats),
        })
    });
    let mut members: Vec<Member> = Vec::with_capacity(class.len());
    let mut total_support = 0u64;
    for i in class {
        let items = fs.get(i as usize);
        let last = items[s - 1];
        let tids = match &prefix_tids {
            None => tidlists[last as usize].clone(),
            Some(a) => intersect_sorted(a, &tidlists[last as usize], cfg.galloping, stats),
        };
        debug_assert_eq!(
            tids.len() as u32,
            fs.support(i as usize),
            "transposed tidset disagrees with the CCPD count for {items:?}"
        );
        total_support += tids.len() as u64;
        members.push(Member {
            item: last,
            tids: TidSet::Sorted(tids),
        });
    }
    let target = cfg.choose(total_support, members.len(), n_txns);
    convert_members(&mut members, target, n_words_for(n_txns), stats);
    let mut prefix: Vec<Item> = shared.to_vec();
    for i in 0..members.len() {
        extend_one(
            &members,
            i,
            None,
            &mut prefix,
            min_support,
            max_k,
            cfg,
            n_txns,
            stats,
            out,
        );
    }
}

/// Hybrid miner: CCPD for levels `k ≤ vcfg.switch_level`, vertical DFS
/// beyond. Uses `pcfg.n_threads` workers throughout; `pcfg.base.max_k`
/// caps the overall depth exactly as in the other miners. Returns the
/// canonical length-then-lex itemsets (bit-identical to
/// `ccpd::mine(..).0.all_itemsets()` and [`crate::mine_eclat_parallel`]) and
/// the stitched stats of both regimes (CCPD phases followed by the
/// vertical transpose/classes/mine/merge phases).
pub fn mine_hybrid(
    db: &Database,
    pcfg: &ParallelConfig,
    vcfg: &VerticalConfig,
) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
    try_mine_hybrid(db, pcfg, vcfg, &RunControl::default()).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`mine_hybrid`]: the horizontal stage inherits the control
/// through [`ccpd::try_mine`] (so its f1/build/count phases observe
/// cancellation and fault sites), and the vertical stage checkpoints on
/// every class-pool claim plus gates after `transpose` and `mine`. A run
/// that returns `Err` discards both regimes' partial results.
pub fn try_mine_hybrid(
    db: &Database,
    pcfg: &ParallelConfig,
    vcfg: &VerticalConfig,
    ctrl: &RunControl,
) -> TryMineOutcome {
    let run_start = Instant::now();
    let p = pcfg.n_threads.max(1);
    let user_max = pcfg.base.max_k;
    if user_max == Some(0) {
        return Ok((
            Vec::new(),
            ParallelRunStats {
                n_threads: p,
                phases: Vec::new(),
                wall: run_start.elapsed(),
                count_meters: vec![WorkMeter::default(); p],
                metrics: MetricsSnapshot::default(),
            },
        ));
    }
    let s = vcfg.switch_level.max(1);
    if user_max.is_some_and(|m| m <= s) {
        // The cap never reaches the vertical regime: plain CCPD.
        let (res, mut stats) = ccpd::try_mine(db, pcfg, ctrl)?;
        stats.wall = run_start.elapsed();
        return Ok((res.all_itemsets(), stats));
    }
    let mut capped = pcfg.clone();
    capped.base.max_k = Some(s);
    let (res, ccpd_stats) = ccpd::try_mine(db, &capped, ctrl)?;
    // Faults fired so far were already tallied into the CCPD registry;
    // only the vertical stage's delta goes into ours (the snapshots merge).
    let injected_at_switch = ctrl.faults.injected();
    let mut out = res.all_itemsets();
    let frontier = res.levels.last();
    let fs = match frontier {
        Some(level) if res.max_k() >= s => level,
        _ => {
            // The frontier died before the switch level; by downward
            // closure nothing deeper exists either.
            let mut stats = ccpd_stats;
            stats.wall = run_start.elapsed();
            return Ok((out, stats));
        }
    };
    debug_assert_eq!(fs.k(), s);

    let metrics = MetricsRegistry::new(p);
    let min_support = res.min_support.max(1);

    let span = metrics.phase("transpose", s + 1);
    let (tidlists, transpose_work) = try_transpose(db, p, ctrl)?;
    span.finish(transpose_work);
    ctrl.gate("transpose", run_start)?;

    let span = metrics.phase("classes", s + 1);
    let classes = equivalence_classes(fs);
    let weights: Vec<u64> = classes
        .iter()
        .map(|c| c.clone().map(|i| fs.support(i as usize) as u64).sum())
        .collect();
    let seeds = class_seeds(&weights, p);
    span.finish_serial();

    let pool =
        ChunkPool::with_floor(&seeds, vcfg.scheduling, 1).with_cancel_token(ctrl.cancel.clone());
    let span = metrics.phase("mine", s + 1);
    let tidlists_ref = &tidlists;
    let classes_ref = &classes;
    let results: Vec<(KernelStats, Vec<ClassBuf>)> =
        try_run_threads(p, "mine", &ctrl.cancel, |t| {
            let mut stats = KernelStats::default();
            let mut bufs = Vec::new();
            let mut claim = 0u64;
            while let Some(range) = pool.next(t) {
                ctrl.faults.fire("mine", t, claim);
                claim += 1;
                for ci in range {
                    let mut class_out = Vec::new();
                    mine_deep_class(
                        fs,
                        classes_ref[ci].clone(),
                        tidlists_ref,
                        db.len(),
                        min_support,
                        user_max,
                        vcfg,
                        &mut stats,
                        &mut class_out,
                    );
                    bufs.push((ci, class_out));
                }
            }
            (stats, bufs)
        })?;
    record_exec(&metrics, &pool);
    span.finish(results.iter().map(|(st, _)| st.work_units).collect());
    for (t, (st, _)) in results.iter().enumerate() {
        fold_kernel_stats(&metrics, t, st);
    }
    ctrl.gate("mine", run_start)?;

    let span = metrics.phase("merge", s + 1);
    let mut by_class: Vec<ClassBuf> = results.into_iter().flat_map(|(_, bufs)| bufs).collect();
    by_class.sort_by_key(|(ci, _)| *ci);
    for (_, mut chunk) in by_class {
        out.append(&mut chunk);
    }
    out.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
    span.finish_serial();

    metrics.shard(0).add(
        Counter::FaultsInjected,
        ctrl.faults.injected() - injected_at_switch,
    );
    let mut phases = ccpd_stats.phases;
    phases.extend(metrics.take_phases());
    let stats = ParallelRunStats {
        n_threads: p,
        phases,
        wall: run_start.elapsed(),
        count_meters: ccpd_stats.count_meters,
        metrics: merge_snapshots(&ccpd_stats.metrics, &metrics.snapshot()),
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TidBackend;
    use arm_core::{AprioriConfig, Support};

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

    fn pcfg(minsup: u32, p: usize) -> ParallelConfig {
        let base = AprioriConfig {
            min_support: Support::Absolute(minsup),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        ParallelConfig::new(base, p)
    }

    #[test]
    fn hybrid_matches_ccpd_across_switch_levels() {
        let db = paper_db();
        for minsup in 1..=3 {
            let (res, _) = ccpd::mine(&db, &pcfg(minsup, 2));
            let want = res.all_itemsets();
            for s in 1..=4 {
                for backend in [TidBackend::Auto, TidBackend::Sorted, TidBackend::Bitmap] {
                    let vcfg = VerticalConfig::default()
                        .with_switch_level(s)
                        .with_backend(backend);
                    let (got, _) = mine_hybrid(&db, &pcfg(minsup, 2), &vcfg);
                    assert_eq!(got, want, "minsup={minsup} s={s} backend={backend:?}");
                }
            }
        }
    }

    #[test]
    fn hybrid_respects_max_k() {
        let db = paper_db();
        let vcfg = VerticalConfig::default().with_switch_level(1);
        for cap in [Some(0), Some(1), Some(2), Some(3), Some(10), None] {
            let mut cfg = pcfg(2, 2);
            cfg.base.max_k = cap;
            let (got, _) = mine_hybrid(&db, &cfg, &vcfg);
            let (res, _) = ccpd::mine(&db, &cfg);
            assert_eq!(got, res.all_itemsets(), "cap={cap:?}");
        }
    }

    #[test]
    fn hybrid_stats_cover_both_regimes() {
        let db = paper_db();
        let (_, stats) = mine_hybrid(&db, &pcfg(2, 2), &VerticalConfig::default());
        // CCPD phases first, vertical phases after.
        assert!(stats.phases.iter().any(|ph| ph.name == "count"));
        assert!(stats.phases.iter().any(|ph| ph.name == "mine"));
        assert_eq!(stats.n_threads, 2);
        assert_eq!(stats.count_meters.len(), 2);
    }

    #[test]
    fn snapshot_merge_pads_and_adds() {
        let a = MetricsSnapshot {
            enabled: true,
            per_thread: vec![[1u64; N_COUNTERS]],
        };
        let b = MetricsSnapshot {
            enabled: false,
            per_thread: vec![[2u64; N_COUNTERS], [3u64; N_COUNTERS]],
        };
        let m = merge_snapshots(&a, &b);
        assert!(m.enabled);
        assert_eq!(m.per_thread.len(), 2);
        assert_eq!(m.per_thread[0][0], 3);
        assert_eq!(m.per_thread[1][0], 3);
    }
}
