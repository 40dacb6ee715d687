//! Parallel Eclat: first-level prefix equivalence classes scheduled as
//! weighted tasks on the `arm-exec` chunk pool.
//!
//! A task is one root-class member's entire DFS subtree
//! (`extend_one` in [`crate::driver`]), so tasks touch disjoint outputs and
//! need no locks. Threads append `(class_index, itemsets)` buffers;
//! the merge orders them by class index and stable-sorts by length,
//! which yields the canonical length-then-lex order, bit-identical to the
//! sequential oracle [`arm_core::mine_eclat`] under *any* schedule —
//! itemset order never depends on which thread ran which class.
//!
//! Before the classes are mined, a `count` phase counts every pair of
//! frequent items into per-thread triangular arrays over the
//! transactions (the `C_2` kernel of [`arm_core::pairs`], as Zaki's
//! Eclat finds `F_2` horizontally). The root DFS then intersects only
//! the pairs that are frequent, and root class `i` is weighted by the
//! summed supports of its frequent pairs `(i, j)` — the tidset lengths
//! its children start from. The default `Guided` mode re-balances
//! mis-estimates at run time.

use crate::config::VerticalConfig;
use crate::driver::{
    build_root, convert_members, extend_one, n_words_for, root_pairs, try_transpose, ClassBuf,
};
use crate::tidset::KernelStats;
use arm_core::pairs::reduce_into_first;
use arm_core::{count_pairs, record_exec, ParallelConfig, ParallelRunStats};
use arm_dataset::{block_ranges, Database, Item};
use arm_exec::ChunkPool;
use arm_faults::{try_run_threads, MiningError, RunControl};
use arm_hashtree::WorkMeter;
use arm_metrics::{Counter, MetricsRegistry};
use std::ops::Range;
use std::time::Instant;

/// What every fallible driver in this crate produces: the canonical
/// itemset list plus run stats, or the error that ended the run.
pub type TryMineOutcome = Result<(Vec<(Vec<Item>, u32)>, ParallelRunStats), MiningError>;

/// Greedy contiguous split of class indices into `p` ranges of roughly
/// equal total weight — the pool's seed ranges. Exported for tests that
/// need to reproduce (or deliberately skew) the driver's split.
pub fn class_seeds(weights: &[u64], p: usize) -> Vec<Range<usize>> {
    let p = p.max(1);
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let target = (total as f64 / p as f64).max(1.0);
    let mut out = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let remaining = p - out.len();
        if remaining > 1 && acc as f64 >= target && n - (i + 1) >= remaining - 1 {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    out.push(start..n);
    while out.len() < p {
        out.push(n..n);
    }
    out
}

/// Parallel Eclat over `n_threads` workers. Returns the frequent
/// itemsets in canonical length-then-lex order (bit-identical to
/// [`arm_core::mine_eclat`]) and the run's phase/telemetry stats.
pub fn mine_eclat_parallel(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
    mine_parallel_impl(
        db,
        min_support,
        max_k,
        cfg,
        n_threads,
        None,
        &RunControl::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`mine_eclat_parallel`] under the horizontal miners' config: support
/// resolved against `db`, depth cap from `pcfg.base`, `pcfg.n_threads`
/// workers. It exists only because `perfbench/` still times a `hybrid`
/// row through it, and goes with the benchmark change that removes
/// perfbench's hybrid rows (ROADMAP items 1–2).
#[doc(hidden)]
pub fn mine_hybrid(
    db: &Database,
    pcfg: &ParallelConfig,
    vcfg: &VerticalConfig,
) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
    mine_eclat_parallel(
        db,
        pcfg.base.min_support.absolute(db.len()),
        pcfg.base.max_k,
        vcfg,
        pcfg.n_threads,
    )
}

/// [`mine_eclat_parallel`] under a [`RunControl`]: cancellation is
/// observed per transpose block, per pair-count chunk and per class-range
/// claim, worker panics return as [`MiningError::WorkerPanicked`], and
/// fault-plan sites fire in phases `transpose`, `count` and `mine`.
pub fn try_mine_eclat_parallel(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
    ctrl: &RunControl,
) -> TryMineOutcome {
    mine_parallel_impl(db, min_support, max_k, cfg, n_threads, None, ctrl)
}

/// [`mine_eclat_parallel`] with caller-provided seed ranges over the
/// root-class index space, replacing the weight-based split. The ranges
/// must tile `0..n_root_classes` (every first-level class exactly once);
/// the stress suite uses this to feed the pool adversarial splits.
pub fn mine_eclat_parallel_seeded(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
    seeds: &[Range<usize>],
) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
    mine_parallel_impl(
        db,
        min_support,
        max_k,
        cfg,
        n_threads,
        Some(seeds),
        &RunControl::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Folds one task-local [`KernelStats`] into thread `t`'s metrics shard.
fn fold_kernel_stats(metrics: &MetricsRegistry, t: usize, s: &KernelStats) {
    let shard = metrics.shard(t);
    shard.add(Counter::TidsetIntersections, s.intersections);
    shard.add(Counter::TidsetWordsAnded, s.words_anded);
    shard.add(Counter::TidsetBytes, s.tidset_bytes);
}

#[allow(clippy::too_many_arguments)]
fn mine_parallel_impl(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
    seeds: Option<&[Range<usize>]>,
    ctrl: &RunControl,
) -> TryMineOutcome {
    let run_start = Instant::now();
    let p = n_threads.max(1);
    let metrics = MetricsRegistry::new(p);
    let mut out: Vec<(Vec<Item>, u32)> = Vec::new();
    if max_k != Some(0) {
        let min_support = min_support.max(1);

        let span = metrics.phase("transpose", 1);
        let (tidlists, transpose_work) = try_transpose(db, p, ctrl)?;
        span.finish(transpose_work);
        ctrl.gate("transpose", run_start)?;

        // The root class and its backend choice are cheap and serial
        // (one pass over the frequent singletons).
        let span = metrics.phase("classes", 1);
        let mut root_stats = KernelStats::default();
        let mut root = build_root(tidlists, min_support, &mut root_stats);
        for m in &root {
            out.push((vec![m.item], m.tids.support()));
        }
        let run_deep = max_k != Some(1) && !root.is_empty();
        if run_deep {
            let total: u64 = root.iter().map(|m| m.tids.support() as u64).sum();
            let target = cfg.choose(total, root.len(), db.len());
            convert_members(&mut root, target, n_words_for(db.len()), &mut root_stats);
        }
        span.finish_serial();
        fold_kernel_stats(&metrics, 0, &root_stats);
        ctrl.gate("classes", run_start)?;

        if run_deep {
            // `None` only when the pair array is unaddressable; the root
            // then intersects every pair.
            let pairs = match root_pairs(&root, db.n_items()) {
                Some(index) => {
                    let span = metrics.phase("count", 2);
                    let ranges = block_ranges(db.len(), p);
                    let (arrays, meters) =
                        count_pairs(db, &index, &ranges, cfg.scheduling, ctrl, &metrics)?;
                    ctrl.gate("count", run_start)?;
                    let counts = reduce_into_first(arrays).expect("one array per thread");
                    span.finish(meters.iter().map(WorkMeter::work_units).collect());
                    Some((index, counts))
                }
                None => None,
            };
            let pair_row = |i: usize| pairs.as_ref().map(|(index, counts)| index.row(counts, i));
            // Class i's children start from the tidsets of its frequent
            // pairs, so it weighs their summed supports; without pair
            // counts it intersects every later member: Σ_{j ≥ i} support_j.
            let weights: Vec<u64> = (0..root.len())
                .map(|i| match pair_row(i) {
                    Some(row) => row
                        .iter()
                        .filter(|&&c| c >= min_support)
                        .map(|&c| c as u64)
                        .sum(),
                    None => root[i..].iter().map(|m| m.tids.support() as u64).sum(),
                })
                .collect();
            let owned_seeds;
            let seed_ranges: &[Range<usize>] = match seeds {
                Some(s) => s,
                None => {
                    owned_seeds = class_seeds(&weights, p);
                    &owned_seeds
                }
            };
            let mut covered = 0usize;
            for r in seed_ranges {
                assert!(r.end <= root.len(), "seed range {r:?} out of bounds");
                covered += r.len();
            }
            assert_eq!(
                covered,
                root.len(),
                "seed ranges must tile every first-level class exactly once"
            );
            // Floor 1: a class is already a coarse task, so chunks must
            // be allowed to shrink to single classes for the guided tail
            // to help on skewed weight distributions.
            let pool = ChunkPool::with_floor(seed_ranges, cfg.scheduling, 1)
                .with_cancel_token(ctrl.cancel.clone());
            let span = metrics.phase("mine", 1);
            let root_ref = &root;
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
                            let mut prefix = Vec::new();
                            extend_one(
                                root_ref,
                                ci,
                                pair_row(ci),
                                &mut prefix,
                                min_support,
                                max_k,
                                cfg,
                                db.len(),
                                &mut stats,
                                &mut class_out,
                            );
                            bufs.push((ci, class_out));
                        }
                    }
                    (stats, bufs)
                })?;
            record_exec(&metrics, &pool);
            span.finish(results.iter().map(|(s, _)| s.work_units).collect());
            for (t, (s, _)) in results.iter().enumerate() {
                fold_kernel_stats(&metrics, t, s);
            }
            ctrl.gate("mine", run_start)?;

            let span = metrics.phase("merge", 1);
            let mut by_class: Vec<ClassBuf> =
                results.into_iter().flat_map(|(_, bufs)| bufs).collect();
            by_class.sort_by_key(|(ci, _)| *ci);
            for (_, mut chunk) in by_class {
                out.append(&mut chunk);
            }
            // A stable sort by length alone is canonical: each class
            // buffer is a DFS preorder over a lexicographic prefix tree,
            // so its itemsets of any one length are already in lex order,
            // and the buffers follow F1 in ascending class index, which is
            // ascending first item.
            out.sort_by_key(|(s, _)| s.len());
            debug_assert!(
                out.windows(2)
                    .all(|w| (w[0].0.len(), &w[0].0) < (w[1].0.len(), &w[1].0)),
                "merged itemsets are not in strict length-then-lex order"
            );
            span.finish_serial();
        }
    }
    metrics
        .shard(0)
        .add(Counter::FaultsInjected, ctrl.faults.injected());
    let stats = ParallelRunStats {
        n_threads: p,
        phases: metrics.take_phases(),
        wall: run_start.elapsed(),
        count_meters: vec![WorkMeter::default(); p],
        metrics: metrics.snapshot(),
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TidBackend;
    use arm_core::mine_eclat;
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

    #[test]
    fn class_seeds_tile_and_balance() {
        let w = [10u64, 1, 1, 1, 1, 10, 1, 1];
        for p in 1..=8 {
            let seeds = class_seeds(&w, p);
            assert_eq!(seeds.len(), p);
            assert_eq!(seeds[0].start, 0);
            assert_eq!(seeds.last().unwrap().end, w.len());
            for pair in seeds.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
        // Balanced two-way split puts the two heavy classes apart.
        let two = class_seeds(&w, 2);
        assert!(two[0].contains(&0) && two[1].contains(&5));
        // More parts than classes: trailing empties.
        let many = class_seeds(&[5u64], 4);
        assert_eq!(many[0], 0..1);
        assert!(many[1..].iter().all(|r| r.is_empty()));
        assert_eq!(class_seeds(&[], 3), vec![0..0, 0..0, 0..0]);
    }

    #[test]
    fn parallel_matches_sequential_all_backends_and_modes() {
        let db = paper_db();
        for backend in [TidBackend::Auto, TidBackend::Sorted, TidBackend::Bitmap] {
            for mode in [Scheduling::Static, Scheduling::Guided] {
                let cfg = VerticalConfig::default()
                    .with_backend(backend)
                    .with_scheduling(mode);
                let want = mine_eclat(&db, 2, None);
                for p in [1, 2, 4, 8] {
                    let (got, stats) = mine_eclat_parallel(&db, 2, None, &cfg, p);
                    assert_eq!(got, want, "backend={backend:?} mode={mode:?} p={p}");
                    assert_eq!(stats.n_threads, p);
                    assert!(stats.phases.iter().any(|ph| ph.name == "mine"));
                }
            }
        }
    }

    #[test]
    fn matches_core_eclat_bit_identical() {
        let db = paper_db();
        for backend in [TidBackend::Auto, TidBackend::Sorted, TidBackend::Bitmap] {
            for galloping in [false, true] {
                let cfg = VerticalConfig {
                    backend,
                    galloping,
                    ..VerticalConfig::default()
                };
                for minsup in 1..=4 {
                    for max_k in [None, Some(0), Some(1), Some(2), Some(3), Some(10)] {
                        for p in [1, 2] {
                            assert_eq!(
                                mine_eclat_parallel(&db, minsup, max_k, &cfg, p).0,
                                mine_eclat(&db, minsup, max_k),
                                "backend={backend:?} gallop={galloping} minsup={minsup} \
                                 max_k={max_k:?} p={p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_k_edges() {
        let db = paper_db();
        let cfg = VerticalConfig::default();
        let (zero, _) = mine_eclat_parallel(&db, 1, Some(0), &cfg, 4);
        assert!(zero.is_empty());
        let (ones, _) = mine_eclat_parallel(&db, 2, Some(1), &cfg, 4);
        assert!(ones.iter().all(|(s, _)| s.len() == 1));
        assert_eq!(ones.len(), 4);
    }

    #[test]
    fn seeded_split_is_schedule_invariant() {
        let db = paper_db();
        let cfg = VerticalConfig::default();
        let want = mine_eclat(&db, 2, None);
        // Root classes: items 1, 2, 4, 5 → 4 classes. Adversarial tiles.
        for seeds in [
            vec![0..4, 4..4, 4..4, 4..4],
            vec![0..0, 0..1, 1..1, 1..4],
            vec![0..2, 2..3, 3..4],
        ] {
            let (got, _) = mine_eclat_parallel_seeded(&db, 2, None, &cfg, seeds.len(), &seeds);
            assert_eq!(got, want, "seeds={seeds:?}");
        }
    }

    #[test]
    #[should_panic(expected = "tile every first-level class")]
    fn seeded_split_must_cover() {
        let db = paper_db();
        let seeds = vec![0..2, 2..3]; // misses class 3
        mine_eclat_parallel_seeded(&db, 2, None, &VerticalConfig::default(), 2, &seeds);
    }

    #[test]
    fn telemetry_lands_in_snapshot() {
        let db = paper_db();
        let (_, stats) = mine_eclat_parallel(&db, 2, None, &VerticalConfig::default(), 2);
        if stats.metrics.enabled {
            assert!(stats.metrics.total(Counter::TidsetIntersections) > 0);
            assert!(stats.metrics.total(Counter::TidsetBytes) > 0);
        }
    }

    #[test]
    fn stats_reflect_backend() {
        let db = paper_db();
        let run = |backend| {
            let cfg = VerticalConfig::default().with_backend(backend);
            let (_, stats) = mine_eclat_parallel(&db, 2, None, &cfg, 1);
            let total = |c| stats.metrics.total(c);
            (
                total(Counter::TidsetIntersections),
                total(Counter::TidsetWordsAnded),
            )
        };
        let (sorted_isects, sorted_words) = run(TidBackend::Sorted);
        let (bitmap_isects, bitmap_words) = run(TidBackend::Bitmap);
        assert_eq!(sorted_words, 0, "no AND on the sorted backend");
        assert_eq!(bitmap_isects, sorted_isects);
        if MetricsRegistry::enabled() {
            assert!(sorted_isects > 0);
            assert!(bitmap_words > 0);
        }
    }

    #[test]
    fn empty_database() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        for p in [1, 2] {
            let (got, _) = mine_eclat_parallel(&db, 1, None, &VerticalConfig::default(), p);
            assert!(got.is_empty());
        }
    }
}
