//! Parallel Eclat: first-level prefix equivalence classes scheduled as
//! weighted tasks on the `arm-exec` chunk pool.
//!
//! A task is one root-class member's entire DFS subtree
//! (`extend_one` in [`crate::driver`]), so tasks touch disjoint outputs and
//! need no locks. Each class writes its itemsets into one flat buffer per
//! length; the merge concatenates them length by length, in class order,
//! into a [`MiningResult`] equal to CCPD's ([`arm_core::ccpd::try_mine`])
//! and to the sequential oracle [`arm_core::mine_eclat`] under *any*
//! schedule: itemset order never depends on which thread ran which class.
//!
//! Before the classes are mined, a `count` phase counts every pair of
//! frequent items into per-thread triangular arrays over the
//! transactions (the `C_2` kernel of [`arm_core::pairs`], as Zaki's
//! Eclat finds `F_2` horizontally), and reads each item's frequent
//! partners off them ([`arm_core::FrequentPairs`]). The root DFS then
//! intersects only those pairs, below the root a join whose 2-subset is
//! infrequent is skipped, and root class `i` is weighted by the summed
//! supports of its frequent pairs `(i, j)` — the tidset lengths its
//! children start from. The default `Guided` mode re-balances
//! mis-estimates at run time.

use crate::config::VerticalConfig;
use crate::driver::{build_root, root_pairs, try_transpose, ClassLevels, Dfs, RootPairs};
use crate::tidset::{Backend, KernelStats, TidMarks};
use arm_core::pairs::reduce_into_first;
use arm_core::{
    count_pairs, frequent_from_counts, record_exec, FrequentLevel, MiningResult, ParallelConfig,
    ParallelRunStats,
};
use arm_dataset::{block_ranges, Database, Item};
use arm_exec::ChunkPool;
use arm_faults::{try_run_threads, MiningError, RunControl};
use arm_hashtree::{CandidateSet, WorkMeter};
use arm_metrics::{Counter, MetricsRegistry};
use std::ops::Range;
use std::time::Instant;

/// Greedy contiguous split of class indices into `p` ranges of roughly
/// equal total weight — the pool's seed ranges. Exported for tests that
/// need to reproduce (or deliberately skew) the driver's split.
pub use arm_dataset::partition::split_by_weights as class_seeds;

/// [`try_mine_eclat_parallel`] with an inert [`RunControl`], flattened
/// to `(items, support)` in length-then-lex order; a worker panic is
/// re-raised on the caller. It stays only because `perfbench/` times it.
pub fn mine_eclat_parallel(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
    try_mine_eclat_parallel(
        db,
        min_support,
        max_k,
        cfg,
        n_threads,
        &RunControl::default(),
    )
    .map(|(r, s)| (r.all_itemsets(), s))
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`mine_eclat_parallel`] under the horizontal miners' config: support
/// resolved against `db`, depth cap from `pcfg.base`, `pcfg.n_threads`
/// workers. It stays only because `perfbench/` times a `hybrid` row
/// through it.
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

/// Parallel Eclat over `n_threads` workers: a [`MiningResult`] whose
/// levels equal CCPD's (no `iter_stats`), and the run's stats. Under the
/// [`RunControl`], cancellation is observed per transpose block, per
/// pair-count chunk and per class-range claim, worker panics return as
/// [`MiningError::WorkerPanicked`], and fault-plan sites fire in phases
/// `transpose`, `count` and `mine`.
pub fn try_mine_eclat_parallel(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
    ctrl: &RunControl,
) -> Result<(MiningResult, ParallelRunStats), MiningError> {
    mine_parallel_impl(db, min_support, max_k, cfg, n_threads, None, ctrl)
}

/// [`try_mine_eclat_parallel`], uncontrolled, with caller-provided seed
/// ranges over the root-class index space instead of the weight-based
/// split. The ranges must tile `0..n_root_classes` (every first-level
/// class exactly once); the stress suite feeds adversarial splits here.
pub fn mine_eclat_parallel_seeded(
    db: &Database,
    min_support: u32,
    max_k: Option<u32>,
    cfg: &VerticalConfig,
    n_threads: usize,
    seeds: &[Range<usize>],
) -> (MiningResult, ParallelRunStats) {
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

/// The levels `F_2, F_3, …`: the class buffers concatenated length by
/// length in class order. Each buffer is a DFS preorder over a lex prefix
/// tree and class `i`'s itemsets start with root item `i`, so each level
/// is in lex order; a class that emits length `k` emits every shorter one.
fn merge_levels(by_class: &[ClassLevels]) -> impl Iterator<Item = FrequentLevel> + '_ {
    let n_lengths = by_class.iter().map(Vec::len).max().unwrap_or(0);
    (0..n_lengths).map(move |i| {
        let parts = || by_class.iter().filter_map(move |levels| levels.get(i));
        let n = parts().map(|(_, supports)| supports.len()).sum();
        let mut sets = CandidateSet::with_capacity(i as u32 + 2, n);
        let mut supports = Vec::with_capacity(n);
        for (s, c) in parts() {
            sets.extend_from(s);
            supports.extend_from_slice(c);
        }
        FrequentLevel::new(sets, supports)
    })
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
) -> Result<(MiningResult, ParallelRunStats), MiningError> {
    let run_start = Instant::now();
    let p = n_threads.max(1);
    let min_support = min_support.max(1);
    let metrics = MetricsRegistry::new(p);
    let mut levels = Vec::new();
    if max_k != Some(0) {
        let span = metrics.phase("transpose", 1);
        let (tidlists, transpose_work) = try_transpose(db, p, ctrl)?;
        span.finish(transpose_work);
        ctrl.gate("transpose", run_start)?;

        // The root class and the run's one backend choice are cheap and
        // serial (one pass over the frequent singletons); every class
        // below the root keeps the root's layout.
        let span = metrics.phase("classes", 1);
        let mut root_stats = KernelStats::default();
        let counts: Vec<u32> = tidlists.iter().map(|tids| tids.len() as u32).collect();
        levels.push(frequent_from_counts(&counts, min_support));
        let mut root = build_root(tidlists, min_support, &mut root_stats);
        let run_deep = max_k != Some(1) && !root.is_empty();
        let total: u64 = root.iter().map(|m| m.tids.support() as u64).sum();
        if run_deep && cfg.choose(total, root.len(), db.len()) == Backend::Bitmap {
            for m in &mut root {
                m.tids = m.tids.to_bitmap(db.len().div_ceil(64));
                root_stats.tidset_bytes += m.tids.bytes();
            }
        }
        span.finish_serial();
        fold_kernel_stats(&metrics, 0, &root_stats);
        ctrl.gate("classes", run_start)?;

        if run_deep {
            // `None` only when the pair array is unaddressable; the root
            // then intersects every pair.
            let counted = match root_pairs(&root, db.n_items()) {
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
            let pairs = counted
                .as_ref()
                .map(|(index, counts)| RootPairs::new(index, counts, min_support));
            // Class i's children start from the tidsets of its frequent
            // pairs, so it weighs their summed supports; without pair
            // counts it intersects every later member: Σ_{j ≥ i} support_j.
            let weights: Vec<u64> = (0..root.len())
                .map(|i| match &pairs {
                    Some(pairs) => pairs.weight(i),
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
            let dfs = Dfs {
                pairs: pairs.as_ref(),
                min_support,
                max_k,
            };
            let root_ref = &root;
            let results: Vec<(KernelStats, Vec<(usize, ClassLevels)>)> =
                try_run_threads(p, "mine", &ctrl.cancel, |t| {
                    let mut stats = KernelStats::default();
                    let mut marks = TidMarks::new(db.len());
                    let mut bufs = Vec::new();
                    let mut scratch = ClassLevels::new();
                    let mut claim = 0u64;
                    while let Some(range) = pool.next(t) {
                        ctrl.faults.fire("mine", t, claim);
                        claim += 1;
                        for ci in range {
                            dfs.extend_one(
                                root_ref,
                                ci,
                                &mut Vec::new(),
                                &mut marks,
                                &mut stats,
                                &mut scratch,
                            );
                            // Exactly sized copies: the scratch keeps its
                            // buffers, grown once per worker, not per class.
                            let levels = scratch.iter_mut().take_while(|(_, c)| !c.is_empty());
                            let levels = levels.map(|(s, c)| (s.take(), c.split_off(0))).collect();
                            bufs.push((ci, levels));
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
            let mut by_class: Vec<ClassLevels> = vec![Vec::new(); root.len()];
            for (ci, buf) in results.into_iter().flat_map(|(_, bufs)| bufs) {
                by_class[ci] = buf;
            }
            levels.extend(merge_levels(&by_class));
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
    let result = MiningResult {
        levels,
        iter_stats: Vec::new(),
        min_support,
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TidBackend;
    use arm_core::mine_eclat;
    use arm_exec::Scheduling;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// [`try_mine_eclat_parallel`] with an inert control, flattened.
    fn eclat(
        db: &Database,
        minsup: u32,
        max_k: Option<u32>,
        cfg: &VerticalConfig,
        p: usize,
    ) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
        let (r, stats) =
            try_mine_eclat_parallel(db, minsup, max_k, cfg, p, &RunControl::default()).unwrap();
        (r.all_itemsets(), stats)
    }

    /// [`mine_eclat_parallel_seeded`], flattened.
    fn seeded(
        db: &Database,
        minsup: u32,
        cfg: &VerticalConfig,
        p: usize,
        seeds: &[Range<usize>],
    ) -> (Vec<(Vec<Item>, u32)>, ParallelRunStats) {
        let (r, stats) = mine_eclat_parallel_seeded(db, minsup, None, cfg, p, seeds);
        (r.all_itemsets(), stats)
    }

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
                    let (got, stats) = eclat(&db, 2, None, &cfg, p);
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
            let cfg = VerticalConfig {
                backend,
                ..VerticalConfig::default()
            };
            for minsup in 1..=4 {
                for max_k in [None, Some(0), Some(1), Some(2), Some(3), Some(10)] {
                    for p in [1, 2] {
                        assert_eq!(
                            eclat(&db, minsup, max_k, &cfg, p).0,
                            mine_eclat(&db, minsup, max_k),
                            "backend={backend:?} minsup={minsup} max_k={max_k:?} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn max_k_edges() {
        let db = paper_db();
        let cfg = VerticalConfig::default();
        let (zero, _) = eclat(&db, 1, Some(0), &cfg, 4);
        assert!(zero.is_empty());
        let (ones, _) = eclat(&db, 2, Some(1), &cfg, 4);
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
            let (got, _) = seeded(&db, 2, &cfg, seeds.len(), &seeds);
            assert_eq!(got, want, "seeds={seeds:?}");
        }
    }

    /// A random database over `n_items` items where each transaction
    /// holds each item with probability `density` percent.
    fn dense_db(n_items: u32, n_txns: usize, density: u32, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let txns: Vec<Vec<u32>> = (0..n_txns)
            .map(|_| {
                (0..n_items)
                    .filter(|_| rng.gen_range(0..100u32) < density)
                    .collect()
            })
            .collect();
        Database::from_transactions(n_items, txns).unwrap()
    }

    /// `p` contiguous ranges tiling `0..n`, cut at random points, so any
    /// of them may be empty or hold everything.
    fn random_tiles(n: usize, p: usize, rng: &mut StdRng) -> Vec<Range<usize>> {
        let mut cuts: Vec<usize> = (1..p).map(|_| rng.gen_range(0..n + 1)).collect();
        cuts.sort_unstable();
        let mut start = 0;
        let mut tiles = Vec::with_capacity(p);
        for end in cuts.into_iter().chain([n]) {
            tiles.push(start..end);
            start = end;
        }
        tiles
    }

    #[test]
    fn dense_fixture_reaches_deep_diffsets_and_trips_budgets() {
        let db = dense_db(10, 40, 75, 7);
        let minsup = 12;
        let want = mine_eclat(&db, minsup, None);
        assert!(
            want.iter().any(|(s, _)| s.len() >= 5),
            "no itemset of size 5"
        );
        // Some join below the root is infrequent, so its budget trips:
        // two frequent 3-itemsets sharing a 2-prefix whose union is not.
        let supports: std::collections::HashMap<&[u32], u32> =
            want.iter().map(|(s, c)| (s.as_slice(), *c)).collect();
        let threes: Vec<&[u32]> = supports.keys().copied().filter(|s| s.len() == 3).collect();
        assert!(threes.iter().any(|x| threes.iter().any(|y| {
            x[..2] == y[..2] && x[2] < y[2] && !supports.contains_key(&[x[0], x[1], x[2], y[2]][..])
        })));
        let cfg = VerticalConfig::default().with_backend(TidBackend::Sorted);
        assert_eq!(eclat(&db, minsup, None, &cfg, 1).0, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Dense random databases, deep enough for diffsets of diffsets,
        /// at supports where many joins run out of budget: every backend,
        /// thread count and adversarial class tiling matches the oracle.
        #[test]
        fn driver_matches_oracle_on_dense_random_databases(
            n_items in 4u32..11,
            n_txns in 8usize..48,
            density in 45u32..90,
            minsup_pct in 10u32..60,
            seed in 0u64..u64::MAX,
        ) {
            let db = dense_db(n_items, n_txns, density, seed);
            let minsup = (n_txns as u32 * minsup_pct / 100).max(1);
            let want = mine_eclat(&db, minsup, None);
            let n_classes = want.iter().take_while(|(s, _)| s.len() == 1).count();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7115);
            for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
                let cfg = VerticalConfig::default().with_backend(backend);
                for p in 1..=3 {
                    let (got, _) = eclat(&db, minsup, None, &cfg, p);
                    prop_assert_eq!(&got, &want, "backend={:?} p={}", backend, p);
                    let tiles = random_tiles(n_classes, p, &mut rng);
                    let (got, _) = seeded(&db, minsup, &cfg, p, &tiles);
                    prop_assert_eq!(&got, &want, "backend={:?} tiles={:?}", backend, tiles);
                }
            }
        }
    }

    /// Joins below the root, counted by brute force over the oracle's
    /// itemsets: every class `Q` (a frequent itemset) joins each pair of
    /// its members `Q ∪ {x}`, `Q ∪ {y}`, and the 2-subset prune skips
    /// the pairs with `{x, y}` infrequent. Returns (all, skipped).
    fn class_joins(want: &[(Vec<Item>, u32)]) -> (u64, u64) {
        let frequent: std::collections::HashSet<&[Item]> =
            want.iter().map(|(s, _)| s.as_slice()).collect();
        let (mut all, mut skipped) = (0, 0);
        for (q, _) in want {
            let ext: Vec<Item> = want
                .iter()
                .filter(|(s, _)| s.len() == q.len() + 1 && s.starts_with(q))
                .map(|(s, _)| s[q.len()])
                .collect();
            for (i, &x) in ext.iter().enumerate() {
                for &y in &ext[i + 1..] {
                    all += 1;
                    skipped += u64::from(!frequent.contains(&[x, y][..]));
                }
            }
        }
        (all, skipped)
    }

    #[test]
    fn infrequent_two_subsets_prune_class_joins() {
        // Items 1 and 2 each pair often with 0 but rarely with each
        // other: the class of {0} joins {0, 1} and {0, 2} only if the
        // prune misses that {1, 2} is infrequent.
        let mut txns = vec![vec![0u32, 1], vec![0, 2], vec![1, 2], vec![0, 1, 3]];
        txns.extend([vec![0, 1], vec![0, 2], vec![0, 2, 3], vec![0, 3]]);
        let fixed = Database::from_transactions(4, txns).unwrap();
        let dbs = [
            (fixed, 2),
            (dense_db(9, 40, 55, 3), 10),
            (dense_db(10, 30, 70, 11), 12),
        ];
        let mut rng = StdRng::seed_from_u64(0x9a1);
        for (db, minsup) in &dbs {
            let want = mine_eclat(db, *minsup, None);
            let (all, skipped) = class_joins(&want);
            assert!(skipped > 0, "no join for the prune to skip");
            let n_f2 = want.iter().filter(|(s, _)| s.len() == 2).count() as u64;
            let n_classes = want.iter().take_while(|(s, _)| s.len() == 1).count();
            for backend in [TidBackend::Sorted, TidBackend::Bitmap, TidBackend::Auto] {
                let cfg = VerticalConfig::default().with_backend(backend);
                for p in 1..=3 {
                    let tiles = random_tiles(n_classes, p, &mut rng);
                    let runs = [
                        eclat(db, *minsup, None, &cfg, p),
                        seeded(db, *minsup, &cfg, p, &tiles),
                    ];
                    for (got, stats) in runs {
                        assert_eq!(got, want, "backend={backend:?} p={p} tiles={tiles:?}");
                        if MetricsRegistry::enabled() {
                            // The root intersects every frequent pair once.
                            assert_eq!(
                                stats.metrics.total(Counter::TidsetIntersections),
                                n_f2 + all - skipped,
                                "backend={backend:?} p={p}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile every first-level class")]
    fn seeded_split_must_cover() {
        let db = paper_db();
        let seeds = vec![0..2, 2..3]; // misses class 3
        seeded(&db, 2, &VerticalConfig::default(), 2, &seeds);
    }

    #[test]
    fn telemetry_lands_in_snapshot() {
        let db = paper_db();
        let (_, stats) = eclat(&db, 2, None, &VerticalConfig::default(), 2);
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
            let (_, stats) = eclat(&db, 2, None, &cfg, 1);
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
    fn auto_runs_the_backend_its_root_names() {
        // The paper's four transactions are dense (root density 11/16).
        // So is the 20% fixture's root, but its 3-itemset classes are
        // sparser than 1/64, where a per-class rule would switch to lists.
        // T10.I4 over 1000 items is sparse (about 1/100).
        let quest = arm_quest::generate(&arm_quest::QuestParams::paper(10, 4, 2_000));
        for (db, minsup, named) in [
            (paper_db(), 2, Backend::Bitmap),
            (dense_db(30, 600, 20, 5), 3, Backend::Bitmap),
            (quest, 10, Backend::Sorted),
        ] {
            let auto = VerticalConfig::default();
            let (itemsets, _) = eclat(&db, minsup, None, &auto, 1);
            let singletons = itemsets.iter().filter(|(s, _)| s.len() == 1);
            let total = singletons.clone().map(|(_, c)| *c as u64).sum();
            assert_eq!(auto.choose(total, singletons.count(), db.len()), named);
            assert!(
                itemsets.iter().any(|(s, _)| s.len() >= 3),
                "no class below the root"
            );
            let forced = auto.clone().with_backend(match named {
                Backend::Sorted => TidBackend::Sorted,
                Backend::Bitmap => TidBackend::Bitmap,
            });
            for p in [1, 2] {
                let (a, a_stats) = eclat(&db, minsup, None, &auto, p);
                let (f, f_stats) = eclat(&db, minsup, None, &forced, p);
                assert_eq!(a, f, "named={named:?} p={p}");
                for c in [
                    Counter::TidsetIntersections,
                    Counter::TidsetWordsAnded,
                    Counter::TidsetBytes,
                ] {
                    let (a, f) = (a_stats.metrics.total(c), f_stats.metrics.total(c));
                    assert_eq!(a, f, "named={named:?} p={p} counter={c:?}");
                }
            }
        }
    }

    #[test]
    fn empty_database() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        for p in [1, 2] {
            let (got, _) = eclat(&db, 1, None, &VerticalConfig::default(), p);
            assert!(got.is_empty());
        }
    }
}
