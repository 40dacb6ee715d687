//! Scheduling differential: the dynamic `Guided` mode of the `arm-exec`
//! executor must produce frequent-itemset results **bit-identical** to
//! the `Static` oracle — the paper's fixed equal-block split — for every
//! thread count and dataset, including the Zipf-tailed skew the executor
//! exists to handle. (Exactly-once coverage under random chunk floors and
//! uneven seeds is a property test of `arm-exec` itself.)
//!
//! On the hash-tree path (`pair_array: false`) with the LGpp placement
//! all CCPD support counting goes through the tallied shared counters, so
//! the telemetry invariant is exact too: the *total* number of counter
//! increments equals the oracle's (every support unit is counted exactly
//! once, no matter which thread's chunk it lands in). The default array
//! path tallies no counters; there every level's containment hits equal
//! its own Static oracle's, and so does the level at which it hands
//! counting to the tree when the class arrays' id lists go over budget
//! (the heavy-tailed fixture's long baskets do at `k = 4`).
//!
//! `ARM_STRESS_THREADS` raises the top thread count (CI sets 16).

use parallel_arm::metrics::Counter;
use parallel_arm::prelude::*;
use parallel_arm::quest::LengthDist;
use proptest::prelude::*;
use std::sync::OnceLock;

fn max_threads() -> usize {
    std::env::var("ARM_STRESS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(2)
}

/// Three Poisson-length databases plus one heavy-tailed one.
fn dbs() -> &'static Vec<Database> {
    static DBS: OnceLock<Vec<Database>> = OnceLock::new();
    DBS.get_or_init(|| {
        let mut out: Vec<Database> = [11u64, 29, 71]
            .iter()
            .map(|&seed| {
                let mut p = QuestParams::paper(10, 4, 400).with_seed(seed);
                p.n_patterns = 70;
                generate(&p)
            })
            .collect();
        let mut p = QuestParams::paper(10, 4, 400)
            .with_seed(5)
            .with_length_dist(LengthDist::ZipfTail {
                exponent: 1.6,
                max_factor: 8,
            });
        p.n_patterns = 70;
        out.push(generate(&p));
        out
    })
}

fn array_cfg() -> AprioriConfig {
    // Capped depth and a mid support keep the suite debug-build fast
    // while still crossing several candidate generations.
    AprioriConfig {
        min_support: Support::Fraction(0.02),
        max_k: Some(4),
        ..AprioriConfig::default()
    }
}

fn base_cfg() -> AprioriConfig {
    // The hash tree at every level, and LGpp: external counters, so
    // CtrIncrements tallies every support unit.
    AprioriConfig {
        pair_array: false,
        ..array_cfg()
    }
    .with_placement(PlacementPolicy::LGpp)
}

struct Oracle {
    itemsets: Vec<(Vec<parallel_arm::dataset::Item>, u32)>,
    ctr_increments: u64,
    /// `(k, meter.hits, built a tree)` of every level of the array path.
    array_levels: Vec<(u32, u64, bool)>,
}

fn levels(r: &MiningResult) -> Vec<(u32, u64, bool)> {
    r.iter_stats
        .iter()
        .map(|s| (s.k, s.meter.hits, s.tree_bytes > 0))
        .collect()
}

/// Static P=1 ground truth per fixture database.
fn oracles() -> &'static Vec<Oracle> {
    static ORACLES: OnceLock<Vec<Oracle>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        dbs()
            .iter()
            .map(|db| {
                let run = |base: AprioriConfig| {
                    ccpd::mine(
                        db,
                        &ParallelConfig::new(base, 1).with_scheduling(Scheduling::Static),
                    )
                };
                let (r, stats) = run(base_cfg());
                let itemsets = r.all_itemsets();
                assert!(!itemsets.is_empty(), "degenerate oracle fixture");
                if MetricsRegistry::enabled() {
                    assert!(stats.metrics.total(Counter::CtrIncrements) > 0);
                }
                let (arrays, _) = run(array_cfg());
                assert_eq!(arrays.all_itemsets(), itemsets, "array oracle");
                // The arrays count `k = 2` and `k = 3` at least.
                assert!(arrays.iter_stats.iter().any(|s| s.k >= 3));
                assert!(arrays
                    .iter_stats
                    .iter()
                    .all(|s| s.k > 3 || s.tree_bytes == 0));
                Oracle {
                    itemsets,
                    ctr_increments: stats.metrics.total(Counter::CtrIncrements),
                    array_levels: levels(&arrays),
                }
            })
            .collect()
    })
}

fn check_ccpd(db_idx: usize, p: usize, mode: Scheduling) {
    let db = &dbs()[db_idx];
    let oracle = &oracles()[db_idx];
    let cfg = ParallelConfig::new(base_cfg(), p).with_scheduling(mode);
    let (r, stats) = ccpd::mine(db, &cfg);
    assert_eq!(
        r.all_itemsets(),
        oracle.itemsets,
        "ccpd db={db_idx} P={p} {mode:?}"
    );
    if MetricsRegistry::enabled() {
        assert_eq!(
            stats.metrics.total(Counter::CtrIncrements),
            oracle.ctr_increments,
            "ccpd increment total db={db_idx} P={p} {mode:?}"
        );
    }
    let cfg = ParallelConfig::new(array_cfg(), p).with_scheduling(mode);
    let (r, _) = ccpd::mine(db, &cfg);
    let what = format!("ccpd arrays db={db_idx} P={p} {mode:?}");
    assert_eq!(r.all_itemsets(), oracle.itemsets, "{what}");
    assert_eq!(levels(&r), oracle.array_levels, "{what}");
}

fn all_modes() -> [Scheduling; 2] {
    [Scheduling::Static, Scheduling::Guided]
}

#[test]
fn ccpd_every_mode_matches_static_oracle() {
    // Some fixture's lists go over budget, so the array row also checks
    // that the switch to the tree happens at the same level every time.
    assert!(oracles()
        .iter()
        .any(|o| o.array_levels.iter().any(|&(_, _, tree)| tree)));
    let top = max_threads();
    for db_idx in 0..dbs().len() {
        for p in [2, top] {
            for mode in all_modes() {
                check_ccpd(db_idx, p, mode);
            }
        }
    }
}

#[test]
fn pccd_every_mode_matches_static_oracle() {
    // PCCD always runs the paper's static split whatever the configured
    // mode, so this pins that no mode can change its result.
    let top = max_threads();
    for db_idx in [0usize, 3] {
        let db = &dbs()[db_idx];
        let oracle = &oracles()[db_idx];
        for p in [2, top.min(5)] {
            for mode in all_modes() {
                let cfg = ParallelConfig::new(base_cfg(), p).with_scheduling(mode);
                let (r, _) = pccd::try_mine(db, &cfg, &RunControl::default()).unwrap();
                assert_eq!(
                    r.all_itemsets(),
                    oracle.itemsets,
                    "pccd db={db_idx} P={p} {mode:?}"
                );
            }
        }
    }
}

proptest! {
    // 12 cases: the suite's only randomized end-to-end schedule check.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (dataset, thread count) pairs under the adaptive mode.
    #[test]
    fn random_threads_adaptive_modes_match_oracle(
        db_idx in 0usize..4,
        p in 1usize..=8,
    ) {
        let p = p.min(max_threads());
        check_ccpd(db_idx, p, Scheduling::Guided);
    }
}
