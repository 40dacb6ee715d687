//! Scheduling differential: the dynamic `Guided` mode of the `arm-exec`
//! executor must produce frequent-itemset results **bit-identical** to
//! the `Static` oracle — the paper's fixed equal-block split — for every
//! thread count and dataset, including the Zipf-tailed skew the executor
//! exists to handle. (Exactly-once coverage under random chunk floors and
//! uneven seeds is a property test of `arm-exec` itself.)
//!
//! With the LGpp placement all CCPD support counting goes through the
//! tallied shared counters, so the telemetry invariant is exact too:
//! the *total* number of counter increments equals the oracle's (every
//! support unit is counted exactly once, no matter which thread's chunk
//! it lands in).
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

fn base_cfg() -> AprioriConfig {
    // LGpp: external counters, so CtrIncrements tallies every support unit.
    // Capped depth and a mid support keep the suite debug-build fast
    // while still crossing several candidate generations.
    AprioriConfig {
        min_support: Support::Fraction(0.02),
        max_k: Some(4),
        ..AprioriConfig::default()
    }
    .with_placement(PlacementPolicy::LGpp)
}

struct Oracle {
    itemsets: Vec<(Vec<parallel_arm::dataset::Item>, u32)>,
    ctr_increments: u64,
}

/// Static P=1 ground truth per fixture database.
fn oracles() -> &'static Vec<Oracle> {
    static ORACLES: OnceLock<Vec<Oracle>> = OnceLock::new();
    ORACLES.get_or_init(|| {
        dbs()
            .iter()
            .map(|db| {
                let cfg = ParallelConfig::new(base_cfg(), 1).with_scheduling(Scheduling::Static);
                let (r, stats) = ccpd::mine(db, &cfg);
                let itemsets = r.all_itemsets();
                assert!(!itemsets.is_empty(), "degenerate oracle fixture");
                Oracle {
                    itemsets,
                    ctr_increments: stats.metrics.total(Counter::CtrIncrements),
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
}

fn all_modes() -> [Scheduling; 2] {
    [Scheduling::Static, Scheduling::Guided]
}

#[test]
fn ccpd_every_mode_matches_static_oracle() {
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
                let (r, _) = pccd::mine(db, &cfg);
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
