//! Bridge from a parallel mining run to the machine-readable
//! [`RunReport`] schema in [`arm_metrics`].
//!
//! [`run_report`] folds the three artifacts a driver hands back — the
//! [`MiningResult`], the [`ParallelRunStats`] (phases + work meters), and
//! the embedded [`arm_metrics::MetricsSnapshot`] — into one report that
//! serializes to the `arm-run-report/v2` JSON schema. The bench binaries
//! use this to emit comparable reports for every figure.

use crate::stats::ParallelRunStats;
use arm_core::MiningResult;
use arm_metrics::{IterReport, RunReport, ThreadReport};

/// Builds a [`RunReport`] for one completed parallel run.
///
/// `algorithm` and `dataset` are free-form labels (e.g. `"ccpd"` and
/// `"T10.I4.D800K"`); everything else is read from the run artifacts.
/// Per-thread *work* fields come from the run's merged counting meters;
/// per-thread *telemetry* fields (locks, CAS retries) come from the
/// metrics snapshot and are all-zero when the `metrics` feature is off.
pub fn run_report(
    algorithm: &str,
    dataset: &str,
    result: &MiningResult,
    stats: &ParallelRunStats,
) -> RunReport {
    let mut report = RunReport::new(algorithm, dataset, stats.n_threads, result.min_support);
    report.wall_seconds = stats.wall.as_secs_f64();
    report.set_phases(&stats.phases);
    report.threads = stats
        .count_meters
        .iter()
        .enumerate()
        .map(|(id, m)| ThreadReport {
            id,
            work_units: m.work_units(),
            txns: m.txns,
            node_visits: m.node_visits,
            leaf_scans: m.leaf_scans,
            subset_checks: m.subset_checks,
            hits: m.hits,
            ..ThreadReport::default()
        })
        .collect();
    report.apply_snapshot(&stats.metrics);
    report.iters = result
        .iter_stats
        .iter()
        .map(|it| IterReport {
            k: it.k,
            n_candidates: it.n_candidates as u64,
            n_frequent: it.n_frequent as u64,
            tree_bytes: it.tree_bytes as u64,
            tree_nodes: it.tree_nodes as u64,
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccpd;
    use crate::config::ParallelConfig;
    use arm_core::{AprioriConfig, Support};
    use arm_dataset::Database;
    use arm_metrics::MetricsRegistry;

    #[test]
    fn report_captures_run_shape() {
        let db = Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap();
        // The hash-tree path, whose shared build takes the per-leaf locks
        // the report's lock telemetry counts.
        let base = AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            pair_array: false,
            ..AprioriConfig::default()
        };
        let (result, stats) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
        let report = run_report("ccpd", "paper-example", &result, &stats);

        assert_eq!(report.algorithm, "ccpd");
        assert_eq!(report.n_threads, 2);
        assert_eq!(report.min_support, 2);
        assert_eq!(report.metrics_enabled, MetricsRegistry::enabled());
        assert!(report.phases.iter().any(|p| p.name == "count"));
        assert!(report.phases.iter().any(|p| p.name == "f1"));
        assert_eq!(report.threads.len(), 2);
        assert!(report.threads.iter().any(|t| t.txns > 0));
        assert_eq!(report.iters.len(), result.iter_stats.len());
        assert!(report.wall_seconds > 0.0);
        if MetricsRegistry::enabled() {
            // The shared-tree build takes per-leaf locks; every acquisition
            // must show up in the per-thread telemetry.
            assert!(report.locks.leaf_acquires > 0);
            assert!(report.mem.tree_bytes > 0);
        } else {
            assert_eq!(report.locks.leaf_acquires, 0);
        }

        // The report survives a JSON round trip byte-identically.
        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
    }
}
