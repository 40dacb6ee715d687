//! Bridge from a parallel mining run to the machine-readable
//! [`RunReport`] schema in [`arm_metrics`].
//!
//! [`run_report`] folds the three artifacts a driver hands back — the
//! [`MiningResult`], the [`ParallelRunStats`] (phases + work meters), and
//! the embedded [`arm_metrics::MetricsSnapshot`] — into one report that
//! serializes to the `arm-run-report/v3` JSON schema. The bench binaries
//! use this to emit comparable reports for every figure.

use arm_core::{MiningResult, ParallelRunStats};
use arm_metrics::{IterReport, RunReport, ThreadReport};

/// Builds a [`RunReport`] for one completed parallel run.
///
/// `algorithm` and `dataset` are free-form labels (e.g. `"ccpd"` and
/// `"T10.I4.D800K"`); everything else is read from the run artifacts.
/// Per-thread *work* fields come from the run's merged counting meters;
/// each thread's `counters` row comes from the metrics snapshot and is
/// all-zero when the `metrics` feature is off.
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
    use arm_core::{ccpd, AprioriConfig, ParallelConfig, Support};
    use arm_dataset::Database;
    use arm_metrics::{Counter, Json, MetricsRegistry};

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
        // the report's lock counters count, and the default array path,
        // which builds no tree.
        for pair_array in [false, true] {
            let base = AprioriConfig {
                min_support: Support::Absolute(2),
                leaf_threshold: 2,
                pair_array,
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
            for c in Counter::ALL {
                assert_eq!(report.total(c), stats.metrics.total(c), "{c:?}");
            }
            let tree = !pair_array && MetricsRegistry::enabled();
            // Every per-leaf lock acquisition of the shared-tree build
            // shows up in the thread rows; the array path takes none.
            assert_eq!(report.total(Counter::LeafLockAcquires) > 0, tree);
            assert_eq!(report.total(Counter::TreeBytes) > 0, tree);

            // The report survives a JSON round trip byte-identically.
            let json = report.to_json();
            let back = RunReport::from_json(&json).unwrap();
            assert_eq!(back, report);
        }
    }

    #[test]
    fn json_thread_counters_follow_counter_order() {
        let db =
            Database::from_transactions(4, [vec![0u32, 1], vec![0, 1, 2], vec![1, 2]]).unwrap();
        let base = AprioriConfig {
            min_support: Support::Absolute(2),
            ..AprioriConfig::default()
        };
        let (result, stats) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
        let value =
            arm_metrics::json::parse(&run_report("ccpd", "d", &result, &stats).to_json()).unwrap();
        let threads = value.get("threads").and_then(Json::as_arr).unwrap();
        assert_eq!(threads.len(), 2);
        for t in threads {
            let Some(Json::Obj(row)) = t.get("counters") else {
                panic!("thread without a counters object")
            };
            let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, Counter::ALL.map(Counter::name));
        }
    }
}
