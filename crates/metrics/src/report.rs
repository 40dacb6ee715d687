//! `RunReport` — the one machine-readable schema every benchmark binary
//! emits (JSON), covering phase timers, per-thread work and the
//! registry's counters.
//!
//! The schema maps onto the paper's evaluation (see DESIGN.md §6):
//! `phases` carries the per-phase timing breakdowns behind Figs. 8–10,
//! `threads`/`phases[].imbalance` the per-processor work distributions,
//! each thread's `counters` row the §3.1.4 contention discussion, and
//! `iters` the hash-tree profile of Figs. 6–7. A counter appears under
//! one name only, its [`Counter::name`]; run totals are
//! [`RunReport::total`], summed from the rows.
//!
//! ```no_run
//! use arm_metrics::{reports_from_json, Counter};
//!
//! let text = std::fs::read_to_string("EXPERIMENTS-data/fig8.report.json")?;
//! for report in reports_from_json(&text).map_err(std::io::Error::other)? {
//!     println!(
//!         "{} on {} (P={}): {:.3}s wall",
//!         report.algorithm, report.dataset, report.n_threads, report.wall_seconds,
//!     );
//!     for ph in &report.phases {
//!         println!("  {} k={}: {:.4}s imbalance {:.2}", ph.name, ph.k, ph.wall_seconds, ph.imbalance);
//!     }
//!     println!(
//!         "  lock contention: {}/{} acquires contended, {}ns waited",
//!         report.total(Counter::LeafLockContended),
//!         report.total(Counter::LeafLockAcquires),
//!         report.total(Counter::LeafLockWaitNs),
//!     );
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::json::{parse, Json};
use crate::registry::{Counter, MetricsSnapshot, PhaseRecord, N_COUNTERS};

/// Schema tag written into every report file.
pub const SCHEMA: &str = "arm-run-report/v3";

/// One phase entry of a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Phase label (`"f1"`, `"candgen"`, `"build"`, `"freeze"`, `"count"`,
    /// `"extract"`, ...).
    pub name: String,
    /// Iteration `k` (0 for run-global phases).
    pub k: u32,
    /// Wall time in seconds.
    pub wall_seconds: f64,
    /// Per-thread work units; empty for serial phases.
    pub thread_work: Vec<u64>,
    /// `max/mean` of `thread_work` (1.0 = balanced or serial).
    pub imbalance: f64,
}

/// Per-thread section: counting work plus this thread's counter row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadReport {
    /// Worker index.
    pub id: usize,
    /// Counting work units (`WorkMeter::work_units`), all iterations.
    pub work_units: u64,
    /// Transactions scanned.
    pub txns: u64,
    /// Hash-tree nodes visited.
    pub node_visits: u64,
    /// Leaves scanned.
    pub leaf_scans: u64,
    /// Candidate subset checks.
    pub subset_checks: u64,
    /// Successful candidate hits.
    pub hits: u64,
    /// This thread's registry counters, indexed by `Counter as usize`.
    pub counters: [u64; N_COUNTERS],
}

/// One per-iteration entry (mirrors `IterStats`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterReport {
    /// Iteration `k`.
    pub k: u32,
    /// `|C_k|`.
    pub n_candidates: u64,
    /// `|F_k|`.
    pub n_frequent: u64,
    /// Bytes of the frozen hash tree.
    pub tree_bytes: u64,
    /// Reachable tree nodes.
    pub tree_nodes: u64,
}

/// The full machine-readable record of one mining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Algorithm label (`"ccpd"`, `"pccd"`, `"sequential"`).
    pub algorithm: String,
    /// Dataset label, e.g. `"T10.I4.D100K"`.
    pub dataset: String,
    /// Worker thread count.
    pub n_threads: usize,
    /// Resolved absolute minimum support.
    pub min_support: u32,
    /// Whether the producing build had per-event telemetry compiled in.
    pub metrics_enabled: bool,
    /// End-to-end wall time in seconds.
    pub wall_seconds: f64,
    /// Phases in execution order.
    pub phases: Vec<PhaseReport>,
    /// Per-thread work and counters.
    pub threads: Vec<ThreadReport>,
    /// Per-iteration tree/candidate profile.
    pub iters: Vec<IterReport>,
}

impl RunReport {
    /// An empty report carrying only identity fields.
    pub fn new(algorithm: &str, dataset: &str, n_threads: usize, min_support: u32) -> Self {
        RunReport {
            algorithm: algorithm.to_string(),
            dataset: dataset.to_string(),
            n_threads,
            min_support,
            metrics_enabled: false,
            ..RunReport::default()
        }
    }

    /// Fills `phases` from recorded [`PhaseRecord`]s.
    pub fn set_phases(&mut self, records: &[PhaseRecord]) {
        self.phases = records
            .iter()
            .map(|r| PhaseReport {
                name: r.name.to_string(),
                k: r.k,
                wall_seconds: r.wall.as_secs_f64(),
                thread_work: r.thread_work.clone().unwrap_or_default(),
                imbalance: r.imbalance(),
            })
            .collect();
    }

    /// Merges a registry snapshot: sets `metrics_enabled` and copies each
    /// thread's counter row (growing `threads` if needed; a row the
    /// snapshot lacks reads zero). Work fields are left untouched.
    pub fn apply_snapshot(&mut self, snap: &MetricsSnapshot) {
        self.metrics_enabled = snap.enabled;
        while self.threads.len() < snap.per_thread.len() {
            self.threads.push(ThreadReport {
                id: self.threads.len(),
                ..ThreadReport::default()
            });
        }
        for (t, row) in self.threads.iter_mut().enumerate() {
            row.counters = snap.per_thread.get(t).copied().unwrap_or_default();
        }
    }

    /// Counter `c` summed over the thread rows.
    pub fn total(&self, c: Counter) -> u64 {
        self.threads.iter().map(|t| t.counters[c as usize]).sum()
    }

    /// The report as a [`Json`] value.
    pub fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("algorithm".into(), Json::Str(self.algorithm.clone())),
            ("dataset".into(), Json::Str(self.dataset.clone())),
            ("n_threads".into(), int(self.n_threads as u64)),
            ("min_support".into(), int(self.min_support as u64)),
            ("metrics_enabled".into(), Json::Bool(self.metrics_enabled)),
            ("wall_seconds".into(), Json::Float(self.wall_seconds)),
            (
                "phases".into(),
                Json::Arr(self.phases.iter().map(phase_value).collect()),
            ),
            (
                "threads".into(),
                Json::Arr(self.threads.iter().map(thread_value).collect()),
            ),
            (
                "iters".into(),
                Json::Arr(self.iters.iter().map(iter_value).collect()),
            ),
        ])
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Reconstructs a report from a [`Json`] value.
    pub fn from_value(v: &Json) -> Result<RunReport, String> {
        let mut r = RunReport {
            algorithm: str_field(v, "algorithm")?,
            dataset: str_field(v, "dataset")?,
            n_threads: u64_field(v, "n_threads")? as usize,
            min_support: u64_field(v, "min_support")? as u32,
            metrics_enabled: v
                .get("metrics_enabled")
                .and_then(Json::as_bool)
                .ok_or("missing metrics_enabled")?,
            wall_seconds: f64_field(v, "wall_seconds")?,
            ..RunReport::default()
        };
        for p in arr_field(v, "phases")? {
            r.phases.push(PhaseReport {
                name: str_field(p, "name")?,
                k: u64_field(p, "k")? as u32,
                wall_seconds: f64_field(p, "wall_seconds")?,
                thread_work: u64_arr_field(p, "thread_work")?,
                imbalance: f64_field(p, "imbalance")?,
            });
        }
        for t in arr_field(v, "threads")? {
            let row = t.get("counters").ok_or("missing counters")?;
            let mut counters = [0; N_COUNTERS];
            for c in Counter::ALL {
                counters[c as usize] = u64_field(row, c.name())?;
            }
            r.threads.push(ThreadReport {
                id: u64_field(t, "id")? as usize,
                work_units: u64_field(t, "work_units")?,
                txns: u64_field(t, "txns")?,
                node_visits: u64_field(t, "node_visits")?,
                leaf_scans: u64_field(t, "leaf_scans")?,
                subset_checks: u64_field(t, "subset_checks")?,
                hits: u64_field(t, "hits")?,
                counters,
            });
        }
        for it in arr_field(v, "iters")? {
            r.iters.push(IterReport {
                k: u64_field(it, "k")? as u32,
                n_candidates: u64_field(it, "n_candidates")?,
                n_frequent: u64_field(it, "n_frequent")?,
                tree_bytes: u64_field(it, "tree_bytes")?,
                tree_nodes: u64_field(it, "tree_nodes")?,
            });
        }
        Ok(r)
    }

    /// Parses a single-report JSON document.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        RunReport::from_value(&parse(text)?)
    }
}

/// Serializes a report collection as `{"schema": ..., "reports": [...]}`.
pub fn reports_to_json(reports: &[RunReport]) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        (
            "reports".into(),
            Json::Arr(reports.iter().map(RunReport::to_value).collect()),
        ),
    ])
    .pretty()
}

/// Parses a report collection: the wrapped `{"schema", "reports"}` form,
/// a bare array, or a single report object.
pub fn reports_from_json(text: &str) -> Result<Vec<RunReport>, String> {
    let v = parse(text)?;
    let items: Vec<&Json> = if let Some(reports) = v.get("reports") {
        reports
            .as_arr()
            .ok_or("reports must be an array")?
            .iter()
            .collect()
    } else if let Some(arr) = v.as_arr() {
        arr.iter().collect()
    } else {
        vec![&v]
    };
    items.into_iter().map(RunReport::from_value).collect()
}

fn int(v: u64) -> Json {
    // Counters fit comfortably in i64; saturate rather than wrap if a
    // pathological value ever appears.
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn phase_value(p: &PhaseReport) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(p.name.clone())),
        ("k".into(), int(p.k as u64)),
        ("wall_seconds".into(), Json::Float(p.wall_seconds)),
        (
            "thread_work".into(),
            Json::Arr(p.thread_work.iter().map(|&w| int(w)).collect()),
        ),
        ("imbalance".into(), Json::Float(p.imbalance)),
    ])
}

fn thread_value(t: &ThreadReport) -> Json {
    let counters = Counter::ALL
        .iter()
        .map(|&c| (c.name().into(), int(t.counters[c as usize])));
    Json::Obj(vec![
        ("id".into(), int(t.id as u64)),
        ("work_units".into(), int(t.work_units)),
        ("txns".into(), int(t.txns)),
        ("node_visits".into(), int(t.node_visits)),
        ("leaf_scans".into(), int(t.leaf_scans)),
        ("subset_checks".into(), int(t.subset_checks)),
        ("hits".into(), int(t.hits)),
        ("counters".into(), Json::Obj(counters.collect())),
    ])
}

fn iter_value(it: &IterReport) -> Json {
    Json::Obj(vec![
        ("k".into(), int(it.k as u64)),
        ("n_candidates".into(), int(it.n_candidates)),
        ("n_frequent".into(), int(it.n_frequent)),
        ("tree_bytes".into(), int(it.tree_bytes)),
        ("tree_nodes".into(), int(it.tree_nodes)),
    ])
}

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key}"))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field {key}"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {key}"))
}

fn u64_arr_field(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    arr_field(v, key)?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer in {key}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunReport {
        let mut r = RunReport::new("ccpd", "T10.I4.D100K", 2, 50);
        r.wall_seconds = 1.25;
        r.set_phases(&[
            PhaseRecord {
                name: "count",
                k: 2,
                wall: Duration::from_millis(100),
                thread_work: Some(vec![90, 10]),
            },
            PhaseRecord {
                name: "freeze",
                k: 2,
                wall: Duration::from_millis(5),
                thread_work: None,
            },
        ]);
        r.threads = vec![
            ThreadReport {
                id: 0,
                work_units: 90,
                txns: 40,
                hits: 7,
                ..ThreadReport::default()
            },
            ThreadReport {
                id: 1,
                work_units: 10,
                txns: 10,
                ..ThreadReport::default()
            },
        ];
        // Every counter distinct and nonzero, so a key swapped or dropped
        // on either side of the round trip shows.
        for (t, row) in r.threads.iter_mut().enumerate() {
            for (i, v) in row.counters.iter_mut().enumerate() {
                *v = (100 * t + i + 1) as u64;
            }
        }
        r.iters = vec![IterReport {
            k: 2,
            n_candidates: 6,
            n_frequent: 4,
            tree_bytes: 4096,
            tree_nodes: 3,
        }];
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let text = r.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn collection_round_trips_and_carries_schema() {
        let rs = vec![sample(), RunReport::new("pccd", "x", 1, 1)];
        let text = reports_to_json(&rs);
        assert!(text.contains(SCHEMA));
        assert_eq!(reports_from_json(&text).unwrap(), rs);
        // Single-object and bare-array forms parse too.
        assert_eq!(
            reports_from_json(&rs[0].to_json()).unwrap(),
            vec![rs[0].clone()]
        );
    }

    #[test]
    fn set_phases_computes_imbalance() {
        let r = sample();
        assert_eq!(r.phases[0].thread_work, vec![90, 10]);
        assert!((r.phases[0].imbalance - 1.8).abs() < 1e-12);
        assert!(r.phases[1].thread_work.is_empty());
        assert_eq!(r.phases[1].imbalance, 1.0);
    }

    #[test]
    fn apply_snapshot_fills_threads_and_totals() {
        let mut snap = MetricsSnapshot {
            enabled: true,
            per_thread: vec![[0; N_COUNTERS]; 2],
        };
        for (t, row) in snap.per_thread.iter_mut().enumerate() {
            for (i, v) in row.iter_mut().enumerate() {
                *v = (10 * t + i) as u64;
            }
        }
        let mut r = RunReport::new("ccpd", "d", 2, 1);
        r.apply_snapshot(&snap);
        assert!(r.metrics_enabled);
        assert_eq!(r.threads.len(), 2);
        assert_eq!(r.threads[1].counters, snap.per_thread[1]);
        for c in Counter::ALL {
            assert_eq!(r.total(c), snap.total(c), "{c:?}");
        }
        // Pre-existing work fields survive; rows beyond the snapshot read
        // zero, so the totals still match it.
        let mut r2 = sample();
        r2.threads.push(r2.threads[1].clone());
        r2.apply_snapshot(&snap);
        assert_eq!(r2.threads[0].work_units, 90);
        assert_eq!(r2.threads[0].counters, snap.per_thread[0]);
        assert_eq!(r2.threads[2].counters, [0; N_COUNTERS]);
        for c in Counter::ALL {
            assert_eq!(r2.total(c), snap.total(c), "{c:?}");
        }
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("[1, 2]").is_err());
        assert!(reports_from_json("{\"reports\": 5}").is_err());
        // Each counter key of a thread row is required.
        for c in Counter::ALL {
            let Json::Obj(mut fields) = sample().to_value() else {
                unreachable!()
            };
            let Some((_, Json::Arr(threads))) = fields.iter_mut().find(|(k, _)| k == "threads")
            else {
                panic!("no threads array")
            };
            let Json::Obj(thread) = &mut threads[1] else {
                unreachable!()
            };
            let Some((_, Json::Obj(row))) = thread.iter_mut().find(|(k, _)| k == "counters") else {
                panic!("no counters object")
            };
            row.retain(|(k, _)| k != c.name());
            assert!(RunReport::from_value(&Json::Obj(fields)).is_err(), "{c:?}");
        }
    }
}
