//! `RunReport` — the one machine-readable schema every benchmark binary
//! emits (JSON and CSV), covering phase timers, per-thread work, lock
//! telemetry, and memory counters.
//!
//! The schema maps onto the paper's evaluation (see DESIGN.md §6):
//! `phases` carries the per-phase timing breakdowns behind Figs. 8–10,
//! `threads`/`phases[].imbalance` the per-processor work distributions,
//! `locks` the §3.1.4 contention discussion, and `iters` the hash-tree
//! profile of Figs. 6–7.

use crate::json::{parse, Json};
use crate::registry::{Counter, MetricsSnapshot, PhaseRecord};

/// Schema tag written into every report file.
pub const SCHEMA: &str = "arm-run-report/v2";

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

/// Per-thread section: counting work plus this thread's telemetry shard.
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
    /// Per-leaf build-lock acquisitions.
    pub lock_acquires: u64,
    /// Contended build-lock acquisitions.
    pub lock_contended: u64,
    /// Nanoseconds waited on contended build locks.
    pub lock_wait_ns: u64,
    /// Shared support-counter increments.
    pub ctr_increments: u64,
    /// CAS retries across those increments.
    pub ctr_cas_retries: u64,
    /// Scheduler chunks this thread claimed and executed.
    pub chunks_executed: u64,
    /// Failed CAS iterations on the shared scheduling cursor.
    pub cursor_cas_retries: u64,
}

/// Lock/contention totals across threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LockReport {
    /// Total per-leaf build-lock acquisitions.
    pub leaf_acquires: u64,
    /// Acquisitions that found the lock held.
    pub leaf_contended: u64,
    /// Total nanoseconds waited on held leaf locks.
    pub leaf_wait_ns: u64,
    /// Total shared support-counter increments.
    pub ctr_increments: u64,
    /// Total CAS retries on shared counters.
    pub ctr_cas_retries: u64,
}

/// Scheduling totals across threads (arm-exec chunk pools).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedReport {
    /// Total chunks claimed and executed.
    pub chunks_executed: u64,
    /// Failed CAS iterations on shared scheduling cursors.
    pub cursor_cas_retries: u64,
}

/// Vertical-mining totals across threads (arm-vertical tidset kernels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerticalReport {
    /// Tidset joins performed: intersections and diffset differences,
    /// early-stopped ones included.
    pub intersections: u64,
    /// `u64` words ANDed by the bitmap kernel.
    pub words_anded: u64,
    /// Bytes of tidset storage materialized (lists, diffsets and bitmaps).
    pub tidset_bytes: u64,
}

/// Fault-layer totals across threads (arm-faults cancellation and
/// injection instrumentation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Cancellation checkpoints passed at chunk claims.
    pub cancel_checks: u64,
    /// Fault-plan injections that fired (nonzero only under chaos tests).
    pub faults_injected: u64,
}

/// Allocator/scratch/tree memory totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemReport {
    /// Bytes of frozen hash trees summed over iterations.
    pub tree_bytes: u64,
    /// Reachable frozen-tree nodes summed over iterations.
    pub tree_nodes: u64,
    /// Counting scratches allocated fresh.
    pub scratch_allocs: u64,
    /// Pooled scratch re-targets (allocation-free reuse).
    pub scratch_retargets: u64,
    /// Stamp-table bytes sized across iterations.
    pub scratch_stamp_bytes: u64,
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
    /// Per-thread work and telemetry.
    pub threads: Vec<ThreadReport>,
    /// Lock/contention totals.
    pub locks: LockReport,
    /// Scheduling totals.
    pub sched: SchedReport,
    /// Vertical-mining kernel totals.
    pub vertical: VerticalReport,
    /// Fault-layer totals.
    pub faults: FaultReport,
    /// Memory totals.
    pub mem: MemReport,
    /// Per-iteration tree/candidate profile.
    pub iters: Vec<IterReport>,
}

/// Header row matching [`RunReport::phase_csv_rows`].
pub const PHASE_CSV_HEADER: &str =
    "algorithm,dataset,n_threads,phase,k,wall_seconds,imbalance,total_work";

/// Header row matching [`RunReport::summary_csv_row`].
pub const SUMMARY_CSV_HEADER: &str = "algorithm,dataset,n_threads,min_support,wall_seconds,\
leaf_lock_acquires,leaf_lock_contended,leaf_lock_wait_ns,ctr_increments,\
ctr_cas_retries,tree_bytes";

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

    /// Merges a registry snapshot: sets `metrics_enabled`, fills each
    /// thread's telemetry fields (growing `threads` if needed), and the
    /// `locks`/`mem` totals. Work fields in `threads` are left untouched.
    pub fn apply_snapshot(&mut self, snap: &MetricsSnapshot) {
        self.metrics_enabled = snap.enabled;
        while self.threads.len() < snap.per_thread.len() {
            self.threads.push(ThreadReport {
                id: self.threads.len(),
                ..ThreadReport::default()
            });
        }
        for (t, row) in self.threads.iter_mut().enumerate() {
            row.lock_acquires = snap.get(t, Counter::LeafLockAcquires);
            row.lock_contended = snap.get(t, Counter::LeafLockContended);
            row.lock_wait_ns = snap.get(t, Counter::LeafLockWaitNs);
            row.ctr_increments = snap.get(t, Counter::CtrIncrements);
            row.ctr_cas_retries = snap.get(t, Counter::CtrCasRetries);
            row.chunks_executed = snap.get(t, Counter::ChunksExecuted);
            row.cursor_cas_retries = snap.get(t, Counter::CursorCasRetries);
        }
        self.locks = LockReport {
            leaf_acquires: snap.total(Counter::LeafLockAcquires),
            leaf_contended: snap.total(Counter::LeafLockContended),
            leaf_wait_ns: snap.total(Counter::LeafLockWaitNs),
            ctr_increments: snap.total(Counter::CtrIncrements),
            ctr_cas_retries: snap.total(Counter::CtrCasRetries),
        };
        self.sched = SchedReport {
            chunks_executed: snap.total(Counter::ChunksExecuted),
            cursor_cas_retries: snap.total(Counter::CursorCasRetries),
        };
        self.vertical = VerticalReport {
            intersections: snap.total(Counter::TidsetIntersections),
            words_anded: snap.total(Counter::TidsetWordsAnded),
            tidset_bytes: snap.total(Counter::TidsetBytes),
        };
        self.faults = FaultReport {
            cancel_checks: snap.total(Counter::CancelChecks),
            faults_injected: snap.total(Counter::FaultsInjected),
        };
        self.mem = MemReport {
            tree_bytes: snap.total(Counter::TreeBytes),
            tree_nodes: snap.total(Counter::TreeNodes),
            scratch_allocs: snap.total(Counter::ScratchAllocs),
            scratch_retargets: snap.total(Counter::ScratchRetargets),
            scratch_stamp_bytes: snap.total(Counter::ScratchStampBytes),
        };
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
                "locks".into(),
                Json::Obj(vec![
                    ("leaf_acquires".into(), int(self.locks.leaf_acquires)),
                    ("leaf_contended".into(), int(self.locks.leaf_contended)),
                    ("leaf_wait_ns".into(), int(self.locks.leaf_wait_ns)),
                    ("ctr_increments".into(), int(self.locks.ctr_increments)),
                    ("ctr_cas_retries".into(), int(self.locks.ctr_cas_retries)),
                ]),
            ),
            (
                "sched".into(),
                Json::Obj(vec![
                    ("chunks_executed".into(), int(self.sched.chunks_executed)),
                    (
                        "cursor_cas_retries".into(),
                        int(self.sched.cursor_cas_retries),
                    ),
                ]),
            ),
            (
                "vertical".into(),
                Json::Obj(vec![
                    ("intersections".into(), int(self.vertical.intersections)),
                    ("words_anded".into(), int(self.vertical.words_anded)),
                    ("tidset_bytes".into(), int(self.vertical.tidset_bytes)),
                ]),
            ),
            (
                "faults".into(),
                Json::Obj(vec![
                    ("cancel_checks".into(), int(self.faults.cancel_checks)),
                    ("faults_injected".into(), int(self.faults.faults_injected)),
                ]),
            ),
            (
                "mem".into(),
                Json::Obj(vec![
                    ("tree_bytes".into(), int(self.mem.tree_bytes)),
                    ("tree_nodes".into(), int(self.mem.tree_nodes)),
                    ("scratch_allocs".into(), int(self.mem.scratch_allocs)),
                    ("scratch_retargets".into(), int(self.mem.scratch_retargets)),
                    (
                        "scratch_stamp_bytes".into(),
                        int(self.mem.scratch_stamp_bytes),
                    ),
                ]),
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
            r.threads.push(ThreadReport {
                id: u64_field(t, "id")? as usize,
                work_units: u64_field(t, "work_units")?,
                txns: u64_field(t, "txns")?,
                node_visits: u64_field(t, "node_visits")?,
                leaf_scans: u64_field(t, "leaf_scans")?,
                subset_checks: u64_field(t, "subset_checks")?,
                hits: u64_field(t, "hits")?,
                lock_acquires: u64_field(t, "lock_acquires")?,
                lock_contended: u64_field(t, "lock_contended")?,
                lock_wait_ns: u64_field(t, "lock_wait_ns")?,
                ctr_increments: u64_field(t, "ctr_increments")?,
                ctr_cas_retries: u64_field(t, "ctr_cas_retries")?,
                chunks_executed: u64_field(t, "chunks_executed")?,
                cursor_cas_retries: u64_field(t, "cursor_cas_retries")?,
            });
        }
        let l = v.get("locks").ok_or("missing locks")?;
        r.locks = LockReport {
            leaf_acquires: u64_field(l, "leaf_acquires")?,
            leaf_contended: u64_field(l, "leaf_contended")?,
            leaf_wait_ns: u64_field(l, "leaf_wait_ns")?,
            ctr_increments: u64_field(l, "ctr_increments")?,
            ctr_cas_retries: u64_field(l, "ctr_cas_retries")?,
        };
        let s = v.get("sched").ok_or("missing sched")?;
        r.sched = SchedReport {
            chunks_executed: u64_field(s, "chunks_executed")?,
            cursor_cas_retries: u64_field(s, "cursor_cas_retries")?,
        };
        let s = v.get("vertical").ok_or("missing vertical")?;
        r.vertical = VerticalReport {
            intersections: u64_field(s, "intersections")?,
            words_anded: u64_field(s, "words_anded")?,
            tidset_bytes: u64_field(s, "tidset_bytes")?,
        };
        let s = v.get("faults").ok_or("missing faults")?;
        r.faults = FaultReport {
            cancel_checks: u64_field(s, "cancel_checks")?,
            faults_injected: u64_field(s, "faults_injected")?,
        };
        let m = v.get("mem").ok_or("missing mem")?;
        r.mem = MemReport {
            tree_bytes: u64_field(m, "tree_bytes")?,
            tree_nodes: u64_field(m, "tree_nodes")?,
            scratch_allocs: u64_field(m, "scratch_allocs")?,
            scratch_retargets: u64_field(m, "scratch_retargets")?,
            scratch_stamp_bytes: u64_field(m, "scratch_stamp_bytes")?,
        };
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

    /// One CSV row per phase ([`PHASE_CSV_HEADER`]).
    pub fn phase_csv_rows(&self) -> Vec<String> {
        self.phases
            .iter()
            .map(|p| {
                format!(
                    "{},{},{},{},{},{:.6},{:.4},{}",
                    self.algorithm,
                    self.dataset,
                    self.n_threads,
                    p.name,
                    p.k,
                    p.wall_seconds,
                    p.imbalance,
                    p.thread_work.iter().sum::<u64>()
                )
            })
            .collect()
    }

    /// One CSV row summarizing the run ([`SUMMARY_CSV_HEADER`]).
    pub fn summary_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.6},{},{},{},{},{},{}",
            self.algorithm,
            self.dataset,
            self.n_threads,
            self.min_support,
            self.wall_seconds,
            self.locks.leaf_acquires,
            self.locks.leaf_contended,
            self.locks.leaf_wait_ns,
            self.locks.ctr_increments,
            self.locks.ctr_cas_retries,
            self.mem.tree_bytes
        )
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
    Json::Obj(vec![
        ("id".into(), int(t.id as u64)),
        ("work_units".into(), int(t.work_units)),
        ("txns".into(), int(t.txns)),
        ("node_visits".into(), int(t.node_visits)),
        ("leaf_scans".into(), int(t.leaf_scans)),
        ("subset_checks".into(), int(t.subset_checks)),
        ("hits".into(), int(t.hits)),
        ("lock_acquires".into(), int(t.lock_acquires)),
        ("lock_contended".into(), int(t.lock_contended)),
        ("lock_wait_ns".into(), int(t.lock_wait_ns)),
        ("ctr_increments".into(), int(t.ctr_increments)),
        ("ctr_cas_retries".into(), int(t.ctr_cas_retries)),
        ("chunks_executed".into(), int(t.chunks_executed)),
        ("cursor_cas_retries".into(), int(t.cursor_cas_retries)),
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
        r.locks.leaf_acquires = 123;
        r.locks.leaf_contended = 4;
        r.threads[0].chunks_executed = 5;
        r.threads[1].cursor_cas_retries = 2;
        r.sched = SchedReport {
            chunks_executed: 9,
            cursor_cas_retries: 2,
        };
        r.vertical = VerticalReport {
            intersections: 17,
            words_anded: 340,
            tidset_bytes: 2048,
        };
        r.faults = FaultReport {
            cancel_checks: 42,
            faults_injected: 1,
        };
        r.mem.tree_bytes = 4096;
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
            per_thread: vec![[0; crate::registry::N_COUNTERS]; 2],
        };
        snap.per_thread[0][Counter::LeafLockAcquires as usize] = 10;
        snap.per_thread[1][Counter::LeafLockAcquires as usize] = 20;
        snap.per_thread[1][Counter::LeafLockContended as usize] = 3;
        snap.per_thread[0][Counter::TreeBytes as usize] = 100;
        let mut r = RunReport::new("ccpd", "d", 2, 1);
        r.apply_snapshot(&snap);
        assert!(r.metrics_enabled);
        assert_eq!(r.threads.len(), 2);
        assert_eq!(r.threads[0].lock_acquires, 10);
        assert_eq!(r.threads[1].lock_acquires, 20);
        assert_eq!(r.locks.leaf_acquires, 30);
        assert_eq!(r.locks.leaf_contended, 3);
        assert_eq!(r.mem.tree_bytes, 100);
        // Pre-existing work fields survive.
        let mut r2 = sample();
        r2.apply_snapshot(&snap);
        assert_eq!(r2.threads[0].work_units, 90);
        assert_eq!(r2.threads[0].lock_acquires, 10);
    }

    #[test]
    fn csv_rows_match_headers() {
        let r = sample();
        let header_cols = PHASE_CSV_HEADER.split(',').count();
        for row in r.phase_csv_rows() {
            assert_eq!(row.split(',').count(), header_cols, "{row}");
        }
        assert_eq!(
            r.summary_csv_row().split(',').count(),
            SUMMARY_CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("[1, 2]").is_err());
        assert!(reports_from_json("{\"reports\": 5}").is_err());
        // v2 has no pre-section read path: every section is required.
        for section in ["sched", "vertical", "faults"] {
            let Json::Obj(fields) = sample().to_value() else {
                unreachable!()
            };
            let kept = fields.into_iter().filter(|(k, _)| k != section).collect();
            assert!(
                RunReport::from_value(&Json::Obj(kept)).is_err(),
                "{section}"
            );
        }
    }
}
