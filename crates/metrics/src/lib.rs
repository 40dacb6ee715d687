//! Run-wide observability for the mining stack (DESIGN.md §6).
//!
//! The paper's whole evaluation (§5, Figs. 6–13) rests on per-phase
//! timing breakdowns, per-processor work distributions, and
//! lock-contention measurements. This crate makes those first-class:
//!
//! * [`registry`] — [`MetricsRegistry`]: one cache-line-aligned counter
//!   shard per worker thread (relaxed adds, no cross-thread sharing),
//!   scoped [`PhaseSpan`] timers, and [`MetricsSnapshot`] extraction;
//! * [`tally`] — [`TalliedCounters`], the shared-support-counter wrapper
//!   that measures striped-counter contention (increments + CAS retries);
//! * [`report`] — [`RunReport`], the one JSON schema every benchmark
//!   binary emits, with each thread's counters keyed by [`Counter::name`];
//! * [`json`] — the minimal serializer/parser behind it (the workspace
//!   deliberately has no serde).
//!
//! Everything behaves with the `enabled` cargo feature off: phase timers,
//! snapshots, and reports still work (counters read as zero), and
//! every per-event recording call compiles to a no-op on a zero-sized
//! shard, so hot kernels pay nothing.
//!
//! ```
//! use arm_metrics::{Counter, MetricsRegistry, RunReport};
//!
//! let reg = MetricsRegistry::new(2);
//! let span = reg.phase("count", 2);
//! reg.shard(0).incr(Counter::CtrIncrements);
//! span.finish(vec![40, 60]);
//!
//! let mut report = RunReport::new("ccpd", "T10.I4.D100K", 2, 25);
//! report.set_phases(&reg.take_phases());
//! report.apply_snapshot(&reg.snapshot());
//! let text = report.to_json();
//! assert_eq!(RunReport::from_json(&text).unwrap(), report);
//! ```

pub mod json;
pub mod registry;
pub mod report;
pub mod tally;

pub use json::Json;
pub use registry::{
    Counter, MetricsRegistry, MetricsSnapshot, PhaseRecord, PhaseSpan, Shard, N_COUNTERS,
};
pub use report::{
    reports_from_json, reports_to_json, IterReport, PhaseReport, RunReport, ThreadReport, SCHEMA,
};
pub use tally::TalliedCounters;
