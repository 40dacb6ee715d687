//! Shared-memory parallel association mining: the paper's CCPD algorithm
//! (and the PCCD baseline), with phase-level work accounting.
//!
//! * [`ccpd`] — Common Candidate, Partitioned Database: the algorithm the
//!   paper evaluates throughout (§3.3, Figs. 8–13);
//! * [`pccd`] — Partitioned Candidate, Common Database: the baseline whose
//!   duplicated scans make it a speed-down (kept for the comparison);
//! * [`config`] — thread count, candidate-generation balancing scheme,
//!   database partition heuristic;
//! * [`scratch`] — the per-worker counting-scratch pool both drivers keep
//!   alive across iterations;
//! * [`stats`] — per-phase measured wall time and per-thread work
//!   records, with the load-balance metrics of Figs. 8–10;
//! * [`report`] — folds a run into the machine-readable
//!   [`arm_metrics::RunReport`] schema the bench binaries emit.
//!
//! ```
//! use arm_core::{AprioriConfig, Support};
//! use arm_dataset::Database;
//! use arm_parallel::{ccpd, ParallelConfig};
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let base = AprioriConfig {
//!     min_support: Support::Absolute(2),
//!     leaf_threshold: 2,
//!     ..AprioriConfig::default()
//! };
//! let (result, stats) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
//! assert_eq!(result.support_of(&[1, 4, 5]), Some(2));
//! assert!(stats.wall_of(&["count"]) <= stats.wall);
//! ```

pub mod ccpd;
pub mod config;
pub mod pccd;
pub mod report;
pub mod scratch;
pub mod stats;

pub use arm_exec::Scheduling;
pub use arm_faults::{try_run_threads, CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
pub use ccpd::{count_pairs, record_exec, run_threads};
pub use config::{DbPartition, ParallelConfig};
pub use report::run_report;
pub use scratch::ScratchPool;
pub use stats::{ParallelRunStats, PhaseStat};
