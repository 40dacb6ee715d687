//! Shared-memory parallel association mining: the PCCD baseline, run
//! reports, and the paths of the CCPD driver.
//!
//! * [`ccpd`] — Common Candidate, Partitioned Database: the algorithm the
//!   paper evaluates throughout (§3.3, Figs. 8–13). The driver lives in
//!   [`arm_core::ccpd`], where it is also the one Apriori level loop
//!   ([`arm_core::mine`] runs it at one thread); it is re-exported here
//!   with its configuration ([`ParallelConfig`], [`DbPartition`]),
//!   statistics ([`ParallelRunStats`]) and pool helpers ([`count_pairs`],
//!   [`record_exec`]);
//! * [`pccd`] — Partitioned Candidate, Common Database: the baseline whose
//!   duplicated scans make it a speed-down (kept for the comparison);
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

pub mod pccd;
pub mod report;

pub use arm_core::ccpd;
pub use arm_core::{
    count_pairs, record_exec, DbPartition, ParallelConfig, ParallelRunStats, PhaseStat,
};
pub use arm_exec::Scheduling;
pub use arm_faults::{try_run_threads, CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
pub use report::run_report;
