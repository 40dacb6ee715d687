//! Parallel vertical mining: tidsets, diffsets and bitmaps, their join
//! kernels, and the parallel Eclat driver.
//!
//! The paper's CCPD algorithm counts candidates against the horizontal
//! database every iteration. The authors' follow-up work replaces deep
//! iterations with *vertical* mining — each itemset carries its tidset,
//! and support is an intersection, not a scan (§7.1). This crate is that
//! subsystem:
//!
//! * [`tidset`] — the [`TidSet`] representations (sorted lists, diffsets
//!   and dense bitmaps) and their join kernels: intersection at the root
//!   (through a [`TidMarks`] bitmap for sorted lists), and below it a
//!   difference that stops as soon as the itemset cannot be frequent
//!   (dEclat's diffsets, from size 3 on);
//! * [`config`] — the [`VerticalConfig`] knobs: backend policy, density
//!   threshold, class scheduling;
//! * [`driver`] — transposition and the prefix-class DFS;
//! * [`parallel`] — [`try_mine_eclat_parallel`]: first-level equivalence
//!   classes as weighted tasks on the `arm-exec` chunk pool, merged
//!   into a [`arm_core::MiningResult`] equal to CCPD's at any thread
//!   count, `1` included, so rules and summaries take it unchanged.
//!
//! ```
//! use arm_dataset::Database;
//! use arm_vertical::{try_mine_eclat_parallel, RunControl, VerticalConfig};
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let cfg = VerticalConfig::default();
//! let (result, stats) = try_mine_eclat_parallel(&db, 2, None, &cfg, 2, &RunControl::default())
//!     .expect("no token, no faults");
//! assert_eq!(result.support_of(&[1, 4, 5]), Some(2));
//! assert!(arm_core::generate_rules(&result, 1.0).iter().any(|r| r.antecedent == vec![2]));
//! assert_eq!(stats.n_threads, 2);
//! ```

pub mod config;
pub mod driver;
pub mod parallel;
pub mod tidset;

pub use arm_faults::{CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
pub use config::{TidBackend, VerticalConfig};
pub use parallel::{
    class_seeds, mine_eclat_parallel, mine_eclat_parallel_seeded, mine_hybrid,
    try_mine_eclat_parallel,
};
pub use tidset::{
    and_words, difference_linear, intersect_linear, intersect_marked, intersect_sorted, Backend,
    KernelStats, TidMarks, TidSet,
};
