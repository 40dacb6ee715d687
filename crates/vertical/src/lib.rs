//! Parallel vertical mining: bitmap tidsets, word-AND intersection
//! kernels, and the parallel Eclat driver.
//!
//! The paper's CCPD algorithm counts candidates against the horizontal
//! database every iteration. The authors' follow-up work replaces deep
//! iterations with *vertical* mining — each itemset carries its tidset,
//! and support is an intersection, not a scan (§7.1). This crate is that
//! subsystem:
//!
//! * [`tidset`] — the [`TidSet`] representations (sorted lists vs dense
//!   bitmaps) and their intersection kernels;
//! * [`config`] — the [`VerticalConfig`] knobs: backend policy, density
//!   threshold, class scheduling;
//! * [`driver`] — transposition and the prefix-class DFS;
//! * [`parallel`] — [`mine_eclat_parallel`]: first-level equivalence
//!   classes as weighted tasks on the `arm-exec` chunk pool, with a
//!   deterministic merge (bit-identical to [`arm_core::mine_eclat`] at
//!   any thread count, `1` included).
//!
//! ```
//! use arm_dataset::Database;
//! use arm_vertical::{mine_eclat_parallel, VerticalConfig};
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let (itemsets, stats) = mine_eclat_parallel(&db, 2, None, &VerticalConfig::default(), 2);
//! assert!(itemsets.contains(&(vec![1, 4, 5], 2)));
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
    try_mine_eclat_parallel, TryMineOutcome,
};
pub use tidset::{and_words, intersect_linear, intersect_sorted, Backend, KernelStats, TidSet};
