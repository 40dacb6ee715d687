//! Parallel vertical mining: bitmap tidsets, word-AND intersection
//! kernels, and a hybrid Apriori→vertical driver.
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
//!   threshold, galloping merge, class scheduling, hybrid switch level;
//! * [`driver`] — transposition, prefix-class DFS, and the sequential
//!   [`mine_vertical`] (bit-identical to [`arm_core::mine_eclat`]);
//! * [`parallel`] — [`mine_eclat_parallel`]: first-level equivalence
//!   classes as weighted tasks on the `arm-exec` chunk pool, with a
//!   deterministic merge;
//! * [`hybrid`] — [`mine_hybrid`]: CCPD counting for the
//!   shallow levels, then transpose `F_s` and finish vertically.
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
pub mod hybrid;
pub mod parallel;
pub mod tidset;

pub use arm_faults::{CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
pub use config::{TidBackend, VerticalConfig};
pub use driver::{mine_vertical, mine_vertical_stats};
pub use hybrid::{mine_hybrid, try_mine_hybrid};
pub use parallel::{
    class_seeds, mine_eclat_parallel, mine_eclat_parallel_seeded, try_mine_eclat_parallel,
    TryMineOutcome,
};
pub use tidset::{
    and_words, intersect_galloping, intersect_linear, intersect_sorted, Backend, KernelStats,
    TidSet,
};
