//! # parallel-arm
//!
//! Parallel association rule mining for shared-memory systems — a
//! production-grade reproduction of *"Parallel Data Mining for Association
//! Rules on Shared-Memory Multi-Processors"* (Zaki, Ogihara,
//! Parthasarathy, Li; SC'96 / KAIS'01).
//!
//! The workspace is organized bottom-up:
//!
//! | crate | contents |
//! |---|---|
//! | [`dataset`] | transaction databases (CSR layout), partitioning, IO, stats |
//! | [`quest`] | the IBM Quest synthetic basket-data generator |
//! | [`mem`] | placement substrate: word regions, counter schemes, concurrent arena |
//! | [`exec`] | static and guided self-scheduling over index ranges |
//! | [`balance`] | block/interleaved/bitonic partitioning, balanced hash functions |
//! | [`hashtree`] | the candidate hash tree: concurrent build, placement freeze, counting |
//! | [`core`] | Apriori as one level loop (CCPD at any thread count), candidate generation, rule generation, phase/work statistics |
//! | [`parallel`] | the PCCD baseline, run reports, the CCPD driver's paths |
//! | [`vertical`] | tidset (Eclat) mining: bitmap/list backends, the parallel driver (same `MiningResult` as CCPD) |
//! | [`faults`] | cancellation tokens, deadline/fault injection, panic-contained `try_mine_*` errors |
//! | [`metrics`] | phase timers, lock/counter telemetry, `RunReport` JSON |
//!
//! ## Quickstart
//!
//! ```
//! use parallel_arm::prelude::*;
//!
//! // Generate a small synthetic market-basket database ...
//! let db = parallel_arm::quest::generate(
//!     &QuestParams::paper(10, 4, 1_000),
//! );
//! // ... mine it with CCPD, the paper's miner, using 2 threads ...
//! let base = AprioriConfig {
//!     min_support: Support::Fraction(0.01),
//!     ..AprioriConfig::default()
//! };
//! let ctrl = RunControl::default();
//! let (result, stats) = ccpd::try_mine(&db, &ParallelConfig::new(base.clone(), 2), &ctrl)?;
//! assert!(result.total_frequent() > 0);
//! assert!(stats.wall_of(&["count"]) <= stats.wall);
//! // ... or with parallel Eclat, which returns the same levels ...
//! let min_support = base.min_support.absolute(db.len());
//! let vcfg = VerticalConfig::default();
//! let (eclat, _) = try_mine_eclat_parallel(&db, min_support, None, &vcfg, 2, &ctrl)?;
//! assert_eq!(eclat.levels, result.levels);
//! // ... and derive association rules from either.
//! let rules = generate_rules(&eclat, 0.9);
//! let _ = rules;
//! # Ok::<(), MiningError>(())
//! ```

pub mod cli;

pub use arm_balance as balance;
pub use arm_core as core;
pub use arm_dataset as dataset;
pub use arm_exec as exec;
pub use arm_faults as faults;
pub use arm_hashtree as hashtree;
pub use arm_mem as mem;
pub use arm_metrics as metrics;
pub use arm_parallel as parallel;
pub use arm_quest as quest;
pub use arm_vertical as vertical;

/// The most common imports in one place.
pub mod prelude {
    pub use arm_balance::{BitonicHash, HashFn, IndirectionHash, ModHash, Scheme};
    pub use arm_core::{
        generate_rules, mine, AprioriConfig, HashScheme, MiningResult, Rule, Support,
    };
    pub use arm_dataset::{Database, DatabaseBuilder, DatasetStats};
    pub use arm_faults::{CancelToken, FaultKind, FaultPlan, MiningError, RunControl};
    pub use arm_hashtree::PlacementPolicy;
    pub use arm_metrics::{MetricsRegistry, MetricsSnapshot, RunReport};
    pub use arm_parallel::{ccpd, pccd, run_report, ParallelConfig, ParallelRunStats, Scheduling};
    pub use arm_quest::{generate, QuestParams};
    pub use arm_vertical::{try_mine_eclat_parallel, TidBackend, VerticalConfig};
}
