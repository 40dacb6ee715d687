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
//! | [`core`] | sequential Apriori, candidate generation, rule generation |
//! | [`parallel`] | CCPD and PCCD with phase/work statistics |
//! | [`vertical`] | tidset (Eclat) mining: bitmap/list backends, parallel and hybrid drivers |
//! | [`faults`] | cancellation tokens, deadline/fault injection, panic-contained `try_mine_*` errors |
//! | [`metrics`] | phase timers, lock/counter telemetry, `RunReport` JSON/CSV |
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
//! // ... mine it with all optimizations on, using 2 threads ...
//! let base = AprioriConfig {
//!     min_support: Support::Fraction(0.01),
//!     ..AprioriConfig::default()
//! };
//! let (result, stats) = ccpd::mine(&db, &ParallelConfig::new(base, 2));
//! // ... and derive association rules.
//! let rules = generate_rules(&result, 0.9);
//! assert!(result.total_frequent() > 0);
//! assert!(stats.simulated_speedup() >= 1.0);
//! let _ = rules;
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
    pub use arm_vertical::{
        mine_eclat_parallel, mine_hybrid, mine_vertical, try_mine_eclat_parallel, try_mine_hybrid,
        TidBackend, VerticalConfig,
    };
}
