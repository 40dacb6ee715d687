//! Apriori association mining with the paper's optimizations, at any
//! thread count.
//!
//! This crate assembles the substrates ([`arm_dataset`], [`arm_balance`],
//! [`arm_hashtree`], [`arm_mem`], [`arm_exec`], [`arm_faults`]) into the
//! full mining pipeline:
//!
//! * [`f1`] — the first (histogram) pass producing `F_1`;
//! * [`generation`] — equivalence-class join, pruning, adaptive fan-out;
//! * [`pairs`] — the `C_2` kernel: pair counts in a triangular array;
//! * [`class_array`] — the `k ≥ 3` kernel: candidate counts in
//!   per-class triangular arrays over per-transaction id lists;
//! * [`ccpd`] — the one Apriori level loop: the paper's CCPD (§3.3),
//!   every phase split across `P` threads;
//! * [`apriori`] — [`mine`] (that loop at one thread) and the result
//!   types with their per-iteration statistics;
//! * [`parallel_config`] — thread count, candidate-generation balancing
//!   scheme, database partition heuristic, scheduling;
//! * [`scratch`] — the per-worker counting-scratch pool kept alive across
//!   iterations;
//! * [`stats`] — per-phase measured wall time and per-thread work
//!   records, with the load-balance metrics of Figs. 8–10;
//! * [`rules`] — confidence-based rule generation (ap-genrules);
//! * [`naive`] — two independent reference miners for verification;
//! * [`config`] — every §3–§5 optimization as a knob.
//!
//! ```
//! use arm_core::{mine, AprioriConfig, Support, generate_rules};
//! use arm_dataset::Database;
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let cfg = AprioriConfig {
//!     min_support: Support::Absolute(2),
//!     leaf_threshold: 2,
//!     ..AprioriConfig::default()
//! };
//! let result = mine(&db, &cfg);
//! assert_eq!(result.support_of(&[1, 4, 5]), Some(2));
//! let rules = generate_rules(&result, 1.0);
//! assert!(rules.iter().any(|r| r.antecedent == vec![2] && r.consequent == vec![1]));
//! ```

pub mod apriori;
pub mod ccpd;
pub mod class_array;
pub mod config;
pub mod eclat;
pub mod f1;
pub mod generation;
pub mod level;
pub mod naive;
pub mod pairs;
pub mod parallel_config;
pub mod partition_algo;
pub mod rules;
pub mod scratch;
pub mod stats;
pub mod summaries;
pub mod taxonomy;

pub use apriori::{f1_items, make_hash, mine, IterStats, MiningResult};
pub use ccpd::{count_pairs, record_exec};
pub use class_array::{ClassIndex, ClassScratch, IdLists};
pub use config::{AprioriConfig, HashScheme, Support};
pub use eclat::mine_eclat;
pub use f1::{count_singletons, count_singletons_into, frequent_from_counts, frequent_singletons};
pub use generation::{
    adaptive_fanout, class_weight, equivalence_classes, generate_candidates, generate_class,
    generate_class_member,
};
pub use level::FrequentLevel;
pub use pairs::{FrequentPairs, PairIndex};
pub use parallel_config::{DbPartition, ParallelConfig};
pub use partition_algo::mine_partition;
pub use rules::{generate_rules, top_rules, Rule};
pub use scratch::ScratchPool;
pub use stats::{ParallelRunStats, PhaseStat};
pub use summaries::{closed_itemsets, maximal_itemsets};
pub use taxonomy::{mine_generalized, Taxonomy};
