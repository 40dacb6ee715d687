//! The candidate hash tree of Apriori, with pluggable memory placement.
//!
//! This crate implements the data structure at the heart of the paper:
//!
//! * [`candidates`] — flat candidate-itemset storage (`C_k`);
//! * [`build`] — the mutable tree with concurrent insertion and per-leaf
//!   locking (§3.1.4);
//! * [`policy`] — the paper's placement policies (§5) as layout knobs;
//! * [`freeze`] — emitting the built tree into its policy-defined memory
//!   image (the GPP case is the paper's depth-first remap);
//! * [`count`] — the support-counting kernel with VISITED short-circuiting
//!   (§4.2), counter-placement dispatch, and work accounting.
//!
//! A typical iteration:
//!
//! ```
//! use arm_balance::BitonicHash;
//! use arm_dataset::Database;
//! use arm_hashtree::{
//!     count::{CountOptions, CountScratch, CounterRef, WorkMeter},
//!     freeze::freeze_policy,
//!     build::TreeBuilder,
//!     candidates::CandidateSet,
//!     policy::PlacementPolicy,
//! };
//!
//! let db = Database::from_transactions(
//!     8,
//!     [vec![1u32, 4, 5], vec![1, 2], vec![3, 4, 5], vec![1, 2, 4, 5]],
//! )
//! .unwrap();
//! let mut c2 = CandidateSet::new(2);
//! for s in [[1u32, 2], [1, 4], [1, 5], [2, 4], [2, 5], [4, 5]] {
//!     c2.push(&s);
//! }
//! let hash = BitonicHash::new(3);
//! let builder = TreeBuilder::new(&c2, &hash, 3);
//! builder.insert_all();
//! let tree = freeze_policy(&builder, PlacementPolicy::Gpp);
//!
//! let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
//! let mut meter = WorkMeter::default();
//! tree.count_partition(
//!     &hash,
//!     &db,
//!     0..db.len(),
//!     None, // no transaction trimming
//!     &mut scratch,
//!     &mut CounterRef::Inline,
//!     CountOptions::default(),
//!     &mut meter,
//! );
//! assert_eq!(tree.inline_counts(), vec![2, 2, 2, 1, 1, 3]);
//! ```

pub mod build;
pub mod candidates;
pub mod count;
pub mod freeze;
pub mod policy;

pub use build::TreeBuilder;
pub use candidates::CandidateSet;
pub use count::{
    is_subset, naive_counts, CountOptions, CountScratch, CounterRef, ItemFilter, VisitedMode,
    WorkMeter,
};
pub use freeze::{freeze_policy, freeze_with, AnyFrozenTree, FrozenTree};
pub use policy::{CounterPlacement, EmitOrder, LeafLayout, PlacementPolicy, StoreKind};
