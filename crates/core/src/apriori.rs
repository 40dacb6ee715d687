//! The sequential Apriori driver (Fig. 1 of the paper), instrumented with
//! the per-iteration statistics the evaluation figures are built from.
//!
//! With `pair_array` (the default) no level builds a hash tree: `C_2` is
//! counted in the pair array ([`crate::pairs`]) and every `C_k`, `k ≥ 3`,
//! in class arrays over per-transaction id lists ([`crate::class_array`]),
//! each pass writing the lists the next one reads. With it off, from the
//! first level whose class-array slot map is unaddressable, or from the
//! level after a pass whose lists outgrew their budget
//! ([`crate::class_array::ListBudget`]), each level builds, freezes and
//! walks the paper's candidate hash tree, with the counting knobs
//! (short-circuiting, placement, trimming, ...).

use crate::class_array::{frequent_ids, ClassIndex, ClassScratch, IdLists, ListBudget};
use crate::config::{AprioriConfig, HashScheme};
use crate::f1::frequent_singletons;
use crate::generation::{adaptive_fanout, equivalence_classes, generate_class};
use crate::level::FrequentLevel;
use crate::pairs::PairIndex;
use arm_balance::{AnyHash, IndirectionHash, ModHash};
use arm_dataset::{Database, DatabaseBuilder, Item};
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter, TreeBuilder,
    WorkMeter,
};
use arm_mem::counters::reduce;
use arm_mem::{FlatCounters, LocalCounters};
use arm_metrics::{Counter, MetricsRegistry, PhaseSpan, TalliedCounters};

/// Per-iteration measurements (feed Figs. 6, 7 and 10).
#[derive(Debug, Clone)]
pub struct IterStats {
    /// Iteration number `k`.
    pub k: u32,
    /// `|C_k|` after pruning.
    pub n_candidates: usize,
    /// `|F_k|`.
    pub n_frequent: usize,
    /// Hash-table fan-out used.
    pub fanout: u32,
    /// Bytes of the frozen hash tree (0 for `k = 1`).
    pub tree_bytes: usize,
    /// Reachable tree nodes.
    pub tree_nodes: u32,
    /// Join pairs considered during candidate generation.
    pub join_pairs: u64,
    /// Counting-phase work tally.
    pub meter: WorkMeter,
}

/// The outcome of a mining run: every frequent level plus per-iteration
/// statistics.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// `levels[0]` is `F_1`, `levels[i]` is `F_{i+1}`.
    pub levels: Vec<FrequentLevel>,
    /// One entry per executed iteration (including the final empty one).
    pub iter_stats: Vec<IterStats>,
    /// The resolved absolute minimum support.
    pub min_support: u32,
}

impl MiningResult {
    /// Total number of frequent itemsets across all levels.
    pub fn total_frequent(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Longest frequent itemset size.
    pub fn max_k(&self) -> u32 {
        self.levels
            .iter()
            .rev()
            .find(|l| !l.is_empty())
            .map_or(0, |l| l.k())
    }

    /// Support of an arbitrary itemset, if frequent.
    pub fn support_of(&self, items: &[Item]) -> Option<u32> {
        let k = items.len();
        if k == 0 || k > self.levels.len() {
            return None;
        }
        self.levels[k - 1].support_of(items)
    }

    /// All frequent itemsets flattened to `(items, support)`.
    pub fn all_itemsets(&self) -> Vec<(Vec<Item>, u32)> {
        let mut out = Vec::with_capacity(self.total_frequent());
        for l in &self.levels {
            for (s, c) in l.iter() {
                out.push((s.to_vec(), c));
            }
        }
        out
    }
}

/// Builds the configured hash function for fan-out `h`.
pub fn make_hash(scheme: HashScheme, h: u32, f1_items: &[Item], n_items: u32) -> AnyHash {
    match scheme {
        HashScheme::Interleaved => AnyHash::Mod(ModHash::new(h)),
        HashScheme::Bitonic => {
            AnyHash::Indirection(IndirectionHash::for_frequent_items(f1_items, n_items, h))
        }
    }
}

/// Extracts the raw item list of `F_1` (the basis of the bitonic
/// indirection vector).
pub fn f1_items(f1: &FrequentLevel) -> Vec<Item> {
    (0..f1.len()).map(|i| f1.get(i)[0]).collect()
}

/// Starts a phase span when a registry is present; `None` otherwise.
fn phase<'m>(
    metrics: Option<&'m MetricsRegistry>,
    name: &'static str,
    k: u32,
) -> Option<PhaseSpan<'m>> {
    metrics.map(|m| m.phase(name, k))
}

/// Runs sequential Apriori over `db`.
pub fn mine(db: &Database, config: &AprioriConfig) -> MiningResult {
    mine_with(db, config, None)
}

/// Runs sequential Apriori, recording phase timers and telemetry into
/// `metrics` when provided. The sequential run is a single "thread", so
/// every counter lands on shard 0 and each counting phase records a
/// one-element work vector — the same schema the parallel drivers emit,
/// which makes sequential baselines directly comparable in a
/// [`arm_metrics::RunReport`].
pub fn mine_with(
    db: &Database,
    config: &AprioriConfig,
    metrics: Option<&MetricsRegistry>,
) -> MiningResult {
    let min_support = config.min_support.absolute(db.len());
    let span = phase(metrics, "f1", 1);
    let f1 = frequent_singletons(db, min_support);
    if let Some(s) = span {
        s.finish_serial();
    }
    let f1_item_list = f1_items(&f1);
    // `None` (the knob off, or an unaddressable array) counts `C_2` in
    // the hash tree like every other level.
    let pair_index = config
        .pair_array
        .then(|| PairIndex::new(&f1_item_list, db.n_items()))
        .flatten();

    let mut iter_stats = vec![IterStats {
        k: 1,
        n_candidates: db.n_items() as usize,
        n_frequent: f1.len(),
        fanout: 0,
        tree_bytes: 0,
        tree_nodes: 0,
        join_pairs: 0,
        meter: WorkMeter::default(),
    }];
    // `max_k = Some(0)` admits no level at all (uniform semantics across
    // the workspace's miners); the k-loop below never runs since k > 0.
    let mut levels = if config.max_k == Some(0) {
        Vec::new()
    } else {
        vec![f1]
    };

    let opts = CountOptions {
        short_circuit: config.short_circuit,
        visited: config.visited,
        hash_memo: config.hash_memo,
        iterative: config.iterative_walk,
    };
    // With `reuse_scratch` this single scratch (and all its buffers)
    // serves every iteration, re-targeted at each new tree.
    let mut scratch = CountScratch::new(db.n_items(), 0);
    // With the pair array: `F_2` with its rank directory. While it is
    // set, every level k ≥ 3 counts in class arrays, over the id lists
    // the level before wrote (`None` at k = 3: the items via `f2`).
    let mut f2 = None;
    let mut id_lists: Option<(Database, Vec<u32>)> = None;
    // On the tree path with `trim_transactions`, the hit-trimmed database
    // the next level counts over (`None` = the input).
    let mut trimmed: Option<Database> = None;

    let mut k = 2u32;
    loop {
        if config.max_k.is_some_and(|m| k > m) {
            break;
        }
        let prev = levels.last().unwrap();
        if prev.len() < 2 {
            break;
        }

        if let Some(index) = pair_index.as_ref().filter(|_| k == 2) {
            let span = phase(metrics, "count", k);
            let mut counts = index.zeroed();
            let hits = index.count_into(db, 0..db.len(), &mut counts, &mut Vec::new());
            let meter = WorkMeter {
                txns: db.len() as u64,
                hits,
                ..WorkMeter::default()
            };
            if let Some(s) = span {
                s.finish(vec![meter.work_units()]);
            }
            let span = phase(metrics, "extract", k);
            let fk = index.frequent(&counts, min_support);
            f2 = Some(index.frequent_pairs(&counts, min_support));
            if let Some(s) = span {
                s.finish_serial();
            }
            iter_stats.push(index.iter_stats(fk.len(), meter));
            if fk.is_empty() {
                break;
            }
            levels.push(fk);
            k += 1;
            continue;
        }

        // Candidate generation over equivalence classes, and the class
        // arrays' slot map while `F_2` is at hand. An unaddressable map
        // hands this level and every later one to the tree.
        let span = phase(metrics, "candgen", k);
        let classes = equivalence_classes(prev);
        let mut cands = CandidateSet::new(k);
        let mut scratch_items = Vec::with_capacity(2 * k as usize);
        let mut join_pairs = 0u64;
        for class in &classes {
            join_pairs += generate_class(prev, class.clone(), &mut cands, &mut scratch_items);
        }
        let class_index = f2
            .as_ref()
            .filter(|_| !cands.is_empty())
            .and_then(|_| ClassIndex::new(prev, &classes, &cands));
        if let Some(s) = span {
            s.finish_serial();
        }
        if cands.is_empty() {
            break;
        }

        let (counts, meter, tree_shape) = if let Some(index) = &class_index {
            let span = phase(metrics, "count", k);
            let held = id_lists.take();
            let lists = match &held {
                Some((db, frequent)) => IdLists::Candidates { db, frequent },
                None => IdLists::Pairs {
                    db,
                    f2: f2.as_ref().expect("class arrays count with F_2"),
                },
            };
            let mut counts = index.zeroed();
            // A pass over its list budget stops writing; the next level
            // then counts on the tree.
            let budget = ListBudget::new(db);
            let (meter, next) = index.count_within_budget(
                &lists,
                0..lists.db().len(),
                &mut counts,
                &mut ClassScratch::default(),
                (config.max_k != Some(k)).then(|| index.lists_builder()),
                &budget,
            );
            drop(held);
            if budget.exceeded() {
                f2 = None;
            }
            id_lists = next.map(|next| (next.finish(), frequent_ids(&counts, min_support)));
            if let Some(s) = span {
                s.finish(vec![meter.work_units()]);
            }
            (counts, meter, (0, 0, 0))
        } else {
            (f2, id_lists) = (None, None);
            let fanout = if config.adaptive_fanout {
                adaptive_fanout(&classes, config.leaf_threshold, k)
            } else {
                config.fixed_fanout
            };
            let hash = make_hash(config.hash_scheme, fanout, &f1_item_list, db.n_items());

            // Build + freeze the candidate hash tree.
            let span = phase(metrics, "build", k);
            let builder = TreeBuilder::new(&cands, &hash, config.leaf_threshold);
            match metrics {
                Some(m) => builder.insert_all_tallied(m.shard(0)),
                None => builder.insert_all(),
            }
            if let Some(s) = span {
                s.finish_serial();
            }
            let span = phase(metrics, "freeze", k);
            let tree = freeze_policy(&builder, config.placement);
            if let Some(s) = span {
                s.finish_serial();
            }
            if let Some(m) = metrics {
                let shard = m.shard(0);
                shard.add(Counter::TreeBytes, tree.total_bytes() as u64);
                shard.add(Counter::TreeNodes, tree.n_nodes() as u64);
            }

            // Support counting, over the previous level's survivors when
            // trimming.
            let span = phase(metrics, "count", k);
            let counted = trimmed.take();
            let input = counted.as_ref().unwrap_or(db);
            let filter = config
                .trim_transactions
                .then(|| ItemFilter::from_candidates(&cands, db.n_items()));
            let mut survivors = config
                .hit_trim_at(k)
                .then(|| DatabaseBuilder::new(db.n_items()));
            if config.reuse_scratch {
                scratch.retarget(tree.n_nodes());
            } else {
                scratch = CountScratch::new(db.n_items(), tree.n_nodes());
            }
            if let Some(m) = metrics {
                m.shard(0).incr(if config.reuse_scratch {
                    Counter::ScratchRetargets
                } else {
                    Counter::ScratchAllocs
                });
            }
            let mut meter = WorkMeter::default();
            let mut count = |cref: &mut CounterRef<'_>| {
                tree.count_trimmed(
                    &hash,
                    input,
                    0..input.len(),
                    filter.as_ref(),
                    &mut scratch,
                    cref,
                    opts,
                    &mut meter,
                    survivors.as_mut(),
                )
            };
            let counts: Vec<u32> = if tree.counters_inline() {
                count(&mut CounterRef::Inline);
                tree.inline_counts()
            } else if config.placement.per_thread_counters() {
                let mut local = LocalCounters::new(cands.len());
                count(&mut CounterRef::Local(&mut local));
                reduce(&[local])
            } else {
                let shared = FlatCounters::new(cands.len());
                match metrics {
                    Some(m) => count(&mut CounterRef::Shared(&TalliedCounters::new(
                        &shared,
                        m.shard(0),
                    ))),
                    None => count(&mut CounterRef::Shared(&shared)),
                }
                shared.snapshot()
            };
            drop(counted);
            trimmed = survivors.map(DatabaseBuilder::finish);
            if let Some(m) = metrics {
                m.shard(0)
                    .add(Counter::ScratchStampBytes, scratch.stamp_bytes() as u64);
            }
            if let Some(s) = span {
                s.finish(vec![meter.work_units()]);
            }
            (counts, meter, (fanout, tree.total_bytes(), tree.n_nodes()))
        };

        // Frequent extraction.
        let span = phase(metrics, "extract", k);
        let fk = FrequentLevel::from_counts(&cands, &counts, min_support);
        if let Some(s) = span {
            s.finish_serial();
        }

        let (fanout, tree_bytes, tree_nodes) = tree_shape;
        iter_stats.push(IterStats {
            k,
            n_candidates: cands.len(),
            n_frequent: fk.len(),
            fanout,
            tree_bytes,
            tree_nodes,
            join_pairs,
            meter,
        });

        let done = fk.is_empty();
        if !done {
            levels.push(fk);
        }
        k += 1;
        if done {
            break;
        }
    }

    MiningResult {
        levels,
        iter_stats,
        min_support,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Support;
    use arm_hashtree::PlacementPolicy;

    fn paper_db() -> Database {
        Database::from_transactions(
            8,
            [
                vec![1u32, 4, 5],
                vec![1, 2],
                vec![3, 4, 5],
                vec![1, 2, 4, 5],
            ],
        )
        .unwrap()
    }

    fn paper_config() -> AprioriConfig {
        AprioriConfig {
            min_support: Support::Absolute(2),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        }
    }

    #[test]
    fn paper_worked_example_end_to_end() {
        let r = mine(&paper_db(), &paper_config());
        assert_eq!(r.min_support, 2);
        // F1 = {1,2,4,5}; F2 = {(1,2),(1,4),(1,5),(4,5)}; F3 = {(1,4,5)}.
        assert_eq!(r.levels.len(), 3);
        assert_eq!(r.levels[0].len(), 4);
        let f2: Vec<Vec<u32>> = r.levels[1].iter().map(|(s, _)| s.to_vec()).collect();
        assert_eq!(f2, vec![vec![1, 2], vec![1, 4], vec![1, 5], vec![4, 5]]);
        assert_eq!(r.levels[2].len(), 1);
        assert_eq!(r.levels[2].get(0), &[1, 4, 5]);
        assert_eq!(r.support_of(&[1, 4, 5]), Some(2));
        assert_eq!(r.support_of(&[2, 4]), None);
        assert_eq!(r.total_frequent(), 9);
        assert_eq!(r.max_k(), 3);
    }

    #[test]
    fn all_configurations_agree() {
        let db = paper_db();
        // The default: arrays at every level, no tree.
        let reference = mine(&db, &paper_config()).all_itemsets();
        assert_eq!(reference, crate::naive::mine_exhaustive(&db, 2));
        // Every tree knob, on the tree (`pair_array: false`); `fast` turns
        // the counting fast path on and off together.
        use arm_hashtree::VisitedMode;
        for placement in PlacementPolicy::ALL {
            for scheme in [HashScheme::Interleaved, HashScheme::Bitonic] {
                for sc in [false, true] {
                    for adaptive in [false, true] {
                        for visited in [VisitedMode::PerNode, VisitedMode::LevelPath] {
                            for fast in [false, true] {
                                let cfg = AprioriConfig {
                                    min_support: Support::Absolute(2),
                                    leaf_threshold: 2,
                                    hash_scheme: scheme,
                                    adaptive_fanout: adaptive,
                                    fixed_fanout: 3,
                                    short_circuit: sc,
                                    visited,
                                    pair_array: false,
                                    placement,
                                    max_k: None,
                                    hash_memo: fast,
                                    trim_transactions: fast,
                                    iterative_walk: fast,
                                    reuse_scratch: fast,
                                };
                                let got = mine(&db, &cfg).all_itemsets();
                                assert_eq!(
                                    got, reference,
                                    "{placement} {scheme:?} sc={sc} {visited:?} fast={fast}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_k_caps_iterations() {
        let cfg = AprioriConfig {
            max_k: Some(2),
            ..paper_config()
        };
        let r = mine(&paper_db(), &cfg);
        assert_eq!(r.levels.len(), 2);
        assert_eq!(r.max_k(), 2);
    }

    #[test]
    fn stats_are_recorded_per_iteration() {
        let r = mine(&paper_db(), &paper_config());
        assert_eq!(r.iter_stats[0].k, 1);
        let s2 = &r.iter_stats[1];
        assert_eq!(s2.k, 2);
        assert_eq!(s2.n_candidates, 6);
        assert_eq!(s2.n_frequent, 4);
        assert_eq!(s2.join_pairs, 6);
        // The pair array: no tree, one hit per pair increment.
        assert_eq!((s2.tree_bytes, s2.tree_nodes, s2.fanout), (0, 0, 0));
        assert_eq!(s2.meter.txns, 4);
        assert_eq!(s2.meter.hits, 11);
        let s3 = &r.iter_stats[2];
        assert_eq!(s3.k, 3);
        assert_eq!(s3.n_candidates, 1);
        assert_eq!(s3.n_frequent, 1);
        // The class array: no tree, one hit per contained candidate.
        assert_eq!((s3.tree_bytes, s3.tree_nodes, s3.fanout), (0, 0, 0));
        assert_eq!((s3.join_pairs, s3.meter.hits), (3, 2));

        let tree = mine(
            &paper_db(),
            &AprioriConfig {
                pair_array: false,
                ..paper_config()
            },
        );
        let t2 = &tree.iter_stats[1];
        assert_eq!((t2.n_candidates, t2.n_frequent, t2.join_pairs), (6, 4, 6));
        assert!(t2.tree_bytes > 0);
        assert_eq!(t2.meter.txns, 4);
        let t3 = &tree.iter_stats[2];
        assert_eq!((t3.n_candidates, t3.n_frequent, t3.join_pairs), (1, 1, 3));
        assert!(t3.tree_bytes > 0);
        assert_eq!(t3.meter.hits, s3.meter.hits);
        assert_eq!(tree.all_itemsets(), r.all_itemsets());
    }

    #[test]
    fn mine_with_registry_records_phases_and_matches_plain_mine() {
        let db = paper_db();
        // The default counts every level in arrays; the tree path builds
        // and freezes a tree per level.
        let tree_cfg = AprioriConfig {
            pair_array: false,
            ..paper_config()
        };
        for (cfg, tree) in [(paper_config(), false), (tree_cfg, true)] {
            let reference = mine(&db, &cfg).all_itemsets();
            let metrics = MetricsRegistry::new(1);
            let r = mine_with(&db, &cfg, Some(&metrics));
            assert_eq!(r.all_itemsets(), reference);

            let phases = metrics.take_phases();
            for name in ["f1", "candgen", "count", "extract"] {
                assert!(
                    phases.iter().any(|p| p.name == name),
                    "missing phase {name}"
                );
            }
            for name in ["build", "freeze"] {
                assert_eq!(
                    phases.iter().any(|p| p.name == name),
                    tree,
                    "phase {name}, tree={tree}"
                );
            }
            // Counting phases carry a single-thread work vector.
            for k in [2, 3] {
                let count = phases
                    .iter()
                    .find(|p| p.name == "count" && p.k == k)
                    .unwrap();
                assert_eq!(count.thread_work.as_ref().map(Vec::len), Some(1));
                assert!(count.thread_work.as_ref().unwrap()[0] > 0);
            }

            let snap = metrics.snapshot();
            let locks = snap.total(Counter::LeafLockAcquires);
            let bytes = snap.total(Counter::TreeBytes);
            if MetricsRegistry::enabled() && tree {
                assert!(locks > 0 && bytes > 0);
            } else {
                assert_eq!((locks, bytes), (0, 0), "tree={tree}");
            }
        }
    }

    #[test]
    fn empty_database_mines_nothing() {
        let db = Database::from_transactions(4, Vec::<Vec<u32>>::new()).unwrap();
        let r = mine(&db, &AprioriConfig::default());
        assert_eq!(r.total_frequent(), 0);
    }

    #[test]
    fn support_one_hundred_percent() {
        let db = Database::from_transactions(4, [vec![0u32, 1, 2], vec![0, 1, 2], vec![0, 1, 2]])
            .unwrap();
        let cfg = AprioriConfig {
            min_support: Support::Fraction(1.0),
            leaf_threshold: 2,
            ..AprioriConfig::default()
        };
        let r = mine(&db, &cfg);
        // Everything is frequent: 3 singles, 3 pairs, 1 triple.
        assert_eq!(r.total_frequent(), 7);
        assert_eq!(r.support_of(&[0, 1, 2]), Some(3));
    }
}
