//! Concurrency stress: 8 threads hammer the shared hash tree build and
//! the shared support counters with *randomized* block splits, and the
//! final counts must be bit-identical to the sequential ground truth
//! every round.
//!
//! The randomized splits (including empty and wildly skewed blocks) shake
//! out ordering assumptions that fixed even partitions would never hit;
//! the metrics registry rides along so the lock/CAS telemetry is itself
//! validated against exact invariants (every tallied counter increment
//! corresponds to one final support unit).

use parallel_arm::core::{
    adaptive_fanout, equivalence_classes, f1_items, frequent_singletons, generate_class, make_hash,
    HashScheme,
};
use parallel_arm::hashtree::{
    freeze_policy, naive_counts, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter,
    PlacementPolicy, TreeBuilder, WorkMeter,
};
use parallel_arm::mem::FlatCounters;
use parallel_arm::metrics::{Counter, MetricsRegistry, TalliedCounters};
use parallel_arm::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::ops::Range;
use std::thread;

const THREADS: usize = 8;
const ROUNDS: u64 = 5;

/// Splits `0..n` into `parts` contiguous blocks at random cut points.
/// Blocks may be empty or hold nearly everything — that skew is the point.
fn random_splits(rng: &mut StdRng, n: usize, parts: usize) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = (0..parts - 1).map(|_| rng.gen_range(0..n + 1)).collect();
    cuts.sort_unstable();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for c in cuts {
        out.push(start..c);
        start = c;
    }
    out.push(start..n);
    out
}

struct Fixture {
    db: Database,
    cands: CandidateSet,
    hash: parallel_arm::balance::AnyHash,
    expected: Vec<u32>,
}

fn fixture() -> Fixture {
    let mut p = QuestParams::paper(10, 4, 1_000).with_seed(42);
    p.n_patterns = 60;
    let db = generate(&p);
    let minsup = db.absolute_support(0.01);
    let f1 = frequent_singletons(&db, minsup);
    let classes = equivalence_classes(&f1);
    let mut cands = CandidateSet::new(2);
    let mut scratch = Vec::new();
    for c in &classes {
        generate_class(&f1, c.clone(), &mut cands, &mut scratch);
    }
    assert!(cands.len() > THREADS, "fixture too small to stress");
    let fanout = adaptive_fanout(&classes, 4, 2);
    let hash = make_hash(HashScheme::Bitonic, fanout, &f1_items(&f1), db.n_items());
    let expected = naive_counts(&cands, &db);
    Fixture {
        db,
        cands,
        hash,
        expected,
    }
}

#[test]
fn randomized_build_and_shared_count_is_bit_identical_to_sequential() {
    let fx = fixture();
    let total_hits: u64 = fx.expected.iter().map(|&c| c as u64).sum();
    assert!(total_hits > 0);

    for round in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ round);
        let metrics = MetricsRegistry::new(THREADS);

        // Phase 1: concurrent tree build over randomized candidate blocks.
        let builder = TreeBuilder::new(&fx.cands, &fx.hash, 4);
        let cand_blocks = random_splits(&mut rng, fx.cands.len(), THREADS);
        thread::scope(|s| {
            for (t, range) in cand_blocks.iter().cloned().enumerate() {
                let builder = &builder;
                let metrics = &metrics;
                s.spawn(move || {
                    let shard = metrics.shard(t);
                    for id in range {
                        builder.insert_tallied(id as u32, shard);
                    }
                });
            }
        });
        // External-counter placement: counting goes through FlatCounters.
        let tree = freeze_policy(&builder, PlacementPolicy::LGpp);
        assert!(!tree.counters_inline());

        // Phase 2: concurrent counting over randomized database blocks
        // into one shared atomic counter array.
        let shared = FlatCounters::new(fx.cands.len());
        let db_blocks = random_splits(&mut rng, fx.db.len(), THREADS);
        thread::scope(|s| {
            for (t, range) in db_blocks.iter().cloned().enumerate() {
                let tree = &tree;
                let shared = &shared;
                let metrics = &metrics;
                let fx = &fx;
                s.spawn(move || {
                    let shard = metrics.shard(t);
                    let mut scratch = CountScratch::new(fx.db.n_items(), tree.n_nodes());
                    let tallied = TalliedCounters::new(shared, shard);
                    let mut cref = CounterRef::Shared(&tallied);
                    let mut meter = WorkMeter::default();
                    tree.count_partition(
                        &fx.hash,
                        &fx.db,
                        range,
                        None::<&ItemFilter>,
                        &mut scratch,
                        &mut cref,
                        CountOptions::default(),
                        &mut meter,
                    );
                });
            }
        });

        assert_eq!(shared.snapshot(), fx.expected, "round {round}");
        if MetricsRegistry::enabled() {
            let snap = metrics.snapshot();
            // One lock acquisition per insert, at minimum.
            assert!(snap.total(Counter::LeafLockAcquires) >= fx.cands.len() as u64);
            // Every final support unit passed through the tallied counters
            // exactly once.
            assert_eq!(snap.total(Counter::CtrIncrements), total_hits);
            assert!(snap.total(Counter::CtrCasRetries) <= total_hits);
        }
    }
}

#[test]
fn randomized_inline_count_is_bit_identical_to_sequential() {
    // Same stress against the *inline* (in-node atomic) counter path the
    // CCPD placement uses.
    let fx = fixture();
    for round in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ round);
        let builder = TreeBuilder::new(&fx.cands, &fx.hash, 4);
        let cand_blocks = random_splits(&mut rng, fx.cands.len(), THREADS);
        thread::scope(|s| {
            for range in cand_blocks.iter().cloned() {
                let builder = &builder;
                s.spawn(move || {
                    for id in range {
                        builder.insert(id as u32);
                    }
                });
            }
        });
        let tree = freeze_policy(&builder, PlacementPolicy::Ccpd);
        assert!(tree.counters_inline());

        let db_blocks = random_splits(&mut rng, fx.db.len(), THREADS);
        thread::scope(|s| {
            for range in db_blocks.iter().cloned() {
                let tree = &tree;
                let fx = &fx;
                s.spawn(move || {
                    let mut scratch = CountScratch::new(fx.db.n_items(), tree.n_nodes());
                    let mut cref = CounterRef::Inline;
                    let mut meter = WorkMeter::default();
                    tree.count_partition(
                        &fx.hash,
                        &fx.db,
                        range,
                        None::<&ItemFilter>,
                        &mut scratch,
                        &mut cref,
                        CountOptions::default(),
                        &mut meter,
                    );
                });
            }
        });
        assert_eq!(tree.inline_counts(), fx.expected, "round {round}");
    }
}

#[test]
fn guided_pool_shared_count_is_bit_identical_to_sequential() {
    // Same invariant under the guided executor, seeded as lopsidedly as
    // possible: thread 0 owns the whole database and the other 7 start
    // empty, so every chunk they execute came off thread 0's seed range.
    use parallel_arm::exec::{ChunkPool, Scheduling};
    use std::sync::Mutex;
    const FLOOR: usize = 4;

    let fx = fixture();
    let total_hits: u64 = fx.expected.iter().map(|&c| c as u64).sum();
    for round in 0..ROUNDS {
        let builder = TreeBuilder::new(&fx.cands, &fx.hash, 4);
        for id in 0..fx.cands.len() {
            builder.insert(id as u32);
        }
        let tree = freeze_policy(&builder, PlacementPolicy::LGpp);

        let metrics = MetricsRegistry::new(THREADS);
        let shared = FlatCounters::new(fx.cands.len());
        let mut seeds: Vec<Range<usize>> = (1..THREADS).map(|_| fx.db.len()..fx.db.len()).collect();
        seeds.insert(0, 0..fx.db.len());
        let pool = ChunkPool::with_floor(&seeds, Scheduling::Guided, FLOOR);
        let claimed: Vec<Mutex<Vec<Range<usize>>>> =
            (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();
        thread::scope(|s| {
            for t in 0..THREADS {
                let tree = &tree;
                let shared = &shared;
                let metrics = &metrics;
                let pool = &pool;
                let claimed = &claimed;
                let fx = &fx;
                s.spawn(move || {
                    let shard = metrics.shard(t);
                    let mut scratch = CountScratch::new(fx.db.n_items(), tree.n_nodes());
                    let tallied = TalliedCounters::new(shared, shard);
                    let mut cref = CounterRef::Shared(&tallied);
                    let mut meter = WorkMeter::default();
                    while let Some(range) = pool.next(t) {
                        claimed[t].lock().unwrap().push(range.clone());
                        tree.count_partition(
                            &fx.hash,
                            &fx.db,
                            range,
                            None::<&ItemFilter>,
                            &mut scratch,
                            &mut cref,
                            CountOptions::default(),
                            &mut meter,
                        );
                    }
                });
            }
        });

        assert_eq!(shared.snapshot(), fx.expected, "round {round}");
        let mut items = 0u64;
        let mut chunks = Vec::new();
        for (t, mine) in claimed.iter().enumerate() {
            let s = pool.thread_stats(t);
            items += s.items;
            let mine = mine.lock().unwrap();
            assert_eq!(s.chunks, mine.len() as u64, "thread {t} round {round}");
            chunks.extend(mine.iter().cloned());
        }
        assert_eq!(items, fx.db.len() as u64, "exactly-once round {round}");
        // Guided geometry: the chunks, in cursor order, tile the database
        // contiguously with non-increasing sizes, and only the final
        // remainder may fall below the floor.
        chunks.sort_unstable_by_key(|r| r.start);
        let mut end = 0;
        for (i, r) in chunks.iter().enumerate() {
            assert_eq!(r.start, end, "contiguous tiling round {round}");
            end = r.end;
            if let Some(next) = chunks.get(i + 1) {
                assert!(r.len() >= next.len(), "shrinking chunks round {round}");
                assert!(r.len() >= FLOOR, "floor respected round {round}");
            }
        }
        assert_eq!(end, fx.db.len(), "full coverage round {round}");
        if MetricsRegistry::enabled() {
            assert_eq!(metrics.snapshot().total(Counter::CtrIncrements), total_hits);
        }
    }
}

#[test]
fn vertical_randomized_class_splits_are_bit_identical_to_sequential() {
    // The vertical miner under the same adversarial regime: 8 threads,
    // randomized (possibly empty or wildly skewed) seed tilings of the
    // first-level class space, every round bit-identical to the
    // sequential miner for both tidset backends.
    use parallel_arm::vertical::{
        mine_eclat_parallel_seeded, mine_vertical, TidBackend, VerticalConfig,
    };

    let mut p = QuestParams::paper(10, 4, 1_000).with_seed(42);
    p.n_patterns = 60;
    let db = generate(&p);
    let minsup = db.absolute_support(0.01);
    // Number of first-level classes = number of frequent singletons.
    let n_classes = frequent_singletons(&db, minsup).len();
    assert!(n_classes > THREADS, "fixture too small to stress");

    for backend in [TidBackend::Sorted, TidBackend::Bitmap] {
        let cfg = VerticalConfig::default().with_backend(backend);
        let expected = mine_vertical(&db, minsup, None, &cfg);
        assert!(!expected.is_empty());
        for round in 0..ROUNDS {
            let mut rng = StdRng::seed_from_u64(0xECA7 ^ round);
            let seeds = random_splits(&mut rng, n_classes, THREADS);
            let (got, stats) = mine_eclat_parallel_seeded(&db, minsup, None, &cfg, THREADS, &seeds);
            assert_eq!(got, expected, "backend={backend:?} round {round}");
            assert_eq!(stats.n_threads, THREADS);
            if MetricsRegistry::enabled() {
                // Parallel runs do exactly the sequential intersection count
                // (tasks are disjoint class subtrees — no duplicated work).
                let (_, seq_stats) =
                    parallel_arm::vertical::mine_vertical_stats(&db, minsup, None, &cfg);
                assert_eq!(
                    stats.metrics.total(Counter::TidsetIntersections),
                    seq_stats.intersections,
                    "backend={backend:?} round {round}"
                );
            }
        }
    }
}
