//! Property tests: the hash-tree counting kernel must agree with naive
//! subset counting for every placement policy, hash function, visited
//! mode, short-circuit setting, and transaction trimming, over arbitrary
//! candidate sets and databases. The `trim_lossless_*` properties check
//! that the hit trim's survivors lose nothing the next level counts.

use arm_balance::{BitonicHash, HashFn, IndirectionHash, ModHash};
use arm_dataset::{Database, DatabaseBuilder};
use arm_hashtree::{
    freeze_policy, naive_counts, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter,
    PlacementPolicy, TreeBuilder, VisitedMode, WorkMeter,
};
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use std::collections::BTreeSet;

const N_ITEMS: u32 = 14;

/// Strategy: a set of distinct sorted k-itemsets.
fn candidates(k: usize) -> impl Strategy<Value = CandidateSet> {
    btree_set(btree_set(0..N_ITEMS, k), 0..25).prop_map(move |sets| {
        let mut c = CandidateSet::new(k as u32);
        for s in sets {
            let items: Vec<u32> = s.into_iter().collect();
            c.push(&items);
        }
        c
    })
}

fn database() -> impl Strategy<Value = Database> {
    vec(vec(0..N_ITEMS, 0..10), 0..30)
        .prop_map(|txns| Database::from_transactions(N_ITEMS, txns).unwrap())
}

/// The three hash families under test; `Indirection` is built over the
/// distinct candidate items (standing in for F1).
fn make_hash(kind: usize, fanout: u32, cands: &CandidateSet) -> Box<dyn HashFn> {
    match kind {
        0 => Box::new(ModHash::new(fanout)),
        1 => Box::new(BitonicHash::new(fanout)),
        _ => {
            let items: std::collections::BTreeSet<u32> =
                cands.iter().flat_map(|(_, s)| s.iter().copied()).collect();
            let items: Vec<u32> = items.into_iter().collect();
            Box::new(IndirectionHash::for_frequent_items(&items, N_ITEMS, fanout))
        }
    }
}

fn count_with(
    cands: &CandidateSet,
    db: &Database,
    hash: &dyn HashFn,
    policy: PlacementPolicy,
    threshold: usize,
    opts: CountOptions,
    trim: bool,
) -> Vec<u32> {
    struct Dyn<'a>(&'a dyn HashFn);
    impl HashFn for Dyn<'_> {
        fn hash(&self, i: u32) -> u32 {
            self.0.hash(i)
        }
        fn fanout(&self) -> u32 {
            self.0.fanout()
        }
    }
    let hash = Dyn(hash);
    let b = TreeBuilder::new(cands, &hash, threshold);
    b.insert_all();
    let tree = freeze_policy(&b, policy);
    let filter = trim.then(|| ItemFilter::from_candidates(cands, N_ITEMS));
    let filter = filter.as_ref();
    let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
    let mut meter = WorkMeter::default();
    if tree.counters_inline() {
        tree.count_partition(
            &hash,
            db,
            0..db.len(),
            filter,
            &mut scratch,
            &mut CounterRef::Inline,
            opts,
            &mut meter,
        );
        tree.inline_counts()
    } else {
        let shared = arm_mem::FlatCounters::new(cands.len());
        tree.count_partition(
            &hash,
            db,
            0..db.len(),
            filter,
            &mut scratch,
            &mut CounterRef::Shared(&shared),
            opts,
            &mut meter,
        );
        shared.snapshot()
    }
}

/// Strategy: `C_k` for `k` in 2..=4, as every k-subset of a few random
/// patterns (so that `C_{k+1}` is not empty) plus some random k-itemsets.
fn patterned_candidates() -> impl Strategy<Value = CandidateSet> {
    (
        2usize..5,
        vec(btree_set(0..N_ITEMS, 5..8), 1..4),
        vec(btree_set(0..N_ITEMS, 4..5), 0..10),
    )
        .prop_map(|(k, patterns, extra)| {
            let mut sets: BTreeSet<Vec<u32>> = extra
                .into_iter()
                .map(|s| s.into_iter().take(k).collect())
                .collect();
            for p in patterns {
                let p: Vec<u32> = p.into_iter().collect();
                subsets(&p, k, &mut Vec::new(), &mut sets);
            }
            let mut c = CandidateSet::new(k as u32);
            for s in &sets {
                c.push(s);
            }
            c
        })
}

/// Adds every `k`-subset of `items` (extending `prefix`) to `out`.
fn subsets(items: &[u32], k: usize, prefix: &mut Vec<u32>, out: &mut BTreeSet<Vec<u32>>) {
    if prefix.len() == k {
        out.insert(prefix.clone());
        return;
    }
    for (i, &x) in items.iter().enumerate() {
        prefix.push(x);
        subsets(&items[i + 1..], k, prefix, out);
        prefix.pop();
    }
}

/// `C_{k+1}` of `cands` by brute force: every (k+1)-itemset all of whose
/// k-subsets are in `cands`.
fn next_level(cands: &CandidateSet) -> CandidateSet {
    let k = cands.k() as usize;
    let known: BTreeSet<Vec<u32>> = cands.iter().map(|(_, s)| s.to_vec()).collect();
    let mut next = CandidateSet::new(k as u32 + 1);
    for x in &known {
        for j in x[k - 1] + 1..N_ITEMS {
            let mut y = x.clone();
            y.push(j);
            let mut subs = BTreeSet::new();
            subsets(&y, k, &mut Vec::new(), &mut subs);
            if subs.is_subset(&known) {
                next.push(&y);
            }
        }
    }
    next
}

/// One trimmed count pass (item filter on) over `db`, with or without
/// survivors: the counts, the meter and the survivors.
fn count_surviving(
    cands: &CandidateSet,
    db: &Database,
    fanout: u32,
    policy: PlacementPolicy,
    opts: CountOptions,
    survivors: bool,
) -> (Vec<u32>, WorkMeter, Option<Database>) {
    let hash = ModHash::new(fanout);
    let b = TreeBuilder::new(cands, &hash, 2);
    b.insert_all();
    let tree = freeze_policy(&b, policy);
    let filter = ItemFilter::from_candidates(cands, N_ITEMS);
    let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
    let mut meter = WorkMeter::default();
    let mut out = survivors.then(|| DatabaseBuilder::new(N_ITEMS));
    let mut count = |cref: &mut CounterRef<'_>| {
        tree.count_trimmed(
            &hash,
            db,
            0..db.len(),
            Some(&filter),
            &mut scratch,
            cref,
            opts,
            &mut meter,
            out.as_mut(),
        )
    };
    let counts = if tree.counters_inline() {
        count(&mut CounterRef::Inline);
        tree.inline_counts()
    } else if policy.per_thread_counters() {
        let mut local = arm_mem::LocalCounters::new(cands.len());
        count(&mut CounterRef::Local(&mut local));
        arm_mem::counters::reduce(&[local])
    } else {
        let shared = arm_mem::FlatCounters::new(cands.len());
        count(&mut CounterRef::Shared(&shared));
        shared.snapshot()
    };
    (counts, meter, out.map(DatabaseBuilder::finish))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Asking for survivors changes nothing about the pass itself: same
    /// counts, same work meter.
    #[test]
    fn trim_lossless_survivors_keep_counts(
        cands in patterned_candidates(),
        db in vec(vec(0..N_ITEMS, 0..12), 0..30)
            .prop_map(|t| Database::from_transactions(N_ITEMS, t).unwrap()),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
        level_path in any::<bool>(),
    ) {
        let policy = PlacementPolicy::ALL[policy_ix];
        let opts = CountOptions {
            visited: if level_path { VisitedMode::LevelPath } else { VisitedMode::PerNode },
            ..CountOptions::default()
        };
        let (plain, plain_meter, none) = count_surviving(&cands, &db, fanout, policy, opts, false);
        let (with, with_meter, some) = count_surviving(&cands, &db, fanout, policy, opts, true);
        prop_assert!(none.is_none() && some.is_some());
        prop_assert_eq!(&plain, &naive_counts(&cands, &db));
        prop_assert_eq!(with, plain);
        prop_assert_eq!(with_meter, plain_meter);
    }

    /// The hit trim is lossless for the next level: every `C_{k+1}`
    /// candidate has the same support over the survivors as over the
    /// input, and no survivor is shorter than `k + 1`.
    #[test]
    fn trim_lossless_survivors_keep_next_level_supports(
        cands in patterned_candidates(),
        db in vec(vec(0..N_ITEMS, 0..12), 0..30)
            .prop_map(|t| Database::from_transactions(N_ITEMS, t).unwrap()),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
    ) {
        let k = cands.k() as usize;
        let next = next_level(&cands);
        let policy = PlacementPolicy::ALL[policy_ix];
        let (_, _, survivors) =
            count_surviving(&cands, &db, fanout, policy, CountOptions::default(), true);
        let survivors = survivors.unwrap();
        prop_assert!(survivors.len() <= db.len());
        prop_assert!(survivors.iter().all(|t| t.len() > k));
        prop_assert_eq!(naive_counts(&next, &survivors), naive_counts(&next, &db));
    }

    #[test]
    fn counting_matches_naive(
        cands in candidates(3),
        db in database(),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
        threshold in 1usize..5,
        hash_kind in 0usize..3,
        short_circuit in any::<bool>(),
        level_path in any::<bool>(),
        trim in any::<bool>(),
    ) {
        let expected = naive_counts(&cands, &db);
        let hash = make_hash(hash_kind, fanout, &cands);
        let opts = CountOptions {
            short_circuit,
            visited: if level_path { VisitedMode::LevelPath } else { VisitedMode::PerNode },
            ..CountOptions::default()
        };
        let got = count_with(
            &cands,
            &db,
            hash.as_ref(),
            PlacementPolicy::ALL[policy_ix],
            threshold,
            opts,
            trim,
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn counting_matches_naive_k2(
        cands in candidates(2),
        db in database(),
        fanout in 2u32..8,
    ) {
        let expected = naive_counts(&cands, &db);
        let hash = ModHash::new(fanout);
        let got = count_with(
            &cands,
            &db,
            &hash,
            PlacementPolicy::Spp,
            2,
            CountOptions::default(),
            false,
        );
        prop_assert_eq!(got, expected);
    }

    /// Transaction trimming is lossless: trimmed and untrimmed runs
    /// produce identical counts for every knob setting that shares them.
    #[test]
    fn trimming_is_lossless(
        cands in candidates(3),
        db in database(),
        policy_ix in 0usize..8,
        fanout in 2u32..6,
        threshold in 1usize..5,
        hash_kind in 0usize..3,
    ) {
        let hash = make_hash(hash_kind, fanout, &cands);
        let policy = PlacementPolicy::ALL[policy_ix];
        let opts = CountOptions::default();
        let untrimmed = count_with(&cands, &db, hash.as_ref(), policy, threshold, opts, false);
        let trimmed = count_with(&cands, &db, hash.as_ref(), policy, threshold, opts, true);
        prop_assert_eq!(trimmed, untrimmed);
    }

    /// Parallel insertion produces the same frozen image counts as
    /// sequential insertion.
    #[test]
    fn parallel_build_equivalent(
        cands in candidates(3),
        db in database(),
    ) {
        prop_assume!(cands.len() >= 2);
        let hash = ModHash::new(3);
        let seq = TreeBuilder::new(&cands, &hash, 2);
        seq.insert_all();
        let par = TreeBuilder::new(&cands, &hash, 2);
        std::thread::scope(|s| {
            for t in 0..3u32 {
                let par = &par;
                let n = cands.len() as u32;
                s.spawn(move || {
                    let mut id = t;
                    while id < n {
                        par.insert(id);
                        id += 3;
                    }
                });
            }
        });
        let count = |b: &TreeBuilder<'_, ModHash>| {
            let tree = freeze_policy(b, PlacementPolicy::Gpp);
            let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions::default(),
                &mut meter,
            );
            tree.inline_counts()
        };
        prop_assert_eq!(count(&seq), count(&par));
    }

    /// Short-circuiting never changes counts, only the visit tally.
    #[test]
    fn short_circuit_only_saves_work(
        cands in candidates(3),
        db in database(),
    ) {
        let hash = ModHash::new(3);
        let run = |sc: bool| {
            let b = TreeBuilder::new(&cands, &hash, 2);
            b.insert_all();
            let tree = freeze_policy(&b, PlacementPolicy::Spp);
            let mut scratch = CountScratch::new(N_ITEMS, tree.n_nodes());
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions { short_circuit: sc, ..CountOptions::default() },
                &mut meter,
            );
            (tree.inline_counts(), meter.node_visits)
        };
        let (counts_off, visits_off) = run(false);
        let (counts_on, visits_on) = run(true);
        prop_assert_eq!(counts_off, counts_on);
        prop_assert!(visits_on <= visits_off);
    }
}
