//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Counter placement** (§5.2): inline vs segregated vs cache-line
//!    padded (the paper's rejected scheme) vs per-thread privatized —
//!    kernel-level counting time and counter footprint.
//! 2. **Leaf threshold `T`**: split threshold vs mining time, tree size,
//!    and worst leaf occupancy ("fan-out large, threshold small").
//! 3. **Fan-out**: the adaptive rule (§3.1.1) vs fixed values.
//! 4. **VISITED scheme** (§4.2): per-node vs the reduced `k·H` path
//!    stamps — time and stamp memory.
//! 5. **Database partitioning** (§3.2.2): block vs weighted on a
//!    length-skewed database.
//!
//! Every run sets `pair_array: false`: the ablations measure the hash
//! tree, its count phase and its placement, `k = 2` included.

use arm_bench::{banner, host_cores, reps_for, time_best, Csv, DatasetCache, ScaleMode};
use arm_core::{
    equivalence_classes, frequent_singletons, generate_class, make_hash, mine, AprioriConfig,
    HashScheme, Support,
};
use arm_dataset::{Database, DatabaseBuilder};
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, PlacementPolicy,
    TreeBuilder, VisitedMode, WorkMeter,
};
use arm_mem::{FlatCounters, LocalCounters, PaddedCounters, SharedCounters};
use arm_parallel::{ccpd, DbPartition, ParallelConfig};
use arm_quest::{generate, QuestParams};

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Ablations: counters, leaf threshold, fan-out, visited scheme, db partition",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale).max(2);
    let db = cache.get(10, 4, 100_000);

    counter_placement(&db, reps);
    leaf_threshold(&db, reps);
    fanout(&db, reps);
    visited_scheme(&db, reps);
    db_partitioning(scale, reps);
}

/// Builds the C2 tree of `db` at 0.5% support for kernel-level ablations.
fn c2_fixture(db: &Database) -> (CandidateSet, arm_balance::AnyHash) {
    let minsup = db.absolute_support(0.005);
    let f1 = frequent_singletons(db, minsup);
    let classes = equivalence_classes(&f1);
    let mut cands = CandidateSet::new(2);
    let mut scratch = Vec::new();
    for c in &classes {
        generate_class(&f1, c.clone(), &mut cands, &mut scratch);
    }
    let h = arm_core::adaptive_fanout(&classes, 8, 2);
    let f1_items = arm_core::f1_items(&f1);
    let hash = make_hash(HashScheme::Bitonic, h, &f1_items, db.n_items());
    (cands, hash)
}

fn counter_placement(db: &Database, reps: usize) {
    println!("-- counter placement (C2 kernel, one full scan) --");
    let (cands, hash) = c2_fixture(db);
    let builder = TreeBuilder::new(&cands, &hash, 8);
    builder.insert_all();
    let mut csv = Csv::new("ablation_counters.csv", "mode,seconds,footprint_bytes");

    // Inline counters (count words inside itemset blocks).
    let inline_tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let (t_inline, _) = time_best(reps, || {
        let mut scratch = CountScratch::new(db.n_items(), inline_tree.n_nodes());
        let mut meter = WorkMeter::default();
        inline_tree.count_partition(
            &hash,
            db,
            0..db.len(),
            None,
            &mut scratch,
            &mut CounterRef::Inline,
            CountOptions::default(),
            &mut meter,
        );
        meter.hits
    });
    let rows: Vec<(&str, f64, usize)> = {
        let external = freeze_policy(&builder, PlacementPolicy::LGpp);
        let run_shared = |counters: &dyn SharedCounters| {
            let mut scratch = CountScratch::new(db.n_items(), external.n_nodes());
            let mut meter = WorkMeter::default();
            external.count_partition(
                &hash,
                db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Shared(counters),
                CountOptions::default(),
                &mut meter,
            );
            meter.hits
        };
        let flat = FlatCounters::new(cands.len());
        let (t_flat, _) = time_best(reps, || run_shared(&flat));
        let padded = PaddedCounters::new(cands.len());
        let (t_padded, _) = time_best(reps, || run_shared(&padded));
        let (t_local, _) = time_best(reps, || {
            let mut local = LocalCounters::new(cands.len());
            let mut scratch = CountScratch::new(db.n_items(), external.n_nodes());
            let mut meter = WorkMeter::default();
            external.count_partition(
                &hash,
                db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Local(&mut local),
                CountOptions::default(),
                &mut meter,
            );
            meter.hits
        });
        vec![
            ("inline", t_inline, 4 * cands.len()),
            ("segregated-flat", t_flat, flat.footprint_bytes()),
            ("padded-line", t_padded, padded.footprint_bytes()),
            ("per-thread", t_local, 4 * cands.len()),
        ]
    };
    println!("{:<18} {:>10} {:>14}", "mode", "seconds", "footprint B");
    for (name, secs, bytes) in rows {
        println!("{name:<18} {secs:>10.4} {bytes:>14}");
        csv.row(format!("{name},{secs:.5},{bytes}"));
    }
    println!("  (paper: padding removes false sharing at a 16x footprint; it rejects it)\n");
    csv.finish();
}

fn leaf_threshold(db: &Database, reps: usize) {
    println!("-- leaf split threshold T --");
    let mut csv = Csv::new("ablation_threshold.csv", "threshold,seconds,max_tree_bytes");
    println!("{:>4} {:>10} {:>14}", "T", "seconds", "max tree B");
    for t in [1usize, 2, 4, 8, 16, 32, 64] {
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.005),
            leaf_threshold: t,
            max_k: Some(4),
            pair_array: false,
            ..AprioriConfig::default()
        };
        let (secs, r) = time_best(reps, || mine(db, &cfg));
        let bytes = r.iter_stats.iter().map(|s| s.tree_bytes).max().unwrap_or(0);
        println!("{t:>4} {secs:>10.4} {bytes:>14}");
        csv.row(format!("{t},{secs:.5},{bytes}"));
    }
    println!("  (small T = fast leaf scans but bigger trees; the paper favors small T)\n");
    csv.finish();
}

fn fanout(db: &Database, reps: usize) {
    println!("-- hash-table fan-out H --");
    let mut csv = Csv::new("ablation_fanout.csv", "fanout,seconds");
    println!("{:>8} {:>10}", "H", "seconds");
    for f in ["auto", "2", "8", "32", "128"] {
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.005),
            adaptive_fanout: f == "auto",
            fixed_fanout: f.parse().unwrap_or(8),
            max_k: Some(4),
            pair_array: false,
            ..AprioriConfig::default()
        };
        let (secs, _) = time_best(reps, || mine(db, &cfg));
        println!("{f:>8} {secs:>10.4}");
        csv.row(format!("{f},{secs:.5}"));
    }
    println!("  (the adaptive rule should sit near the best fixed value)\n");
    csv.finish();
}

fn visited_scheme(db: &Database, reps: usize) {
    println!("-- VISITED stamp scheme (§4.2) --");
    let (cands, hash) = c2_fixture(db);
    let builder = TreeBuilder::new(&cands, &hash, 8);
    builder.insert_all();
    let tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let mut csv = Csv::new("ablation_visited.csv", "mode,seconds,stamp_bytes");
    println!("{:<10} {:>10} {:>12}", "mode", "seconds", "stamp B");
    for (name, visited) in [
        ("per-node", VisitedMode::PerNode),
        ("level", VisitedMode::LevelPath),
    ] {
        let mut stamp_bytes = 0usize;
        let (secs, _) = time_best(reps, || {
            let n_nodes = if visited == VisitedMode::LevelPath {
                0 // the per-node table is the memory being avoided
            } else {
                tree.n_nodes()
            };
            let mut scratch = CountScratch::new(db.n_items(), n_nodes);
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                db,
                0..db.len(),
                None,
                &mut scratch,
                &mut CounterRef::Inline,
                CountOptions {
                    short_circuit: true,
                    visited,
                    ..CountOptions::default()
                },
                &mut meter,
            );
            stamp_bytes = scratch.stamp_bytes();
            meter.hits
        });
        println!("{name:<10} {secs:>10.4} {stamp_bytes:>12}");
        csv.row(format!("{name},{secs:.5},{stamp_bytes}"));
    }
    println!("  (identical counts; level stamps cost k·H memory instead of H^k)\n");
    csv.finish();
}

fn db_partitioning(scale: ScaleMode, reps: usize) {
    let p = host_cores();
    println!("-- database partitioning under length skew (P = {p}) --");
    // A deliberately skewed database: a T25 head followed by a T5 tail,
    // so blocked splits hand the head block far more work.
    let d = (20_000.0 * scale.factor()).max(1_000.0) as usize;
    let mut head = QuestParams::paper(25, 6, d / 4);
    head.seed = 11;
    let mut tail = QuestParams::paper(5, 2, d - d / 4);
    tail.seed = 12;
    let head_db = generate(&head);
    let tail_db = generate(&tail);
    let mut b = DatabaseBuilder::new(1000);
    for t in &head_db {
        b.push(t.iter().copied()).unwrap();
    }
    for t in &tail_db {
        b.push(t.iter().copied()).unwrap();
    }
    let db = b.finish();

    let mut csv = Csv::new(
        "ablation_db_partition.csv",
        "strategy,count_seconds,count_imbalance",
    );
    println!(
        "{:<22} {:>12} {:>16}",
        "strategy", "count (s)", "count imbalance"
    );
    for (name, part) in [
        ("block", DbPartition::Block),
        ("weighted-static", DbPartition::WeightedStatic { kmax: 6 }),
        ("weighted-per-iter", DbPartition::WeightedPerIteration),
    ] {
        let base = AprioriConfig {
            min_support: Support::Fraction(0.005),
            max_k: Some(4),
            pair_array: false,
            ..AprioriConfig::default()
        };
        let cfg = ParallelConfig::new(base, p).with_db_partition(part);
        let mut secs = f64::MAX;
        let mut imb = 0.0;
        for _ in 0..reps {
            let (_, stats) = ccpd::mine(&db, &cfg);
            secs = secs.min(stats.wall_of(&["count"]).as_secs_f64());
            imb = stats.imbalance_of_heaviest("count");
        }
        println!("{name:<22} {secs:>12.4} {imb:>16.3}");
        csv.row(format!("{name},{secs:.5},{imb:.4}"));
    }
    println!(
        "  (the guided cursor's first chunk is n/(2P) transactions, so under block seeds it can \
         swallow the heavy head; weighted seeds clip chunks at their seed boundaries)"
    );
    csv.finish();
}
