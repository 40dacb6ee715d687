//! Machine-readable perf snapshot of the counting fast path.
//!
//! Times one full C2 counting scan of the (scaled) `T10.I4.D100K`
//! dataset for **every** combination of the four fast-path knobs
//! (hash memoization, transaction trimming, explicit-stack traversal,
//! scratch reuse) and writes the results to `BENCH_counting.json` so
//! future PRs can regress-check against this snapshot. The JSON is
//! hand-formatted — the workspace deliberately has no serde.
//!
//! The `seed` row is the kernel exactly as the growth seed shipped it
//! (all knobs off, fresh scratch per scan); `all` is the fully
//! optimized kernel. Every combination must produce the same hit
//! count — the knobs are performance-only — and `all` is expected to
//! beat `seed` (the process exit code reports it so CI can gate on
//! the comparison).
//!
//! The RunReport run sets `pair_array: false`, so its `C_2` count is the
//! same hash-tree kernel the knob matrix times.

use arm_bench::{
    banner, pct_improvement, reps_for, time_best, timing_max_k, DatasetCache, ScaleMode,
};
use arm_core::{
    equivalence_classes, frequent_singletons, generate_class, make_hash, AprioriConfig, HashScheme,
    Support,
};
use arm_dataset::Database;
use arm_hashtree::{
    freeze_policy, CandidateSet, CountOptions, CountScratch, CounterRef, ItemFilter,
    PlacementPolicy, TreeBuilder, WorkMeter,
};

/// One knob setting and its measurement.
struct Row {
    name: String,
    hash_memo: bool,
    trim: bool,
    iterative: bool,
    reuse: bool,
    seconds: f64,
    meter: WorkMeter,
}

/// Builds the C2 tree of `db` at 0.5% support (the paper's counting
/// hotspot: the widest candidate level).
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

fn combo_name(memo: bool, trim: bool, iterative: bool, reuse: bool) -> String {
    let mut parts = Vec::new();
    if memo {
        parts.push("memo");
    }
    if trim {
        parts.push("trim");
    }
    if iterative {
        parts.push("iter");
    }
    if reuse {
        parts.push("reuse");
    }
    match parts.len() {
        0 => "seed".to_string(),
        4 => "all".to_string(),
        _ => parts.join("+"),
    }
}

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Counting-kernel fast-path snapshot (BENCH_counting.json)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let db = cache.get(10, 4, 100_000);
    let reps = reps_for(scale).max(3);

    let (cands, hash) = c2_fixture(&db);
    let builder = TreeBuilder::new(&cands, &hash, 8);
    builder.insert_all();
    let tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let filter = ItemFilter::from_candidates(&cands, db.n_items());

    let mut rows: Vec<Row> = Vec::with_capacity(16);
    for mask in 0u32..16 {
        let memo = mask & 1 != 0;
        let trim = mask & 2 != 0;
        let iterative = mask & 4 != 0;
        let reuse = mask & 8 != 0;
        let opts = CountOptions {
            hash_memo: memo,
            iterative,
            ..CountOptions::default()
        };
        let filter_ref = trim.then_some(&filter);
        // Scratch reuse: the pooled scratch lives across timed scans
        // (only stamps are re-zeroed); without it every scan pays the
        // seed's fresh allocation.
        let mut outer = CountScratch::new(db.n_items(), tree.n_nodes());
        let (seconds, meter) = time_best(reps, || {
            let mut fresh;
            let scratch: &mut CountScratch = if reuse {
                outer.retarget(tree.n_nodes());
                &mut outer
            } else {
                fresh = CountScratch::new(db.n_items(), tree.n_nodes());
                &mut fresh
            };
            let mut meter = WorkMeter::default();
            tree.count_partition(
                &hash,
                &db,
                0..db.len(),
                filter_ref,
                scratch,
                &mut CounterRef::Inline,
                opts,
                &mut meter,
            );
            meter
        });
        rows.push(Row {
            name: combo_name(memo, trim, iterative, reuse),
            hash_memo: memo,
            trim,
            iterative,
            reuse,
            seconds,
            meter,
        });
    }

    // The knobs are performance-only: every combination must agree on
    // the candidate hits (trimming may legitimately change txns/visits).
    let hits = rows[0].meter.hits;
    for r in &rows {
        assert_eq!(r.meter.hits, hits, "combo {} changed the counts", r.name);
    }

    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>12}",
        "combo", "seconds", "txns", "node visits", "hits"
    );
    for r in &rows {
        println!(
            "{:<22} {:>10.4} {:>12} {:>14} {:>12}",
            r.name, r.seconds, r.meter.txns, r.meter.node_visits, r.meter.hits
        );
    }

    let seed = rows.iter().find(|r| r.name == "seed").unwrap().seconds;
    let all = rows.iter().find(|r| r.name == "all").unwrap().seconds;
    let gain = pct_improvement(seed, all);
    println!();
    println!("seed {seed:.4}s -> all {all:.4}s ({gain:+.1}% improvement)");

    // ---- hand-formatted JSON snapshot ---------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"counting-kernel-fast-path\",\n");
    json.push_str("  \"dataset\": \"T10.I4.D100K\",\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"transactions\": {},\n", db.len()));
    json.push_str(&format!("  \"candidates\": {},\n", cands.len()));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"seed_seconds\": {seed:.6},\n"));
    json.push_str(&format!("  \"optimized_seconds\": {all:.6},\n"));
    json.push_str(&format!("  \"improvement_pct\": {gain:.2},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"hash_memo\": {}, \"trim\": {}, \"iterative\": {}, \
             \"reuse_scratch\": {}, \"seconds\": {:.6}, \"txns\": {}, \"node_visits\": {}, \
             \"subset_checks\": {}, \"hits\": {}}}{}\n",
            r.name,
            r.hash_memo,
            r.trim,
            r.iterative,
            r.reuse,
            r.seconds,
            r.meter.txns,
            r.meter.node_visits,
            r.meter.subset_checks,
            r.meter.hits,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_counting.json";
    std::fs::write(path, &json).expect("write BENCH_counting.json");
    println!("wrote {path}");

    // ---- RunReport: one instrumented CCPD run over the same dataset ----
    // Exercises the observability layer end-to-end: phase timers, lock
    // telemetry on the shared tree build, and per-thread work land in one
    // `arm-run-report/v1` document alongside the knob snapshot above.
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        max_k: timing_max_k(scale),
        pair_array: false,
        ..AprioriConfig::default()
    };
    let (result, stats) =
        arm_parallel::ccpd::mine(&db, &arm_parallel::ParallelConfig::new(base, 2));
    let report = arm_parallel::run_report("ccpd", "T10.I4.D100K", &result, &stats);
    let report_path = "BENCH_counting.report.json";
    std::fs::write(report_path, arm_metrics::reports_to_json(&[report]))
        .expect("write BENCH_counting.report.json");
    println!("wrote {report_path}");

    if all >= seed {
        eprintln!("WARNING: optimized kernel did not beat the seed kernel");
        std::process::exit(1);
    }
}
