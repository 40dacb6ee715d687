//! Machine-readable perf snapshot of the hash-tree counting kernel.
//!
//! Times one full C2 counting scan of the (scaled) `T10.I4.D100K`
//! dataset with transaction trimming off and on (the walk's only
//! counting knob) and writes both rows to `BENCH_counting.json`. The
//! JSON is hand-formatted — the workspace deliberately has no serde.
//!
//! The exit code gates on the deterministic work tallies, not on wall
//! time, so the gate means the same on any host: both rows must count
//! the same hits (trimming is lossless), and the trimmed walk must make
//! strictly fewer node visits and subset checks (trimming pays by
//! shrinking the walk). It also fails unless the run report it writes,
//! `BENCH_counting.report.json`, reads back as exactly that report.
//!
//! The RunReport run sets `pair_array: false`, so its `C_2` count is the
//! same hash-tree kernel the rows time.

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

/// One trim setting and its measurement.
struct Row {
    trim: bool,
    seconds: f64,
    meter: WorkMeter,
}

impl Row {
    fn name(&self) -> &'static str {
        if self.trim {
            "trim"
        } else {
            "untrimmed"
        }
    }
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

fn main() {
    let scale = ScaleMode::from_env();
    banner("Counting-kernel snapshot (BENCH_counting.json)", scale);
    let cache = DatasetCache::new(scale);
    let db = cache.get(10, 4, 100_000);
    let reps = reps_for(scale).max(3);

    let (cands, hash) = c2_fixture(&db);
    let builder = TreeBuilder::new(&cands, &hash, 8);
    builder.insert_all();
    let tree = freeze_policy(&builder, PlacementPolicy::Gpp);
    let filter = ItemFilter::from_candidates(&cands, db.n_items());

    let rows: Vec<Row> = [false, true]
        .into_iter()
        .map(|trim| {
            let (seconds, meter) = time_best(reps, || {
                let mut scratch = CountScratch::new(db.n_items(), tree.n_nodes());
                let mut meter = WorkMeter::default();
                tree.count_partition(
                    &hash,
                    &db,
                    0..db.len(),
                    trim.then_some(&filter),
                    &mut scratch,
                    &mut CounterRef::Inline,
                    CountOptions::default(),
                    &mut meter,
                );
                meter
            });
            Row {
                trim,
                seconds,
                meter,
            }
        })
        .collect();
    let (base, trimmed) = (&rows[0], &rows[1]);

    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>14} {:>12}",
        "row", "seconds", "txns", "node visits", "subset checks", "hits"
    );
    for r in &rows {
        println!(
            "{:<10} {:>10.4} {:>12} {:>14} {:>14} {:>12}",
            r.name(),
            r.seconds,
            r.meter.txns,
            r.meter.node_visits,
            r.meter.subset_checks,
            r.meter.hits
        );
    }
    let gain = pct_improvement(base.seconds, trimmed.seconds);
    println!();
    println!(
        "untrimmed {:.4}s -> trim {:.4}s ({gain:+.1}%, wall time, not gated)",
        base.seconds, trimmed.seconds
    );

    // ---- hand-formatted JSON snapshot ---------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"counting-kernel\",\n");
    json.push_str("  \"dataset\": \"T10.I4.D100K\",\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    json.push_str(&format!("  \"transactions\": {},\n", db.len()));
    json.push_str(&format!("  \"candidates\": {},\n", cands.len()));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"trim\": {}, \"seconds\": {:.6}, \"txns\": {}, \
             \"node_visits\": {}, \"subset_checks\": {}, \"hits\": {}}}{}\n",
            r.name(),
            r.trim,
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
    // counters on the shared tree build, and per-thread work land in one
    // `arm-run-report/v3` document alongside the snapshot above.
    let base_cfg = AprioriConfig {
        min_support: Support::Fraction(0.005),
        max_k: timing_max_k(scale),
        pair_array: false,
        ..AprioriConfig::default()
    };
    let (result, stats) =
        arm_parallel::ccpd::mine(&db, &arm_parallel::ParallelConfig::new(base_cfg, 2));
    let report = arm_parallel::run_report("ccpd", "T10.I4.D100K", &result, &stats);
    let report_path = "BENCH_counting.report.json";
    std::fs::write(
        report_path,
        arm_metrics::reports_to_json(std::slice::from_ref(&report)),
    )
    .expect("write BENCH_counting.report.json");
    println!("wrote {report_path}");

    // ---- gate: deterministic tallies only ------------------------------
    let mut failures = Vec::new();
    if trimmed.meter.hits != base.meter.hits {
        failures.push(format!(
            "trimming changed the hits: {} -> {}",
            base.meter.hits, trimmed.meter.hits
        ));
    }
    if trimmed.meter.node_visits >= base.meter.node_visits {
        failures.push(format!(
            "trimming did not cut node visits: {} -> {}",
            base.meter.node_visits, trimmed.meter.node_visits
        ));
    }
    if trimmed.meter.subset_checks >= base.meter.subset_checks {
        failures.push(format!(
            "trimming did not cut subset checks: {} -> {}",
            base.meter.subset_checks, trimmed.meter.subset_checks
        ));
    }
    let written = std::fs::read_to_string(report_path).expect("read BENCH_counting.report.json");
    if arm_metrics::reports_from_json(&written) != Ok(vec![report]) {
        failures.push(format!(
            "{report_path} does not read back as the report written"
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
