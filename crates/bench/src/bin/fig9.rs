//! Fig. 9 — effect of short-circuited subset checking (0.5% support).
//!
//! Compares the full miner with internal-node VISITED stamps on and off,
//! across datasets and processor counts. The paper sees the largest wins
//! (~25%) on large-transaction datasets (T20).
//!
//! Sets `pair_array: false`: short-circuiting acts on the hash-tree walk,
//! so `C_2` is counted in the paper's tree.

use arm_bench::{banner, paper_name, pct_improvement, reps_for, Csv, DatasetCache, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_dataset::Database;
use arm_parallel::{ccpd, ParallelConfig};

const DATASETS: [(u32, u32, usize); 4] = [
    (5, 2, 100_000),
    (10, 6, 800_000),
    (15, 4, 100_000),
    (20, 6, 100_000),
];

fn run(db: &Database, p: usize, short_circuit: bool, reps: usize, max_k: Option<u32>) -> f64 {
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        short_circuit,
        max_k,
        pair_array: false,
        ..AprioriConfig::default()
    };
    let cfg = ParallelConfig::new(base, p);
    let mut best = f64::MAX;
    let _ = ccpd::mine(db, &cfg); // warm-up
    for _ in 0..reps {
        let (_, stats) = ccpd::mine(db, &cfg);
        let secs = stats.wall_of(&["candgen", "build", "count"]).as_secs_f64();
        best = best.min(secs);
    }
    best
}

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 9: short-circuited subset checking (0.5% support)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let mut csv = Csv::new("fig9.csv", "dataset,procs,improvement_pct");

    println!("{:<16} {:>2} {:>14}", "dataset", "P", "improvement %");
    for (t, i, d) in DATASETS {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        for p in [1usize, 2, 4, 8] {
            let mk = arm_bench::timing_max_k(scale);
            let off = run(&db, p, false, reps, mk);
            let on = run(&db, p, true, reps, mk);
            let imp = pct_improvement(off, on);
            println!("{name:<16} {p:>2} {imp:>14.1}");
            csv.row(format!("{name},{p},{imp:.2}"));
        }
    }
    let path = csv.finish();
    println!("\nexpected shape (paper): small gains on T5, up to ~25% on T20 —");
    println!("long transactions revisit internal nodes far more often.");
    println!("csv: {}", path.display());
}
