//! Database scale-up (extends Fig. 11's dataset-size axis): CCPD run
//! time vs transaction count at fixed relative support should be linear
//! in `D` — Apriori scans the whole database every iteration, and the
//! candidate structure is `D`-invariant at a fixed support fraction.
//!
//! Runs the default configuration, which counts `C_2` in the pair array
//! (`AprioriConfig::pair_array`) rather than the paper's hash tree.

use arm_bench::{banner, reps_for, write_reports, Csv, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_parallel::{ccpd, run_report, ParallelConfig};
use arm_quest::QuestParams;

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Scale-up: CCPD time vs D (T10.I6 family, 0.5% support)",
        scale,
    );
    let reps = reps_for(scale);
    let mut csv = Csv::new("scaling.csv", "txns,seconds,per_txn_us,frequent");

    let base_d = match scale {
        ScaleMode::Quick => 2_000usize,
        ScaleMode::Default => 10_000,
        ScaleMode::Full => 100_000,
    };
    println!(
        "{:>9} {:>10} {:>12} {:>10}",
        "D", "seconds", "us/txn", "frequent"
    );
    let mut first_per_txn = None;
    let mut reports = Vec::new();
    for mult in [1usize, 2, 4, 8] {
        let d = base_d * mult;
        let db = arm_quest::generate(&QuestParams::paper(10, 6, 100_000).with_txns(d));
        let cfg = ParallelConfig::new(
            AprioriConfig {
                min_support: Support::Fraction(0.005),
                max_k: arm_bench::timing_max_k(scale),
                ..AprioriConfig::default()
            },
            1,
        );
        let mut secs = f64::MAX;
        let mut frequent = 0usize;
        let mut last = None;
        for _ in 0..reps {
            let (r, stats) = ccpd::mine(&db, &cfg);
            secs = secs.min(stats.wall.as_secs_f64());
            frequent = r.total_frequent();
            last = Some((r, stats));
        }
        let (r, stats) = last.unwrap();
        reports.push(run_report("ccpd", &format!("T10.I6.D{d}"), &r, &stats));
        let per_txn = secs / d as f64 * 1e6;
        first_per_txn.get_or_insert(per_txn);
        println!("{d:>9} {secs:>10.4} {per_txn:>12.3} {frequent:>10}");
        csv.row(format!("{d},{secs:.5},{per_txn:.4},{frequent}"));
    }
    let path = csv.finish();
    let report_path = write_reports("scaling.report.json", &reports);
    println!("\nexpected: us/txn roughly constant across the sweep (linear scale-up,");
    println!("matching the paper's D=100K..3.2M series behaving uniformly in Fig. 11).");
    println!("csv: {}", path.display());
    println!("reports: {}", report_path.display());
}
