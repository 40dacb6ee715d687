//! Fig. 6 — intermediate hash tree size per iteration (0.1% support).
//!
//! The tree size peaks at k = 2 (the candidate explosion) and decays as
//! pruning bites; larger/denser datasets build larger trees, which is what
//! makes them more amenable to locality placement.
//!
//! Runs the CCPD driver at `P = 1` (bit-identical to sequential mining)
//! so every dataset also yields a full [`arm_metrics::RunReport`] —
//! per-iteration tree sizes land in the report's `iters` section, the
//! counterpart of this figure's CSV.
//!
//! Sets `pair_array: false`: the figure is the hash tree's size, and
//! `k = 2` is its peak, so `C_2` is counted in the paper's tree.

use arm_bench::{banner, paper_name, write_reports, Csv, DatasetCache, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_parallel::{ccpd, run_report, ParallelConfig};

const DATASETS: [(u32, u32, usize); 6] = [
    (5, 2, 100_000),
    (10, 4, 100_000),
    (20, 6, 100_000),
    (10, 6, 400_000),
    (10, 6, 800_000),
    (10, 6, 1_600_000),
];

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 6: intermediate hash tree size per iteration (0.1% support)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let mut csv = Csv::new("fig6.csv", "dataset,k,tree_bytes,tree_nodes,n_candidates");
    let mut reports = Vec::with_capacity(DATASETS.len());

    for (t, i, d) in DATASETS {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.001),
            pair_array: false,
            ..AprioriConfig::default()
        };
        let (r, stats) = ccpd::mine(&db, &ParallelConfig::new(cfg, 1));
        print!("{name:<16}");
        for s in r.iter_stats.iter().filter(|s| s.k >= 2) {
            print!(" k{}:{:.3}MB", s.k, s.tree_bytes as f64 / 1048576.0);
            csv.row(format!(
                "{},{},{},{},{}",
                name, s.k, s.tree_bytes, s.tree_nodes, s.n_candidates
            ));
        }
        println!();
        reports.push(run_report("ccpd", &name, &r, &stats));
    }
    let path = csv.finish();
    let report_path = write_reports("fig6.report.json", &reports);
    println!("\nexpected shape: size peaks at k=2 and falls by orders of magnitude;");
    println!("larger T/I/D move the whole curve up (paper: 0.01–100 MB log scale).");
    println!("csv: {}", path.display());
    println!("reports: {}", report_path.display());
}
