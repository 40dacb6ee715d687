//! Fig. 8 — effect of computation balancing (COMP) and hash tree
//! balancing (TREE), 0.5% support.
//!
//! Four configurations per dataset and processor count:
//! * base: block-partitioned candidate generation + interleaved `mod` hash;
//! * COMP: greedy/bitonic class balancing (§3.1.2);
//! * TREE: bitonic indirection hash (§4.1);
//! * COMP-TREE: both.
//!
//! Reported: % improvement in work-model execution time over the base
//! (the paper's metric is computation-time improvement; the work model
//! removes the single-host-core limitation, see DESIGN.md).
//!
//! Sets `pair_array: false`: TREE balances the hash tree, so `C_2`, its
//! largest level, is counted in the paper's tree.

use arm_balance::Scheme;
use arm_bench::{
    banner, paper_name, pct_improvement, reps_for, write_reports, Csv, DatasetCache, ScaleMode,
    FIG_DATASETS_6,
};
use arm_core::{AprioriConfig, HashScheme, MiningResult, Support};
use arm_dataset::Database;
use arm_parallel::{ccpd, run_report, ParallelConfig, ParallelRunStats};

fn run(
    db: &Database,
    p: usize,
    candgen: Scheme,
    hash: HashScheme,
    reps: usize,
    max_k: Option<u32>,
) -> (f64, f64, MiningResult, ParallelRunStats) {
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        hash_scheme: hash,
        max_k,
        pair_array: false,
        ..AprioriConfig::default()
    };
    let mut cfg = ParallelConfig::new(base, p).with_candgen(candgen);
    cfg.parallel_candgen_min = 2; // always exercise the COMP knob
    let mut best = f64::MAX;
    let mut imbalance = 1.0f64;
    // One discarded warm-up run stabilizes allocator and cache state.
    let _ = ccpd::mine(db, &cfg);
    let mut last = None;
    for _ in 0..reps {
        let (result, stats) = ccpd::mine(db, &cfg);
        // The paper reports improvements "only based on the computation
        // time" — candidate generation, tree build, and counting.
        best = best.min(stats.simulated_time_of(&["candgen", "build", "count"]));
        imbalance = stats.imbalance_of_heaviest("candgen");
        last = Some((result, stats));
    }
    let (result, stats) = last.unwrap();
    (best, imbalance, result, stats)
}

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 8: computation and hash tree balancing (0.5% support)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let mut csv = Csv::new(
        "fig8.csv",
        "dataset,procs,comp_pct,tree_pct,comp_tree_pct,candgen_imbalance_block,candgen_imbalance_greedy",
    );
    let mut reports = Vec::new();

    println!(
        "{:<16} {:>2} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "dataset", "P", "COMP %", "TREE %", "COMP-TREE %", "imbal(block)", "imbal(greedy)"
    );
    for (t, i, d) in FIG_DATASETS_6 {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        for p in [1usize, 2, 4, 8] {
            let mk = arm_bench::timing_max_k(scale);
            let (base, imb_block, ..) =
                run(&db, p, Scheme::Block, HashScheme::Interleaved, reps, mk);
            let (comp, imb_greedy, ..) =
                run(&db, p, Scheme::Greedy, HashScheme::Interleaved, reps, mk);
            let (tree, ..) = run(&db, p, Scheme::Block, HashScheme::Bitonic, reps, mk);
            let (both, _, result, stats) =
                run(&db, p, Scheme::Greedy, HashScheme::Bitonic, reps, mk);
            // The COMP-TREE run (the configuration the figure argues for)
            // doubles as this dataset/P cell's RunReport.
            reports.push(run_report("ccpd-comp-tree", &name, &result, &stats));
            let (ci, ti, bi) = (
                pct_improvement(base, comp),
                pct_improvement(base, tree),
                pct_improvement(base, both),
            );
            println!(
                "{name:<16} {p:>2} {ci:>10.1} {ti:>10.1} {bi:>12.1} {imb_block:>12.2} {imb_greedy:>12.2}"
            );
            csv.row(format!(
                "{name},{p},{ci:.2},{ti:.2},{bi:.2},{imb_block:.3},{imb_greedy:.3}"
            ));
        }
    }
    let path = csv.finish();
    let report_path = write_reports("fig8.report.json", &reports);
    println!("\nexpected shape (paper): COMP ≈ 0% at P=1, ~20% at P=8; TREE helps even");
    println!("at P=1 (~30%); COMP-TREE is the best, reaching ~40% on multiprocessors.");
    println!("csv: {}", path.display());
    println!("reports: {}", report_path.display());
}
