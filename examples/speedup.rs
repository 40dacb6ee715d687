//! CCPD speedup curve — a miniature Fig. 11.
//!
//! Runs CCPD at increasing thread counts and prints measured wall time,
//! the wall-clock speedup over one thread, and the load imbalance of the
//! counting phase. Also contrasts CCPD with the PCCD baseline's
//! duplicated-scan pathology.
//!
//! Run with: `cargo run --release --example speedup`

use parallel_arm::prelude::*;

fn main() {
    let params = QuestParams::paper(10, 4, 20_000);
    println!("dataset: {}", params.name());
    let db = generate(&params);
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        ..AprioriConfig::default()
    };

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n{:>3} {:>12} {:>16} {:>18}",
        "P", "wall (s)", "wall speedup", "count imbalance"
    );
    let mut wall_p1 = 0.0;
    for p in [1usize, 2, 4, 8, 12] {
        let cfg = ParallelConfig::new(base.clone(), p);
        let (result, stats) = ccpd::mine(&db, &cfg);
        let wall = stats.wall.as_secs_f64();
        if p == 1 {
            wall_p1 = wall;
        }
        println!(
            "{:>3} {:>12.4} {:>16.2} {:>18.3}",
            p,
            wall,
            wall_p1 / wall,
            stats.max_imbalance("count"),
        );
        debug_assert!(result.total_frequent() > 0);
    }

    // PCCD: every worker scans the whole database.
    println!("\nPCCD baseline (duplicated scans):");
    for p in [1usize, 4] {
        let cfg = ParallelConfig::new(base.clone(), p);
        let (_, stats) =
            pccd::try_mine(&db, &cfg, &RunControl::default()).expect("no token, no faults");
        let total_txns: u64 = stats.count_meters.iter().map(|m| m.txns).sum();
        println!(
            "  P={p}: total transactions scanned across threads = {total_txns} \
             (CCPD scans each transaction once per iteration)"
        );
    }
    println!("\nThis host has {cores} cores; rows with P > {cores} are oversubscribed.");
}
