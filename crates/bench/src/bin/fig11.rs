//! Fig. 11 — CCPD speedup with all optimizations (0.5% support).
//!
//! Reports the work-model speedup (host-independent; see DESIGN.md) and
//! the measured wall time per thread count. The paper reaches ~8x on 12
//! processors for its largest dataset, capped by the serial fraction
//! (their disk I/O; here the freeze/extract phases).
//!
//! Sets `pair_array: false`: the figure is the paper's CCPD, whose count
//! phase walks the hash tree at every level, `k = 2` included.

use arm_bench::{banner, paper_name, reps_for, Csv, DatasetCache, ScaleMode, TABLE2_DATASETS};
use arm_core::{AprioriConfig, Support};
use arm_parallel::{ccpd, ParallelConfig};

fn main() {
    let scale = ScaleMode::from_env();
    banner("Fig. 11: CCPD parallel speedup (0.5% support)", scale);
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let mut csv = Csv::new(
        "fig11.csv",
        "dataset,procs,model_speedup,wall_s,serial_fraction",
    );

    // At quick/default scale skip the two largest generations.
    let datasets: Vec<_> = TABLE2_DATASETS
        .iter()
        .copied()
        .filter(|&(_, _, d)| scale == ScaleMode::Full || d <= 1_600_000)
        .collect();

    println!(
        "{:<16} {:>2} {:>14} {:>10} {:>16}",
        "dataset", "P", "model speedup", "wall (s)", "serial fraction"
    );
    for (t, i, d) in datasets {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        for p in [1usize, 2, 4, 8, 12] {
            let base = AprioriConfig {
                min_support: Support::Fraction(0.005),
                max_k: arm_bench::timing_max_k(scale),
                pair_array: false,
                ..AprioriConfig::default()
            };
            let cfg = ParallelConfig::new(base, p);
            let mut best_speedup = 0.0f64;
            let mut best_wall = f64::MAX;
            let mut serial_frac = 0.0;
            for _ in 0..reps {
                let (_, stats) = ccpd::mine(&db, &cfg);
                best_speedup = best_speedup.max(stats.simulated_speedup());
                best_wall = best_wall.min(stats.wall.as_secs_f64());
                serial_frac = stats.serial_wall().as_secs_f64() / stats.serialized_time();
            }
            println!(
                "{name:<16} {p:>2} {best_speedup:>14.2} {best_wall:>10.4} {serial_frac:>16.3}"
            );
            csv.row(format!(
                "{name},{p},{best_speedup:.3},{best_wall:.4},{serial_frac:.4}"
            ));
        }
    }
    let path = csv.finish();
    println!("\nexpected shape (paper): near-linear to P=4, flattening toward ~8x at");
    println!("P=12 for the largest datasets; small datasets cap early (Amdahl).");
    println!("csv: {}", path.display());
}
