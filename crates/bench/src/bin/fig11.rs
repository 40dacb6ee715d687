//! Fig. 11 — CCPD speedup with all optimizations (0.5% support).
//!
//! Reports the measured wall time per thread count (best of the reps),
//! the wall-clock speedup over P=1, and the serial fraction of that run
//! (serial-phase wall / end-to-end wall). The paper reaches ~8x on 12
//! processors for its largest dataset, capped by the serial fraction
//! (their disk I/O; here the freeze/extract phases). Rows with more
//! threads than `host_cores` are oversubscribed and cannot speed up.
//!
//! Sets `pair_array: false`: the figure is the paper's CCPD, whose count
//! phase walks the hash tree at every level, `k = 2` included.

use arm_bench::{
    banner, host_cores, paper_name, reps_for, Csv, DatasetCache, ScaleMode, TABLE2_DATASETS,
};
use arm_core::{AprioriConfig, Support};
use arm_parallel::{ccpd, ParallelConfig};

fn main() {
    let scale = ScaleMode::from_env();
    banner("Fig. 11: CCPD parallel speedup (0.5% support)", scale);
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let cores = host_cores();
    let mut csv = Csv::new(
        "fig11.csv",
        "dataset,procs,host_cores,wall_s,wall_speedup,serial_fraction",
    );

    // At quick/default scale skip the two largest generations.
    let datasets: Vec<_> = TABLE2_DATASETS
        .iter()
        .copied()
        .filter(|&(_, _, d)| scale == ScaleMode::Full || d <= 1_600_000)
        .collect();

    println!(
        "{:<16} {:>2} {:>10} {:>13} {:>16}",
        "dataset", "P", "wall (s)", "wall speedup", "serial fraction"
    );
    for (t, i, d) in datasets {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        let mut wall_p1 = 0.0f64;
        for p in [1usize, 2, 4, 8, 12] {
            let base = AprioriConfig {
                min_support: Support::Fraction(0.005),
                max_k: arm_bench::timing_max_k(scale),
                pair_array: false,
                ..AprioriConfig::default()
            };
            let cfg = ParallelConfig::new(base, p);
            let mut best_wall = f64::MAX;
            let mut serial_frac = 0.0;
            for _ in 0..reps {
                let (_, stats) = ccpd::mine(&db, &cfg);
                let wall = stats.wall.as_secs_f64();
                if wall < best_wall {
                    best_wall = wall;
                    serial_frac = stats.serial_wall().as_secs_f64() / wall;
                }
            }
            if p == 1 {
                wall_p1 = best_wall;
            }
            let speedup = wall_p1 / best_wall;
            println!("{name:<16} {p:>2} {best_wall:>10.4} {speedup:>13.2} {serial_frac:>16.3}");
            csv.row(format!(
                "{name},{p},{cores},{best_wall:.4},{speedup:.3},{serial_frac:.4}"
            ));
        }
    }
    let path = csv.finish();
    println!("\nexpected shape (paper): near-linear to P=4, flattening toward ~8x at");
    println!("P=12 for the largest datasets; small datasets cap early (Amdahl).");
    println!("here: rows with P > {cores} host cores are oversubscribed.");
    println!("csv: {}", path.display());
}
