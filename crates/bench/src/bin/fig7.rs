//! Fig. 7 — frequent itemsets found per iteration (0.5% support).
//!
//! Characterizes dataset complexity: the number of iterations and the
//! per-level frequent counts (log scale in the paper).
//!
//! Runs the default configuration, which counts `C_2` in the pair array
//! (`AprioriConfig::pair_array`); the frequent counts do not depend on it.

use arm_bench::{banner, paper_name, Csv, DatasetCache, ScaleMode, TABLE2_DATASETS};
use arm_core::{mine, AprioriConfig, Support};

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 7: frequent itemsets per iteration (0.5% support)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let mut csv = Csv::new("fig7.csv", "dataset,k,n_frequent,n_candidates");

    for (t, i, d) in TABLE2_DATASETS {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.005),
            ..AprioriConfig::default()
        };
        let r = mine(&db, &cfg);
        print!("{name:<16}");
        for s in &r.iter_stats {
            print!(" k{}:{}", s.k, s.n_frequent);
            csv.row(format!(
                "{},{},{},{}",
                name, s.k, s.n_frequent, s.n_candidates
            ));
        }
        println!("  (total {})", r.total_frequent());
    }
    let path = csv.finish();
    println!("\nexpected shape: counts rise to a hump around k=2..4 then decay;");
    println!("longer transactions / patterns sustain more iterations (paper: up to k=12).");
    println!("csv: {}", path.display());
}
