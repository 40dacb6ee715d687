//! Fig. 12 — memory placement policies, uniprocessor (0.5% and 0.1%
//! support). Execution times normalized to the CCPD (standard malloc)
//! baseline; locality effects are per-core and fully reproducible on any
//! host.
//!
//! Sets `pair_array: false`: placement lays out the hash tree, so `C_2`,
//! its largest level, is counted in the paper's tree.

use arm_bench::{
    banner, paper_name, reps_for, time_best, Csv, DatasetCache, ScaleMode, FIG_DATASETS_6,
};
use arm_core::{mine, AprioriConfig, Support};
use arm_hashtree::PlacementPolicy;

fn main() {
    let scale = ScaleMode::from_env();
    banner("Fig. 12: placement policies on one processor", scale);
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale).max(2);
    let mut csv = Csv::new("fig12.csv", "support,dataset,policy,seconds,normalized");

    for support in [0.005f64, 0.001] {
        println!("support = {}%", support * 100.0);
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8}",
            "dataset", "CCPD", "SPP", "LPP", "GPP"
        );
        for (t, i, d) in FIG_DATASETS_6 {
            let name = paper_name(t, i, d);
            let db = cache.get(t, i, d);
            let mut base = 0.0f64;
            let mut row = format!("{name:<16}");
            for policy in PlacementPolicy::UNIPROCESSOR {
                let cfg = AprioriConfig {
                    min_support: Support::Fraction(support),
                    placement: policy,
                    pair_array: false,
                    ..AprioriConfig::default()
                };
                let (secs, _) = time_best(reps, || mine(&db, &cfg));
                if policy == PlacementPolicy::Ccpd {
                    base = secs;
                }
                let norm = secs / base;
                row.push_str(&format!(" {norm:>8.3}"));
                csv.row(format!(
                    "{support},{name},{},{secs:.4},{norm:.4}",
                    policy.name()
                ));
            }
            println!("{row}");
        }
        println!();
    }
    let path = csv.finish();
    println!("expected shape (paper): SPP ≈ 0.45–0.60 of CCPD; GPP best on the");
    println!("larger datasets (remap cost amortized), slightly behind SPP on tiny ones.");
    println!("csv: {}", path.display());
}
