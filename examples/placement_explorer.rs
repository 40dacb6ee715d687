//! Placement-policy explorer: a miniature Fig. 12 on your machine.
//!
//! Mines the same synthetic database under every memory placement policy
//! of §5 and prints execution times normalized to the CCPD (standard
//! malloc) baseline, plus the tree image sizes.
//!
//! Run with: `cargo run --release --example placement_explorer`

use parallel_arm::prelude::*;
use std::time::Instant;

fn main() {
    let params = QuestParams::paper(10, 4, 20_000);
    println!("dataset: {} (in-memory)", params.name());
    let db = generate(&params);

    let mut rows = Vec::new();
    let mut baseline = None;
    for policy in PlacementPolicy::ALL {
        // Placement lays out the hash tree, which the default (array)
        // counting never builds.
        let cfg = AprioriConfig {
            min_support: Support::Fraction(0.005),
            placement: policy,
            pair_array: false,
            ..AprioriConfig::default()
        };
        // Warm-up + best-of-3 to tame noise.
        let mut best = f64::MAX;
        let mut found = 0usize;
        let mut tree_bytes = 0usize;
        for _ in 0..3 {
            let t0 = Instant::now();
            let r = parallel_arm::core::mine(&db, &cfg);
            best = best.min(t0.elapsed().as_secs_f64());
            found = r.total_frequent();
            tree_bytes = r.iter_stats.iter().map(|s| s.tree_bytes).max().unwrap_or(0);
        }
        if policy == PlacementPolicy::Ccpd {
            baseline = Some(best);
        }
        rows.push((policy, best, found, tree_bytes));
    }

    let base = baseline.expect("CCPD baseline present");
    println!(
        "\n{:<8} {:>10} {:>12} {:>10} {:>12}",
        "policy", "time (s)", "normalized", "frequent", "max tree B"
    );
    for (policy, t, found, bytes) in rows {
        println!(
            "{:<8} {:>10.4} {:>12.3} {:>10} {:>12}",
            policy.name(),
            t,
            t / base,
            found,
            bytes
        );
    }
    println!("\nnormalized < 1.0 means faster than the standard-malloc baseline.");
}
