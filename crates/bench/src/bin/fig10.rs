//! Fig. 10 — per-iteration improvement of short-circuited subset
//! checking on T20.I6.D100K (0.5% support, one processor).
//!
//! The benefit grows with k (deeper trees → more internal nodes to
//! preempt) until the candidate set — and hence the tree — shrinks near
//! the end of the run.
//!
//! Sets `pair_array: false`, so the `k = 2` point is the paper's
//! hash-tree count.

use arm_bench::{banner, paper_name, pct_improvement, reps_for, Csv, DatasetCache, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_parallel::{ccpd, ParallelConfig, ParallelRunStats};

/// Per-iteration count-phase seconds and node visits.
fn per_iteration(stats: &ParallelRunStats) -> Vec<(u32, f64)> {
    stats
        .phases
        .iter()
        .filter(|p| p.name == "count")
        .map(|p| (p.k, p.wall.as_secs_f64()))
        .collect()
}

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Fig. 10: per-iteration short-circuit improvement (T20.I6.D100K, P=1)",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale).max(2);
    let db = cache.get(20, 6, 100_000);
    let name = paper_name(20, 6, 100_000);

    type IterSeries = (Vec<(u32, f64)>, Vec<(u32, u64)>);
    let run = |short_circuit: bool| -> IterSeries {
        let base = AprioriConfig {
            min_support: Support::Fraction(0.005),
            short_circuit,
            // Fig. 10 needs the deep iterations (the trend peaks near
            // k=10), so its cap is looser than the other timing figures'.
            max_k: match scale {
                arm_bench::ScaleMode::Quick => Some(6),
                arm_bench::ScaleMode::Default => Some(9),
                arm_bench::ScaleMode::Full => None,
            },
            pair_array: false,
            ..AprioriConfig::default()
        };
        let cfg = ParallelConfig::new(base, 1);
        let mut best: Option<Vec<(u32, f64)>> = None;
        let mut visits = Vec::new();
        for _ in 0..reps {
            let (res, stats) = ccpd::mine(&db, &cfg);
            let cur = per_iteration(&stats);
            best = Some(match best {
                None => cur,
                Some(prev) => prev
                    .into_iter()
                    .zip(cur)
                    .map(|((k, a), (_, b))| (k, a.min(b)))
                    .collect(),
            });
            visits = res
                .iter_stats
                .iter()
                .filter(|s| s.k >= 2)
                .map(|s| (s.k, s.meter.node_visits))
                .collect();
        }
        (best.unwrap(), visits)
    };

    let (off_t, off_v) = run(false);
    let (on_t, on_v) = run(true);

    let mut csv = Csv::new("fig10.csv", "k,time_improvement_pct,visit_reduction_pct");
    println!(
        "{:>3} {:>12} {:>16}",
        "k", "time impr %", "visit reduction %"
    );
    for ((k, toff), (_, ton)) in off_t.iter().zip(&on_t) {
        let ti = pct_improvement(*toff, *ton);
        let vi = off_v
            .iter()
            .find(|(vk, _)| vk == k)
            .zip(on_v.iter().find(|(vk, _)| vk == k))
            .map(|((_, a), (_, b))| pct_improvement(*a as f64, *b as f64))
            .unwrap_or(0.0);
        println!("{k:>3} {ti:>12.1} {vi:>16.1}");
        csv.row(format!("{k},{ti:.2},{vi:.2}"));
    }
    let path = csv.finish();
    println!("\ndataset: {name}; expected shape (paper): rising benefit with k,");
    println!("peaking around 60%, falling off once the candidate set shrinks.");
    println!("csv: {}", path.display());
}
