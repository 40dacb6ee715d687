//! Fig. 13 — memory placement policies on multiple processors (0.5% and
//! 0.1% support, 4 and 8 threads).
//!
//! All seven policies of the paper, normalized to CCPD, by measured
//! end-to-end wall time (best of the reps). False sharing needs threads
//! running at once on separate caches, so the L-*/LCA columns show it only
//! up to `host_cores` threads; beyond that the runs are oversubscribed.
//!
//! Sets `pair_array: false`: placement lays out the hash tree, so `C_2`,
//! its largest level, is counted in the paper's tree.

use arm_bench::{banner, host_cores, paper_name, reps_for, Csv, DatasetCache, ScaleMode};
use arm_core::{AprioriConfig, Support};
use arm_hashtree::PlacementPolicy;
use arm_parallel::{ccpd, ParallelConfig};

const DATASETS: [(u32, u32, usize); 5] = [
    (5, 2, 100_000),
    (10, 4, 100_000),
    (20, 6, 100_000),
    (10, 6, 800_000),
    (10, 6, 3_200_000),
];

const POLICIES: [PlacementPolicy; 7] = [
    PlacementPolicy::Ccpd,
    PlacementPolicy::Spp,
    PlacementPolicy::LSpp,
    PlacementPolicy::LLpp,
    PlacementPolicy::Gpp,
    PlacementPolicy::LGpp,
    PlacementPolicy::LcaGpp,
];

fn main() {
    let scale = ScaleMode::from_env();
    banner("Fig. 13: placement policies on 4 and 8 processors", scale);
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale);
    let cores = host_cores();
    let mut csv = Csv::new(
        "fig13.csv",
        "support,procs,host_cores,dataset,policy,wall_s,normalized",
    );

    let datasets: Vec<_> = DATASETS
        .iter()
        .copied()
        .filter(|&(_, _, d)| scale == ScaleMode::Full || d <= 800_000)
        .collect();

    for support in [0.005f64, 0.001] {
        for procs in [4usize, 8] {
            println!("support = {}%, P = {procs}", support * 100.0);
            print!("{:<16}", "dataset");
            for p in POLICIES {
                print!(" {:>8}", p.name());
            }
            println!();
            for &(t, i, d) in &datasets {
                let name = paper_name(t, i, d);
                let db = cache.get(t, i, d);
                let mut base = 0.0f64;
                let mut row = format!("{name:<16}");
                for policy in POLICIES {
                    let base_cfg = AprioriConfig {
                        min_support: Support::Fraction(support),
                        placement: policy,
                        max_k: arm_bench::timing_max_k(scale),
                        pair_array: false,
                        ..AprioriConfig::default()
                    };
                    let cfg = ParallelConfig::new(base_cfg, procs);
                    let mut secs = f64::MAX;
                    for _ in 0..reps {
                        let (_, stats) = ccpd::mine(&db, &cfg);
                        secs = secs.min(stats.wall.as_secs_f64());
                    }
                    if policy == PlacementPolicy::Ccpd {
                        base = secs;
                    }
                    let norm = secs / base;
                    row.push_str(&format!(" {norm:>8.3}"));
                    csv.row(format!(
                        "{support},{procs},{cores},{name},{},{secs:.4},{norm:.4}",
                        policy.name()
                    ));
                }
                println!("{row}");
            }
            println!();
        }
    }
    let path = csv.finish();
    println!("expected shape (paper): every region policy beats CCPD by 40–60%;");
    println!("L-* adds a little on big data; LCA-GPP is best overall at scale.");
    println!("csv: {}", path.display());
}
