//! Algorithm shoot-out (beyond the paper's figures): optimized Apriori
//! vs the unoptimized baseline vs vertical (Eclat-style) mining vs the
//! two-scan Partition algorithm — all producing identical output on the
//! same dataset.
//!
//! `apriori-opt` runs the default configuration, so it counts `C_2` in
//! the pair array (`AprioriConfig::pair_array`); `apriori-unopt` counts
//! every level, `k = 2` included, in the paper's hash tree.

use arm_bench::{banner, paper_name, reps_for, time_best, Csv, DatasetCache, ScaleMode};
use arm_core::{mine, mine_eclat, mine_partition, AprioriConfig, Support};

fn main() {
    let scale = ScaleMode::from_env();
    banner(
        "Baselines: Apriori (opt/unopt) vs Eclat vs Partition",
        scale,
    );
    let cache = DatasetCache::new(scale);
    let reps = reps_for(scale).max(2);
    let mut csv = Csv::new("baselines.csv", "dataset,algorithm,seconds,frequent");

    let frac = 0.005;
    let max_k = arm_bench::timing_max_k(scale);
    for (t, i, d) in [
        (5u32, 2u32, 100_000usize),
        (10, 4, 100_000),
        (10, 6, 400_000),
    ] {
        let name = paper_name(t, i, d);
        let db = cache.get(t, i, d);
        let minsup = db.absolute_support(frac);

        let opt_cfg = AprioriConfig {
            min_support: Support::Fraction(frac),
            max_k,
            ..AprioriConfig::default()
        };
        let unopt_cfg = AprioriConfig {
            min_support: Support::Fraction(frac),
            max_k,
            ..AprioriConfig::unoptimized()
        };

        let (t_opt, r_opt) = time_best(reps, || mine(&db, &opt_cfg).total_frequent());
        let (t_unopt, _) = time_best(reps, || mine(&db, &unopt_cfg).total_frequent());
        let (t_eclat, r_eclat) = time_best(reps, || mine_eclat(&db, minsup, max_k).len());
        let (t_part, r_part) = time_best(reps, || mine_partition(&db, frac, 4, max_k).len());
        assert_eq!(r_opt, r_eclat, "{name}: Apriori vs Eclat disagree");
        assert_eq!(r_opt, r_part, "{name}: Apriori vs Partition disagree");

        println!("{name}  ({} frequent itemsets)", r_opt);
        for (alg, secs) in [
            ("apriori-opt", t_opt),
            ("apriori-unopt", t_unopt),
            ("eclat", t_eclat),
            ("partition", t_part),
        ] {
            println!("  {alg:<14} {secs:>9.4}s");
            csv.row(format!("{name},{alg},{secs:.5},{r_opt}"));
        }
    }
    let path = csv.finish();
    println!("\nexpected: the full optimization stack beats the unoptimized Apriori by");
    println!("an order of magnitude or more; the vertical miner and Partition land");
    println!("in the same ballpark as optimized Apriori.");
    println!("csv: {}", path.display());
}
