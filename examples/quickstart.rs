//! Quickstart: generate a synthetic basket database, mine frequent
//! itemsets in parallel, and print the strongest association rules.
//!
//! Run with: `cargo run --release --example quickstart`

use parallel_arm::prelude::*;

fn main() {
    // A laptop-scale version of the paper's T10.I4 dataset.
    let params = QuestParams::paper(10, 4, 10_000);
    println!("generating {} ...", params.name());
    let db = generate(&params);
    let stats = DatasetStats::measure(params.name(), &db);
    println!(
        "  {} transactions, avg length {:.1}, {:.2} MB",
        stats.n_txns,
        stats.avg_txn_len,
        stats.total_mb()
    );

    // Mine at 0.5% support with every optimization the paper proposes:
    // bitonic tree balancing, adaptive fan-out, short-circuited subset
    // checking, GPP placement — on 4 worker threads (CCPD).
    let base = AprioriConfig {
        min_support: Support::Fraction(0.005),
        ..AprioriConfig::default()
    };
    let (result, run) = ccpd::mine(&db, &ParallelConfig::new(base, 4));

    println!(
        "\nmined {} frequent itemsets (longest: {}-itemsets) at support >= {}",
        result.total_frequent(),
        result.max_k(),
        result.min_support
    );
    for s in &result.iter_stats {
        println!(
            "  k={}: |C_k|={:<6} |F_k|={:<6} tree={:>8} B  fanout={}",
            s.k, s.n_candidates, s.n_frequent, s.tree_bytes, s.fanout
        );
    }
    println!(
        "\nparallel run on {} threads: wall {:?}, count imbalance {:.2}",
        run.n_threads,
        run.wall,
        run.max_imbalance("count")
    );

    // Rule generation (step 2 of the mining task).
    let mut rules = generate_rules(&result, 0.9);
    rules.sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).unwrap());
    println!("\ntop rules at confidence >= 0.9:");
    for r in rules.iter().take(10) {
        println!("  {r}");
    }
    if rules.is_empty() {
        println!("  (none at this confidence; try a lower threshold)");
    }
}
