//! `arm-mine` — mine association rules from a transaction file.
//!
//! ```text
//! arm-mine <input> [--format text|bin] [--support 0.005|50t] [--confidence 0.8]
//!          [--threads N] [--placement GPP] [--hash bitonic|mod]
//!          [--leaf-threshold 8] [--fanout auto|H] [--max-k K]
//!          [--visited node|level] [--no-short-circuit]
//!          [--summary all|maximal|closed] [--top N]
//! ```
//!
//! Text input: one transaction per line, whitespace-separated item ids.
//!
//! Mining starts from `AprioriConfig::default()`, so `C_2` is counted in
//! the pair array (`pair_array`); no flag selects the `k = 2` hash tree.

use parallel_arm::cli::{mining_config, Args, CliError, MINING_FLAGS, MINING_OPTS};
use parallel_arm::prelude::*;

const EXTRA_OPTS: &[&str] = &["format", "confidence", "threads", "summary", "top"];

fn usage() -> ! {
    eprintln!(
        "usage: arm-mine <input> [--format text|bin] [--support 0.005|50t]\n\
         \t[--confidence 0.8] [--threads N] [--placement CCPD|SPP|LPP|GPP|L-SPP|L-LPP|L-GPP|LCA-GPP]\n\
         \t[--hash bitonic|mod] [--leaf-threshold T] [--fanout auto|H] [--max-k K]\n\
         \t[--visited node|level] [--no-short-circuit] [--summary all|maximal|closed] [--top N]"
    );
    std::process::exit(2);
}

fn main() {
    let allowed: Vec<&str> = MINING_OPTS.iter().chain(EXTRA_OPTS).copied().collect();
    let args = match Args::parse(std::env::args().skip(1), &allowed, MINING_FLAGS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
        }
    };
    if args.flag("help") || args.positional().len() != 1 {
        usage();
    }
    let input = &args.positional()[0];
    let fail = |e: CliError| -> ! {
        eprintln!("error: {e}");
        usage();
    };
    let cfg = mining_config(&args).unwrap_or_else(|e| fail(e));
    let threads: usize = args
        .get_parsed("threads", 1, "an integer")
        .unwrap_or_else(|e| fail(e));
    let confidence: f64 = args
        .get_parsed("confidence", 0.8, "a fraction")
        .unwrap_or_else(|e| fail(e));
    let top: usize = args
        .get_parsed("top", 20, "an integer")
        .unwrap_or_else(|e| fail(e));

    let db = match args.get("format").unwrap_or("text") {
        "bin" => parallel_arm::dataset::io::load(input),
        "text" => std::fs::File::open(input)
            .and_then(|f| parallel_arm::dataset::io::read_text(std::io::BufReader::new(f), 0)),
        other => {
            eprintln!("error: unknown format {other:?} (text | bin)");
            usage();
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("error: cannot read {input}: {e}");
        std::process::exit(1);
    });

    eprintln!(
        "mining {} transactions over {} items ({} threads)...",
        db.len(),
        db.n_items(),
        threads
    );
    let result = if threads > 1 {
        ccpd::mine(&db, &ParallelConfig::new(cfg, threads)).0
    } else {
        parallel_arm::core::mine(&db, &cfg)
    };

    println!(
        "# {} frequent itemsets (min support {} txns, longest k={})",
        result.total_frequent(),
        result.min_support,
        result.max_k()
    );
    let listed: Vec<(Vec<u32>, u32)> = match args.get("summary").unwrap_or("all") {
        "maximal" => parallel_arm::core::maximal_itemsets(&result),
        "closed" => parallel_arm::core::closed_itemsets(&result),
        _ => result.all_itemsets(),
    };
    for (items, sup) in &listed {
        let words: Vec<String> = items.iter().map(|i| i.to_string()).collect();
        println!("{}\t{}", words.join(" "), sup);
    }

    let mut rules = generate_rules(&result, confidence);
    rules.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap()
            .then(b.support.cmp(&a.support))
    });
    println!(
        "# top {} rules (confidence >= {confidence}):",
        top.min(rules.len())
    );
    for r in rules.iter().take(top) {
        println!("# {r}");
    }
}
