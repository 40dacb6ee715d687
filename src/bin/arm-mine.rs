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
//! Mining starts from `AprioriConfig::default()`, so every level is
//! counted in arrays (`pair_array`): `C_2` in the pair array, each
//! `C_k`, `k ≥ 3`, in class arrays. No hash tree is built unless a
//! hash-tree option is given: any of `--placement`, `--hash`,
//! `--leaf-threshold`, `--fanout`, `--visited` and `--no-short-circuit`
//! selects the paper's hash-tree counter (`pair_array = false`) at every
//! level.

use parallel_arm::cli::{mining_config, Args, CliError, MINING_FLAGS, MINING_OPTS};
use parallel_arm::prelude::*;
use std::io::Write;

const EXTRA_OPTS: &[&str] = &["format", "confidence", "threads", "summary", "top"];

fn usage() -> ! {
    eprintln!(
        "usage: arm-mine <input> [--format text|bin] [--support 0.005|50t]\n\
         \t[--confidence 0.8] [--threads N] [--placement CCPD|SPP|LPP|GPP|L-SPP|L-LPP|L-GPP|LCA-GPP]\n\
         \t[--hash bitonic|mod] [--leaf-threshold T] [--fanout auto|H] [--max-k K]\n\
         \t[--visited node|level] [--no-short-circuit] [--summary all|maximal|closed] [--top N]\n\
         Counting uses arrays and builds no hash tree; any of --placement, --hash,\n\
         --leaf-threshold, --fanout, --visited or --no-short-circuit selects the\n\
         hash-tree counter (the options shape that tree)."
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
    let result = ccpd::mine(&db, &ParallelConfig::new(cfg, threads)).0;

    let listed: Vec<(Vec<u32>, u32)> = match args.get("summary").unwrap_or("all") {
        "maximal" => parallel_arm::core::maximal_itemsets(&result),
        "closed" => parallel_arm::core::closed_itemsets(&result),
        _ => result.all_itemsets(),
    };
    let rules = generate_rules(&result, confidence);
    let best = parallel_arm::core::top_rules(&rules, top);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let written =
        write_report(&mut out, &result, &listed, &best, confidence).and_then(|()| out.flush());
    match written {
        Ok(()) => {}
        // The reader went away (`arm-mine ... | head`): nothing left to do.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the itemset listing and the top rules (`best`, in order) to
/// `out`.
fn write_report(
    out: &mut impl Write,
    result: &MiningResult,
    listed: &[(Vec<u32>, u32)],
    best: &[Rule],
    confidence: f64,
) -> std::io::Result<()> {
    writeln!(
        out,
        "# {} frequent itemsets (min support {} txns, longest k={})",
        result.total_frequent(),
        result.min_support,
        result.max_k()
    )?;
    for (items, sup) in listed {
        let words: Vec<String> = items.iter().map(|i| i.to_string()).collect();
        writeln!(out, "{}\t{}", words.join(" "), sup)?;
    }
    writeln!(
        out,
        "# top {} rules (confidence >= {confidence}):",
        best.len()
    )?;
    for r in best {
        writeln!(out, "# {r}")?;
    }
    Ok(())
}
