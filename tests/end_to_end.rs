//! End-to-end integration: generator → database → mining → rules,
//! across crates.

use parallel_arm::prelude::*;

fn synthetic() -> Database {
    let mut p = QuestParams::paper(10, 4, 2_000);
    p.n_patterns = 100; // keep per-pattern support realistic at this size
    generate(&p)
}

#[test]
fn generator_feeds_miner() {
    let db = synthetic();
    let cfg = AprioriConfig {
        min_support: Support::Fraction(0.01),
        ..AprioriConfig::default()
    };
    let r = parallel_arm::core::mine(&db, &cfg);
    assert!(r.total_frequent() > 0, "pattern data must yield itemsets");
    assert!(r.max_k() >= 2, "patterns of mean size 4 must yield pairs");

    // Every reported support is correct by brute-force recount.
    for (items, sup) in r.all_itemsets().iter().take(200) {
        let actual = db
            .iter()
            .filter(|t| arm_hashtree::is_subset(items, t))
            .count() as u32;
        assert_eq!(actual, *sup, "support mismatch for {items:?}");
        assert!(*sup >= r.min_support);
    }
}

#[test]
fn mining_is_complete_against_naive_reference() {
    let db = synthetic();
    let minsup = 20;
    let expected = parallel_arm::core::naive::mine_levelwise(&db, minsup, None);
    let cfg = AprioriConfig {
        min_support: Support::Absolute(minsup),
        ..AprioriConfig::default()
    };
    let got = parallel_arm::core::mine(&db, &cfg).all_itemsets();
    assert_eq!(got, expected);
}

#[test]
fn rules_pipeline_end_to_end() {
    let db = synthetic();
    let cfg = AprioriConfig {
        min_support: Support::Fraction(0.01),
        ..AprioriConfig::default()
    };
    let r = parallel_arm::core::mine(&db, &cfg);
    let rules = generate_rules(&r, 0.7);
    for rule in &rules {
        assert!(rule.confidence >= 0.7 && rule.confidence <= 1.0 + 1e-12);
        assert!(!rule.antecedent.is_empty() && !rule.consequent.is_empty());
        // Antecedent and consequent are disjoint and sorted.
        assert!(rule.antecedent.windows(2).all(|w| w[0] < w[1]));
        assert!(rule.consequent.windows(2).all(|w| w[0] < w[1]));
        assert!(rule.antecedent.iter().all(|a| !rule.consequent.contains(a)));
    }
}

#[test]
fn dataset_io_roundtrip_preserves_mining_results() {
    let db = synthetic();
    let mut buf = Vec::new();
    parallel_arm::dataset::io::write_binary(&db, &mut buf).unwrap();
    let back = parallel_arm::dataset::io::read_binary(&buf[..]).unwrap();
    assert_eq!(db, back);

    let cfg = AprioriConfig {
        min_support: Support::Fraction(0.02),
        ..AprioriConfig::default()
    };
    let a = parallel_arm::core::mine(&db, &cfg).all_itemsets();
    let b = parallel_arm::core::mine(&back, &cfg).all_itemsets();
    assert_eq!(a, b);
}

/// Writes a T10.I4 database of 2,000 transactions as text to `name`
/// under a fresh directory in the system temp dir; returns the directory
/// and the file.
fn text_input(name: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.txt");
    let db = parallel_arm::quest::generate(&QuestParams::paper(10, 4, 2_000));
    let file = std::fs::File::create(&input).unwrap();
    parallel_arm::dataset::io::write_text(&db, std::io::BufWriter::new(file)).unwrap();
    (dir, input)
}

/// `arm-mine data.txt | head -2`: a reader that closes the pipe early must
/// end the run quietly, not with "failed printing to stdout" and the exit
/// code 101 of a panic.
#[test]
fn arm_mine_exits_quietly_when_the_reader_closes_early() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let (dir, input) = text_input("arm-mine-pipe");
    // At 0.3% support the listing runs to a few hundred KB, far more than
    // a pipe buffers, so the miner is still writing when the reader quits.
    let mut child = Command::new(env!("CARGO_BIN_EXE_arm-mine"))
        .arg(&input)
        .args(["--support", "0.003"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    for _ in 0..2 {
        assert!(!lines.next().unwrap().unwrap().is_empty());
    }
    drop(lines);
    let out = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// `arm-mine` mines with parallel Eclat by default and with CCPD's hash
/// tree when a tree option is given: the listing, the summaries and the
/// rules are byte for byte the same.
#[test]
fn arm_mine_prints_the_same_with_eclat_and_the_hash_tree() {
    let (dir, input) = text_input("arm-mine-miners");
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_arm-mine"))
            .arg(&input)
            .args(["--support", "0.005", "--confidence", "0.5"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {out:?}");
        out.stdout
    };
    for summary in ["all", "closed", "maximal"] {
        for threads in ["1", "2"] {
            let args = ["--summary", summary, "--threads", threads];
            let eclat = run(&args);
            assert!(
                eclat.iter().filter(|&&b| b == b'\n').count() > 3,
                "{args:?}"
            );
            let tree = run(&[&args[..], &["--hash", "bitonic"]].concat());
            assert!(eclat == tree, "{args:?}: Eclat and the hash tree differ");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
