//! Shared command-line machinery for the `arm-mine` and `arm-gen` tools.
//!
//! Deliberately dependency-free: a tiny `--flag value` parser with typed
//! getters, help rendering, and the option-to-config translation both
//! binaries share.

use arm_core::{AprioriConfig, HashScheme, Support};
use arm_hashtree::{PlacementPolicy, VisitedMode};
use std::collections::BTreeMap;

/// A parsed command line: `--key value` pairs plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    opts: BTreeMap<String, String>,
    positional: Vec<String>,
    flags: Vec<String>,
}

/// Errors raised during argument handling.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--key` given without a value where one is required.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The offending raw text.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option that is not understood.
    UnknownOption(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(k) => write!(f, "--{k} requires a value"),
            CliError::BadValue {
                key,
                value,
                expected,
            } => write!(f, "--{key}: cannot parse {value:?} (expected {expected})"),
            CliError::UnknownOption(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses raw arguments. `boolean_flags` lists options that take no
    /// value (e.g. `--help`); everything else starting with `--` consumes
    /// the next token as its value. `allowed` guards against typos.
    pub fn parse(
        raw: impl IntoIterator<Item = String>,
        allowed: &[&str],
        boolean_flags: &[&str],
    ) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if !allowed.contains(&key) && !boolean_flags.contains(&key) {
                    return Err(CliError::UnknownOption(key.to_string()));
                }
                if boolean_flags.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::MissingValue(key.into()))?;
                    out.opts.insert(key.to_string(), value);
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// True when a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    /// Typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                key: key.into(),
                value: v.clone(),
                expected,
            }),
        }
    }
}

impl CliError {
    fn bad(key: &str, value: &str, expected: &'static str) -> Self {
        CliError::BadValue {
            key: key.into(),
            value: value.into(),
            expected,
        }
    }
}

/// Options and flags that shape the candidate hash tree. The default
/// counts in arrays and builds no tree, so giving any of them selects the
/// hash-tree counter (`pair_array = false`).
pub const TREE_OPTIONS: &[&str] = &[
    "placement",
    "hash",
    "leaf-threshold",
    "fanout",
    "visited",
    "no-short-circuit",
];

/// Builds an [`AprioriConfig`] from common mining options:
/// `--support` (fraction in `(0, 1]` like `0.005`, or positive absolute
/// count like `50t`), `--max-k`, and the hash-tree options
/// ([`TREE_OPTIONS`]): `--placement`, `--hash` (`mod` | `bitonic`),
/// `--leaf-threshold` (≥ 1), `--fanout` (fixed, ≥ 1; `auto` = adaptive),
/// `--visited` (`node` | `level`), `--no-short-circuit`. Any hash-tree
/// option turns `pair_array` off, so the tree it shapes is the counter.
pub fn mining_config(args: &Args) -> Result<AprioriConfig, CliError> {
    let mut cfg = AprioriConfig {
        pair_array: !TREE_OPTIONS
            .iter()
            .any(|&o| args.get(o).is_some() || args.flag(o)),
        ..AprioriConfig::default()
    };

    if let Some(s) = args.get("support") {
        const EXPECTED: &str = "a fraction in (0, 1] (0.005) or a positive count (50t)";
        let bad = || CliError::bad("support", s, EXPECTED);
        cfg.min_support = match s.strip_suffix('t') {
            Some(abs) => match abs.parse::<u32>() {
                Ok(n) if n >= 1 => Support::Absolute(n),
                _ => return Err(bad()),
            },
            // NaN fails both comparisons.
            None => match s.parse::<f64>() {
                Ok(f) if f > 0.0 && f <= 1.0 => Support::Fraction(f),
                _ => return Err(bad()),
            },
        };
    }
    if let Some(p) = args.get("placement") {
        cfg.placement = p.parse::<PlacementPolicy>().map_err(|_| {
            CliError::bad("placement", p, "CCPD|SPP|LPP|GPP|L-SPP|L-LPP|L-GPP|LCA-GPP")
        })?;
    }
    if let Some(h) = args.get("hash") {
        cfg.hash_scheme = match h {
            "mod" | "interleaved" => HashScheme::Interleaved,
            "bitonic" => HashScheme::Bitonic,
            _ => return Err(CliError::bad("hash", h, "mod | bitonic")),
        };
    }
    if let Some(t) = args.get("leaf-threshold") {
        cfg.leaf_threshold = match t.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(CliError::bad("leaf-threshold", t, "a positive integer")),
        };
    }
    if let Some(f) = args.get("fanout") {
        if f == "auto" {
            cfg.adaptive_fanout = true;
        } else {
            cfg.adaptive_fanout = false;
            cfg.fixed_fanout = match f.parse::<u32>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(CliError::bad("fanout", f, "a positive integer or 'auto'")),
            };
        }
    }
    if let Some(mk) = args.get("max-k") {
        cfg.max_k = Some(
            mk.parse()
                .map_err(|_| CliError::bad("max-k", mk, "an integer"))?,
        );
    }
    if args.flag("no-short-circuit") {
        cfg.short_circuit = false;
    }
    if let Some(v) = args.get("visited") {
        cfg.visited = match v {
            "node" => VisitedMode::PerNode,
            "level" => VisitedMode::LevelPath,
            _ => return Err(CliError::bad("visited", v, "node | level")),
        };
    }
    Ok(cfg)
}

/// Option names accepted by [`mining_config`].
pub const MINING_OPTS: &[&str] = &[
    "support",
    "placement",
    "hash",
    "leaf-threshold",
    "fanout",
    "max-k",
    "visited",
];

/// Boolean flags accepted by [`mining_config`].
pub const MINING_FLAGS: &[&str] = &["no-short-circuit", "help"];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(
            words.iter().map(|s| s.to_string()),
            &[
                "support",
                "placement",
                "hash",
                "fanout",
                "threads",
                "leaf-threshold",
                "max-k",
                "visited",
            ],
            &["help", "no-short-circuit"],
        )
        .unwrap()
    }

    #[test]
    fn parses_mixed_arguments() {
        let a = parse(&["in.txt", "--support", "0.01", "--help", "out.txt"]);
        assert_eq!(a.positional(), &["in.txt", "out.txt"]);
        assert_eq!(a.get("support"), Some("0.01"));
        assert!(a.flag("help"));
        assert!(!a.flag("no-short-circuit"));
    }

    #[test]
    fn rejects_unknown_and_missing() {
        let err = Args::parse(["--bogus".to_string(), "1".into()], &["support"], &[]).unwrap_err();
        assert_eq!(err, CliError::UnknownOption("bogus".into()));
        let err = Args::parse(["--support".to_string()], &["support"], &[]).unwrap_err();
        assert_eq!(err, CliError::MissingValue("support".into()));
    }

    #[test]
    fn mining_config_translation() {
        let a = parse(&[
            "--support",
            "25t",
            "--placement",
            "lpp",
            "--hash",
            "mod",
            "--fanout",
            "16",
            "--max-k",
            "4",
            "--no-short-circuit",
            "--visited",
            "level",
        ]);
        let cfg = mining_config(&a).unwrap();
        assert_eq!(cfg.min_support, Support::Absolute(25));
        assert_eq!(cfg.placement, PlacementPolicy::Lpp);
        assert_eq!(cfg.hash_scheme, HashScheme::Interleaved);
        assert!(!cfg.adaptive_fanout);
        assert_eq!(cfg.fixed_fanout, 16);
        assert_eq!(cfg.max_k, Some(4));
        assert!(!cfg.short_circuit);
        assert_eq!(cfg.visited, VisitedMode::LevelPath);
        assert!(!cfg.pair_array);
    }

    #[test]
    fn mining_config_fraction_and_auto() {
        let a = parse(&["--support", "0.02", "--fanout", "auto"]);
        let cfg = mining_config(&a).unwrap();
        assert_eq!(cfg.min_support, Support::Fraction(0.02));
        assert!(cfg.adaptive_fanout);
    }

    #[test]
    fn tree_options_select_the_hash_tree() {
        let cfg = mining_config(&parse(&["--support", "0.02", "--max-k", "3"])).unwrap();
        assert!(cfg.pair_array, "no tree option: arrays");
        for words in [
            &["--placement", "GPP"][..],
            &["--hash", "bitonic"],
            &["--leaf-threshold", "8"],
            &["--fanout", "auto"],
            &["--visited", "node"],
            &["--no-short-circuit"],
        ] {
            let cfg = mining_config(&parse(words)).unwrap();
            assert!(!cfg.pair_array, "{words:?} selects the tree");
        }
    }

    #[test]
    fn mining_config_bad_values() {
        for (k, v) in [
            ("support", "lots"),
            ("support", "nan"),
            ("support", "-3"),
            ("support", "0t"),
            ("fanout", "0"),
            ("leaf-threshold", "0"),
            ("placement", "ZPP"),
            ("hash", "sha256"),
            ("visited", "maybe"),
        ] {
            let a = parse(&[&format!("--{k}"), v]);
            assert!(mining_config(&a).is_err(), "--{k} {v}");
        }
    }
}
