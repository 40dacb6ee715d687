//! Property tests for the report layer: a `RunReport` populated with
//! arbitrary (bounded) numbers and adversarial strings must survive the
//! JSON round trip exactly, and the serializer must be a fixed point of
//! the parser (parse → pretty → parse is the identity).

use arm_metrics::{
    json::parse, reports_from_json, reports_to_json, IterReport, Json, PhaseReport, RunReport,
    ThreadReport, N_COUNTERS,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings that stress every escaping path: quotes, backslashes, control
/// characters, multi-byte UTF-8, and astral-plane code points (which the
/// parser must reassemble from surrogate pairs).
const PALETTE: &[&str] = &[
    "",
    "a",
    "T10.I4.D100K",
    "\"",
    "\\",
    "\n",
    "\t",
    "\r",
    "\u{1}",
    "\u{1f}",
    "é",
    "→",
    "𝄞",
    "quote\"inside",
    "back\\slash",
    "mixed \"\\\n\t 𝄞",
];

fn compose(idxs: &[usize]) -> String {
    idxs.iter().map(|&i| PALETTE[i]).collect()
}

/// The integer ceiling the report serializer represents exactly (values
/// above saturate to `i64::MAX` by design).
const MAX_INT: u64 = i64::MAX as u64;

/// The canonical phase names plus a hostile one.
const NAMES: &[&str] = &[
    "f1", "candgen", "build", "freeze", "count", "extract", "\"\\",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any bounded-value report round-trips through its JSON text exactly.
    #[test]
    fn run_report_roundtrips_exactly(
        algo in vec(0usize..PALETTE.len(), 0..6),
        dataset in vec(0usize..PALETTE.len(), 0..6),
        scalars in (0usize..64, 0u32..1_000_000, any::<bool>()),
        wall_seconds in 0.0f64..1.0e9,
        phases in vec((0usize..NAMES.len(), 1u32..16, vec(0u64..MAX_INT, 0..5)), 0..6),
        threads in vec((vec(0u64..MAX_INT, 6), vec(0u64..MAX_INT, N_COUNTERS)), 0..5),
        iters in vec((1u32..16, vec(0u64..MAX_INT, 4)), 0..6),
        phase_floats in vec(0.0f64..1.0e6, 12),
    ) {
        let (n_threads, min_support, metrics_enabled) = scalars;
        let report = RunReport {
            algorithm: compose(&algo),
            dataset: compose(&dataset),
            n_threads,
            min_support,
            metrics_enabled,
            wall_seconds,
            phases: phases
                .iter()
                .enumerate()
                .map(|(i, (name, k, work))| PhaseReport {
                    name: NAMES[*name].to_string(),
                    k: *k,
                    wall_seconds: phase_floats[2 * i],
                    thread_work: work.clone(),
                    imbalance: phase_floats[2 * i + 1],
                })
                .collect(),
            threads: threads
                .iter()
                .enumerate()
                .map(|(id, (v, counters))| ThreadReport {
                    id,
                    work_units: v[0],
                    txns: v[1],
                    node_visits: v[2],
                    leaf_scans: v[3],
                    subset_checks: v[4],
                    hits: v[5],
                    counters: counters.as_slice().try_into().unwrap(),
                })
                .collect(),
            iters: iters
                .iter()
                .map(|(k, v)| IterReport {
                    k: *k,
                    n_candidates: v[0],
                    n_frequent: v[1],
                    tree_bytes: v[2],
                    tree_nodes: v[3],
                })
                .collect(),
        };

        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        prop_assert_eq!(&back, &report);

        // Multi-report documents round-trip too, preserving order.
        let doc = reports_to_json(&[report.clone(), back]);
        let reports = reports_from_json(&doc).unwrap();
        prop_assert_eq!(reports.len(), 2);
        prop_assert_eq!(&reports[0], &report);
        prop_assert_eq!(&reports[1], &report);

        // The serializer is a fixed point of the parser: parsing and
        // re-serializing reproduces the bytes exactly.
        let value = parse(&text).unwrap();
        prop_assert_eq!(value.pretty(), text);
    }

    /// Arbitrary strings (from the adversarial palette) survive the
    /// string escape/unescape path exactly.
    #[test]
    fn json_strings_roundtrip(idxs in vec(0usize..PALETTE.len(), 0..20)) {
        let s = compose(&idxs);
        let v = Json::Str(s.clone());
        let text = v.pretty();
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Integers and finite floats keep their exact values and their
    /// Int/Float distinction through the round trip.
    #[test]
    fn json_numbers_roundtrip(i in any::<i64>(), f in -1.0e12f64..1.0e12) {
        let v = Json::Arr(vec![Json::Int(i), Json::Float(f)]);
        let back = parse(&v.pretty()).unwrap();
        prop_assert_eq!(back, v);
    }
}
