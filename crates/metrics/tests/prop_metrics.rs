//! Property tests for the report layer: a `RunReport` populated with
//! arbitrary (bounded) numbers and adversarial strings must survive the
//! JSON round trip exactly, and the serializer must be a fixed point of
//! the parser (parse → pretty → parse is the identity).

use arm_metrics::{
    json::parse, reports_from_json, reports_to_json, FaultReport, IterReport, Json, LockReport,
    MemReport, PhaseReport, RunReport, SchedReport, ThreadReport, VerticalReport,
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
        threads in vec(vec(0u64..MAX_INT, 13), 0..5),
        lock_mem in vec(0u64..MAX_INT, 16),
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
                .map(|(id, v)| ThreadReport {
                    id,
                    work_units: v[0],
                    txns: v[1],
                    node_visits: v[2],
                    leaf_scans: v[3],
                    subset_checks: v[4],
                    hits: v[5],
                    lock_acquires: v[6],
                    lock_contended: v[7],
                    lock_wait_ns: v[8],
                    ctr_increments: v[9],
                    ctr_cas_retries: v[10],
                    chunks_executed: v[11],
                    cursor_cas_retries: v[12],
                })
                .collect(),
            locks: LockReport {
                leaf_acquires: lock_mem[0],
                leaf_contended: lock_mem[1],
                leaf_wait_ns: lock_mem[2],
                ctr_increments: lock_mem[3],
                ctr_cas_retries: lock_mem[4],
            },
            sched: SchedReport {
                chunks_executed: lock_mem[9],
                cursor_cas_retries: lock_mem[10],
            },
            vertical: VerticalReport {
                intersections: lock_mem[11],
                words_anded: lock_mem[12],
                tidset_bytes: lock_mem[13],
            },
            faults: FaultReport {
                cancel_checks: lock_mem[14],
                faults_injected: lock_mem[15],
            },
            mem: MemReport {
                tree_bytes: lock_mem[5],
                tree_nodes: lock_mem[6],
                scratch_allocs: lock_mem[7],
                scratch_stamp_bytes: lock_mem[8],
            },
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
