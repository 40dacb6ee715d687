//! Property tests for the load-balance metric: imbalance is `≥ 1`, with
//! equality exactly on uniform work vectors.

use arm_metrics::PhaseRecord;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `imbalance()` is `≥ 1`, and `== 1` exactly when every thread did
    /// the same amount of work (or the phase recorded no work at all).
    #[test]
    fn imbalance_is_at_least_one_with_equality_iff_uniform(
        work in vec(0u64..1_000, 1..9),
    ) {
        let ph = PhaseRecord {
            name: "count",
            k: 2,
            wall: Duration::from_millis(1),
            thread_work: Some(work.clone()),
        };
        let imb = ph.imbalance();
        prop_assert!(imb >= 1.0);
        let uniform = work.iter().all(|&w| w == work[0]);
        let total: u64 = work.iter().sum();
        if uniform || total == 0 {
            prop_assert_eq!(imb, 1.0);
        } else {
            prop_assert!(imb > 1.0, "non-uniform {work:?} gave imbalance 1.0");
        }
    }

    /// Uniform work and serial phases (nothing to balance) both report
    /// imbalance 1.
    #[test]
    fn uniform_and_serial_phases_are_balanced(ms in 1u64..1_000, w in 1u64..10_000) {
        let ph = PhaseRecord {
            name: "count",
            k: 2,
            wall: Duration::from_millis(ms),
            thread_work: Some(vec![w, w]),
        };
        prop_assert_eq!(ph.imbalance(), 1.0);

        let serial = PhaseRecord {
            name: "candgen",
            k: 2,
            wall: Duration::from_millis(ms),
            thread_work: None,
        };
        prop_assert_eq!(serial.imbalance(), 1.0);
    }
}
