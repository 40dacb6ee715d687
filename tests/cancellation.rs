//! Cancellation and deadline semantics for every parallel miner
//! (DESIGN.md §10).
//!
//! The contract under test:
//!
//! * a token cancelled *before* the run fails at the first phase gate —
//!   no phase's results are produced;
//! * [`CancelToken::cancel_after_checks`] stops the run at an exact
//!   logical point, and observation latency is bounded: after the
//!   trigger at check `n`, each of the `P` workers lands at most one
//!   further checkpoint, so `checks() ≤ n + P` — in every phase,
//!   the `k = 2` pair-array count of CCPD and Eclat included;
//! * the error names a phase the miner actually has;
//! * an already-expired deadline surfaces as `DeadlineExceeded` even
//!   when the database is empty (zero chunk claims) or `P == 0` — the
//!   phase gates poll the deadline, not just the claim path.
//!
//! `ARM_STRESS_THREADS` raises the top thread count (CI sets 16).

use parallel_arm::dataset::Item;
use parallel_arm::prelude::*;
use parallel_arm::vertical;
use std::sync::OnceLock;
use std::time::Duration;

type Itemsets = Vec<(Vec<Item>, u32)>;

fn max_threads() -> usize {
    std::env::var("ARM_STRESS_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
        .max(2)
}

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut p = QuestParams::paper(8, 3, 250).with_seed(23);
        p.n_patterns = 40;
        generate(&p)
    })
}

fn empty_db() -> Database {
    Database::from_transactions(8, Vec::<Vec<u32>>::new()).unwrap()
}

fn pcfg(p: usize, mode: Scheduling) -> ParallelConfig {
    let base = AprioriConfig {
        min_support: Support::Fraction(0.02),
        max_k: Some(4),
        ..AprioriConfig::default()
    };
    ParallelConfig::new(base, p).with_scheduling(mode)
}

/// CCPD splitting candidate generation over its threads at every level
/// (at its default this database's small levels join serially).
fn split_candgen_pcfg(p: usize, mode: Scheduling) -> ParallelConfig {
    let mut cfg = pcfg(p, mode);
    cfg.parallel_candgen_min = 1;
    cfg
}

/// CCPD on the hash-tree path: a shared tree built and frozen per level.
fn tree_pcfg(p: usize, mode: Scheduling) -> ParallelConfig {
    let mut cfg = pcfg(p, mode);
    cfg.base.pair_array = false;
    cfg
}

fn vcfg(mode: Scheduling) -> VerticalConfig {
    VerticalConfig::default().with_scheduling(mode)
}

#[derive(Debug, Clone, Copy)]
enum Miner {
    /// CCPD at its default: the pair array, then class arrays.
    Ccpd,
    /// CCPD with `parallel_candgen_min: 1`: the split join at every level.
    CcpdSplitCandgen,
    /// CCPD with `pair_array: false`: the hash tree at every level.
    CcpdTree,
    Pccd,
    Eclat,
}

impl Miner {
    const ALL: [Miner; 5] = [
        Miner::Ccpd,
        Miner::CcpdSplitCandgen,
        Miner::CcpdTree,
        Miner::Pccd,
        Miner::Eclat,
    ];

    fn phases(self) -> &'static [&'static str] {
        match self {
            Miner::Ccpd | Miner::CcpdSplitCandgen => &["f1", "candgen", "count", "extract"],
            Miner::CcpdTree => &["f1", "candgen", "build", "freeze", "count", "extract"],
            Miner::Pccd => &["f1", "candgen", "count", "extract"],
            Miner::Eclat => &["transpose", "classes", "count", "mine"],
        }
    }

    /// The phase the first gate reports when the token is dead on entry.
    fn first_phase(self) -> &'static str {
        match self {
            Miner::Ccpd | Miner::CcpdSplitCandgen | Miner::CcpdTree | Miner::Pccd => "f1",
            Miner::Eclat => "transpose",
        }
    }

    fn run(
        self,
        db: &Database,
        p: usize,
        mode: Scheduling,
        ctrl: &RunControl,
    ) -> Result<Itemsets, MiningError> {
        match self {
            Miner::Ccpd => ccpd::try_mine(db, &pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets()),
            Miner::CcpdSplitCandgen => ccpd::try_mine(db, &split_candgen_pcfg(p, mode), ctrl)
                .map(|(r, _)| r.all_itemsets()),
            Miner::CcpdTree => {
                ccpd::try_mine(db, &tree_pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets())
            }
            Miner::Pccd => pccd::try_mine(db, &pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets()),
            Miner::Eclat => {
                let minsup = (db.len() as f64 * 0.02).ceil().max(1.0) as u32;
                vertical::try_mine_eclat_parallel(db, minsup, Some(4), &vcfg(mode), p, ctrl)
                    .map(|(r, _)| r.all_itemsets())
            }
        }
    }
}

#[test]
fn pre_cancelled_token_fails_at_the_first_gate() {
    for miner in Miner::ALL {
        for p in [1, 2, 4] {
            let token = CancelToken::new();
            token.cancel();
            let ctrl = RunControl::with_cancel(token);
            let err = miner
                .run(db(), p, Scheduling::Guided, &ctrl)
                .expect_err("pre-cancelled run must not produce a result");
            match err {
                MiningError::Cancelled { phase, .. } => {
                    assert_eq!(
                        phase,
                        miner.first_phase(),
                        "{miner:?} p={p}: cancellation must be observed at the first gate"
                    );
                }
                other => panic!("{miner:?} p={p}: expected Cancelled, got {other:?}"),
            }
        }
    }
}

#[test]
fn cancel_after_checks_bounds_observation_latency() {
    for miner in Miner::ALL {
        for &p in &[1usize, 2, 4, max_threads()] {
            for mode in [Scheduling::Static, Scheduling::Guided] {
                // Randomized-but-reproducible trigger points across the
                // run (claim ordinals are logical, not wall-clock).
                for n in [1u64, 2, 5, 11, 23, 47] {
                    let token = CancelToken::new().cancel_after_checks(n);
                    let ctrl = RunControl::with_cancel(token.clone());
                    match miner.run(db(), p, mode, &ctrl) {
                        Err(MiningError::Cancelled { phase, .. }) => {
                            assert!(
                                miner.phases().contains(&phase),
                                "{miner:?}: {phase} is not one of its phases"
                            );
                            assert!(
                                token.checks() <= n + p.max(1) as u64,
                                "{miner:?} p={p} mode={mode:?} n={n}: \
                                 {} checks — cancellation latency exceeds one claim per worker",
                                token.checks()
                            );
                        }
                        Ok(_) => {
                            // The whole run claimed fewer than n chunks;
                            // the trigger never tripped.
                            assert!(
                                token.checks() < n,
                                "{miner:?} p={p} mode={mode:?} n={n}: run succeeded \
                                 after {} checks but the trigger was armed at {n}",
                                token.checks()
                            );
                        }
                        Err(other) => {
                            panic!("{miner:?} p={p} mode={mode:?} n={n}: unexpected {other:?}")
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn cancellation_latency_covers_the_pair_count_phase() {
    // CCPD capped at k = 2 and parallel Eclat each have exactly one
    // `count` phase: the k = 2 pair-array count. Walk the trigger forward
    // from the first check until it lands there, holding the latency
    // bound at every step.
    for miner in [Miner::Ccpd, Miner::Eclat] {
        for &p in &[1usize, 2, 4, max_threads()] {
            for mode in [Scheduling::Static, Scheduling::Guided] {
                let mut landed = false;
                for n in 1u64.. {
                    let token = CancelToken::new().cancel_after_checks(n);
                    let ctrl = RunControl::with_cancel(token.clone());
                    let outcome = match miner {
                        Miner::Ccpd => {
                            let mut cfg = pcfg(p, mode);
                            cfg.base.max_k = Some(2);
                            assert!(cfg.base.pair_array);
                            ccpd::try_mine(db(), &cfg, &ctrl).map(|_| ())
                        }
                        _ => miner.run(db(), p, mode, &ctrl).map(|_| ()),
                    };
                    match outcome {
                        Err(MiningError::Cancelled { phase, .. }) => {
                            assert!(
                                token.checks() <= n + p as u64,
                                "{miner:?} p={p} mode={mode:?} n={n}: {} checks in {phase}",
                                token.checks()
                            );
                            if phase == "count" {
                                landed = true;
                                break;
                            }
                        }
                        Ok(()) => break,
                        Err(other) => {
                            panic!("{miner:?} p={p} mode={mode:?} n={n}: unexpected {other:?}")
                        }
                    }
                }
                assert!(
                    landed,
                    "{miner:?} p={p} mode={mode:?}: the run finished before any trigger \
                     landed in the pair count"
                );
            }
        }
    }
}

#[test]
fn expired_deadline_surfaces_everywhere() {
    for miner in Miner::ALL {
        for p in [1, 2, 4] {
            let token = CancelToken::deadline_in(Duration::ZERO);
            let ctrl = RunControl::with_cancel(token.clone());
            let err = miner
                .run(db(), p, Scheduling::Static, &ctrl)
                .expect_err("expired deadline must fail the run");
            match err {
                MiningError::DeadlineExceeded { phase, .. } => {
                    assert!(miner.phases().contains(&phase), "{miner:?}: phase {phase}");
                }
                other => panic!("{miner:?} p={p}: expected DeadlineExceeded, got {other:?}"),
            }
            // The latched deadline is not overwritten by the sibling
            // cancellation that containment may issue.
            assert!(token.is_cancelled());
        }
    }
}

#[test]
fn empty_database_and_zero_threads_observe_the_deadline() {
    // Zero chunk claims anywhere: the phase gates alone must notice.
    let empty = empty_db();
    for miner in Miner::ALL {
        for p in [0usize, 1, 4] {
            let ctrl = RunControl::with_cancel(CancelToken::deadline_in(Duration::ZERO));
            let err = miner
                .run(&empty, p, Scheduling::Guided, &ctrl)
                .expect_err("deadline must be observed even with no work");
            assert!(
                matches!(err, MiningError::DeadlineExceeded { .. }),
                "{miner:?} p={p}: got {err:?}"
            );
        }
    }
}

#[test]
fn empty_database_cancellation_returns_promptly() {
    let empty = empty_db();
    for miner in Miner::ALL {
        let token = CancelToken::new();
        token.cancel();
        let ctrl = RunControl::with_cancel(token);
        let err = miner.run(&empty, 2, Scheduling::Guided, &ctrl).unwrap_err();
        assert!(
            matches!(err, MiningError::Cancelled { .. }),
            "{miner:?}: got {err:?}"
        );
    }
}

#[test]
fn live_token_changes_nothing() {
    // A threaded-through but never-tripped token is inert: results are
    // bit-identical to the infallible entry points.
    let (want, _) = ccpd::mine(db(), &pcfg(4, Scheduling::Guided));
    let ctrl = RunControl::with_cancel(CancelToken::deadline_in(Duration::from_secs(3600)));
    let (got, _) = ccpd::try_mine(db(), &pcfg(4, Scheduling::Guided), &ctrl).unwrap();
    assert_eq!(got.all_itemsets(), want.all_itemsets());
    assert!(!ctrl.cancel.is_cancelled());
}
