//! Chaos battery: deterministic fault injection against every parallel
//! miner (DESIGN.md §10).
//!
//! A [`FaultPlan`] arms panic or delay sites at each instrumented point
//! (CCPD's f1/count claims, plus build on its hash-tree path, PCCD's
//! count, parallel Eclat's transpose, pair count and class-mining loop);
//! the matrix below drives
//! every miner × site × thread count × scheduling mode and asserts the
//! containment contract:
//!
//! * a panic site surfaces as a clean [`MiningError::WorkerPanicked`]
//!   naming the phase, with every worker joined (the process would abort
//!   otherwise — `std::thread::scope` cannot leak);
//! * a delay site perturbs the schedule but changes **nothing** in the
//!   result;
//! * a retry on the same inputs after a failed run is bit-identical to a
//!   run that never failed.
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

/// Suppresses the default panic-hook backtrace spam for *injected*
/// panics only; anything unexpected still prints.
fn quiet_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected fault"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut p = QuestParams::paper(8, 3, 250).with_seed(17);
        p.n_patterns = 40;
        generate(&p)
    })
}

fn base_cfg() -> AprioriConfig {
    AprioriConfig {
        min_support: Support::Fraction(0.02),
        max_k: Some(4),
        ..AprioriConfig::default()
    }
}

fn pcfg(p: usize, mode: Scheduling) -> ParallelConfig {
    ParallelConfig::new(base_cfg(), p).with_scheduling(mode)
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

const MODES: [Scheduling; 2] = [Scheduling::Static, Scheduling::Guided];

/// Every fallible miner, normalized to its sorted itemset list so the
/// whole matrix shares one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// The fault sites instrumented in this miner's drivers.
    fn sites(self) -> &'static [&'static str] {
        match self {
            Miner::Ccpd | Miner::CcpdSplitCandgen => &["f1", "count"],
            Miner::CcpdTree => &["f1", "build", "count"],
            Miner::Pccd => &["count"],
            Miner::Eclat => &["transpose", "count", "mine"],
        }
    }

    /// Phases in which this miner can legitimately observe an error.
    fn phases(self) -> &'static [&'static str] {
        match self {
            Miner::Ccpd | Miner::CcpdSplitCandgen => &["f1", "candgen", "count", "extract"],
            Miner::CcpdTree => &["f1", "candgen", "build", "freeze", "count", "extract"],
            Miner::Pccd => &["f1", "candgen", "count", "extract"],
            Miner::Eclat => &["transpose", "classes", "count", "mine"],
        }
    }

    fn run(self, p: usize, mode: Scheduling, ctrl: &RunControl) -> Result<Itemsets, MiningError> {
        match self {
            Miner::Ccpd => {
                ccpd::try_mine(db(), &pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets())
            }
            Miner::CcpdSplitCandgen => ccpd::try_mine(db(), &split_candgen_pcfg(p, mode), ctrl)
                .map(|(r, _)| r.all_itemsets()),
            Miner::CcpdTree => {
                ccpd::try_mine(db(), &tree_pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets())
            }
            Miner::Pccd => {
                pccd::try_mine(db(), &pcfg(p, mode), ctrl).map(|(r, _)| r.all_itemsets())
            }
            Miner::Eclat => {
                let minsup = (db().len() as f64 * 0.02).ceil() as u32;
                vertical::try_mine_eclat_parallel(db(), minsup, Some(4), &vcfg(mode), p, ctrl)
                    .map(|(r, _)| r.all_itemsets())
            }
        }
    }

    /// The fault-free oracle for this miner at this thread count / mode.
    fn baseline(self, p: usize, mode: Scheduling) -> Itemsets {
        self.run(p, mode, &RunControl::default())
            .expect("fault-free run succeeds")
    }
}

fn thread_counts() -> Vec<usize> {
    let mut ps = vec![1, 2, 4, 8];
    let top = max_threads();
    if !ps.contains(&top) {
        ps.push(top);
    }
    ps
}

#[test]
fn panic_sites_surface_as_clean_errors() {
    quiet_panics();
    for miner in Miner::ALL {
        for &site in miner.sites() {
            for &p in &thread_counts() {
                for mode in MODES {
                    let ctrl = RunControl::with_faults(FaultPlan::new().panic_at(site, None, None));
                    let err = miner
                        .run(p, mode, &ctrl)
                        .expect_err("armed panic site must fail the run");
                    match err {
                        MiningError::WorkerPanicked {
                            thread,
                            phase,
                            ref payload,
                        } => {
                            assert_eq!(
                                phase, site,
                                "{miner:?} p={p} mode={mode:?}: panic reported in wrong phase"
                            );
                            assert!(thread < p.max(1));
                            assert!(
                                payload.contains("injected fault"),
                                "payload should name the site, got {payload:?}"
                            );
                        }
                        other => {
                            panic!("{miner:?} site={site} p={p} mode={mode:?}: expected WorkerPanicked, got {other:?}")
                        }
                    }
                    assert_eq!(ctrl.faults.injected(), 1, "exactly one site fired");
                    assert!(
                        ctrl.cancel.is_cancelled(),
                        "siblings were cancelled by the containment"
                    );
                }
            }
        }
    }
}

#[test]
fn delay_sites_never_change_results() {
    quiet_panics();
    for miner in Miner::ALL {
        for &site in miner.sites() {
            for &p in &[2usize, 4, max_threads()] {
                for mode in MODES {
                    let want = miner.baseline(p, mode);
                    let ctrl = RunControl::with_faults(FaultPlan::new().delay_at(
                        site,
                        None,
                        None,
                        Duration::from_millis(3),
                    ));
                    let got = miner
                        .run(p, mode, &ctrl)
                        .expect("a delay must not fail the run");
                    assert_eq!(
                        got, want,
                        "{miner:?} site={site} p={p} mode={mode:?}: delay changed the result"
                    );
                    assert_eq!(ctrl.faults.injected(), 1, "the delay site fired");
                }
            }
        }
    }
}

#[test]
fn retry_after_fault_is_bit_identical() {
    quiet_panics();
    for miner in Miner::ALL {
        for mode in [Scheduling::Static, Scheduling::Guided] {
            let p = 4;
            let want = miner.baseline(p, mode);
            for &site in miner.sites() {
                let ctrl = RunControl::with_faults(FaultPlan::new().panic_at(site, None, None));
                assert!(miner.run(p, mode, &ctrl).is_err());
                // A fresh run on the same inputs sees no residue of the
                // failed one: no poisoned locks, no partial counters.
                let got = miner.baseline(p, mode);
                assert_eq!(
                    got, want,
                    "{miner:?} site={site} mode={mode:?}: retry diverged after a contained panic"
                );
            }
        }
    }
}

#[test]
fn seeded_plans_fail_cleanly_or_not_at_all() {
    quiet_panics();
    let p = 4;
    for miner in Miner::ALL {
        let want = miner.baseline(p, Scheduling::Guided);
        for seed in 0..24u64 {
            let plan = FaultPlan::seeded(seed, miner.sites(), p, FaultKind::Panic);
            let ctrl = RunControl::with_faults(plan);
            match miner.run(p, Scheduling::Guided, &ctrl) {
                Ok(got) => {
                    // The seeded site keyed a (thread, chunk) this run
                    // never claimed — nothing may have fired.
                    assert_eq!(ctrl.faults.injected(), 0, "{miner:?} seed={seed}");
                    assert_eq!(got, want, "{miner:?} seed={seed}");
                }
                Err(MiningError::WorkerPanicked { phase, .. }) => {
                    assert!(
                        miner.sites().contains(&phase),
                        "{miner:?} seed={seed}: phase {phase} not an armed site"
                    );
                    assert_eq!(ctrl.faults.injected(), 1);
                }
                Err(other) => panic!("{miner:?} seed={seed}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn panic_phase_is_always_a_known_phase() {
    quiet_panics();
    for miner in Miner::ALL {
        for &site in miner.sites() {
            let ctrl = RunControl::with_faults(FaultPlan::new().panic_at(site, None, None));
            let err = miner.run(2, Scheduling::Guided, &ctrl).unwrap_err();
            assert!(
                miner.phases().contains(&err.phase()),
                "{miner:?}: {} not in the miner's phase set",
                err.phase()
            );
        }
    }
}
