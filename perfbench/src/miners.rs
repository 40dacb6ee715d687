//! The four user-facing miners at their default configurations, each
//! taking a `Database` to frequent itemsets.

use crate::oracle::Itemsets;
use arm_core::{AprioriConfig, Support};
use arm_dataset::Database;
use arm_parallel::{ParallelConfig, ParallelRunStats};
use arm_vertical::VerticalConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which miner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `arm_core::mine` (sequential).
    Apriori,
    /// `arm_parallel::ccpd::mine`.
    Ccpd,
    /// `arm_vertical::mine_eclat_parallel`.
    Eclat,
    /// `arm_vertical::mine_hybrid`.
    Hybrid,
}

/// How many threads a miner gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// One thread.
    P1,
    /// The host's `available_parallelism`.
    Pmax,
}

impl Width {
    /// The tag used in metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Width::P1 => "p1",
            Width::Pmax => "pmax",
        }
    }

    /// The thread count on a host whose full width is `pmax`.
    pub fn threads(self, pmax: usize) -> usize {
        match self {
            Width::P1 => 1,
            Width::Pmax => pmax,
        }
    }
}

/// A miner at a width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miner(pub Family, pub Width);

/// Every timed configuration, in the order of the end-to-end metrics.
pub const MINERS: [Miner; 7] = [
    Miner(Family::Apriori, Width::P1),
    Miner(Family::Ccpd, Width::P1),
    Miner(Family::Ccpd, Width::Pmax),
    Miner(Family::Eclat, Width::P1),
    Miner(Family::Eclat, Width::Pmax),
    Miner(Family::Hybrid, Width::P1),
    Miner(Family::Hybrid, Width::Pmax),
];

/// The outcome of one mining call.
pub struct Mined {
    /// Wall seconds of the call, excluding flattening its output.
    pub secs: f64,
    /// The itemsets, or the panic message of a failed call.
    pub sets: Result<Itemsets, String>,
    /// Phase and counter statistics of the parallel drivers.
    pub stats: Option<ParallelRunStats>,
}

impl Miner {
    /// The metric-name stem, e.g. `ccpd`.
    pub fn family_name(self) -> &'static str {
        match self.0 {
            Family::Apriori => "apriori",
            Family::Ccpd => "ccpd",
            Family::Eclat => "eclat",
            Family::Hybrid => "hybrid",
        }
    }

    /// The end-to-end metric of this miner's wall time, e.g. `ccpd.pmax_s`.
    pub fn metric(self) -> String {
        format!("{}.{}_s", self.family_name(), self.1.tag())
    }

    /// Runs the miner on `db` at absolute support `minsup`, with `pmax`
    /// threads at [`Width::Pmax`]. Panics are caught and returned as
    /// errors; only the call itself is timed.
    pub fn run(self, db: &Database, minsup: u32, pmax: usize) -> Mined {
        let p = self.1.threads(pmax);
        let base = AprioriConfig::default().with_support(Support::Absolute(minsup));
        let vcfg = VerticalConfig::default();
        let start = Instant::now();
        let mut secs = None;
        let out = catch_unwind(AssertUnwindSafe(|| {
            // Horizontal miners return levels; flattening them is output
            // formatting, so the clock stops before it.
            let mut stop = || secs = Some(start.elapsed().as_secs_f64());
            match self.0 {
                Family::Apriori => {
                    let r = arm_core::mine(db, &base);
                    stop();
                    (r.all_itemsets(), None)
                }
                Family::Ccpd => {
                    let (r, s) = arm_parallel::ccpd::mine(db, &ParallelConfig::new(base, p));
                    stop();
                    (r.all_itemsets(), Some(s))
                }
                Family::Eclat => {
                    let (r, s) = arm_vertical::mine_eclat_parallel(db, minsup, None, &vcfg, p);
                    stop();
                    (r, Some(s))
                }
                Family::Hybrid => {
                    let (r, s) =
                        arm_vertical::mine_hybrid(db, &ParallelConfig::new(base, p), &vcfg);
                    stop();
                    (r, Some(s))
                }
            }
        }));
        let secs = secs.unwrap_or_else(|| start.elapsed().as_secs_f64());
        match out {
            Ok((sets, stats)) => Mined {
                secs,
                sets: Ok(sets),
                stats,
            },
            Err(panic) => Mined {
                secs,
                sets: Err(panic_message(panic.as_ref())),
                stats: None,
            },
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}
