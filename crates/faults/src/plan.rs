//! Deterministic fault injection for the chaos suite.
//!
//! A [`FaultPlan`] is a list of injection sites keyed by
//! `phase × thread × chunk-index`; the drivers call [`FaultPlan::fire`]
//! at each instrumented point (one per claimed chunk in CCPD's F1/build/
//! count, PCCD's count, the parallel Eclat class loop, and the hybrid
//! transpose). A matching site either panics — exercising the
//! containment path — or sleeps, skewing the schedule without changing
//! any result. Wildcard keys (`thread`/`chunk` = `None`) let randomized
//! suites hit "whichever worker gets there first" while staying
//! reproducible from the plan itself.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What an injection does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a message naming the site. Exercises the
    /// `catch_unwind` containment and sibling cancellation.
    Panic,
    /// Sleep for the given duration. Perturbs the schedule (forcing
    /// guided-cursor races and late barriers) without touching results.
    Delay(Duration),
}

/// One armed injection site.
#[derive(Debug)]
struct Injection {
    phase: &'static str,
    /// Matching worker index; `None` = any worker.
    thread: Option<usize>,
    /// Matching per-thread chunk ordinal; `None` = any chunk.
    chunk: Option<u64>,
    kind: FaultKind,
    /// Single-shot latch: a wildcard site fires for exactly one matching
    /// (thread, chunk) so delay noise and panic payloads stay bounded
    /// and the first firing is the one reported.
    fired: AtomicBool,
}

/// A seeded, deterministic set of injection sites.
///
/// Shared by reference across the run's workers ([`FaultPlan::fire`] is
/// `&self`); build one plan per run — the single-shot latches are not
/// reset between runs.
#[derive(Debug, Default)]
pub struct FaultPlan {
    injections: Vec<Injection>,
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing; `fire` is a two-load no-op).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms a panic at `phase`, optionally pinned to a worker index and
    /// a per-thread chunk ordinal (0-based; `None` = first match wins).
    pub fn panic_at(
        mut self,
        phase: &'static str,
        thread: Option<usize>,
        chunk: Option<u64>,
    ) -> Self {
        self.injections.push(Injection {
            phase,
            thread,
            chunk,
            kind: FaultKind::Panic,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Arms a delay of `d` at `phase`, with the same keying as
    /// [`FaultPlan::panic_at`].
    pub fn delay_at(
        mut self,
        phase: &'static str,
        thread: Option<usize>,
        chunk: Option<u64>,
        d: Duration,
    ) -> Self {
        self.injections.push(Injection {
            phase,
            thread,
            chunk,
            kind: FaultKind::Delay(d),
            fired: AtomicBool::new(false),
        });
        self
    }

    /// A one-site plan derived deterministically from `seed`: picks a
    /// phase from `phases`, a worker below `n_threads`, and a small chunk
    /// ordinal via an LCG. Chunk ordinals beyond what a run actually
    /// claims simply never fire, so the chaos suite pairs this with a
    /// wildcard-chunk fallback or checks [`FaultPlan::injected`].
    pub fn seeded(seed: u64, phases: &[&'static str], n_threads: usize, kind: FaultKind) -> Self {
        assert!(!phases.is_empty(), "seeded plan needs at least one phase");
        let mut x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let phase = phases[(next() % phases.len() as u64) as usize];
        let thread = (next() % n_threads.max(1) as u64) as usize;
        let chunk = next() % 4;
        match kind {
            FaultKind::Panic => FaultPlan::new().panic_at(phase, Some(thread), Some(chunk)),
            FaultKind::Delay(d) => FaultPlan::new().delay_at(phase, Some(thread), Some(chunk), d),
        }
    }

    /// Whether the plan has no sites (drivers skip the match entirely).
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Number of injections that actually fired so far (drivers fold
    /// this into the `FaultsInjected` metric on successful runs).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The instrumentation point: fires the first armed site matching
    /// `(phase, thread, chunk)`. A `Panic` site panics (after tallying,
    /// so the count survives the unwind); a `Delay` site sleeps.
    pub fn fire(&self, phase: &'static str, thread: usize, chunk: u64) {
        if self.injections.is_empty() {
            return;
        }
        for inj in &self.injections {
            if inj.phase != phase
                || inj.thread.is_some_and(|t| t != thread)
                || inj.chunk.is_some_and(|c| c != chunk)
                || inj.fired.swap(true, Ordering::Relaxed)
            {
                continue;
            }
            self.injected.fetch_add(1, Ordering::Relaxed);
            match inj.kind {
                FaultKind::Panic => {
                    panic!("injected fault: phase={phase} thread={thread} chunk={chunk}")
                }
                FaultKind::Delay(d) => std::thread::sleep(d),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        p.fire("count", 0, 0);
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn delay_fires_once_on_exact_key() {
        let p = FaultPlan::new().delay_at("count", Some(1), Some(2), Duration::ZERO);
        p.fire("count", 1, 1); // wrong chunk
        p.fire("build", 1, 2); // wrong phase
        p.fire("count", 0, 2); // wrong thread
        assert_eq!(p.injected(), 0);
        p.fire("count", 1, 2);
        assert_eq!(p.injected(), 1);
        p.fire("count", 1, 2); // single-shot latch
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn wildcards_match_first_arrival() {
        let p = FaultPlan::new().delay_at("mine", None, None, Duration::ZERO);
        p.fire("mine", 7, 42);
        assert_eq!(p.injected(), 1);
        p.fire("mine", 0, 0);
        assert_eq!(p.injected(), 1, "latched after the first arrival");
    }

    #[test]
    #[should_panic(expected = "injected fault: phase=f1 thread=0 chunk=0")]
    fn panic_site_panics_with_site_in_payload() {
        let p = FaultPlan::new().panic_at("f1", Some(0), Some(0));
        p.fire("f1", 0, 0);
    }

    #[test]
    fn panic_tally_survives_unwind() {
        let p = FaultPlan::new().panic_at("f1", None, None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.fire("f1", 3, 9)));
        assert!(r.is_err());
        assert_eq!(p.injected(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        let phases = ["f1", "build", "count"];
        for seed in 0..50u64 {
            let a = FaultPlan::seeded(seed, &phases, 4, FaultKind::Panic);
            let b = FaultPlan::seeded(seed, &phases, 4, FaultKind::Panic);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            let inj = &a.injections[0];
            assert!(phases.contains(&inj.phase));
            assert!(inj.thread.unwrap() < 4);
            assert!(inj.chunk.unwrap() < 4);
        }
        // Different seeds eventually pick different sites.
        let all: std::collections::HashSet<String> = (0..50)
            .map(|s| {
                format!(
                    "{:?}",
                    FaultPlan::seeded(s, &phases, 4, FaultKind::Panic).injections[0]
                )
            })
            .collect();
        assert!(all.len() > 5);
    }
}
