//! Phase-level statistics of a mining run at any thread count.
//!
//! Every mining phase records its measured wall time and (when it runs on
//! multiple threads) a per-thread work tally in abstract units. Timing
//! figures read the wall times ([`ParallelRunStats::wall`],
//! [`ParallelRunStats::wall_of`]); the work tallies give the load-balance
//! metrics ([`ParallelRunStats::max_imbalance`],
//! [`ParallelRunStats::imbalance_of_heaviest`]) behind Figs. 8–10.

use arm_hashtree::WorkMeter;
use arm_metrics::MetricsSnapshot;
use std::time::Duration;

/// One recorded phase of a parallel mining run.
///
/// Since the observability layer landed this is [`arm_metrics::PhaseRecord`]
/// (the drivers record phases through a
/// [`arm_metrics::MetricsRegistry`]); the historical `PhaseStat` name is
/// kept as a public alias.
pub use arm_metrics::PhaseRecord as PhaseStat;

/// Statistics of one parallel mining run.
#[derive(Debug, Clone)]
pub struct ParallelRunStats {
    /// Number of worker threads the run used.
    pub n_threads: usize,
    /// All phases, in execution order.
    pub phases: Vec<PhaseStat>,
    /// End-to-end wall time.
    pub wall: Duration,
    /// Per-thread counting meters, merged across iterations (parallel
    /// Eclat: its `count` phase's pair-count meters).
    pub count_meters: Vec<WorkMeter>,
    /// Per-thread telemetry counters (lock contention, counter CAS
    /// retries, scratch/tree tallies). All-zero when the `metrics`
    /// feature is off.
    pub metrics: MetricsSnapshot,
}

impl ParallelRunStats {
    /// Sum of phase wall times attributed to serial phases.
    pub fn serial_wall(&self) -> Duration {
        self.phases
            .iter()
            .filter(|p| p.thread_work.is_none())
            .map(|p| p.wall)
            .sum()
    }

    /// Summed wall time of the phases named in `names`, across every
    /// iteration. The paper's Figs. 8–10 report improvements "only based
    /// on the computation time"; passing `["candgen", "build", "count"]`
    /// reproduces that accounting (it excludes freeze/extract/reduce
    /// bookkeeping whose jitter would otherwise drown small effects).
    pub fn wall_of(&self, names: &[&str]) -> Duration {
        self.phases
            .iter()
            .filter(|p| names.contains(&p.name))
            .map(|p| p.wall)
            .sum()
    }

    /// The worst per-phase imbalance across all counting phases — the
    /// quantity the COMP optimization attacks.
    pub fn max_imbalance(&self, phase_name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .map(|p| p.imbalance())
            .fold(1.0, f64::max)
    }

    /// Imbalance of the single heaviest (largest total work) phase named
    /// `phase_name` — the representative figure for the paper's balancing
    /// plots, immune to degenerate late iterations where almost no work
    /// exists to balance.
    pub fn imbalance_of_heaviest(&self, phase_name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .max_by_key(|p| p.thread_work.as_ref().map_or(0, |w| w.iter().sum::<u64>()))
            .map_or(1.0, |p| p.imbalance())
    }

    /// Total work units across all threads for phases named `phase_name`.
    pub fn total_work(&self, phase_name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .filter_map(|p| p.thread_work.as_ref())
            .map(|w| w.iter().sum::<u64>())
            .sum()
    }

    /// Max-thread work units for phases named `phase_name`, summed over
    /// iterations (the critical path of that phase type).
    pub fn critical_work(&self, phase_name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.name == phase_name)
            .filter_map(|p| p.thread_work.as_ref())
            .map(|w| w.iter().copied().max().unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(phases: Vec<PhaseStat>) -> ParallelRunStats {
        ParallelRunStats {
            n_threads: 2,
            phases,
            wall: Duration::from_secs(1),
            count_meters: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    fn ph(name: &'static str, wall_ms: u64, work: Option<Vec<u64>>) -> PhaseStat {
        PhaseStat {
            name,
            k: 2,
            wall: Duration::from_millis(wall_ms),
            thread_work: work,
        }
    }

    #[test]
    fn wall_of_sums_named_phases_across_iterations() {
        let s = stats(vec![
            ph("freeze", 100, None),
            ph("count", 30, Some(vec![90, 10])),
            ph("candgen", 5, None),
            ph("count", 20, Some(vec![50, 50])),
        ]);
        assert_eq!(s.wall_of(&["count"]), Duration::from_millis(50));
        assert_eq!(
            s.wall_of(&["candgen", "build", "count"]),
            Duration::from_millis(55)
        );
        assert_eq!(s.wall_of(&[]), Duration::ZERO);
        assert_eq!(s.serial_wall(), Duration::from_millis(105));
    }

    #[test]
    fn max_imbalance_missing_phase_is_one() {
        // No phase with that name ever ran: the fold over an empty
        // iterator must land on the neutral 1.0, not 0 or NaN.
        let s = stats(vec![ph("count", 10, Some(vec![90, 10]))]);
        assert_eq!(s.max_imbalance("build"), 1.0);
        assert_eq!(s.max_imbalance(""), 1.0);
        let empty = stats(Vec::new());
        assert_eq!(empty.max_imbalance("count"), 1.0);
    }

    #[test]
    fn max_imbalance_single_thread_is_one() {
        // One thread is trivially balanced (max == mean), across any
        // number of iterations of the phase.
        let s = stats(vec![
            ph("count", 10, Some(vec![40])),
            ph("count", 10, Some(vec![7])),
        ]);
        assert_eq!(s.max_imbalance("count"), 1.0);
        // Serial phases (no thread work) report 1.0 too.
        let serial = stats(vec![ph("count", 10, None)]);
        assert_eq!(serial.max_imbalance("count"), 1.0);
    }

    #[test]
    fn max_imbalance_takes_worst_iteration() {
        let s = stats(vec![
            ph("count", 10, Some(vec![50, 50])),
            ph("count", 10, Some(vec![90, 10])),
            ph("count", 10, Some(vec![60, 40])),
        ]);
        assert!((s.max_imbalance("count") - 1.8).abs() < 1e-9);
    }

    #[test]
    fn imbalance_of_heaviest_missing_phase_is_one() {
        let s = stats(vec![ph("count", 10, Some(vec![90, 10]))]);
        assert_eq!(s.imbalance_of_heaviest("build"), 1.0);
        let empty = stats(Vec::new());
        assert_eq!(empty.imbalance_of_heaviest("count"), 1.0);
    }

    #[test]
    fn imbalance_of_heaviest_single_thread_is_one() {
        let s = stats(vec![ph("count", 10, Some(vec![123]))]);
        assert_eq!(s.imbalance_of_heaviest("count"), 1.0);
    }

    #[test]
    fn imbalance_of_heaviest_picks_largest_total_work() {
        // The skewed iteration is light (total 10); the heavy iteration
        // (total 100) is balanced. The representative figure follows the
        // heavy one, unlike max_imbalance.
        let s = stats(vec![
            ph("count", 10, Some(vec![9, 1])),
            ph("count", 10, Some(vec![50, 50])),
        ]);
        assert_eq!(s.imbalance_of_heaviest("count"), 1.0);
        assert!((s.max_imbalance("count") - 1.8).abs() < 1e-9);
        // Serial iterations count as zero total work, so a parallel
        // iteration always outranks them.
        let s2 = stats(vec![
            ph("count", 10, None),
            ph("count", 10, Some(vec![30, 10])),
        ]);
        assert!((s2.imbalance_of_heaviest("count") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn work_aggregation() {
        let s = stats(vec![
            ph("count", 10, Some(vec![30, 10])),
            ph("count", 10, Some(vec![20, 20])),
            ph("candgen", 10, Some(vec![5, 5])),
        ]);
        assert_eq!(s.total_work("count"), 80);
        assert_eq!(s.critical_work("count"), 50);
        assert_eq!(s.total_work("candgen"), 10);
    }
}
