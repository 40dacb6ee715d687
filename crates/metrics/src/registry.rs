//! The metrics registry: one cache-line-aligned shard of event counters
//! per worker thread, plus a run-global phase-span recorder.
//!
//! Recording is lock-cheap by construction: every hot-path event lands in
//! the calling thread's own shard with a relaxed atomic add (or, with the
//! `enabled` feature off, in a no-op on a zero-sized shard). The only
//! lock in the registry guards the phase list, which is touched once per
//! phase by the coordinating thread, never by workers.

use arm_mem::CacheAligned;
use parking_lot::Mutex;
#[cfg(feature = "enabled")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Identifiers of the per-thread event counters.
///
/// The discriminant doubles as the shard slot index; `name()` is the
/// field name used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Per-leaf build-lock acquisitions (§3.1.4 tree formation).
    LeafLockAcquires = 0,
    /// Acquisitions that found the leaf lock held by another thread.
    LeafLockContended = 1,
    /// Nanoseconds spent waiting on contended leaf locks.
    LeafLockWaitNs = 2,
    /// Atomic increments applied to shared (striped) support counters.
    CtrIncrements = 3,
    /// CAS retries those increments needed (direct contention measure).
    CtrCasRetries = 4,
    /// Counting-scratch structures allocated from scratch.
    ScratchAllocs = 5,
    /// Counting-scratch re-targets (pooled reuse instead of allocation).
    ScratchRetargets = 6,
    /// Bytes of stamp tables sized across all iterations.
    ScratchStampBytes = 7,
    /// Bytes of frozen hash trees across all iterations.
    TreeBytes = 8,
    /// Reachable nodes of frozen hash trees across all iterations.
    TreeNodes = 9,
    /// Scheduler chunks this thread claimed and executed (arm-exec).
    ChunksExecuted = 10,
    /// Chunks migrated onto this thread by a successful steal.
    /// Nothing increments this since the stealing scheduler was removed;
    /// kept (reads 0) because the `perfbench/` wall-clock benchmark names it.
    ChunksStolen = 11,
    /// Steal probes this thread issued, successful or not.
    /// Nothing increments this since the stealing scheduler was removed;
    /// kept (reads 0) because the `perfbench/` wall-clock benchmark names it.
    StealAttempts = 12,
    /// Failed CAS iterations on the shared scheduling cursor.
    CursorCasRetries = 13,
    /// Tidset joins performed by the vertical miner (arm-vertical): every
    /// intersection and every diffset difference, early-stopped ones
    /// included, so the count depends only on which pairs were joined
    /// and stays comparable across kernel changes.
    TidsetIntersections = 14,
    /// `u64` words ANDed by the bitmap intersection kernel.
    TidsetWordsAnded = 15,
    /// Bytes of tidset storage materialized (lists, diffsets and bitmaps).
    TidsetBytes = 16,
    /// Cancellation checkpoints passed at chunk claims (arm-faults).
    CancelChecks = 17,
    /// Fault-plan injections that fired during the run (arm-faults).
    FaultsInjected = 18,
}

/// Number of distinct counters (shard slot count).
pub const N_COUNTERS: usize = 19;

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::LeafLockAcquires,
        Counter::LeafLockContended,
        Counter::LeafLockWaitNs,
        Counter::CtrIncrements,
        Counter::CtrCasRetries,
        Counter::ScratchAllocs,
        Counter::ScratchRetargets,
        Counter::ScratchStampBytes,
        Counter::TreeBytes,
        Counter::TreeNodes,
        Counter::ChunksExecuted,
        Counter::ChunksStolen,
        Counter::StealAttempts,
        Counter::CursorCasRetries,
        Counter::TidsetIntersections,
        Counter::TidsetWordsAnded,
        Counter::TidsetBytes,
        Counter::CancelChecks,
        Counter::FaultsInjected,
    ];

    /// The report field name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::LeafLockAcquires => "leaf_lock_acquires",
            Counter::LeafLockContended => "leaf_lock_contended",
            Counter::LeafLockWaitNs => "leaf_lock_wait_ns",
            Counter::CtrIncrements => "ctr_increments",
            Counter::CtrCasRetries => "ctr_cas_retries",
            Counter::ScratchAllocs => "scratch_allocs",
            Counter::ScratchRetargets => "scratch_retargets",
            Counter::ScratchStampBytes => "scratch_stamp_bytes",
            Counter::TreeBytes => "tree_bytes",
            Counter::TreeNodes => "tree_nodes",
            Counter::ChunksExecuted => "chunks_executed",
            Counter::ChunksStolen => "chunks_stolen",
            Counter::StealAttempts => "steal_attempts",
            Counter::CursorCasRetries => "cursor_cas_retries",
            Counter::TidsetIntersections => "tidset_intersections",
            Counter::TidsetWordsAnded => "tidset_words_anded",
            Counter::TidsetBytes => "tidset_bytes",
            Counter::CancelChecks => "cancel_checks",
            Counter::FaultsInjected => "faults_injected",
        }
    }
}

/// One thread's counter shard. With the `enabled` feature off this is a
/// zero-sized type and every method compiles to nothing.
#[derive(Debug, Default)]
pub struct Shard {
    #[cfg(feature = "enabled")]
    slots: [AtomicU64; N_COUNTERS],
}

impl Shard {
    /// Adds `v` to counter `c` (relaxed; the shard belongs to one thread).
    #[inline(always)]
    pub fn add(&self, c: Counter, v: u64) {
        #[cfg(feature = "enabled")]
        self.slots[c as usize].fetch_add(v, Ordering::Relaxed);
        #[cfg(not(feature = "enabled"))]
        let _ = (c, v);
    }

    /// Increments counter `c`.
    #[inline(always)]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Reads counter `c` (0 with metrics disabled).
    pub fn get(&self, c: Counter) -> u64 {
        #[cfg(feature = "enabled")]
        {
            self.slots[c as usize].load(Ordering::Relaxed)
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = c;
            0
        }
    }

    /// Acquires `m`, recording the acquisition under the leaf-lock
    /// telemetry triple: every call bumps [`Counter::LeafLockAcquires`];
    /// calls that find the lock held additionally bump
    /// [`Counter::LeafLockContended`] and accumulate their wait in
    /// [`Counter::LeafLockWaitNs`]. Disabled builds are a plain `lock()`.
    #[inline]
    pub fn lock_timed<'m, T: ?Sized>(&self, m: &'m Mutex<T>) -> parking_lot::MutexGuard<'m, T> {
        #[cfg(feature = "enabled")]
        {
            self.incr(Counter::LeafLockAcquires);
            if let Some(g) = m.try_lock() {
                return g;
            }
            self.incr(Counter::LeafLockContended);
            let t0 = Instant::now();
            let g = m.lock();
            self.add(Counter::LeafLockWaitNs, t0.elapsed().as_nanos() as u64);
            g
        }
        #[cfg(not(feature = "enabled"))]
        m.lock()
    }
}

/// One recorded phase of a mining run.
///
/// This is the record type behind `arm-parallel`'s `PhaseStat`: wall time
/// plus (for phases that ran on multiple threads) a per-thread work tally
/// in abstract units.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label, e.g. `"count"`, `"candgen"`, `"freeze"`.
    pub name: &'static str,
    /// Iteration the phase belongs to (`k`), 0 for run-global phases.
    pub k: u32,
    /// Measured wall time of the phase.
    pub wall: Duration,
    /// Per-thread work units; `None` marks a serial phase.
    pub thread_work: Option<Vec<u64>>,
}

impl PhaseRecord {
    /// `max(work) / mean(work)` — 1.0 is perfect balance. Serial phases
    /// report 1.0.
    pub fn imbalance(&self) -> f64 {
        match &self.thread_work {
            None => 1.0,
            Some(w) => {
                let sum: u64 = w.iter().sum();
                if sum == 0 || w.is_empty() {
                    return 1.0;
                }
                let max = *w.iter().max().unwrap();
                max as f64 / (sum as f64 / w.len() as f64)
            }
        }
    }
}

/// An in-flight phase timer. Obtained from [`MetricsRegistry::phase`];
/// closing it records a [`PhaseRecord`].
#[must_use = "a span only records when finished"]
pub struct PhaseSpan<'a> {
    registry: &'a MetricsRegistry,
    name: &'static str,
    k: u32,
    start: Instant,
}

impl PhaseSpan<'_> {
    /// Ends a serial phase (no per-thread work distribution).
    pub fn finish_serial(self) {
        self.close(None);
    }

    /// Ends a parallel phase with one work tally per thread.
    pub fn finish(self, thread_work: Vec<u64>) {
        self.close(Some(thread_work));
    }

    fn close(self, thread_work: Option<Vec<u64>>) {
        self.registry.record_phase(PhaseRecord {
            name: self.name,
            k: self.k,
            wall: self.start.elapsed(),
            thread_work,
        });
    }
}

/// Per-run metrics: one aligned [`Shard`] per worker thread plus the
/// ordered phase list.
pub struct MetricsRegistry {
    shards: Box<[CacheAligned<Shard>]>,
    phases: Mutex<Vec<PhaseRecord>>,
}

impl MetricsRegistry {
    /// Creates a registry for `n_threads` workers (at least one shard).
    pub fn new(n_threads: usize) -> Self {
        MetricsRegistry {
            shards: (0..n_threads.max(1))
                .map(|_| CacheAligned::default())
                .collect(),
            phases: Mutex::new(Vec::new()),
        }
    }

    /// Whether per-event telemetry is compiled in (the `enabled` feature).
    pub const fn enabled() -> bool {
        cfg!(feature = "enabled")
    }

    /// Number of shards.
    pub fn n_threads(&self) -> usize {
        self.shards.len()
    }

    /// Thread `t`'s shard (indices wrap, so oversubscribed callers fold).
    pub fn shard(&self, t: usize) -> &Shard {
        &self.shards[t % self.shards.len()]
    }

    /// Starts a phase timer; finishing the span records the phase.
    pub fn phase(&self, name: &'static str, k: u32) -> PhaseSpan<'_> {
        PhaseSpan {
            registry: self,
            name,
            k,
            start: Instant::now(),
        }
    }

    /// Appends an externally built phase record.
    pub fn record_phase(&self, record: PhaseRecord) {
        self.phases.lock().push(record);
    }

    /// Drains the recorded phases in execution order.
    pub fn take_phases(&self) -> Vec<PhaseRecord> {
        std::mem::take(&mut *self.phases.lock())
    }

    /// Copies every shard's counters out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: Self::enabled(),
            per_thread: self
                .shards
                .iter()
                .map(|s| {
                    let mut row = [0u64; N_COUNTERS];
                    for c in Counter::ALL {
                        row[c as usize] = s.get(c);
                    }
                    row
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of every shard. `Default` is the empty (disabled)
/// snapshot, used where no registry ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Whether the producing build had per-event telemetry compiled in.
    pub enabled: bool,
    /// One counter row per thread, indexed by `Counter as usize`.
    pub per_thread: Vec<[u64; N_COUNTERS]>,
}

impl MetricsSnapshot {
    /// Thread `t`'s value of counter `c` (0 when out of range).
    pub fn get(&self, t: usize, c: Counter) -> u64 {
        self.per_thread.get(t).map_or(0, |row| row[c as usize])
    }

    /// Sum of counter `c` across threads.
    pub fn total(&self, c: Counter) -> u64 {
        self.per_thread.iter().map(|row| row[c as usize]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_per_thread_and_exact() {
        let reg = MetricsRegistry::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let reg = &reg;
                s.spawn(move || {
                    let shard = reg.shard(t);
                    for _ in 0..(t + 1) * 100 {
                        shard.incr(Counter::CtrIncrements);
                    }
                    shard.add(Counter::TreeBytes, 64);
                });
            }
        });
        let snap = reg.snapshot();
        if MetricsRegistry::enabled() {
            for t in 0..4 {
                assert_eq!(snap.get(t, Counter::CtrIncrements), (t as u64 + 1) * 100);
            }
            assert_eq!(snap.total(Counter::CtrIncrements), 1000);
            assert_eq!(snap.total(Counter::TreeBytes), 256);
            assert!(snap.enabled);
        } else {
            assert_eq!(snap.total(Counter::CtrIncrements), 0);
            assert!(!snap.enabled);
        }
    }

    #[test]
    fn shard_index_wraps() {
        let reg = MetricsRegistry::new(2);
        reg.shard(5).incr(Counter::ScratchAllocs);
        assert_eq!(
            reg.snapshot().get(1, Counter::ScratchAllocs),
            if MetricsRegistry::enabled() { 1 } else { 0 }
        );
    }

    #[test]
    fn zero_threads_still_has_a_shard() {
        let reg = MetricsRegistry::new(0);
        assert_eq!(reg.n_threads(), 1);
        reg.shard(0).incr(Counter::ScratchAllocs);
    }

    #[test]
    fn phase_spans_record_in_order() {
        let reg = MetricsRegistry::new(2);
        reg.phase("f1", 1).finish(vec![10, 20]);
        reg.phase("freeze", 2).finish_serial();
        let phases = reg.take_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].name, "f1");
        assert_eq!(phases[0].thread_work, Some(vec![10, 20]));
        assert_eq!(phases[1].name, "freeze");
        assert_eq!(phases[1].thread_work, None);
        assert!(reg.take_phases().is_empty(), "drained");
    }

    #[test]
    fn lock_timed_counts_uncontended_acquisition() {
        let reg = MetricsRegistry::new(1);
        let m = Mutex::new(0u32);
        for _ in 0..3 {
            *reg.shard(0).lock_timed(&m) += 1;
        }
        assert_eq!(*m.lock(), 3);
        let snap = reg.snapshot();
        if MetricsRegistry::enabled() {
            assert_eq!(snap.get(0, Counter::LeafLockAcquires), 3);
            assert_eq!(snap.get(0, Counter::LeafLockContended), 0);
        }
    }

    #[test]
    fn lock_timed_detects_contention() {
        let reg = MetricsRegistry::new(2);
        let m = Mutex::new(());
        let held = m.lock();
        std::thread::scope(|s| {
            let reg = &reg;
            let m = &m;
            s.spawn(move || {
                let _g = reg.shard(1).lock_timed(m);
            });
            // Hold long enough for the worker to hit try_lock failure.
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
        });
        let snap = reg.snapshot();
        if MetricsRegistry::enabled() {
            assert_eq!(snap.get(1, Counter::LeafLockAcquires), 1);
            assert_eq!(snap.get(1, Counter::LeafLockContended), 1);
            assert!(snap.get(1, Counter::LeafLockWaitNs) > 0);
        }
    }

    #[test]
    fn imbalance_of_records() {
        let rec = |work: Option<Vec<u64>>| PhaseRecord {
            name: "count",
            k: 2,
            wall: Duration::from_millis(10),
            thread_work: work,
        };
        assert_eq!(rec(None).imbalance(), 1.0);
        assert_eq!(rec(Some(vec![5, 5])).imbalance(), 1.0);
        assert_eq!(rec(Some(vec![0, 0])).imbalance(), 1.0);
        assert!((rec(Some(vec![90, 10])).imbalance() - 1.8).abs() < 1e-12);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_COUNTERS);
    }
}
