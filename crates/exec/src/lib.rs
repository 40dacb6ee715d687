//! Work-distribution executor for the data-parallel mining phases.
//!
//! The paper's CCPD statically block-splits the database across processors
//! (§3.3): thread `t` owns one contiguous transaction range for the entire
//! count phase. That is exact and deterministic but gates every barrier on
//! the slowest thread, and transaction-length skew makes the slowest thread
//! arbitrarily slow. This crate keeps the static split as one mode of a
//! [`ChunkPool`] and adds one dynamic schedule over the same index space:
//!
//! * [`Scheduling::Static`] — the paper's split, unchanged. Each thread
//!   receives exactly its seed range, once. This is the differential-test
//!   oracle: the dynamic mode must produce bit-identical results.
//! * [`Scheduling::Guided`] — guided self-scheduling over one shared atomic
//!   cursor: chunk size is `max(remaining / (2·P), floor)`, so early chunks
//!   are large (low scheduling overhead) and late chunks shrink toward the
//!   floor (bounded tail latency).
//!
//! Both modes partition the seeded items exactly — every index is handed
//! out exactly once, chunks never cross a seed-range boundary — so any
//! commutative per-item computation (atomic counter increments, reduced
//! local histograms) yields results independent of the schedule. The pool
//! also tallies per-thread telemetry ([`ExecStats`]: chunks, items, CAS
//! retries, cancellation checks) that the drivers fold into `arm-metrics`.

use arm_faults::CancelToken;
use arm_mem::CacheAligned;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// How a data-parallel phase distributes its index space across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// The paper's static block split: thread `t` processes exactly its
    /// seed range. Deterministic oracle for the differential suite.
    Static,
    /// Guided self-scheduling: chunk = `max(remaining / (2·P), floor)`.
    #[default]
    Guided,
}

/// Per-thread scheduling telemetry, snapshotted from a [`ChunkPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Chunks this thread claimed.
    pub chunks: u64,
    /// Items contained in those chunks.
    pub items: u64,
    /// Failed `compare_exchange` iterations on the shared cursor.
    pub cursor_retries: u64,
    /// Cancellation checkpoints this thread passed before claiming
    /// (zero unless the pool carries a [`CancelToken`]).
    pub cancel_checks: u64,
}

#[derive(Default)]
struct StatCells {
    chunks: AtomicU64,
    items: AtomicU64,
    cursor_retries: AtomicU64,
    cancel_checks: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ExecStats {
        ExecStats {
            chunks: self.chunks.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            cursor_retries: self.cursor_retries.load(Ordering::Relaxed),
            cancel_checks: self.cancel_checks.load(Ordering::Relaxed),
        }
    }
}

enum Repr {
    /// One seed range per thread, claimed at most once, never migrated.
    Static {
        ranges: Vec<Range<usize>>,
        taken: Vec<CacheAligned<AtomicBool>>,
    },
    /// Single atomic cursor over the virtual concatenation of the seed
    /// ranges; chunks are clipped at seed-range boundaries.
    Guided {
        pos: AtomicUsize,
        /// `prefix[i]` = virtual start of `ranges[i]`; `prefix[n]` = total.
        prefix: Vec<usize>,
        ranges: Vec<Range<usize>>,
        floor: usize,
    },
}

/// A shared pool of index chunks for one data-parallel phase.
///
/// Seeded with one range per thread (the phase's static split), it hands out
/// sub-ranges via [`ChunkPool::next`] according to the configured
/// [`Scheduling`]. Every seeded index is yielded exactly once across all
/// threads, and no yielded chunk crosses a seed-range boundary.
pub struct ChunkPool {
    repr: Repr,
    n_threads: usize,
    total: usize,
    stats: Vec<CacheAligned<StatCells>>,
    cancel: Option<CancelToken>,
}

impl ChunkPool {
    /// Default minimum chunk size for `Guided`.
    ///
    /// 64 transactions is small enough that the final chunks cannot gate a
    /// barrier, and large enough that cursor traffic stays far below the
    /// per-transaction tree-probe cost.
    pub const DEFAULT_FLOOR: usize = 64;

    /// Builds a pool over `ranges` (one seed range per thread) with the
    /// default chunk-size floor.
    pub fn new(ranges: &[Range<usize>], mode: Scheduling) -> Self {
        Self::with_floor(ranges, mode, Self::DEFAULT_FLOOR)
    }

    /// Builds a pool with an explicit chunk-size floor (items). The floor
    /// applies to `Guided` sizing; it is clamped to at least 1.
    pub fn with_floor(ranges: &[Range<usize>], mode: Scheduling, floor: usize) -> Self {
        assert!(
            !ranges.is_empty(),
            "ChunkPool needs at least one seed range"
        );
        let n = ranges.len();
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        let repr = match mode {
            Scheduling::Static => Repr::Static {
                ranges: ranges.to_vec(),
                taken: (0..n)
                    .map(|_| CacheAligned::new(AtomicBool::new(false)))
                    .collect(),
            },
            Scheduling::Guided => {
                let mut prefix = Vec::with_capacity(n + 1);
                let mut acc = 0usize;
                prefix.push(0);
                for r in ranges {
                    acc += r.len();
                    prefix.push(acc);
                }
                Repr::Guided {
                    pos: AtomicUsize::new(0),
                    prefix,
                    ranges: ranges.to_vec(),
                    floor: floor.max(1),
                }
            }
        };
        ChunkPool {
            repr,
            n_threads: n,
            total,
            stats: (0..n)
                .map(|_| CacheAligned::new(StatCells::default()))
                .collect(),
            cancel: None,
        }
    }

    /// Attaches a cancellation token: every [`ChunkPool::next`] call
    /// checkpoints it first and yields `None` once the token trips, so a
    /// cancelled phase drains within one chunk claim per thread.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Number of worker threads (== number of seed ranges).
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Total number of items seeded into the pool.
    pub fn total_items(&self) -> usize {
        self.total
    }

    /// Claims the next chunk for thread `t`, or `None` when the pool is
    /// drained. Each seeded index is returned exactly once across all
    /// threads; under `Static` thread `t` only ever sees its own seed range.
    ///
    /// With a token attached ([`ChunkPool::with_cancel_token`]) the claim
    /// checkpoints it first and returns `None` once it has tripped —
    /// indistinguishable from a drained pool, so worker loops need no
    /// extra cancellation logic.
    pub fn next(&self, t: usize) -> Option<Range<usize>> {
        if let Some(token) = &self.cancel {
            self.stats[t].cancel_checks.fetch_add(1, Ordering::Relaxed);
            if !token.checkpoint() {
                return None;
            }
        }
        let chunk = match &self.repr {
            Repr::Static { ranges, taken } => {
                let r = ranges.get(t)?;
                if r.is_empty() || taken[t].swap(true, Ordering::Relaxed) {
                    None
                } else {
                    Some(r.clone())
                }
            }
            Repr::Guided {
                pos,
                prefix,
                ranges,
                floor,
            } => self.next_guided(t, pos, prefix, ranges, *floor),
        };
        if let Some(r) = &chunk {
            let cells = &self.stats[t];
            cells.chunks.fetch_add(1, Ordering::Relaxed);
            cells.items.fetch_add(r.len() as u64, Ordering::Relaxed);
        }
        chunk
    }

    fn next_guided(
        &self,
        t: usize,
        pos: &AtomicUsize,
        prefix: &[usize],
        ranges: &[Range<usize>],
        floor: usize,
    ) -> Option<Range<usize>> {
        let total = self.total;
        loop {
            let v = pos.load(Ordering::Relaxed);
            if v >= total {
                return None;
            }
            let want = ((total - v) / (2 * self.n_threads)).max(floor);
            // Seed range containing virtual position v. Chunks never cross
            // its end, so weighted seeds clip them: under block seeds the
            // first chunk, (total - v) / (2P) items, can swallow a heavy
            // head of the input that weighted seeds split across threads.
            let idx = prefix.partition_point(|&s| s <= v) - 1;
            let boundary = prefix[idx + 1];
            let new_v = (v + want).min(boundary);
            match pos.compare_exchange_weak(v, new_v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    let base = ranges[idx].start;
                    return Some(base + (v - prefix[idx])..base + (new_v - prefix[idx]));
                }
                Err(_) => {
                    self.stats[t].cursor_retries.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Snapshot of thread `t`'s telemetry.
    pub fn thread_stats(&self, t: usize) -> ExecStats {
        self.stats[t].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MODES: [Scheduling; 2] = [Scheduling::Static, Scheduling::Guided];

    fn block_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
        // Mirror of arm-dataset::block_ranges, local to avoid a dev-dep cycle.
        let base = n / p;
        let extra = n % p;
        let mut out = Vec::with_capacity(p);
        let mut start = 0;
        for t in 0..p {
            let len = base + usize::from(t >= p - extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Drains the pool single-threaded (round-robin over thread slots) and
    /// asserts exactly-once coverage of the seed ranges, with no chunk
    /// crossing a seed-range boundary.
    fn assert_covers(pool: &ChunkPool, ranges: &[Range<usize>]) {
        let p = pool.n_threads();
        let mut got = Vec::new();
        let mut active = true;
        while active {
            active = false;
            for t in 0..p {
                if let Some(r) = pool.next(t) {
                    assert!(
                        ranges.iter().any(|s| s.start <= r.start && r.end <= s.end),
                        "chunk {r:?} crosses a seed boundary of {ranges:?}"
                    );
                    got.extend(r);
                    active = true;
                }
            }
        }
        got.sort_unstable();
        let mut want: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn all_modes_cover_exactly_once() {
        for p in [1, 2, 4, 8] {
            for n in [0, 1, 63, 500, 4096] {
                let ranges = block_ranges(n, p);
                for mode in MODES {
                    let pool = ChunkPool::with_floor(&ranges, mode, 16);
                    assert_covers(&pool, &ranges);
                }
            }
        }
    }

    proptest! {
        /// Random floors over random uneven (possibly empty, possibly
        /// gapped) seed ranges: the guided cursor hands out every seeded
        /// index exactly once, even at the adversarial floor of 1.
        #[test]
        fn guided_random_floor_and_seeds_cover_exactly_once(
            seeds in proptest::collection::vec((0usize..300, 0usize..20), 1..9),
            floor in 1usize..400,
        ) {
            let mut start = 0;
            let ranges: Vec<Range<usize>> = seeds
                .iter()
                .map(|&(len, gap)| {
                    start += gap;
                    let r = start..start + len;
                    start += len;
                    r
                })
                .collect();
            let pool = ChunkPool::with_floor(&ranges, Scheduling::Guided, floor);
            assert_covers(&pool, &ranges);
            let items: u64 = (0..ranges.len()).map(|t| pool.thread_stats(t).items).sum();
            prop_assert_eq!(items, pool.total_items() as u64);
        }
    }

    #[test]
    fn static_yields_own_range_once() {
        let ranges = block_ranges(100, 4);
        let pool = ChunkPool::new(&ranges, Scheduling::Static);
        for (t, r) in ranges.iter().enumerate() {
            assert_eq!(pool.next(t), Some(r.clone()));
            assert_eq!(pool.next(t), None);
            let s = pool.thread_stats(t);
            assert_eq!(s.chunks, 1);
            assert_eq!(s.items, r.len() as u64);
            assert_eq!(s.cursor_retries, 0);
        }
    }

    #[test]
    fn guided_respects_seed_boundaries() {
        let ranges = vec![0..10, 10..95];
        let pool = ChunkPool::with_floor(&ranges, Scheduling::Guided, 8);
        let mut prev_end = 0;
        while let Some(r) = pool.next(0) {
            assert_eq!(r.start, prev_end);
            // Never crosses the 10-boundary mid-chunk.
            assert!(r.end <= 10 || r.start >= 10);
            prev_end = r.end;
        }
        assert_eq!(prev_end, 95);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn guided_chunks_shrink_toward_floor() {
        let ranges = [0..10_000];
        let pool = ChunkPool::with_floor(&ranges, Scheduling::Guided, 32);
        let mut sizes = Vec::new();
        while let Some(r) = pool.next(0) {
            sizes.push(r.len());
        }
        // Non-increasing, first chunk large, last chunks at the floor.
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(sizes[0], 10_000 / 2);
        assert!(*sizes.last().unwrap() <= 32);
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn guided_one_thread_drains_idle_peers() {
        // Thread 1 never calls next(); thread 0 must run everything,
        // including thread 1's seed range.
        let ranges = block_ranges(4096, 2);
        let pool = ChunkPool::with_floor(&ranges, Scheduling::Guided, 64);
        let mut got = Vec::new();
        while let Some(r) = pool.next(0) {
            got.extend(r);
        }
        got.sort_unstable();
        assert_eq!(got, (0..4096).collect::<Vec<_>>());
        assert_eq!(pool.thread_stats(0).items, 4096);
        assert_eq!(pool.thread_stats(1).chunks, 0);
    }

    #[test]
    fn concurrent_drain_covers_exactly_once() {
        for floor in [1, 16] {
            let p = 8;
            let ranges = block_ranges(20_000, p);
            let pool = ChunkPool::with_floor(&ranges, Scheduling::Guided, floor);
            let mut all: Vec<usize> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..p)
                    .map(|t| {
                        let pool = &pool;
                        s.spawn(move || {
                            let mut got = Vec::new();
                            while let Some(r) = pool.next(t) {
                                got.extend(r);
                            }
                            got
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            all.sort_unstable();
            assert_eq!(all, (0..20_000).collect::<Vec<_>>(), "floor {floor}");
            let items: u64 = (0..p).map(|t| pool.thread_stats(t).items).sum();
            assert_eq!(items, 20_000);
        }
    }

    #[test]
    fn empty_and_uneven_seeds() {
        // Empty ranges for some threads (e.g. p > candidates).
        let ranges = vec![0..0, 0..3, 3..3, 3..5];
        for mode in MODES {
            let pool = ChunkPool::with_floor(&ranges, mode, 1);
            assert_covers(&pool, &ranges);
        }
    }

    #[test]
    fn cancelled_pool_stops_within_one_claim_per_thread() {
        for mode in MODES {
            let ranges = block_ranges(1000, 4);
            let token = CancelToken::new();
            let pool = ChunkPool::with_floor(&ranges, mode, 8).with_cancel_token(token.clone());
            assert!(pool.next(0).is_some(), "live token claims normally");
            token.cancel();
            for t in 0..4 {
                assert_eq!(pool.next(t), None, "mode {mode:?} thread {t}");
                assert_eq!(
                    pool.thread_stats(t).cancel_checks,
                    if t == 0 { 2 } else { 1 }
                );
            }
        }
    }

    #[test]
    fn check_triggered_token_drains_deterministically() {
        let ranges = block_ranges(1000, 2);
        let token = CancelToken::new().cancel_after_checks(3);
        let pool =
            ChunkPool::with_floor(&ranges, Scheduling::Guided, 1).with_cancel_token(token.clone());
        assert!(pool.next(0).is_some());
        assert!(pool.next(1).is_some());
        assert!(pool.next(0).is_none(), "third checkpoint trips the trigger");
        assert_eq!(token.checks(), 3);
    }

    #[test]
    fn pool_without_token_counts_no_checks() {
        let ranges = block_ranges(100, 2);
        let pool = ChunkPool::new(&ranges, Scheduling::Guided);
        while pool.next(0).is_some() {}
        assert_eq!(pool.thread_stats(0).cancel_checks, 0);
    }

    #[test]
    fn default_is_guided() {
        assert_eq!(Scheduling::default(), Scheduling::Guided);
    }
}
