//! Fault-injection and cancellation layer for the parallel miners
//! (DESIGN.md §10).
//!
//! The paper's CCPD/PCCD drivers assume a benign, dedicated SMP: a
//! worker panic aborts the process and a run, once started, cannot be
//! stopped. This crate supplies the graceful-degradation discipline a
//! long-running service needs, in three pieces:
//!
//! * [`CancelToken`] — an atomic epoch plus optional deadline, observed
//!   by every miner once per chunk claim (threaded through
//!   `arm-exec::ChunkPool`) and at every phase boundary;
//! * [`try_run_threads`] — the fork-join primitive all drivers build on:
//!   workers run under `catch_unwind`, the first panic payload is
//!   captured, siblings are cancelled via the token, **every thread is
//!   joined**, and the caller gets a typed [`MiningError`] instead of an
//!   abort;
//! * [`FaultPlan`] — deterministic injection sites
//!   (`phase × thread × chunk-index`) that panic or delay at
//!   instrumented points, so the chaos suite can prove the two
//!   mechanisms above actually work under fire.
//!
//! [`RunControl`] bundles a token and a plan; every `try_mine_*` entry
//! point takes one, and the few panicking `mine*` wrappers left pass the
//! inert default.
//!
//! ```
//! use arm_faults::{try_run_threads, CancelToken, MiningError};
//!
//! let cancel = CancelToken::new();
//! let err = try_run_threads(4, "count", &cancel, |t| {
//!     if t == 2 {
//!         panic!("worker blew up");
//!     }
//! })
//! .unwrap_err();
//! assert!(matches!(err, MiningError::WorkerPanicked { thread: 2, .. }));
//! assert!(cancel.is_cancelled(), "siblings were told to stop");
//! ```

pub mod cancel;
pub mod error;
pub mod plan;

pub use cancel::{CancelKind, CancelToken};
pub use error::MiningError;
pub use plan::{FaultKind, FaultPlan};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Everything a fallible mining run threads through its workers: the
/// cancellation token and the (usually empty) fault plan. `Default` is
/// fully inert — no deadline, no injections — which is what the
/// panicking `mine*` wrappers pass.
#[derive(Debug, Default)]
pub struct RunControl {
    /// Cancellation/deadline handle. Clone it before the run to cancel
    /// from another thread.
    pub cancel: CancelToken,
    /// Armed injection sites (empty in production).
    pub faults: FaultPlan,
}

impl RunControl {
    /// A control block around an existing token (no faults).
    pub fn with_cancel(cancel: CancelToken) -> Self {
        RunControl {
            cancel,
            ..RunControl::default()
        }
    }

    /// A control block around a fault plan (fresh live token).
    pub fn with_faults(faults: FaultPlan) -> Self {
        RunControl {
            faults,
            ..RunControl::default()
        }
    }

    /// The phase gate drivers call after each phase: re-evaluates the
    /// deadline (so expiry is observed even when no chunk was claimed)
    /// and converts a tripped token into the matching [`MiningError`].
    pub fn gate(&self, phase: &'static str, run_start: Instant) -> Result<(), MiningError> {
        self.cancel.poll_deadline();
        match self.cancel.kind() {
            None => Ok(()),
            Some(kind) => Err(kind.into_error(phase, run_start.elapsed())),
        }
    }
}

/// Renders a panic payload as text: `&str` and `String` payloads pass
/// through verbatim, anything else becomes a placeholder.
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Panic-containing fork-join: spawns `p` scoped threads running
/// `f(thread_id)` and collects results in thread order (with `p == 1`
/// the closure runs, still contained, on the caller's thread).
///
/// Every worker runs under `catch_unwind`. The first panicking worker
/// cancels `cancel`, so siblings drawing from a token-aware
/// [`ChunkPool`](../arm_exec) stop at their next claim; all threads are
/// then joined and the lowest-indexed panic is returned as
/// [`MiningError::WorkerPanicked`]. On `Ok` every worker ran to
/// completion.
///
/// The `AssertUnwindSafe` is sound for the workspace's workers: shared
/// mining state is either atomically updated (counters, chunk cursors)
/// or guarded by non-poisoning `parking_lot` locks, and a run that
/// returns `Err` discards every partial artifact.
pub fn try_run_threads<R: Send>(
    p: usize,
    phase: &'static str,
    cancel: &CancelToken,
    f: impl Fn(usize) -> R + Sync,
) -> Result<Vec<R>, MiningError> {
    let to_error = |t: usize, payload: Box<dyn std::any::Any + Send>| {
        cancel.cancel();
        MiningError::WorkerPanicked {
            thread: t,
            phase,
            payload: payload_text(payload.as_ref()),
        }
    };
    if p == 1 {
        return match catch_unwind(AssertUnwindSafe(|| f(0))) {
            Ok(r) => Ok(vec![r]),
            Err(payload) => Err(to_error(0, payload)),
        };
    }
    let f = &f;
    let outcomes: Vec<Result<R, Box<dyn std::any::Any + Send>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p)
            .map(|t| {
                scope.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| f(t)));
                    if r.is_err() {
                        // Stop siblings at their next chunk claim; the
                        // error itself is reported after the join below.
                        cancel.cancel();
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect()
    });
    let mut out = Vec::with_capacity(p);
    let mut first_panic: Option<MiningError> = None;
    for (t, o) in outcomes.into_iter().enumerate() {
        match o {
            Ok(r) => out.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(to_error(t, payload));
                }
            }
        }
    }
    match first_panic {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn quiet_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("blew up"))
                    || info
                        .payload()
                        .downcast_ref::<String>()
                        .is_some_and(|s| s.contains("blew up"));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn success_collects_in_thread_order() {
        let cancel = CancelToken::new();
        let r = try_run_threads(4, "f1", &cancel, |t| t * 10).unwrap();
        assert_eq!(r, vec![0, 10, 20, 30]);
        assert!(!cancel.is_cancelled());
    }

    #[test]
    fn single_thread_panic_is_contained() {
        quiet_panics();
        let cancel = CancelToken::new();
        let e = try_run_threads(1, "count", &cancel, |_| -> () { panic!("blew up alone") })
            .unwrap_err();
        assert_eq!(
            e,
            MiningError::WorkerPanicked {
                thread: 0,
                phase: "count",
                payload: "blew up alone".into()
            }
        );
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn lowest_thread_panic_wins_and_all_join() {
        quiet_panics();
        let cancel = CancelToken::new();
        let finished = AtomicUsize::new(0);
        let e = try_run_threads(8, "build", &cancel, |t| {
            if t == 5 || t == 2 {
                panic!("blew up at {t}");
            }
            // Non-panicking workers observe the cancellation and still
            // count as joined.
            while !cancel.is_cancelled() {
                std::thread::yield_now();
            }
            finished.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap_err();
        match e {
            MiningError::WorkerPanicked {
                thread,
                phase,
                payload,
            } => {
                assert_eq!(thread, 2, "lowest-indexed panic is reported");
                assert_eq!(phase, "build");
                assert_eq!(payload, "blew up at 2");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(finished.load(Ordering::Relaxed), 6, "siblings all joined");
    }

    #[test]
    fn string_payloads_pass_through() {
        quiet_panics();
        let cancel = CancelToken::new();
        let e = try_run_threads(2, "mine", &cancel, |t| {
            if t == 0 {
                std::panic::panic_any(format!("blew up with String {t}"));
            }
        })
        .unwrap_err();
        assert!(matches!(
            e,
            MiningError::WorkerPanicked { ref payload, .. } if payload == "blew up with String 0"
        ));
    }

    #[test]
    fn gate_reports_cancellation_and_deadline() {
        let start = Instant::now();
        let ctrl = RunControl::default();
        assert!(ctrl.gate("f1", start).is_ok());
        ctrl.cancel.cancel();
        assert!(matches!(
            ctrl.gate("count", start),
            Err(MiningError::Cancelled { phase: "count", .. })
        ));
        let ctrl = RunControl::with_cancel(CancelToken::deadline_in(Duration::ZERO));
        assert!(matches!(
            ctrl.gate("f1", start),
            Err(MiningError::DeadlineExceeded { phase: "f1", .. })
        ));
    }
}
