//! Experiment harness shared by the `table2`/`fig*` binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4 for the index). Datasets default to 10% of paper scale so
//! the whole suite runs in minutes; set `ARM_SCALE=full` for paper-scale
//! transaction counts or `ARM_SCALE=quick` for smoke-test sizes. Results
//! are printed as aligned text tables and, when `ARM_OUT` is set (or the
//! `experiments` driver is used), written as CSV.

use arm_dataset::Database;
use arm_metrics::{reports_to_json, RunReport};
use arm_quest::{generate, QuestParams};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Dataset scale relative to the paper's transaction counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleMode {
    /// 2% of paper scale (CI smoke tests).
    Quick,
    /// 10% of paper scale (default; minutes for the full suite).
    Default,
    /// Paper-scale transaction counts.
    Full,
}

impl ScaleMode {
    /// Reads `ARM_SCALE` from the environment.
    pub fn from_env() -> Self {
        match std::env::var("ARM_SCALE").as_deref() {
            Ok("full") => ScaleMode::Full,
            Ok("quick") => ScaleMode::Quick,
            _ => ScaleMode::Default,
        }
    }

    /// The multiplier applied to `D`.
    pub fn factor(self) -> f64 {
        match self {
            ScaleMode::Quick => 0.02,
            ScaleMode::Default => 0.1,
            ScaleMode::Full => 1.0,
        }
    }

    /// Human-readable tag for report headers.
    pub fn label(self) -> &'static str {
        match self {
            ScaleMode::Quick => "quick (2% of paper D)",
            ScaleMode::Default => "default (10% of paper D)",
            ScaleMode::Full => "full paper scale",
        }
    }
}

/// A memoizing dataset provider so multi-figure drivers generate each
/// database once.
pub struct DatasetCache {
    scale: ScaleMode,
    cache: Mutex<HashMap<String, std::sync::Arc<Database>>>,
}

impl DatasetCache {
    /// Creates a cache at the given scale.
    pub fn new(scale: ScaleMode) -> Self {
        DatasetCache {
            scale,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The scale in effect.
    pub fn scale(&self) -> ScaleMode {
        self.scale
    }

    /// Returns the (scaled) `T{t}.I{i}.D{d}` dataset, generating it on
    /// first use. The name keyed on is the *paper* name; the actual
    /// transaction count is `d * scale`.
    pub fn get(&self, t: u32, i: u32, d_paper: usize) -> std::sync::Arc<Database> {
        let params = scaled_params(t, i, d_paper, self.scale);
        let key = QuestParams::paper(t, i, d_paper).name();
        let mut cache = self.cache.lock().unwrap();
        if let Some(db) = cache.get(&key) {
            return std::sync::Arc::clone(db);
        }
        let db = std::sync::Arc::new(generate(&params));
        cache.insert(key, std::sync::Arc::clone(&db));
        db
    }
}

/// Scaled parameters for a paper dataset. Only the transaction count `D`
/// shrinks; the pattern pool stays at the paper's `L = 2000`. Because
/// transactions draw patterns by (exponential) weight, the fraction of
/// patterns whose support clears a *relative* minimum support is
/// scale-invariant, so the frequent-itemset profile at e.g. 0.5% matches
/// the paper's at any `D` (compare `fig7` output with the paper's Fig. 7).
pub fn scaled_params(t: u32, i: u32, d_paper: usize, scale: ScaleMode) -> QuestParams {
    let d = ((d_paper as f64 * scale.factor()).round() as usize).max(1_000);
    QuestParams::paper(t, i, d_paper).with_txns(d)
}

/// Iteration cap applied to the *timing* experiments (Figs. 8, 9, 13) at
/// reduced scale: the deep tail of T20-style datasets multiplies run time
/// by C(20, k) per transaction while contributing little to the totals the
/// figures compare. `None` (no cap) at full scale.
pub fn timing_max_k(scale: ScaleMode) -> Option<u32> {
    match scale {
        ScaleMode::Quick => Some(5),
        ScaleMode::Default => Some(7),
        ScaleMode::Full => None,
    }
}

/// The six datasets of Figs. 8 & 12 (paper `D` values).
pub const FIG_DATASETS_6: [(u32, u32, usize); 6] = [
    (5, 2, 100_000),
    (10, 4, 100_000),
    (15, 4, 100_000),
    (10, 6, 400_000),
    (10, 6, 800_000),
    (10, 6, 1_600_000),
];

/// The full Table 2 grid.
pub const TABLE2_DATASETS: [(u32, u32, usize); 8] = [
    (5, 2, 100_000),
    (10, 4, 100_000),
    (15, 4, 100_000),
    (20, 6, 100_000),
    (10, 6, 400_000),
    (10, 6, 800_000),
    (10, 6, 1_600_000),
    (10, 6, 3_200_000),
];

/// Paper name of a dataset tuple.
pub fn paper_name(t: u32, i: u32, d: usize) -> String {
    QuestParams::paper(t, i, d).name()
}

/// Times `f`, returning `(best_seconds, result_of_last_run)`. Runs `reps`
/// times and keeps the minimum (the standard way to strip scheduler
/// noise from single-threaded kernels).
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(reps >= 1);
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.unwrap())
}

/// Repetition count appropriate for the scale (fewer reps at full scale).
pub fn reps_for(scale: ScaleMode) -> usize {
    match scale {
        // Short runs need best-of-N to strip scheduler noise.
        ScaleMode::Quick => 3,
        ScaleMode::Default => 3,
        ScaleMode::Full => 1,
    }
}

/// A simple CSV sink; rows are written verbatim.
pub struct Csv {
    path: PathBuf,
    buf: String,
}

impl Csv {
    /// Opens a CSV report with a header row.
    pub fn new(name: &str, header: &str) -> Self {
        let dir = std::env::var("ARM_OUT").unwrap_or_else(|_| "EXPERIMENTS-data".into());
        std::fs::create_dir_all(&dir).ok();
        let path = Path::new(&dir).join(name);
        Csv {
            path,
            buf: format!("{header}\n"),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, row: impl AsRef<str>) {
        self.buf.push_str(row.as_ref());
        self.buf.push('\n');
    }

    /// Flushes to disk, returning the path written.
    pub fn finish(self) -> PathBuf {
        if let Ok(mut f) = std::fs::File::create(&self.path) {
            f.write_all(self.buf.as_bytes()).ok();
        }
        self.path
    }
}

/// Writes `reports` as one `arm-run-report/v3` JSON document next to the
/// CSV outputs (`ARM_OUT`, else `EXPERIMENTS-data/`), returning the path
/// written. Every figure binary funnels its runs through this so all
/// machine-readable output shares one schema.
pub fn write_reports(name: &str, reports: &[RunReport]) -> PathBuf {
    let dir = std::env::var("ARM_OUT").unwrap_or_else(|_| "EXPERIMENTS-data".into());
    std::fs::create_dir_all(&dir).ok();
    let path = Path::new(&dir).join(name);
    if let Err(e) = std::fs::write(&path, reports_to_json(reports)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Percent improvement of `optimized` over `base` (positive = faster).
pub fn pct_improvement(base: f64, optimized: f64) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    (base - optimized) / base * 100.0
}

/// The host's core count (`available_parallelism`, 1 if unknown). Wall
/// times at thread counts above it are oversubscribed.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, scale: ScaleMode) {
    println!("== {what} ==");
    println!(
        "scale: {} | host cores: {} | reproduction of Zaki et al. SC'96/KAIS'01",
        scale.label(),
        host_cores()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors() {
        assert_eq!(ScaleMode::Full.factor(), 1.0);
        assert!(ScaleMode::Quick.factor() < ScaleMode::Default.factor());
    }

    #[test]
    fn scaled_params_floor() {
        let p = scaled_params(10, 4, 100_000, ScaleMode::Quick);
        assert_eq!(p.n_txns, 2_000);
        let tiny = scaled_params(10, 4, 10_000, ScaleMode::Quick);
        assert_eq!(tiny.n_txns, 1_000, "floor at 1000 txns");
    }

    #[test]
    fn cache_returns_same_instance() {
        let c = DatasetCache::new(ScaleMode::Quick);
        let a = c.get(5, 2, 100_000);
        let b = c.get(5, 2, 100_000);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2_000);
    }

    #[test]
    fn improvement_math() {
        assert_eq!(pct_improvement(2.0, 1.0), 50.0);
        assert_eq!(pct_improvement(0.0, 1.0), 0.0);
        assert!(pct_improvement(1.0, 1.2) < 0.0);
    }

    #[test]
    fn time_best_returns_result() {
        let (t, v) = time_best(2, || 42);
        assert!(t >= 0.0);
        assert_eq!(v, 42);
    }
}
