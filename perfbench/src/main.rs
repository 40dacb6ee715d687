//! Wall-clock benchmark of the four miners — sequential Apriori, CCPD,
//! parallel Eclat and hybrid — at P = 1 and P = `available_parallelism`,
//! with a separate traced run that times each layer from this file's
//! side of the API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload t10i4 --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Every run first sets up its input — QUEST generation plus the oracle
//! (sequential Apriori's output). It then repeats a cycle until
//! `--seconds` are spent: one more set-up, whose median is `setup_s`, and
//! then every miner, each output checked against the oracle. Every
//! metric reports the median of its samples; times are scaled to the
//! nominal host speed that a reference kernel, timed before every call,
//! measures (see [`reference`]). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits nonzero when any mining call fails or disagrees
//! with the oracle.
//!
//! `--out FILE` appends a fuller record (host, oracle digest, reference
//! kernel time and scale, quartiles, sample counts and unscaled medians)
//! as one JSON line; `perfbench/compare.py` diffs two such files.
//! `--txns N` shrinks the workload and `--corrupt` damages one mining
//! result on purpose; `perfbench/smoke.py` uses both.

mod measure;
mod miners;
mod oracle;
mod reference;
mod trace;
mod workload;

use measure::{peak_rss_mb, timed, Host, Metrics, Samples};
use miners::{Family, Miner, Width, MINERS};
use oracle::{Itemsets, Oracle};
use reference::Reference;
use std::io::Write;
use std::time::{Duration, Instant};
use workload::Workload;

/// Cycles run even when they overrun `--seconds`, so every time comes
/// from at least this many samples.
const MIN_CYCLES: usize = 3;
/// Seconds each miner gets per cycle at least: short calls repeat, so a
/// 10 ms miner still yields enough samples for a steady figure.
const MIN_SLICE_S: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    txns: Option<usize>,
    out: Option<String>,
    corrupt: bool,
}

const USAGE: &str = "usage: perfbench --workload t10i4|t10i4-zipf|dense-n50 [--seed N] \
[--seconds S] [--trace 0|1] [--txns N] [--out FILE] [--corrupt]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: Workload::T10I4,
        seed: 0,
        seconds: 10,
        trace: false,
        txns: None,
        out: None,
        corrupt: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            a.corrupt = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => a.seed = num(&val)?,
            "--seconds" => a.seconds = num(&val)?,
            "--trace" => a.trace = num(&val)? != 0,
            "--txns" => a.txns = Some(num(&val)?.max(1) as usize),
            "--out" => a.out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

/// Attempted and failed checks of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one mining call's outcome against the oracle.
    fn check(&mut self, what: &str, sets: Result<Itemsets, String>, oracle: &Oracle) {
        self.attempted += 1;
        let problem = match sets {
            Err(e) => Some(format!("panicked: {e}")),
            Ok(s) => (!oracle.matches(s)).then(|| "differs from the oracle".to_string()),
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("FAIL {what}: {p}");
        }
    }
}

/// A benchmark run in progress.
struct Run {
    args: Args,
    host: Host,
    minsup: u32,
    metrics: Metrics,
    tally: Tally,
    reference: Reference,
    /// Seconds of every reference-kernel run, one before each call.
    reference_secs: Samples,
}

impl Run {
    /// Transactions in the run's database.
    fn txns(&self) -> usize {
        self.args.txns.unwrap_or(self.args.workload.default_txns())
    }

    /// Times the reference kernel once, recording how fast the host runs.
    fn sample_host(&mut self) {
        let secs = self.reference.secs();
        self.reference_secs.push(secs);
    }

    /// The factor that scales this run's times to the nominal host speed.
    fn host_scale(&self) -> f64 {
        reference::NOMINAL_S / self.reference_secs.median()
    }

    /// Generates the database and mines its oracle, timing both.
    fn setup(&mut self) -> (arm_dataset::Database, Oracle) {
        let (w, seed, txns) = (self.args.workload, self.args.seed, self.txns());
        self.sample_host();
        let (input, gen_s) = timed(|| w.generate(seed, txns));
        let db = input.db;
        self.minsup = db.absolute_support(w.min_support_frac());
        let (oracle, oracle_s) = timed(|| {
            let mined = Miner(Family::Apriori, Width::P1).run(&db, self.minsup, 1);
            Oracle::new(mined.sets.unwrap_or_default(), &input.original)
        });
        self.metrics.push("setup_s", "s", gen_s + oracle_s);
        self.metrics.push("quest.generate_s", "s", gen_s);
        (db, oracle)
    }

    /// Checks the first set-up's oracle against the one committed for the
    /// workload (at its default size only).
    fn check_committed(&mut self, oracle: &Oracle) {
        let w = self.args.workload;
        if self.txns() != w.default_txns() {
            return;
        }
        let (n, d) = w.committed_oracle();
        self.tally.attempted += 1;
        if oracle.sets.len() != n || oracle.digest != d {
            self.tally.failed += 1;
            eprintln!(
                "FAIL oracle: {} itemsets, digest {:016x}; committed {n}, {d:016x}",
                oracle.sets.len(),
                oracle.digest
            );
        }
    }

    /// Sets up again and checks that generation and the oracle repeat.
    /// One set-up per cycle spreads `setup_s`'s samples over the window,
    /// like every other time's.
    fn repeat_setup(&mut self, oracle: &Oracle) {
        let (_, again) = self.setup();
        self.tally.attempted += 1;
        if again.digest != oracle.digest {
            self.tally.failed += 1;
            eprintln!("FAIL setup: the oracle differs between set-ups");
        }
    }

    /// Runs `miner` once, checks it, and returns its time and stats.
    fn mine(
        &mut self,
        db: &arm_dataset::Database,
        oracle: &Oracle,
        miner: Miner,
    ) -> (f64, Option<arm_parallel::ParallelRunStats>) {
        self.sample_host();
        let mut m = miner.run(db, self.minsup, self.host.pmax);
        if self.args.corrupt {
            // Damage the first measured result: one support off by one.
            if let Some(first) = m.sets.as_mut().ok().and_then(|s| s.first_mut()) {
                first.1 += 1;
                self.args.corrupt = false;
            }
        }
        self.tally.check(&miner.metric(), m.sets, oracle);
        (m.secs, m.stats)
    }

    /// One untraced cycle: every miner for at least [`MIN_SLICE_S`], in
    /// an order rotated by `cycle` so drift over the run spreads evenly.
    /// Each call is one sample.
    fn e2e_cycle(&mut self, db: &arm_dataset::Database, oracle: &Oracle, cycle: usize) {
        for i in 0..MINERS.len() {
            let miner = MINERS[(i + cycle) % MINERS.len()];
            let mut spent = 0.0;
            while spent < MIN_SLICE_S {
                let (secs, _) = self.mine(db, oracle, miner);
                self.metrics.push(&miner.metric(), "s", secs);
                spent += secs;
            }
        }
    }

    /// One traced cycle: the traced Apriori re-drive next to an untraced
    /// one, the drivers' own statistics, and the vertical kernels.
    fn trace_cycle(&mut self, db: &arm_dataset::Database, oracle: &Oracle) {
        self.sample_host();
        let t = trace::traced_apriori(db, self.minsup);
        self.tally.check("traced apriori", Ok(t.sets), oracle);
        let (untraced, _) = self.mine(db, oracle, Miner(Family::Apriori, Width::P1));
        let m = &mut self.metrics;
        let s = &t.spans;
        m.push("trace.coverage", "ratio", s.total() / t.wall);
        m.push("trace.overhead_s", "s", t.wall - untraced);
        m.push("core.f1_s", "s", s.f1);
        m.push("core.candgen_s", "s", s.candgen);
        m.push("core.extract_s", "s", s.extract);
        m.push("core.candidates", "count", t.candidates as f64);
        m.push("hashtree.build_s", "s", s.build);
        m.push("hashtree.freeze_s", "s", s.freeze);
        m.push("hashtree.tree_bytes", "bytes", t.tree_bytes as f64);
        m.push("hashtree.count_k2_s", "s", s.count_k2);
        m.push("hashtree.count_k2_share", "ratio", s.count_k2 / t.wall);
        m.push("hashtree.count_k3p_s", "s", s.count_k3p);
        m.push("hashtree.node_visits", "count", t.meter.node_visits as f64);
        m.push(
            "hashtree.subset_checks",
            "count",
            t.meter.subset_checks as f64,
        );
        m.push("hashtree.hits", "count", t.meter.hits as f64);
        m.push(
            "hashtree.hit_ratio",
            "ratio",
            t.meter.hits as f64 / t.meter.subset_checks.max(1) as f64,
        );
        m.push("mem.readout_s", "s", s.readout);
        self.driver_stats(db, oracle);

        let k = trace::vertical_kernels(db, self.minsup);
        self.tally.attempted += 1;
        if !k.agree {
            self.tally.failed += 1;
            eprintln!("FAIL vertical kernels: sorted and bitmap supports differ");
        }
        let m = &mut self.metrics;
        m.push("vertical.sorted_ns_per_isect", "ns", k.sorted_ns);
        m.push("vertical.bitmap_ns_per_isect", "ns", k.bitmap_ns);
        m.push("vertical.auto_bitmap_frac", "ratio", k.auto_bitmap_frac);
    }

    /// Per-layer figures from the statistics each parallel driver returns.
    fn driver_stats(&mut self, db: &arm_dataset::Database, oracle: &Oracle) {
        use arm_metrics::Counter;
        let any = |_: u32| true;
        for width in [Width::P1, Width::Pmax] {
            let p = width.tag();
            let (_, Some(st)) = self.mine(db, oracle, Miner(Family::Ccpd, width)) else {
                continue;
            };
            let m = &mut self.metrics;
            m.push(
                &format!("ccpd.count_s.{p}"),
                "s",
                trace::phase_secs(&st, "count", any),
            );
            if width == Width::Pmax {
                let total = |c| st.metrics.total(c) as f64;
                m.push("ccpd.serial_s.pmax", "s", st.serial_wall().as_secs_f64());
                m.push(
                    "ccpd.count_imbalance.pmax",
                    "ratio",
                    st.imbalance_of_heaviest("count"),
                );
                m.push(
                    "mem.ctr_increments.pmax",
                    "count",
                    total(Counter::CtrIncrements),
                );
                m.push(
                    "mem.ctr_cas_retries.pmax",
                    "count",
                    total(Counter::CtrCasRetries),
                );
                m.push(
                    "hashtree.lock_contended.pmax",
                    "count",
                    total(Counter::LeafLockContended),
                );
                m.push(
                    "exec.chunks_stolen.pmax",
                    "count",
                    total(Counter::ChunksStolen),
                );
                m.push(
                    "exec.steal_attempts.pmax",
                    "count",
                    total(Counter::StealAttempts),
                );
            }
        }
        for width in [Width::P1, Width::Pmax] {
            let p = width.tag();
            let (_, Some(st)) = self.mine(db, oracle, Miner(Family::Eclat, width)) else {
                continue;
            };
            let m = &mut self.metrics;
            m.push(
                &format!("eclat.mine_s.{p}"),
                "s",
                trace::phase_secs(&st, "mine", any),
            );
            if width == Width::P1 {
                let total = |c| st.metrics.total(c) as f64;
                m.push(
                    "vertical.transpose_s",
                    "s",
                    trace::phase_secs(&st, "transpose", any),
                );
                m.push(
                    "vertical.intersections",
                    "count",
                    total(Counter::TidsetIntersections),
                );
                m.push(
                    "vertical.words_anded",
                    "count",
                    total(Counter::TidsetWordsAnded),
                );
                m.push(
                    "vertical.tidset_bytes",
                    "bytes",
                    total(Counter::TidsetBytes),
                );
            } else {
                m.push(
                    "eclat.mine_imbalance.pmax",
                    "ratio",
                    st.imbalance_of_heaviest("mine"),
                );
            }
        }
        if let (_, Some(st)) = self.mine(db, oracle, Miner(Family::Hybrid, Width::Pmax)) {
            let m = &mut self.metrics;
            m.push(
                "hybrid.count2_s.pmax",
                "s",
                trace::phase_secs(&st, "count", |k| k == 2),
            );
            m.push(
                "hybrid.mine_s.pmax",
                "s",
                trace::phase_secs(&st, "mine", any),
            );
        }
    }
}

/// Names and units of the metrics each mode reports, in order.
fn reported(trace: bool, metrics: &Metrics) -> Vec<&measure::Metric> {
    metrics
        .0
        .iter()
        .filter(|m| {
            let e2e = m.name == "setup_s"
                || m.name == "peak_rss_mb"
                || MINERS.iter().any(|mi| mi.metric() == m.name);
            e2e != trace
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, e.g. an empty ratio, read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let mut run = Run {
        args,
        host,
        minsup: 0,
        metrics: Metrics::default(),
        tally: Tally::default(),
        reference: Reference::new(),
        reference_secs: Samples::default(),
    };
    let (w, trace_mode) = (run.args.workload, run.args.trace);
    println!(
        "perfbench {} ({}), seed {}, {} mode",
        w.name(),
        w.describe(run.txns()),
        run.args.seed,
        if trace_mode { "traced" } else { "untraced" }
    );
    println!(
        "host: available_parallelism={} pmax={} oversubscribed={} cpu={:?}",
        run.host.cores,
        run.host.pmax,
        run.host.oversubscribed(),
        run.host.cpu
    );

    let (db, oracle) = run.setup();
    run.check_committed(&oracle);
    println!(
        "oracle: {} itemsets, digest {:016x}, minsup {}",
        oracle.sets.len(),
        oracle.digest,
        run.minsup
    );

    let budget = Duration::from_secs(run.args.seconds);
    let start = Instant::now();
    let mut cycles = 0usize;
    loop {
        let elapsed = start.elapsed();
        // Stop before a cycle that would overrun the budget.
        let per_cycle = elapsed.checked_div(cycles as u32).unwrap_or_default();
        if cycles >= MIN_CYCLES && elapsed + per_cycle > budget {
            break;
        }
        run.repeat_setup(&oracle);
        if trace_mode {
            run.trace_cycle(&db, &oracle);
        } else {
            run.e2e_cycle(&db, &oracle, cycles);
        }
        cycles += 1;
    }
    if let Some(rss) = peak_rss_mb() {
        run.metrics.push("peak_rss_mb", "MB", rss);
    }

    let (scale, txns) = (run.host_scale(), run.txns());
    let (reference_s, reference_n) = (run.reference_secs.median(), run.reference_secs.0.len());
    let Run {
        args,
        host,
        metrics,
        tally,
        ..
    } = run;
    let shown = reported(trace_mode, &metrics);
    println!(
        "{cycles} cycles in {:.1}s; reference kernel {:.4} ms (median of {}), so times scale by {scale:.4}",
        start.elapsed().as_secs_f64(),
        reference_s * 1e3,
        reference_n,
    );
    println!(
        "  {:<32} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "metric", "value", "q1", "q3", "wall median", "n"
    );
    for m in &shown {
        let f = m.scale(scale);
        let (q1, q3) = m.samples.quartiles();
        println!(
            "  {:<32} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4} {}",
            m.name,
            m.value(scale),
            q1 * f,
            q3 * f,
            m.samples.median(),
            m.samples.0.len(),
            m.unit
        );
    }
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} checks)",
        tally.failed, tally.attempted
    );

    if let Some(path) = &args.out {
        let fields: Vec<String> = shown
            .iter()
            .map(|m| {
                let f = m.scale(scale);
                let (q1, q3) = m.samples.quartiles();
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"wall_median\": {}}}",
                    json_str(&m.name),
                    num(m.value(scale)),
                    json_str(m.unit),
                    num(q1 * f),
                    num(q3 * f),
                    m.samples.0.len(),
                    num(m.samples.median()),
                )
            })
            .collect();
        let record = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"txns\": {}, \
             \"host\": {{\"available_parallelism\": {}, \"pmax\": {}, \"oversubscribed\": {}, \
             \"cpu\": {}}}, \"oracle\": {{\"itemsets\": {}, \"digest\": \"{:016x}\"}}, \
             \"reference_s\": {}, \"scale\": {}, \
             \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"metrics\": {{{}}}}}\n",
            json_str(w.name()),
            args.seed,
            u8::from(trace_mode),
            txns,
            host.cores,
            host.pmax,
            host.oversubscribed(),
            json_str(&host.cpu),
            oracle.sets.len(),
            oracle.digest,
            num(reference_s),
            num(scale),
            tally.attempted,
            tally.failed,
            num(failed_frac),
            fields.join(", ")
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(record.as_bytes()));
        if let Err(e) = written {
            eprintln!("error: cannot append to {path}: {e}");
            std::process::exit(2);
        }
    }

    let fields: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(m.value(scale)),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
