//! Sample statistics, metric records and the host record.

use std::time::Instant;

/// Repeated measurements of one metric within a run.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one measurement.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (NaN when empty).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// First and third quartiles, by the same rule as Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method).
    pub fn quartiles(&self) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(f64::NAN);
            return (x, x);
        }
        let q = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        (q(1), q(3))
    }
}

/// Whether `unit` is a time. Times are scaled to the nominal host speed
/// (see [`crate::reference`]); counts and ratios are reported as measured.
pub fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ns")
}

/// One reported metric and the samples it came from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Samples,
}

impl Metric {
    /// The factor this metric's samples are multiplied by when the host
    /// runs at `host_scale` (see [`crate::reference::Reference::scale`]).
    pub fn scale(&self, host_scale: f64) -> f64 {
        if is_time(self.unit) {
            host_scale
        } else {
            1.0
        }
    }

    /// The value a run reports: the median of the samples, a time scaled
    /// to the nominal host speed.
    pub fn value(&self, host_scale: f64) -> f64 {
        self.samples.median() * self.scale(host_scale)
    }
}

/// An ordered set of metrics keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `v` to the metric `name`.
    pub fn push(&mut self, name: &str, unit: &'static str, v: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(v),
            None => self.0.push(Metric {
                name: name.to_string(),
                unit,
                samples: Samples(vec![v]),
            }),
        }
    }
}

/// Runs `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the results were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// The largest thread count the benchmark runs (never above `cores`).
    pub pmax: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores,
            pmax: cores,
            cpu,
        }
    }

    /// Whether the run uses more threads than cores.
    pub fn oversubscribed(&self) -> bool {
        self.pmax > self.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        let s = Samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.quartiles(), (1.0, 3.0));
        assert_eq!(s.median(), 2.0);
        let one = Samples(vec![4.0]);
        assert_eq!(one.quartiles(), (4.0, 4.0));
    }
}
