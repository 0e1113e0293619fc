//! Result reporting: named metrics with units, order statistics, peak
//! memory and the one-line JSON result the benchmark ends with.

use std::time::Duration;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_string(), value, unit));
    }
}

/// Operation accounting shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued in measured or checked phases.
    pub attempted: u64,
    /// Refused, errored or wrongly answered operations.
    pub failed: u64,
    /// Wrong answers and failed consistency checks; any makes the run fail.
    pub mismatches: u64,
    /// Answers compared against the oracle.
    pub checked: u64,
}

impl Tally {
    pub fn mismatch(&mut self, what: &str) {
        eprintln!("MISMATCH: {what}");
        self.mismatches += 1;
        self.failed += 1;
    }
}

/// The last line of standard output: the result object.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite numbers are not JSON; they only arise from a
            // broken measurement, which must not pass as a result.
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.mismatches == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile, at most the 99th, that leaves at least ten
/// samples beyond it; with fewer than 1000 samples it is lower than p99.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.99;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
