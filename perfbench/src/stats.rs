//! Percentiles, the metric record, and process-level readings.

use std::collections::BTreeMap;

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The highest of p99, p95 and p90 that has at least ten samples beyond
/// it, as `(label, value)`; the maximum when there are too few samples.
pub fn tail(xs: &[f64]) -> (&'static str, f64) {
    let n = xs.len() as f64;
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
        if n * (1.0 - q) >= 10.0 {
            return (label, percentile(xs, q));
        }
    }
    ("max", percentile(xs, 1.0))
}

/// Named metric values with their units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records `name` (replacing any earlier value).
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Every recorded `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ticks the host took from this machine's vCPUs (steal) and ticks
/// elapsed on them in all, summed over the vCPUs, from `/proc/stat`;
/// zeros where the kernel does not report them.
pub fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = fields.get(7).copied().unwrap_or(0.0);
    (steal, fields.iter().take(8).sum())
}

/// FNV-1a over `bytes`: a cheap fingerprint for comparing outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
