//! Named metrics with units, summary statistics, and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`, `sim_ns` (simulated time).
    pub unit: &'static str,
}

/// An ordered set of metrics; names are unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds or replaces `name`. Non-finite values (an empty sample) are
    /// stored as 0 so the result line stays valid JSON.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All metrics in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.put(m.name, m.value, m.unit);
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The machine-readable last line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // every measured digit survives and integers keep a `.0`.
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Buckets per doubling of [`LogHistogram`] (about 1.1 % wide).
const PER_OCTAVE: f64 = 64.0;

/// Latency histogram with logarithmic buckets about 1 % wide. Its memory
/// is fixed, so a run's peak RSS does not depend on how many samples it
/// took.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            // Up to 2^40 ns (18 minutes).
            counts: vec![0; 40 * PER_OCTAVE as usize],
            total: 0,
        }
    }
}

impl LogHistogram {
    /// Records one sample, in ns.
    pub fn add(&mut self, ns: u64) {
        let i = ((ns.max(1) as f64).log2() * PER_OCTAVE) as usize;
        let last = self.counts.len() - 1;
        self.counts[i.min(last)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (`p` in 0..=1) in ns, at its bucket's
    /// geometric centre; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i as f64 + 0.5) / PER_OCTAVE).exp2();
            }
        }
        unreachable!("rank is at most the total")
    }
}

/// FNV-1a over a byte stream: a compact digest for report equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn log_histogram_percentiles_are_within_a_bucket() {
        let mut h = LogHistogram::default();
        for ns in 1..=10_000u64 {
            h.add(ns);
        }
        let mut other = LogHistogram::default();
        other.add(1 << 30);
        h.merge(&other);
        assert_eq!(h.count(), 10_001);
        for (p, want) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.percentile(p);
            assert!((got / want - 1.0).abs() < 0.012, "p{p}: {got} vs {want}");
        }
        assert!(h.percentile(1.0) > 1e9);
        assert_eq!(LogHistogram::default().percentile(0.5), 0.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("a", 1.234_567_890_123, "ms");
        m.put("b", 3.0, "count");
        m.put("c", f64::NAN, "s");
        assert_eq!(
            result_line(true, 2, 0, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.234567890123, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
