//! The result line and the statistics behind it.

use std::fmt::Write as _;

/// One run's outcome: the last line of standard output.  Every failed check
/// (per operation or at quiescence) counts in `failed`; the run's answers are
/// correct when none did.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    /// Records the operation counts and logs the first failures.
    pub fn finish(&mut self, attempted: u64, fails: crate::checks::Failures) {
        self.attempted = attempted;
        self.failed = fails.count;
        for f in &fails.first {
            eprintln!("check failed: {f}");
        }
    }

    pub fn metrics(&self) -> &[(&'static str, f64, &'static str)] {
        &self.metrics
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String");
        }
        s.push_str("}}");
        s
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Sampled per-operation latencies, in nanoseconds.
#[derive(Debug)]
pub struct Latency {
    sorted: Vec<u32>,
}

impl Latency {
    pub fn new(mut samples: Vec<u32>) -> Self {
        samples.sort_unstable();
        Latency { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile in microseconds, interpolated between order
    /// statistics.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q * (n - 1) as f64;
        let i = pos.floor() as usize;
        let j = (i + 1).min(n - 1);
        let frac = pos - i as f64;
        (self.sorted[i] as f64 * (1.0 - frac) + self.sorted[j] as f64 * frac) / 1000.0
    }

    /// The highest percentile with at least ten samples beyond it.
    pub fn deepest_percentile(&self) -> f64 {
        let n = self.sorted.len() as f64;
        if n < 40.0 {
            return 50.0;
        }
        100.0 * (1.0 - 10.0 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_four_keys_and_full_digits() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("a_ms", 1.0 / 3.0, "ms");
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"a_ms\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}"));
    }

    #[test]
    fn quantiles_interpolate() {
        let l = Latency::new(vec![4000, 1000, 3000, 2000]);
        assert_eq!(l.quantile_us(0.0), 1.0);
        assert_eq!(l.quantile_us(0.5), 2.5);
        assert_eq!(l.quantile_us(1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
