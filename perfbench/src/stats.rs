//! Summary statistics and the result report.
//!
//! The tail rule: a percentile is reported only when at least
//! [`TAIL_MIN_BEYOND`] samples lie beyond its nearest-rank position, so a
//! p99 needs 1 000 samples and a p90 needs 100. Medians are always
//! reported, with their sample count printed beside them.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose share of samples reaches `p`.
#[must_use]
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Percentile `p` of `samples` by nearest rank, or `None` when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it (or `samples` is empty).
#[must_use]
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || n - nearest_rank(n, p) < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[nearest_rank(n, p) - 1])
}

/// The median by nearest rank (no tail rule). Panics on empty input.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    sorted(samples)[nearest_rank(samples.len(), 50.0) - 1]
}

/// The geometric mean of positive samples. Request cost grows steeply
/// with query size, so the median of a mix of sizes sits on the steep
/// boundary between two sizes and jumps with the seed's graphs; the
/// geometric mean weighs every request and, taken in log space, a stray
/// slow sample moves it little. Panics on empty input.
#[must_use]
pub fn geomean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "geometric mean of no samples");
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Arithmetic mean. Panics on empty input.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `true` for a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// How far a set of per-layer parts falls short of (or exceeds) the
/// end-to-end time it should add up to: `Σ parts / total`. 1.0 is exact
/// closure.
#[must_use]
pub fn closure(parts: &[f64], total: f64) -> f64 {
    parts.iter().sum::<f64>() / total
}

/// One run's result: the metrics plus the correctness verdict.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Failed correctness checks, one line each.
    failures: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    #[must_use]
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric. Panics on an invalid name, a repeated name or a
    /// non-finite value: those are bugs in the benchmark.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records `name` as percentile `p` of `samples` when the tail rule
    /// allows it; returns whether it was recorded.
    pub fn add_tail(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) -> bool {
        match tail(samples, p) {
            Some(v) => {
                self.add(name, v, unit);
                true
            }
            None => {
                eprintln!(
                    "perfbench: {name} dropped: {} samples, p{p} needs {TAIL_MIN_BEYOND} beyond it",
                    samples.len()
                );
                false
            }
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.failures.push(what.into());
    }

    /// Prints one `name value unit` line per metric, the failed checks,
    /// and then the JSON result as the last line of standard output.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<36} {error_rate:>16.6} ratio ({} of {} failed or refused)",
            "error_rate", self.failed, self.attempted
        );
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!("{}", self.json());
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest decimal that reads back to the
            // same f64, so no digit is lost and integers keep a `.0`.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(101, 50.0), 51);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(1, 99.0), 1);
        assert_eq!(nearest_rank(3, 50.0), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        assert_eq!(
            tail(&xs[..999], 99.0),
            None,
            "999 samples leave 9 beyond p99"
        );
        assert_eq!(tail(&xs[..100], 90.0), Some(90.0));
        assert_eq!(tail(&xs[..99], 90.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn median_is_nearest_rank_and_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_is_the_mean_in_log_space() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "pairs_s.gedgw",
            "server.wait_ms.top_k.p99",
            "0x",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".x", "_x", "a b", "p@10", "ms/op", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn closure_is_sum_over_total() {
        assert!((closure(&[1.0, 2.0, 3.0], 6.0) - 1.0).abs() < 1e-12);
        assert!((closure(&[1.0, 2.0], 6.0) - 0.5).abs() < 1e-12);
        assert_eq!(closure(&[], 2.0), 0.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut r = Report::new();
        r.attempted = 3;
        r.add("latency_ms", 1.234_567_890_123, "ms");
        r.add("count", 2.0, "count");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn report_rejects_bad_names() {
        Report::new().add("p@10", 1.0, "ratio");
    }
}
