//! Metric values, percentiles, and the report's output lines.

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing.
    pub samples: Option<usize>,
    /// Which percentile a tail figure is, or how a count behaves.
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples: None,
            note: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = Some(note);
        self
    }

    /// `metric <name> <value> <unit> [n=…] [note]`, for people.
    pub fn line(&self) -> String {
        let mut s = format!(
            "metric {:<34} {:>16.6} {}",
            self.name, self.value, self.unit
        );
        if let Some(n) = self.samples {
            s.push_str(&format!("  n={n}"));
        }
        if let Some(note) = &self.note {
            s.push_str(&format!("  ({note})"));
        }
        s
    }
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9/p99/p90/p50 with at least ten of `n` samples
/// beyond it, and its label.
pub fn tail_percentile(n: usize) -> (f64, String) {
    // Percentiles in tenths, so the count beyond is exact integer math.
    for tenths in [999, 990, 900] {
        if n * (1000 - tenths) / 1000 >= 10 {
            let p = tenths as f64 / 10.0;
            return (p, format!("p{p}"));
        }
    }
    (50.0, "p50: too few samples for a higher percentile".into())
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the selected metrics.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(tail_percentile(1000).0, 99.0);
        assert_eq!(tail_percentile(100).0, 90.0);
        assert_eq!(tail_percentile(10_000).0, 99.9);
    }
}
