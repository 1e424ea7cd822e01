//! The result of a run and how it is printed.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed and nothing failed.
    pub correct: bool,
    /// Requests issued in the measured window.
    pub attempted: u64,
    /// Of those, requests that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Sizes, counts and digests to compare runs by, and any violation.
    pub facts: Vec<(String, String)>,
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    /// The human-readable block: facts, then every metric with its unit.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.facts {
            let _ = writeln!(out, "# {key}: {value}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON object the driver reads. Non-finite values (a
    /// layer that saw no call) are printed as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_string(m.name),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
