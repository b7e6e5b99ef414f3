//! Metric names, the printed report and the final JSON line.
//!
//! The names and units are read from `BENCHMARK.json`, the one place that
//! declares them. An untraced run's JSON carries exactly its
//! `end_to_end` metrics; a traced run's carries exactly its `per_layer`
//! metrics. Everything else a run measures (the p50 and tail latencies,
//! failure and lateness shares, identity and determinism digests) is
//! printed in the report above the JSON line.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// The benchmark declaration at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each metric a JSON line carries.
type Declared = Vec<(String, String)>;

/// End-to-end metrics in the JSON line of an untraced run.
pub fn end_to_end() -> &'static Declared {
    static LIST: OnceLock<Declared> = OnceLock::new();
    LIST.get_or_init(|| declared("end_to_end"))
}

/// Per-layer metrics in the JSON line of a traced run. A layer a
/// workload does not exercise reads 0 there (see README.md).
pub fn per_layer() -> &'static Declared {
    static LIST: OnceLock<Declared> = OnceLock::new();
    LIST.get_or_init(|| declared("per_layer"))
}

/// The `name` and `unit` of every object in the `BENCHMARK.json` array
/// under `key`. The metric arrays hold flat objects, so the array ends at
/// the first `]` and each object at its `}`.
fn declared(key: &str) -> Declared {
    let at = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let rest = &BENCHMARK_JSON[at..];
    let open = rest.find('[').expect("metric list is an array");
    let close = rest.find(']').expect("metric list is an array");
    rest[open + 1..close]
        .split('}')
        .filter_map(|object| Some((field(object, "name")?, field(object, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` in one flat JSON object.
fn field(object: &str, key: &str) -> Option<String> {
    let at = object.find(&format!("\"{key}\""))? + key.len() + 2;
    let value = object[at..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    Some(value[..value.find('"')?].to_owned())
}

/// One measured number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples the value summarizes (ops, requests, runs).
    pub samples: usize,
    /// Free text shown in the report, e.g. which percentile a tail is.
    pub note: String,
}

/// Everything one run prints.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Context lines (inputs, digests, identity results) printed first.
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            lines: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// A traced run's report, with every per-layer metric preset to 0
    /// ("not exercised") until the run sets it.
    pub fn with_layers() -> Report {
        let mut report = Report::new();
        for (name, unit) in per_layer() {
            report.metrics.push(Metric {
                name: name.clone(),
                value: 0.0,
                unit: unit.clone(),
                samples: 0,
                note: "not exercised on this workload".to_owned(),
            });
        }
        report
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Sets (or adds) a metric; the unit of a declared name wins.
    pub fn set(&mut self, name: &str, value: f64, samples: usize, note: impl Into<String>) {
        let unit = end_to_end()
            .iter()
            .chain(per_layer())
            .find(|(n, _)| n == name)
            .map_or_else(|| unit_of(name), |(_, u)| u.clone());
        let metric = Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
            note: note.into(),
        };
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(slot) => *slot = metric,
            None => self.metrics.push(metric),
        }
    }

    /// Prints the report, then the JSON result as the last line.
    pub fn print(&self, traced: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "metrics ({} samples column = values summarized):",
            self.metrics.len()
        );
        for m in &self.metrics {
            println!(
                "  {:<32} {:>16} {:<6} n={:<7} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        let declared = if traced { per_layer() } else { end_to_end() };
        let mut json = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Units of the report-only metrics, from their name suffix.
fn unit_of(name: &str) -> String {
    let unit = if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_share") || name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    };
    unit.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_declared_metrics() {
        let e2e = end_to_end();
        assert_eq!(e2e[0], ("setup_s".to_owned(), "s".to_owned()));
        assert!(per_layer().len() > e2e.len());
        let mut names: Vec<&String> = e2e.iter().chain(per_layer()).map(|(n, _)| n).collect();
        let all = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all, "metric names are unique");
    }
}
