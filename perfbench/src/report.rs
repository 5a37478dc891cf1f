//! The result of one benchmark run: a readable table, then the one-line
//! JSON object that ends standard output.

use std::fmt::Write as _;

use crate::stats::{valid_metric_name, valid_unit};

/// One named, measured value. Which way it improves is stated in
/// `BENCHMARK.json` and the README, not here.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Units of work attempted (windows, or fleet runs).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// The metrics of the result object, in print order.
    pub metrics: Vec<Metric>,
    /// Values shown in the table only: zero on a healthy run, or
    /// context for the listed metrics.
    pub shown: Vec<Metric>,
    /// Free-form lines printed before the table.
    pub notes: Vec<String>,
    /// The traced run's spans, written to a file when the run ends.
    pub spans_tsv: Option<String>,
}

impl Outcome {
    /// The readable report: notes, then one row per metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        let _ = writeln!(out, "{:<28} {:>16}  unit", "metric", "value");
        for (m, listed) in self
            .metrics
            .iter()
            .map(|m| (m, true))
            .chain(self.shown.iter().map(|m| (m, false)))
        {
            let mark = if listed { "" } else { "  (table only)" };
            let _ = writeln!(out, "{:<28} {:>16.6}  {}{mark}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    ///
    /// # Panics
    ///
    /// Panics on a metric name or unit outside the result charset, or a
    /// value that is not finite: both are bugs in this benchmark.
    pub fn render_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(m.value.is_finite(), "{} is not finite: {}", m.name, m.value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_full_precision_values() {
        let outcome = Outcome {
            correct: true,
            attempted: 69,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 1.0 / 3.0, "s"),
                Metric::new("sim_speed", 90.0, "vsec/s"),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            outcome.render_json(),
            "{\"correct\": true, \"attempted\": 69, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}, \
             \"sim_speed\": {\"value\": 90.0, \"unit\": \"vsec/s\"}}}"
        );
    }
}
