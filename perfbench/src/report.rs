//! The result of one run: named metrics with units and sample counts,
//! the correctness tally, and the one-line JSON result printed last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit (`ms`, `ns`, `count`, ...).
    pub unit: &'static str,
    /// How many measurements the value summarizes (1 for a count).
    pub samples: u64,
}

/// Operations attempted and failed in a run. An operation fails when it
/// errors, returns a wrong result, or is not specialized when it must be.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every metric a run measured, by name.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Correctness tally over every checked operation.
    pub tally: Tally,
}

impl Report {
    /// Record a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Whether the run produced only correct outputs.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The metric table, one line per metric with its unit and sample
    /// count.
    pub fn table(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{:<34} {:>16} {:<8} {:>10}\n",
            "metric", "value", "unit", "samples"
        );
        for n in names {
            if let Some(m) = self.metrics.get(*n) {
                let _ = writeln!(
                    s,
                    "{n:<34} {:>16.4} {:<8} {:>10}",
                    m.value, m.unit, m.samples
                );
            }
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and the named
    /// metrics with their units. A metric whose value is not finite is
    /// reported as `null`.
    pub fn json_line(&self, names: &[&str]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let (v, unit) = match self.metrics.get(*n) {
                Some(m) if m.value.is_finite() => (format!("{}", m.value), m.unit),
                Some(m) => ("null".to_string(), m.unit),
                None => ("null".to_string(), ""),
            };
            let _ = write!(s, "\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}
