//! What one benchmark run reports, and its JSON rendering.
//!
//! The last line of standard output is the result object the contract
//! fixes (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is a `detail` object carrying labels, failure accounting, check
//! outcomes, digests and the self-time table.

use crate::measure::{is_valid_name, is_valid_unit, Metric};
use scenerec_serve::Response;
use serde::{Serialize, Value};

/// Outcome counts of the work a workload attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Accounting {
    /// Requests or BPR examples attempted.
    pub attempted: u64,
    /// Completed successfully.
    pub ok: u64,
    /// Answered with an error.
    pub error: u64,
    /// Answered from the degraded (stale) fallback.
    pub degraded: u64,
    /// Shed at admission with an overload response.
    pub overloaded: u64,
}

impl Accounting {
    /// Counts each response by its outcome.
    pub fn add_responses(&mut self, responses: &[Response]) {
        for r in responses {
            self.attempted += 1;
            match r.outcome() {
                "ok" => self.ok += 1,
                "error" => self.error += 1,
                "degraded" => self.degraded += 1,
                _ => self.overloaded += 1,
            }
        }
    }

    /// Everything that did not complete successfully.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// One output check and whether it held.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Check {
    /// Short name of the property.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Failure accounting.
    pub accounting: Accounting,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Labels: host cores, kernel backend, workers, shards, precision,
    /// sizes, and anything else a reader needs to interpret the numbers.
    pub labels: Vec<(String, String)>,
    /// Digest of the run's response or loss bytes (pure in the seed).
    pub digest: String,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Appends a label.
    pub fn label(&mut self, key: &str, value: impl ToString) {
        self.labels.push((key.to_string(), value.to_string()));
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    /// True when every check held, every metric is finite, and every
    /// name and unit is legal.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
            && self
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && is_valid_name(&m.name) && is_valid_unit(m.unit))
    }

    /// The `detail` line: labels, accounting, checks, digest.
    pub fn detail_json(&self, workload: &str) -> String {
        let labels = self
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(v.clone())))
            .collect();
        let detail = Value::Object(vec![
            ("workload".into(), workload.into()),
            ("labels".into(), Value::Object(labels)),
            ("accounting".into(), self.accounting.to_value()),
            ("checks".into(), self.checks.to_value()),
            ("digest".into(), self.digest.clone().into()),
        ]);
        render(&Value::Object(vec![("detail".into(), detail)]))
    }

    /// The contract's result line. A non-finite value renders as `null`,
    /// and [`Outcome::correct`] is then false.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".into(), m.value.into()),
                    ("unit".into(), m.unit.into()),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        render(&Value::Object(vec![
            ("correct".into(), self.correct().into()),
            ("attempted".into(), self.accounting.attempted.max(1).into()),
            ("failed".into(), self.accounting.failed().into()),
            ("metrics".into(), Value::Object(metrics)),
        ]))
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("setup_s", "s", 0.25);
        o.accounting.attempted = 3;
        o.accounting.ok = 2;
        o.accounting.overloaded = 1;
        o.check("x", true, "fine");
        assert_eq!(
            o.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_or_bad_value_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.metric("a", "s", 1.0);
        assert!(o.correct());
        o.metric("b", "s", f64::NAN);
        assert!(!o.correct());
        assert!(o.result_json().contains("\"b\":{\"value\":null"));
        let mut o = Outcome::default();
        o.check("parity", false, "mismatch");
        assert!(!o.correct());
    }

    #[test]
    fn detail_strings_are_escaped() {
        let mut o = Outcome::default();
        o.label("note", "a\"b\\c\n");
        let doc = serde_json::parse_value(&o.detail_json("w")).unwrap();
        let note = doc
            .get("detail")
            .and_then(|d| d.get("labels"))
            .and_then(|l| l.get("note"))
            .and_then(Value::as_str);
        assert_eq!(note, Some("a\"b\\c\n"));
    }
}
