//! The one-line JSON result the benchmark prints last.

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong result.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// An empty report for a run that has not failed yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Counts one operation; a failure is logged to stderr with its cause.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("[voltbench] failed operation: {why}");
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The JSON object. A non-finite value cannot be printed as a number;
    /// it is written as `null` and makes the run incorrect.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct && self.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    correct = false;
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let mut r = Report::new();
        r.op(Ok(()));
        r.metric("latency_p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut r = Report::new();
        r.op(Err("boom".into()));
        assert!(r
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        let mut r = Report::new();
        r.metric("x", f64::NAN, "ms");
        assert!(r.to_json().contains("\"correct\": false"));
        assert!(r.to_json().contains("\"value\": null"));
    }
}
