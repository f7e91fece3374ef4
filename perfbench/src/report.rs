//! The benchmark's output schema: one JSON object on the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`,
//! with every metric as `{"value", "unit"}`.

use flsa_metrics::json::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// A run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON form. Values print with Rust's shortest
    /// round-trip representation, so every measured digit survives.
    ///
    /// # Errors
    ///
    /// A non-finite value has no JSON form and names the metric.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                flsa_metrics::json::escape(&m.name),
                m.value,
                flsa_metrics::json::escape(&m.unit)
            ));
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses [`Report::to_json`]'s output back, rejecting any object
    /// that does not have exactly the schema's keys.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text)?;
        let entries = doc.entries().ok_or("report is not an object")?;
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected report keys {keys:?}"));
        }
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("`correct` is not a bool".into()),
        };
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("`{key}` is not a whole number"))
        };
        let mut metrics = Vec::new();
        let members = doc
            .get("metrics")
            .and_then(Json::entries)
            .ok_or("`metrics` is not an object")?;
        for (name, m) in members {
            let fields: Vec<&str> = m
                .entries()
                .unwrap_or(&[])
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            if fields != ["value", "unit"] {
                return Err(format!("metric {name} has keys {fields:?}"));
            }
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("metric {name}: bad value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("metric {name}: bad unit"))?;
            metrics.push(Metric::new(name, value, unit));
        }
        Ok(Report {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}
