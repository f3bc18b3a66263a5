//! The one bench-file format: every `BENCH_*.json` writer emits a
//! [`BenchFile`] and `harness bench-gate` reads it back through
//! [`BenchFile::parse`].
//!
//! ```text
//! {
//!   "bench": "kernels",
//!   "metrics": {
//!     "matmul_128x256x128.threads1_ms": {"value":0.1621,"unit":"ms"},
//!     ...
//!   }
//! }
//! ```
//!
//! `metrics` has the shape of the benchmark's (`qcebench`) metrics
//! object: one `{value, unit}` per metric name, named
//! `<row>.<measure>_<unit>`. Every metric in a bench file is a cost
//! (lower is better) and is gated, so a value is finite and
//! non-negative. Context nothing gates (thread counts, GFLOP/s,
//! speedups) stays on the writer's progress line.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue, ObjWriter};

/// One measured value and its unit (`ms` for every committed writer).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measurement; finite and non-negative.
    pub value: f64,
    /// Its unit; never empty.
    pub unit: String,
}

/// A bench file: which bench wrote it, and its metrics by name.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// The writer's name, e.g. `kernels` or `serve`.
    pub bench: String,
    /// Every metric, keyed (and rendered) in name order.
    pub metrics: BTreeMap<String, Metric>,
}

/// Why a document is not a bench file.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// Not JSON, or nested deeper than the [`json`] reader accepts.
    Json(String),
    /// `bench` is not a string, or `metrics` (or one metric) is not an
    /// object.
    Shape(String),
    /// The named metric's value is missing, non-finite or negative.
    Value(String),
    /// The named metric's unit is missing or empty.
    Unit(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Json(e) => write!(f, "bench file is not JSON: {e}"),
            BenchError::Shape(what) => write!(f, "bench file: {what}"),
            BenchError::Value(name) => write!(
                f,
                "bench metric {name:?}: value must be a finite, non-negative number"
            ),
            BenchError::Unit(name) => {
                write!(f, "bench metric {name:?}: unit must be a non-empty string")
            }
        }
    }
}

impl std::error::Error for BenchError {}

impl BenchFile {
    /// An empty file for bench `bench`.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        BenchFile {
            bench: bench.to_string(),
            metrics: BTreeMap::new(),
        }
    }

    /// Records metric `name` (replacing an earlier value of that name).
    pub fn insert(&mut self, name: impl Into<String>, value: f64, unit: &str) -> &mut Self {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
        self
    }

    /// Renders the file: one metric per line, so committed baselines
    /// diff line by line. Values keep every bit through [`parse`]
    /// (shortest round-trip decimal).
    ///
    /// [`parse`]: BenchFile::parse
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": ");
        json::write_escaped(&mut out, &self.bench);
        out.push_str(",\n  \"metrics\": {");
        for (i, (name, metric)) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            json::write_escaped(&mut out, name);
            let mut entry = ObjWriter::new();
            entry.num("value", metric.value).str("unit", &metric.unit);
            out.push_str(": ");
            out.push_str(&entry.finish());
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Reads a bench file, checking every metric.
    ///
    /// # Errors
    ///
    /// A [`BenchError`] naming the first malformed part.
    pub fn parse(body: &str) -> Result<Self, BenchError> {
        let doc = json::parse(body).map_err(BenchError::Json)?;
        let bench = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| BenchError::Shape("no \"bench\" string".to_string()))?;
        let Some(JsonValue::Obj(entries)) = doc.get("metrics") else {
            return Err(BenchError::Shape("no \"metrics\" object".to_string()));
        };
        let mut file = BenchFile::new(bench);
        for (name, entry) in entries {
            if !matches!(entry, JsonValue::Obj(_)) {
                return Err(BenchError::Shape(format!(
                    "metric {name:?} is not an object"
                )));
            }
            let value = entry
                .get("value")
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| BenchError::Value(name.clone()))?;
            let unit = entry
                .get("unit")
                .and_then(JsonValue::as_str)
                .filter(|u| !u.is_empty())
                .ok_or_else(|| BenchError::Unit(name.clone()))?;
            file.insert(name.clone(), value, unit);
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_metric(entry: &str) -> String {
        format!(r#"{{"bench":"t","metrics":{{"m":{entry}}}}}"#)
    }

    #[test]
    fn round_trip_keeps_every_bit() {
        let mut file = BenchFile::new("serve");
        file.insert("serve_flow_c1.p50_ms", 79.754_336_999_999_99, "ms")
            .insert("serve_flow_c1.p99_ms", 0.1, "ms")
            .insert("zero.wall_ms", 0.0, "ms");
        let back = BenchFile::parse(&file.to_json()).unwrap();
        assert_eq!(back, file);
        for (name, metric) in &file.metrics {
            assert_eq!(back.metrics[name].value.to_bits(), metric.value.to_bits());
        }
        assert_eq!(
            BenchFile::parse(&BenchFile::new("empty").to_json())
                .unwrap()
                .metrics
                .len(),
            0
        );
    }

    #[test]
    fn non_finite_or_negative_values_are_rejected() {
        // 1e999 overflows to +inf in the reader; a writer's NaN renders
        // as `null`.
        for value in ["1e999", "-1e999", "-0.5", "null", "\"3\""] {
            let body = one_metric(&format!(r#"{{"value":{value},"unit":"ms"}}"#));
            assert_eq!(
                BenchFile::parse(&body),
                Err(BenchError::Value("m".to_string())),
                "{value}"
            );
        }
        assert_eq!(
            BenchFile::parse(&one_metric(r#"{"unit":"ms"}"#)),
            Err(BenchError::Value("m".to_string()))
        );
        let mut nan = BenchFile::new("t");
        nan.insert("m", f64::NAN, "ms");
        assert_eq!(
            BenchFile::parse(&nan.to_json()),
            Err(BenchError::Value("m".to_string()))
        );
    }

    #[test]
    fn missing_or_empty_units_are_rejected() {
        for entry in [
            r#"{"value":1}"#,
            r#"{"value":1,"unit":""}"#,
            r#"{"value":1,"unit":7}"#,
        ] {
            assert_eq!(
                BenchFile::parse(&one_metric(entry)),
                Err(BenchError::Unit("m".to_string())),
                "{entry}"
            );
        }
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        for body in [
            r#"{"bench":"t","metrics":[]}"#,
            r#"{"bench":"t","metrics":3}"#,
            r#"{"bench":"t"}"#,
            r#"{"metrics":{}}"#,
            r#"{"bench":"t","kernels":[{"name":"x","serial":1}]}"#,
        ] {
            assert!(
                matches!(BenchFile::parse(body), Err(BenchError::Shape(_))),
                "{body}"
            );
        }
        assert!(matches!(
            BenchFile::parse(&one_metric("[1]")),
            Err(BenchError::Shape(_))
        ));
        assert!(matches!(BenchFile::parse("{"), Err(BenchError::Json(_))));
    }

    #[test]
    fn the_json_depth_limit_still_applies() {
        let deep = format!(
            r#"{{"bench":"t","metrics":{{"m":{}{}}}}}"#,
            "[".repeat(200),
            "]".repeat(200)
        );
        let err = BenchFile::parse(&deep).unwrap_err();
        assert!(
            matches!(&err, BenchError::Json(e) if e.contains("nesting")),
            "{err}"
        );
    }
}
