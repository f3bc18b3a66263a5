//! The one bench-record format: `harness bench-gate` reads the
//! benchmark's (`qcebench`) result line and the committed
//! `conformance/BENCH_*.json` baselines through [`BenchFile::parse`].
//!
//! ```text
//! {
//!   "bench": "release_arms",
//!   "metrics": {
//!     "tensor.conv_fwd.s0_ms": {"value":0.3925,"unit":"ms"},
//!     ...
//!   }
//! }
//! ```
//!
//! `metrics` holds one `{value, unit}` per metric name. `bench` names
//! the workload a baseline was recorded from and is optional: the
//! benchmark's last line, `{"correct","attempted","failed","metrics"}`,
//! has none. A record whose `correct` is `false` comes from a run with
//! wrong outputs and is rejected as [`BenchError::Incorrect`], so its
//! timings can never pass a gate. Every value is finite, and
//! non-negative unless its unit is `%` (a signed difference). The gate
//! checks only the metrics its baseline names, and every committed
//! baseline holds only costs (lower is better); the rest of the
//! benchmark's line (throughput, ratios, GFLOP/s) rides along ungated.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};

/// One measured value and its unit (`ms` for every committed baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The measurement; finite, and non-negative unless `unit` is `%`.
    pub value: f64,
    /// Its unit; never empty.
    pub unit: String,
}

/// A bench record: the workload it came from, and its metrics by name.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// The workload a baseline was recorded from, e.g. `release_arms`;
    /// `None` for a benchmark result line.
    pub bench: Option<String>,
    /// Every metric, keyed in name order.
    pub metrics: BTreeMap<String, Metric>,
}

/// Why a document is not a bench file.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// Not JSON, or nested deeper than the [`json`] reader accepts.
    Json(String),
    /// `bench` is not a string, `correct` is not a boolean, or
    /// `metrics` (or one metric) is not an object.
    Shape(String),
    /// The record says `"correct": false`: the run produced wrong
    /// outputs, so its timings measure nothing worth gating.
    Incorrect {
        /// Ops the run reports as failed.
        failed: u64,
        /// Ops the run attempted.
        attempted: u64,
    },
    /// The named metric's value is missing, non-finite, or negative
    /// with a unit other than `%`.
    Value(String),
    /// The named metric's unit is missing or empty.
    Unit(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Json(e) => write!(f, "bench file is not JSON: {e}"),
            BenchError::Shape(what) => write!(f, "bench file: {what}"),
            BenchError::Incorrect { failed, attempted } => write!(
                f,
                "bench record says \"correct\": false ({failed} of {attempted} ops failed): \
                 a run with wrong outputs gates nothing"
            ),
            BenchError::Value(name) => write!(
                f,
                "bench metric {name:?}: value must be a finite number, non-negative unless its unit is %"
            ),
            BenchError::Unit(name) => {
                write!(f, "bench metric {name:?}: unit must be a non-empty string")
            }
        }
    }
}

impl std::error::Error for BenchError {}

impl BenchFile {
    /// Reads a bench file or a benchmark result line, checking every
    /// metric.
    ///
    /// # Errors
    ///
    /// [`BenchError::Incorrect`] for a record whose `correct` is
    /// `false`; otherwise a [`BenchError`] naming the first malformed
    /// part.
    pub fn parse(body: &str) -> Result<Self, BenchError> {
        let doc = json::parse(body).map_err(BenchError::Json)?;
        match doc.get("correct") {
            None | Some(JsonValue::Bool(true)) => {}
            Some(JsonValue::Bool(false)) => {
                let count = |key| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
                return Err(BenchError::Incorrect {
                    failed: count("failed"),
                    attempted: count("attempted"),
                });
            }
            Some(_) => {
                return Err(BenchError::Shape(
                    "\"correct\" is not a boolean".to_string(),
                ))
            }
        }
        let bench = match doc.get("bench") {
            None => None,
            Some(JsonValue::Str(bench)) => Some(bench.clone()),
            Some(_) => return Err(BenchError::Shape("\"bench\" is not a string".to_string())),
        };
        let Some(JsonValue::Obj(entries)) = doc.get("metrics") else {
            return Err(BenchError::Shape("no \"metrics\" object".to_string()));
        };
        let mut file = BenchFile {
            bench,
            metrics: BTreeMap::new(),
        };
        for (name, entry) in entries {
            if !matches!(entry, JsonValue::Obj(_)) {
                return Err(BenchError::Shape(format!(
                    "metric {name:?} is not an object"
                )));
            }
            let unit = entry
                .get("unit")
                .and_then(JsonValue::as_str)
                .filter(|u| !u.is_empty())
                .ok_or_else(|| BenchError::Unit(name.clone()))?;
            // A `%` metric is a signed difference (the benchmark's
            // `trace.overhead_pct` is negative when its traced phase ran
            // faster); every other unit measures a non-negative amount.
            let value = entry
                .get("value")
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && (*v >= 0.0 || unit == "%"))
                .ok_or_else(|| BenchError::Value(name.clone()))?;
            file.metrics.insert(
                name.clone(),
                Metric {
                    value,
                    unit: unit.to_string(),
                },
            );
        }
        Ok(file)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the sample at
/// 1-based rank `⌈q/100 · n⌉` (clamped to `1..=n`), so every reported
/// value is a measured sample. `q` is in percent; an empty slice gives
/// 0. Every bench writer that reports a percentile uses this rule.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    // `q * n` before the division keeps whole-percent ranks exact.
    let rank = (q * n as f64 / 100.0).ceil();
    sorted[(rank as usize).clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        for q in [0.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.0], q), 7.0, "q={q}");
        }
        // n = 6: the median is the 3rd sample; p90 and p99 are the 6th.
        let six = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(percentile(&six, 0.0), 1.0);
        assert_eq!(percentile(&six, 50.0), 3.0);
        assert_eq!(percentile(&six, 90.0), 6.0);
        assert_eq!(percentile(&six, 99.0), 6.0);
        // n = 100: pX is the X-th sample.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        for q in [1.0, 7.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&hundred, q), q, "q={q}");
        }
    }

    fn one_metric(entry: &str) -> String {
        format!(r#"{{"bench":"t","metrics":{{"m":{entry}}}}}"#)
    }

    #[test]
    fn round_trip_keeps_every_bit() {
        // A committed value reads back as the f64 whose shortest
        // round-trip decimal is the committed text, so a baseline
        // re-rendered from its parse diffs clean.
        let body = r#"{
          "bench": "serve_mix",
          "metrics": {
            "op_p50_ms": {"value":79.75433699999999,"unit":"ms"},
            "op_tail_ms": {"value":0.1,"unit":"ms"},
            "zero_ms": {"value":0,"unit":"ms"}
          }
        }"#;
        let file = BenchFile::parse(body).unwrap();
        assert_eq!(file.bench.as_deref(), Some("serve_mix"));
        let values: Vec<(&str, String)> = file
            .metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.value.to_string()))
            .collect();
        assert_eq!(
            values,
            [
                ("op_p50_ms", "79.75433699999999".to_string()),
                ("op_tail_ms", "0.1".to_string()),
                ("zero_ms", "0".to_string()),
            ]
        );
        assert!(BenchFile::parse(r#"{"bench":"empty","metrics":{}}"#)
            .unwrap()
            .metrics
            .is_empty());
        // A benchmark result line names no bench.
        let line = r#"{"correct":true,"metrics":{"m":{"value":1.5,"unit":"ms"}}}"#;
        let parsed = BenchFile::parse(line).unwrap();
        assert_eq!(parsed.bench, None);
        assert_eq!(parsed.metrics["m"].value, 1.5);
    }

    #[test]
    fn non_finite_or_negative_values_are_rejected() {
        // 1e999 overflows to +inf in the reader; a NaN written through
        // `ObjWriter` renders as `null`.
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
        // A percentage is a signed difference, but still finite.
        let pct = BenchFile::parse(&one_metric(r#"{"value":-10.5,"unit":"%"}"#)).unwrap();
        assert_eq!(pct.metrics["m"].value, -10.5);
        assert_eq!(
            BenchFile::parse(&one_metric(r#"{"value":-1e999,"unit":"%"}"#)),
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
            r#"{"bench":7,"metrics":{}}"#,
            r#"{"correct":1,"metrics":{}}"#,
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
    fn an_incorrect_run_is_rejected_before_its_metrics() {
        // The metric is malformed too: wrong outputs are named first.
        let line = r#"{"correct":false,"attempted":40,"failed":2,"metrics":{"m":{"value":-1}}}"#;
        let err = BenchFile::parse(line).unwrap_err();
        assert_eq!(
            err,
            BenchError::Incorrect {
                failed: 2,
                attempted: 40
            }
        );
        assert!(err.to_string().contains("2 of 40 ops failed"), "{err}");
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
