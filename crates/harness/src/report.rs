//! The machine-readable result of one scenario run, plus its golden
//! persistence format.
//!
//! A [`ConformanceReport`] flattens everything gate-worthy about a run
//! into sorted `(name, value)` pairs: per-stage floats and counts,
//! content digests of the released state, and the deterministic
//! telemetry counter subset. Goldens are stored as QCES artifacts (one
//! [`CONFORMANCE_REPORT_SECTION`] section), so every golden inherits the
//! container's magic/version/CRC verification for free; a sibling
//! `.json` mirror is written at bless time purely for human diffing and
//! is never read back.

use std::path::{Path, PathBuf};

use qce_store::codec::{ByteReader, ByteWriter};
use qce_store::{peek_version, section_kind, Artifact, StoreError, FORMAT_VERSION};
use qce_telemetry::json::ObjWriter;

use crate::{HarnessError, Result};

/// Version of the report *payload* layout, independent of the QCES
/// container version. Bump on any codec change; `check` treats a golden
/// with a different value as unusable and asks for a re-bless.
pub const REPORT_FORMAT_VERSION: u16 = 1;

/// QCES section kind carrying an encoded [`ConformanceReport`]. Offset
/// well past the core crate's own downstream sections.
pub const CONFORMANCE_REPORT_SECTION: u16 = section_kind::DOWNSTREAM_BASE + 0x10;

/// Gate-worthy numbers of one evaluation stage, flattened to sorted
/// `(metric, value)` pairs.
///
/// Integral metrics (`images`, `recognized`, `ok`, `degraded`,
/// `failed`, `mape_below_20`, `ssim_above_0_5`) are stored as exact
/// small integers in the `f64`; the diff layer gates them exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage label, e.g. `"uncompressed"` or `"tcq 4-bit"`.
    pub label: String,
    /// Sorted `(metric name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

impl StageMetrics {
    /// Builds a stage from unsorted pairs, sorting by metric name so
    /// encoding and diffing are order-independent.
    #[must_use]
    pub fn new(label: impl Into<String>, mut metrics: Vec<(String, f64)>) -> Self {
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        StageMetrics {
            label: label.into(),
            metrics,
        }
    }

    /// Looks up one metric by exact name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The complete, diffable result of one scenario run.
///
/// Equality deliberately ignores the observational [`perf`] section
/// (see the manual [`PartialEq`] impl below): two reports that agree on
/// every gated number are equal even when their perf telemetry differs,
/// which is what keeps goldens stable across thread counts, SIMD tiers
/// and allocator-tracking modes.
///
/// [`perf`]: ConformanceReport::perf
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Payload layout version ([`REPORT_FORMAT_VERSION`] for reports
    /// produced by this build).
    pub version: u16,
    /// Name of the scenario that produced the report.
    pub scenario: String,
    /// Evaluation stages in run order.
    pub stages: Vec<StageMetrics>,
    /// Content digests of the released state (`release.weights`,
    /// `select.indices`, `targets.pixels`, `training.history`), gated
    /// exactly.
    pub digests: Vec<(String, u64)>,
    /// Deterministic telemetry counters (`decode.*`, `quant.*`,
    /// `train.*`), gated exactly.
    pub counters: Vec<(String, u64)>,
    /// Total run wall time in milliseconds (observational; never gated).
    pub wall_ms: f64,
    /// Observational perf telemetry (`pool.*` busy/idle, `alloc.*`
    /// bytes, `proc.*` RSS): rendered in [`to_json`] for humans and CI
    /// artifacts, but **excluded** from the golden payload, from
    /// equality and from the diff gates — the numbers are machine- and
    /// configuration-dependent by nature.
    ///
    /// [`to_json`]: ConformanceReport::to_json
    pub perf: Vec<(String, f64)>,
}

// `perf` is observational: goldens blessed without perf telemetry must
// compare equal to fresh runs that carry it.
impl PartialEq for ConformanceReport {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.scenario == other.scenario
            && self.stages == other.stages
            && self.digests == other.digests
            && self.counters == other.counters
            && self.wall_ms == other.wall_ms
    }
}

impl ConformanceReport {
    /// Encodes the report as the payload of a
    /// [`CONFORMANCE_REPORT_SECTION`] section.
    #[must_use]
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u16(REPORT_FORMAT_VERSION);
        w.put_str(&self.scenario);
        w.put_u64(self.stages.len() as u64);
        for stage in &self.stages {
            w.put_str(&stage.label);
            w.put_u64(stage.metrics.len() as u64);
            for (name, value) in &stage.metrics {
                w.put_str(name);
                w.put_f64(*value);
            }
        }
        for pairs in [&self.digests, &self.counters] {
            w.put_u64(pairs.len() as u64);
            for (name, value) in pairs {
                w.put_str(name);
                w.put_u64(*value);
            }
        }
        w.put_f64(self.wall_ms);
        w.finish()
    }

    /// Decodes a report from a section payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Payload`] on truncation or trailing bytes;
    /// [`StoreError::Format`] when the payload declares a different
    /// [`REPORT_FORMAT_VERSION`].
    pub fn from_payload(payload: &[u8]) -> qce_store::Result<ConformanceReport> {
        let mut r = ByteReader::new(payload);
        let version = r.u16()?;
        if version != REPORT_FORMAT_VERSION {
            return Err(StoreError::Format {
                reason: format!(
                    "conformance report format version {version} (this build reads \
                     {REPORT_FORMAT_VERSION})"
                ),
            });
        }
        let scenario = r.str()?;
        let stage_count = r.len_u64()?;
        let mut stages = Vec::with_capacity(stage_count.min(1024));
        for _ in 0..stage_count {
            let label = r.str()?;
            let metric_count = r.len_u64()?;
            let mut metrics = Vec::with_capacity(metric_count.min(1024));
            for _ in 0..metric_count {
                let name = r.str()?;
                let value = r.f64()?;
                metrics.push((name, value));
            }
            stages.push(StageMetrics { label, metrics });
        }
        let mut sections: [Vec<(String, u64)>; 2] = [Vec::new(), Vec::new()];
        for pairs in &mut sections {
            let count = r.len_u64()?;
            for _ in 0..count {
                let name = r.str()?;
                let value = r.u64()?;
                pairs.push((name, value));
            }
        }
        let [digests, counters] = sections;
        let wall_ms = r.f64()?;
        r.expect_empty()?;
        Ok(ConformanceReport {
            version,
            scenario,
            stages,
            digests,
            counters,
            wall_ms,
            // Never persisted: a decoded golden carries no perf section.
            perf: Vec::new(),
        })
    }

    /// Wraps the report in a single-section QCES artifact.
    #[must_use]
    pub fn to_artifact(&self) -> Artifact {
        let mut artifact = Artifact::new();
        artifact.push(CONFORMANCE_REPORT_SECTION, self.to_payload());
        artifact
    }

    /// Extracts a report from a QCES artifact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] when the section is absent,
    /// payload-decoding errors otherwise.
    pub fn from_artifact(artifact: &Artifact) -> qce_store::Result<ConformanceReport> {
        let payload = artifact.require(CONFORMANCE_REPORT_SECTION)?;
        ConformanceReport::from_payload(payload)
    }

    /// Writes the golden artifact for this report under `golden_dir`,
    /// plus a human-readable `.json` mirror next to it (the mirror is
    /// write-only: `check` never reads it).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Io`] on filesystem failures.
    pub fn write_golden(&self, golden_dir: &Path) -> Result<PathBuf> {
        let path = golden_path(golden_dir, &self.scenario);
        self.to_artifact()
            .write_file(&path)
            .map_err(HarnessError::Store)?;
        let mirror = path.with_extension("json");
        std::fs::write(&mirror, self.to_json()).map_err(|e| {
            HarnessError::io(format!("writing golden mirror {}", mirror.display()), e)
        })?;
        Ok(path)
    }

    /// Reads the golden report for `scenario` from `golden_dir`.
    ///
    /// Every shape of unusable golden — missing file, damaged container,
    /// container or payload written by a *newer* format — maps to
    /// [`HarnessError::Rebless`] with a diagnostic naming the cause, so
    /// CI failures say "re-bless", never panic.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Rebless`] for anything `harness bless` fixes;
    /// [`HarnessError::Io`] for other I/O failures.
    pub fn read_golden(golden_dir: &Path, scenario: &str) -> Result<ConformanceReport> {
        let path = golden_path(golden_dir, scenario);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(HarnessError::Rebless {
                    scenario: scenario.to_string(),
                    reason: format!("golden file {} does not exist", path.display()),
                })
            }
            Err(e) => return Err(HarnessError::io(format!("reading {}", path.display()), e)),
        };
        let artifact = Artifact::from_bytes(&bytes).map_err(|e| {
            // Distinguish "written by a newer build" from plain damage:
            // the declared container version is readable even when the
            // container itself is not.
            let reason = match peek_version(&bytes) {
                Some(v) if v != FORMAT_VERSION => format!(
                    "container format version {v} is newer than this build's {FORMAT_VERSION}"
                ),
                _ => format!("container rejected: {e}"),
            };
            HarnessError::Rebless {
                scenario: scenario.to_string(),
                reason,
            }
        })?;
        let report =
            ConformanceReport::from_artifact(&artifact).map_err(|e| HarnessError::Rebless {
                scenario: scenario.to_string(),
                reason: format!("payload rejected: {e}"),
            })?;
        if report.scenario != scenario {
            return Err(HarnessError::Rebless {
                scenario: scenario.to_string(),
                reason: format!(
                    "golden file carries report for scenario {:?}",
                    report.scenario
                ),
            });
        }
        Ok(report)
    }

    /// Renders the report as pretty-stable JSON — the `.json` golden
    /// mirror and the CI failure artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = ObjWriter::new();
        root.uint("version", u64::from(self.version))
            .str("scenario", &self.scenario);
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|stage| {
                let mut s = ObjWriter::new();
                s.str("label", &stage.label);
                let mut metrics = ObjWriter::new();
                for (name, value) in &stage.metrics {
                    metrics.num(name, *value);
                }
                s.raw("metrics", &metrics.finish());
                s.finish()
            })
            .collect();
        root.raw("stages", &format!("[{}]", stages.join(",")));
        for (key, pairs) in [("digests", &self.digests), ("counters", &self.counters)] {
            let mut obj = ObjWriter::new();
            for (name, value) in pairs {
                obj.uint(name, *value);
            }
            root.raw(key, &obj.finish());
        }
        root.num("wall_ms", self.wall_ms);
        if !self.perf.is_empty() {
            let mut obj = ObjWriter::new();
            for (name, value) in &self.perf {
                obj.num(name, *value);
            }
            root.raw("perf", &obj.finish());
        }
        root.finish()
    }
}

/// Golden artifact path for `scenario` under `golden_dir`
/// (`<dir>/<scenario>.qces`).
#[must_use]
pub fn golden_path(golden_dir: &Path, scenario: &str) -> PathBuf {
    golden_dir.join(format!("{scenario}.qces"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ConformanceReport {
        ConformanceReport {
            version: REPORT_FORMAT_VERSION,
            scenario: "quant4_tcq".to_string(),
            stages: vec![
                StageMetrics::new(
                    "uncompressed",
                    vec![
                        ("images".to_string(), 12.0),
                        ("accuracy".to_string(), 0.8125),
                    ],
                ),
                StageMetrics::new("tcq 4-bit", vec![("mean_mape".to_string(), 7.25)]),
            ],
            digests: vec![
                ("release.weights".to_string(), 0xdead_beef_dead_beef),
                ("select.indices".to_string(), 42),
            ],
            counters: vec![("decode.images".to_string(), 12)],
            wall_ms: 1234.5,
            perf: vec![("pool.busy_us".to_string(), 9000.0)],
        }
    }

    #[test]
    fn stage_metrics_sort_on_construction() {
        let s = StageMetrics::new("s", vec![("b".to_string(), 2.0), ("a".to_string(), 1.0)]);
        assert_eq!(s.metrics[0].0, "a");
        assert_eq!(s.get("b"), Some(2.0));
        assert_eq!(s.get("missing"), None);
    }

    #[test]
    fn payload_round_trip_is_exact() {
        let r = report();
        let back = ConformanceReport::from_payload(&r.to_payload()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn artifact_round_trip_through_bytes() {
        let r = report();
        let bytes = r.to_artifact().to_bytes();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(ConformanceReport::from_artifact(&artifact).unwrap(), r);
    }

    #[test]
    fn perf_is_observational_only() {
        let r = report();
        // Not persisted: round-tripping drops the section...
        let back = ConformanceReport::from_payload(&r.to_payload()).unwrap();
        assert!(back.perf.is_empty());
        // ...and does not participate in equality (golden vs fresh).
        assert_eq!(back, r);
        // But humans see it in the JSON mirror.
        let json = r.to_json();
        assert!(json.contains("\"perf\""), "{json}");
        assert!(json.contains("pool.busy_us"), "{json}");
        // And a perf-free report stays quiet rather than writing "perf":{}.
        assert!(!back.to_json().contains("\"perf\""));
    }

    #[test]
    fn newer_payload_version_is_rejected_with_version_message() {
        let mut payload = report().to_payload();
        let newer = REPORT_FORMAT_VERSION + 1;
        payload[0..2].copy_from_slice(&newer.to_le_bytes());
        let err = ConformanceReport::from_payload(&payload).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let payload = report().to_payload();
        for cut in [0, 1, 5, payload.len() / 2, payload.len() - 1] {
            assert!(ConformanceReport::from_payload(&payload[..cut]).is_err());
        }
        let mut extended = payload;
        extended.push(0);
        assert!(ConformanceReport::from_payload(&extended).is_err());
    }

    #[test]
    fn golden_round_trip_and_mirror() {
        let dir = tempdir("golden_round_trip");
        let r = report();
        let path = r.write_golden(&dir).unwrap();
        assert_eq!(path, golden_path(&dir, "quant4_tcq"));
        let back = ConformanceReport::read_golden(&dir, "quant4_tcq").unwrap();
        assert_eq!(back, r);
        let mirror = std::fs::read_to_string(path.with_extension("json")).unwrap();
        assert!(mirror.contains("\"scenario\":\"quant4_tcq\""));
        // The mirror parses as JSON.
        qce_telemetry::json::parse(&mirror).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_golden_asks_for_bless() {
        let dir = tempdir("golden_missing");
        let err = ConformanceReport::read_golden(&dir, "nope").unwrap_err();
        assert!(matches!(err, HarnessError::Rebless { .. }), "{err}");
        assert!(err.to_string().contains("bless"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_scenario_name_in_golden_asks_for_bless() {
        let dir = tempdir("golden_wrong_name");
        let r = report();
        r.to_artifact()
            .write_file(golden_path(&dir, "other"))
            .unwrap();
        let err = ConformanceReport::read_golden(&dir, "other").unwrap_err();
        assert!(err.to_string().contains("quant4_tcq"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qce_harness_report_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
