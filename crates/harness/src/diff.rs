//! Tolerance-gated comparison of a fresh [`ConformanceReport`] against a
//! golden one.
//!
//! The gate policy mirrors the workspace's determinism contract:
//! anything the pipeline promises bit-for-bit — release-state digests,
//! telemetry counters, image/decode counts — is compared **exactly**;
//! float summaries get small absolute bands so a legitimate numeric
//! change (e.g. a compiler upgrade reassociating a reduction) can be
//! absorbed by a deliberate tolerance instead of a silent re-bless;
//! wall-clock time is never gated.

use crate::{ConformanceReport, Scenario};

/// How one metric is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Values must be bit-identical (used for counts and digests).
    Exact,
    /// `|golden - fresh| <= band` passes.
    Abs(f64),
    /// Never gated (observational metrics such as `wall_ms`).
    Ignore,
}

/// One gate failure, locating the metric and explaining the miss.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Where in the report the mismatch lives, e.g.
    /// `stage "tcq 4-bit" metric "accuracy"`.
    pub location: String,
    /// Golden vs. fresh values and the band that was exceeded.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.detail)
    }
}

/// Metric-name → [`Gate`] table with longest-prefix matching.
///
/// The default table (see the README tolerance section):
///
/// | metric (prefix)        | gate        |
/// |------------------------|-------------|
/// | counts (`images`, `recognized`, `ok`, `degraded`, `failed`, `recovered`, `mape_below_20`, `ssim_above_0_5`) | exact |
/// | `accuracy`             | abs 0.02    |
/// | `mean_mape`            | abs 1.0     |
/// | `mean_ssim`            | abs 0.03    |
/// | `mean_confidence`      | abs 0.05    |
/// | `group_correlation.`   | abs 0.05    |
/// | `compression_ratio`    | abs 1e-6    |
/// | `wall_ms`              | ignored     |
/// | anything else          | abs 1e-6    |
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// `(metric name or prefix, gate)`; longest matching prefix wins.
    rules: Vec<(String, Gate)>,
    /// Gate for metrics no rule matches.
    fallback: Gate,
}

impl Default for Tolerances {
    fn default() -> Self {
        let rule = |name: &str, gate| (name.to_string(), gate);
        Tolerances {
            rules: vec![
                rule("images", Gate::Exact),
                rule("recognized", Gate::Exact),
                rule("ok", Gate::Exact),
                rule("degraded", Gate::Exact),
                rule("failed", Gate::Exact),
                rule("recovered", Gate::Exact),
                rule("mape_below_20", Gate::Exact),
                rule("ssim_above_0_5", Gate::Exact),
                rule("accuracy", Gate::Abs(0.02)),
                rule("mean_mape", Gate::Abs(1.0)),
                rule("mean_ssim", Gate::Abs(0.03)),
                rule("mean_confidence", Gate::Abs(0.05)),
                rule("group_correlation.", Gate::Abs(0.05)),
                rule("compression_ratio", Gate::Abs(1e-6)),
                rule("wall_ms", Gate::Ignore),
            ],
            fallback: Gate::Abs(1e-6),
        }
    }
}

impl Tolerances {
    /// The default table with the scenario's `"tolerances"` overrides
    /// layered on top (an override becomes an absolute band and takes
    /// precedence over any same-name default).
    #[must_use]
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let mut tol = Tolerances::default();
        for (name, band) in &scenario.tolerance_overrides {
            tol.set(name, Gate::Abs(*band));
        }
        tol
    }

    /// Installs or replaces the rule for `name` (exact name or prefix).
    pub fn set(&mut self, name: &str, gate: Gate) {
        if let Some(rule) = self.rules.iter_mut().find(|(n, _)| n == name) {
            rule.1 = gate;
        } else {
            self.rules.push((name.to_string(), gate));
        }
    }

    /// The gate for `metric`: the longest rule that equals the name or
    /// is a prefix of it, else the fallback.
    #[must_use]
    pub fn gate(&self, metric: &str) -> Gate {
        self.rules
            .iter()
            .filter(|(name, _)| metric == name || metric.starts_with(name.as_str()))
            .max_by_key(|(name, _)| name.len())
            .map_or(self.fallback, |(_, gate)| *gate)
    }
}

/// Diffs `fresh` against `golden` under `tol`, returning every gate
/// violation (empty = pass). Stage order, stage labels, metric presence,
/// digest presence, and counter presence are all part of the contract.
#[must_use]
pub fn diff_reports(
    golden: &ConformanceReport,
    fresh: &ConformanceReport,
    tol: &Tolerances,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let violation = |location: String, detail: String| Violation { location, detail };

    if golden.scenario != fresh.scenario {
        out.push(violation(
            "scenario".to_string(),
            format!("golden {:?} vs fresh {:?}", golden.scenario, fresh.scenario),
        ));
        return out;
    }

    if golden.stages.len() != fresh.stages.len() {
        out.push(violation(
            "stages".to_string(),
            format!(
                "golden has {} stages, fresh has {}",
                golden.stages.len(),
                fresh.stages.len()
            ),
        ));
    }
    for (g, f) in golden.stages.iter().zip(&fresh.stages) {
        if g.label != f.label {
            out.push(violation(
                "stage order".to_string(),
                format!("golden stage {:?} vs fresh stage {:?}", g.label, f.label),
            ));
            continue;
        }
        let loc = |metric: &str| format!("stage {:?} metric {:?}", g.label, metric);
        for (name, gv) in &g.metrics {
            let Some(fv) = f.get(name) else {
                out.push(violation(
                    loc(name),
                    "missing from fresh report".to_string(),
                ));
                continue;
            };
            match tol.gate(name) {
                Gate::Ignore => {}
                Gate::Exact => {
                    if gv.to_bits() != fv.to_bits() {
                        out.push(violation(
                            loc(name),
                            format!("golden {gv} vs fresh {fv} (exact gate)"),
                        ));
                    }
                }
                Gate::Abs(band) => {
                    // NaN deltas (a NaN metric on either side) must fail.
                    let delta = (gv - fv).abs();
                    if delta.is_nan() || delta > band {
                        out.push(violation(
                            loc(name),
                            format!("golden {gv} vs fresh {fv} (|Δ| = {delta} > {band})"),
                        ));
                    }
                }
            }
        }
        for (name, _) in &f.metrics {
            if g.get(name).is_none() {
                out.push(violation(
                    loc(name),
                    "missing from golden report".to_string(),
                ));
            }
        }
    }

    for (kind, golden_pairs, fresh_pairs) in [
        ("digest", &golden.digests, &fresh.digests),
        ("counter", &golden.counters, &fresh.counters),
    ] {
        for (name, gv) in golden_pairs {
            match fresh_pairs.iter().find(|(n, _)| n == name) {
                None => out.push(violation(
                    format!("{kind} {name:?}"),
                    "missing from fresh report".to_string(),
                )),
                Some((_, fv)) if fv != gv => out.push(violation(
                    format!("{kind} {name:?}"),
                    format!("golden {gv:#018x} vs fresh {fv:#018x}"),
                )),
                Some(_) => {}
            }
        }
        for (name, _) in fresh_pairs {
            if !golden_pairs.iter().any(|(n, _)| n == name) {
                out.push(violation(
                    format!("{kind} {name:?}"),
                    "missing from golden report".to_string(),
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConformanceReport, StageMetrics, REPORT_FORMAT_VERSION};

    fn report() -> ConformanceReport {
        ConformanceReport {
            version: REPORT_FORMAT_VERSION,
            scenario: "s".to_string(),
            stages: vec![StageMetrics::new(
                "uncompressed",
                vec![
                    ("accuracy".to_string(), 0.8),
                    ("images".to_string(), 12.0),
                    ("wall_ms".to_string(), 100.0),
                    ("group_correlation.2".to_string(), 0.91),
                ],
            )],
            digests: vec![("release.weights".to_string(), 7)],
            counters: vec![("decode.images".to_string(), 12)],
            wall_ms: 50.0,
            perf: Vec::new(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report();
        assert!(diff_reports(&r, &r, &Tolerances::default()).is_empty());
    }

    #[test]
    fn perf_telemetry_never_gates() {
        let golden = report(); // blessed before perf telemetry existed
        let mut fresh = report();
        fresh.perf = vec![
            ("alloc.peak_bytes".to_string(), 1.5e8),
            ("pool.idle_us".to_string(), 42_000.0),
        ];
        assert!(diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
        assert_eq!(golden, fresh);
    }

    #[test]
    fn drift_within_band_passes_beyond_band_fails() {
        let golden = report();
        let mut fresh = report();
        fresh.stages[0].metrics[0].1 = 0.81; // accuracy band is 0.02
        assert!(diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
        fresh.stages[0].metrics[0].1 = 0.85;
        let v = diff_reports(&golden, &fresh, &Tolerances::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("accuracy"), "{}", v[0]);
    }

    #[test]
    fn counts_are_gated_exactly() {
        let golden = report();
        let mut fresh = report();
        let images = fresh.stages[0]
            .metrics
            .iter_mut()
            .find(|(n, _)| n == "images")
            .unwrap();
        images.1 = 11.0;
        let v = diff_reports(&golden, &fresh, &Tolerances::default());
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("exact"), "{}", v[0]);
    }

    #[test]
    fn wall_ms_is_never_gated() {
        let golden = report();
        let mut fresh = report();
        fresh.wall_ms = 9999.0;
        let wall = fresh.stages[0]
            .metrics
            .iter_mut()
            .find(|(n, _)| n == "wall_ms")
            .unwrap();
        wall.1 = 1e9;
        assert!(diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn digest_and_counter_perturbations_fail() {
        let golden = report();
        let mut fresh = report();
        fresh.digests[0].1 ^= 1;
        fresh.counters[0].1 += 1;
        let v = diff_reports(&golden, &fresh, &Tolerances::default());
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn missing_and_extra_entries_fail_both_directions() {
        let golden = report();
        let mut fresh = report();
        fresh.digests.clear();
        fresh.counters.push(("quant.levels".to_string(), 16));
        fresh.stages[0].metrics.retain(|(n, _)| n != "accuracy");
        let v = diff_reports(&golden, &fresh, &Tolerances::default());
        let rendered: Vec<String> = v.iter().map(ToString::to_string).collect();
        assert_eq!(v.len(), 3, "{rendered:?}");
    }

    #[test]
    fn stage_label_and_count_mismatches_fail() {
        let golden = report();
        let mut fresh = report();
        fresh.stages[0].label = "other".to_string();
        assert!(!diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
        fresh.stages.clear();
        assert!(!diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn nan_in_either_report_fails_banded_gates() {
        let golden = report();
        let mut fresh = report();
        fresh.stages[0].metrics[0].1 = f64::NAN;
        assert!(!diff_reports(&golden, &fresh, &Tolerances::default()).is_empty());
    }

    #[test]
    fn longest_prefix_rule_wins_and_overrides_apply() {
        let mut tol = Tolerances::default();
        assert_eq!(tol.gate("group_correlation.0"), Gate::Abs(0.05));
        assert_eq!(tol.gate("unknown_metric"), Gate::Abs(1e-6));
        tol.set("group_correlation.0", Gate::Abs(0.5));
        assert_eq!(tol.gate("group_correlation.0"), Gate::Abs(0.5));
        assert_eq!(tol.gate("group_correlation.1"), Gate::Abs(0.05));
    }

    #[test]
    fn scenario_overrides_layer_over_defaults() {
        let mut scenario = crate::Scenario::from_json(include_str!(
            "../../../conformance/scenarios/quant2_weq.json"
        ))
        .unwrap();
        scenario
            .tolerance_overrides
            .push(("accuracy".to_string(), 0.5));
        let tol = Tolerances::for_scenario(&scenario);
        assert_eq!(tol.gate("accuracy"), Gate::Abs(0.5));
        assert_eq!(tol.gate("mean_mape"), Gate::Abs(1.0));
    }
}
