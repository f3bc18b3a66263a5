//! Executes a [`Scenario`] through the real attack flow and flattens the
//! outcome into a [`ConformanceReport`].

use std::time::Instant;

use qce::{AttackFlow, FaultedReport, Perturbation, StageReport};

use crate::{ConformanceReport, Result, Scenario, StageMetrics, REPORT_FORMAT_VERSION};

/// Telemetry counter prefixes that are deterministic functions of the
/// scenario: decode outcomes, quantization stats, training progress,
/// and applied countermeasures. `pool.*` (thread-count dependent) and
/// `store.*` (cache-state dependent) are deliberately excluded so
/// reports gate identically at any `QCE_THREADS` and with or without a
/// warm stage cache.
pub const DETERMINISTIC_COUNTER_PREFIXES: &[&str] = &["decode.", "defense.", "quant.", "train."];

/// MAPE ceiling (percent) under which a decoded image counts as
/// *recovered* in defense-sweep stages — aligned with the
/// `mape_below_20` gate of the clean stages.
pub const RECOVERY_MAPE_CEILING: f32 = 20.0;

/// Runs `scenario` end to end and returns its report.
///
/// Telemetry is [`reset`](qce_telemetry::reset) first so the exported
/// counters describe exactly this run; callers running multiple
/// scenarios in one process get independent counter sets. Note this
/// reads the process-global metric registry, so concurrent flows in the
/// same process would interleave counters — the harness binary and the
/// conformance tests serialize scenario runs.
///
/// # Errors
///
/// [`HarnessError::Spec`](crate::HarnessError::Spec) when
/// [`Scenario::validate`] rejects the scenario; dataset synthesis or
/// flow errors, unchanged.
pub fn run_scenario(scenario: &Scenario) -> Result<ConformanceReport> {
    scenario.validate()?;
    qce_telemetry::reset();
    let start = Instant::now();
    let dataset = scenario.dataset.generate()?;
    let flow = AttackFlow::new(scenario.flow.clone());

    let arms: Vec<(String, Perturbation)> = match &scenario.fault {
        Some(plan) => vec![("faulted".to_string(), Perturbation::Fault(plan.clone()))],
        None => scenario
            .defenses
            .iter()
            .map(|(name, plan)| {
                (
                    format!("defense:{name}"),
                    Perturbation::Defense(plan.clone()),
                )
            })
            .collect(),
    };

    let (stages, digests) = if arms.is_empty() {
        let outcome = flow.run(&dataset)?;
        let mut stages = vec![stage_from_report(&outcome.pre_quant, None)];
        if let Some(post) = &outcome.post_quant {
            stages.push(stage_from_report(post, outcome.compression_ratio));
        }
        (stages, outcome.artifact_digests())
    } else {
        let mut trained = flow.train(&dataset)?;
        let pre = trained.float_report()?;
        let mut stages = vec![stage_from_report(&pre, None)];
        if let Some(qcfg) = scenario.flow.quant {
            let release = trained.quantize(qcfg)?;
            stages.push(stage_from_report(
                &release.report,
                Some(release.compression_ratio),
            ));
        }
        for (label, arm) in arms {
            let report = trained.evaluate_arm(scenario.flow.quant, &arm, label)?;
            stages.push(stage_from_faulted(&report));
        }
        (stages, trained.artifact_digests())
    };

    let counters = qce_telemetry::snapshot().counters_with_prefix(DETERMINISTIC_COUNTER_PREFIXES);
    // Observational perf telemetry: pool utilisation, allocation volume,
    // process RSS. Thread-count and machine dependent, so it rides along
    // in the JSON only (see `ConformanceReport::perf`) and never gates.
    let mut perf = qce_telemetry::snapshot().flatten_with_prefix(&["pool.", "alloc.", "proc."]);
    perf.sort_by(|a, b| a.0.cmp(&b.0));

    Ok(ConformanceReport {
        version: REPORT_FORMAT_VERSION,
        scenario: scenario.name.clone(),
        stages,
        digests,
        counters,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        perf,
    })
}

fn stage_from_report(report: &StageReport, compression_ratio: Option<f64>) -> StageMetrics {
    let mut metrics = vec![
        ("accuracy".to_string(), f64::from(report.accuracy)),
        ("images".to_string(), report.images.len() as f64),
        ("mean_mape".to_string(), f64::from(report.mean_mape())),
        ("mean_ssim".to_string(), f64::from(report.mean_ssim())),
        ("recognized".to_string(), report.recognized_count() as f64),
        (
            "mape_below_20".to_string(),
            report.count_mape_below(20.0) as f64,
        ),
        (
            "ssim_above_0_5".to_string(),
            report.count_ssim_above(0.5) as f64,
        ),
        ("wall_ms".to_string(), report.wall_ms),
    ];
    for (i, corr) in report.group_correlations.iter().enumerate() {
        metrics.push((format!("group_correlation.{i}"), f64::from(*corr)));
    }
    if let Some(ratio) = compression_ratio {
        metrics.push(("compression_ratio".to_string(), ratio));
    }
    StageMetrics::new(report.label.clone(), metrics)
}

fn stage_from_faulted(report: &FaultedReport) -> StageMetrics {
    let mut metrics = vec![
        ("accuracy".to_string(), f64::from(report.accuracy)),
        ("images".to_string(), report.images.len() as f64),
        ("ok".to_string(), report.ok_count() as f64),
        ("degraded".to_string(), report.degraded_count() as f64),
        ("failed".to_string(), report.failed_count() as f64),
        (
            "recovered".to_string(),
            report.recovered_count(RECOVERY_MAPE_CEILING) as f64,
        ),
        (
            "mean_confidence".to_string(),
            f64::from(report.mean_confidence),
        ),
    ];
    // Means over decoded chunks only exist when something decoded; the
    // exact ok/degraded/failed gates pin whether they should be present.
    if let Some(m) = report.mean_mape() {
        metrics.push(("mean_mape".to_string(), f64::from(m)));
    }
    if let Some(s) = report.mean_ssim() {
        metrics.push(("mean_ssim".to_string(), f64::from(s)));
    }
    StageMetrics::new(report.label.clone(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qce::{FaultedImage, ImageReport, ImageStatus};

    #[test]
    fn a_defended_flow_with_arms_is_rejected_before_it_runs() {
        let mut scenario = Scenario::from_json(include_str!(
            "../../../conformance/tournament/scenarios/tourney_corr_2bit.json"
        ))
        .unwrap();
        assert!(!scenario.defenses.is_empty());
        scenario.flow.defense = Some(scenario.defenses[0].1.clone());
        let err = run_scenario(&scenario).unwrap_err();
        assert!(matches!(err, crate::HarnessError::Spec { .. }), "{err}");
        assert!(err.to_string().contains("flow.defense"), "{err}");
    }

    #[test]
    fn stage_metrics_cover_the_gateable_surface() {
        let report = StageReport {
            label: "tcq 4-bit".to_string(),
            accuracy: 0.75,
            images: vec![ImageReport {
                target_index: 0,
                dataset_index: 3,
                group: 2,
                mape: 8.0,
                ssim: 0.9,
                recognized: true,
            }],
            group_correlations: vec![0.1, 0.2, 0.95],
            wall_ms: 12.0,
            metrics: Vec::new(),
        };
        let stage = stage_from_report(&report, Some(8.0));
        assert_eq!(stage.label, "tcq 4-bit");
        assert_eq!(stage.get("accuracy"), Some(0.75));
        assert_eq!(stage.get("images"), Some(1.0));
        assert_eq!(stage.get("recognized"), Some(1.0));
        assert_eq!(stage.get("mape_below_20"), Some(1.0));
        assert_eq!(stage.get("ssim_above_0_5"), Some(1.0));
        assert_eq!(stage.get("compression_ratio"), Some(8.0));
        assert!((stage.get("group_correlation.2").unwrap() - 0.95).abs() < 1e-6);
    }

    #[test]
    fn faulted_stage_omits_means_when_nothing_decoded() {
        let report = FaultedReport {
            label: "faulted".to_string(),
            accuracy: 0.25,
            images: vec![FaultedImage {
                target_index: 0,
                group: 2,
                status: ImageStatus::Failed {
                    reason: "gone".to_string(),
                },
                mape: None,
                ssim: None,
            }],
            mean_confidence: 0.1,
        };
        let stage = stage_from_faulted(&report);
        assert_eq!(stage.get("failed"), Some(1.0));
        assert_eq!(stage.get("ok"), Some(0.0));
        assert_eq!(stage.get("recovered"), Some(0.0));
        assert_eq!(stage.get("mean_mape"), None);
        assert_eq!(stage.get("mean_ssim"), None);
    }

    #[test]
    fn recovered_requires_decode_and_fidelity() {
        let image = |status, mape| FaultedImage {
            target_index: 0,
            group: 0,
            status,
            mape,
            ssim: None,
        };
        let report = FaultedReport {
            label: "defense:rotation".to_string(),
            accuracy: 0.5,
            images: vec![
                image(ImageStatus::Ok, Some(5.0)),
                image(ImageStatus::Degraded { repaired_pixels: 2 }, Some(12.0)),
                // Decoded but scrambled — a permuted-weights readout.
                image(ImageStatus::Ok, Some(80.0)),
                image(
                    ImageStatus::Failed {
                        reason: "gone".to_string(),
                    },
                    None,
                ),
            ],
            mean_confidence: 0.4,
        };
        let stage = stage_from_faulted(&report);
        assert_eq!(stage.get("recovered"), Some(2.0));
        assert_eq!(stage.get("ok"), Some(2.0));
        assert_eq!(stage.get("failed"), Some(1.0));
    }
}
