//! Robustness harness integration tests: fault plans on real networks,
//! resilient decoding on perturbed releases, and the flow-level faulted
//! evaluation (ISSUE archetype: survive perturbed releases).

use proptest::prelude::*;
use qce::faults::{FaultKind, FaultPlan};
use qce::{
    AttackFlow, BandRule, FlowConfig, FlowError, Grouping, Perturbation, QuantConfig, QuantMethod,
};
use qce_attack::correlation::SignConvention;
use qce_attack::{Decoder, EncodingLayout, GroupSpec};
use qce_data::{Image, SynthCifar};
use qce_defense::{DefenseKind, DefensePlan};
use qce_nn::models::ResNetLite;
use qce_nn::Network;

/// A small net plus an encoding layout over synthetic images, with the
/// weights overwritten to a perfect affine encoding of the targets — the
/// "trained to convergence" limit, without the training cost.
fn encoded_setup() -> (Network, EncodingLayout, Vec<Image>) {
    let mut net = ResNetLite::builder()
        .input(3, 8)
        .classes(4)
        .stage_channels(&[4, 8])
        .blocks_per_stage(1)
        .build(3)
        .unwrap();
    let specs = GroupSpec::uniform(net.weight_slots().len(), 5.0);
    let data = SynthCifar::new(8).classes(4).generate(64, 9).unwrap();
    let layout = EncodingLayout::plan(&net, &specs, data.images()).unwrap();
    let targets = data.images()[..layout.total_encoded_images()].to_vec();

    let mut flat = net.flat_weights();
    for g in layout.groups() {
        let mut values = g.extract(&flat);
        for (i, &p) in g.target().iter().enumerate() {
            values[i] = 0.002 * p - 0.2;
        }
        let mut acc = vec![0.0f32; flat.len()];
        g.scatter_add(&values, &mut acc);
        for &(off, len) in g.flat_ranges() {
            flat[off..off + len].copy_from_slice(&acc[off..off + len]);
        }
    }
    net.set_flat_weights(&flat).unwrap();
    (net, layout, targets)
}

fn mean_mape(decoder: &Decoder, net: &Network, targets: &[Image]) -> f32 {
    let resilient = decoder.decode_resilient(&net.flat_weights());
    assert!(!resilient.images.is_empty());
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for r in &resilient.images {
        if let Some(img) = &r.image {
            sum += qce_metrics::mape(&targets[r.target_index], img);
            n += 1;
        }
    }
    assert!(n > 0, "every rate in the ladder should decode something");
    sum / n as f32
}

#[test]
fn zero_severity_plan_preserves_decode_exactly() {
    let (mut net, layout, _targets) = encoded_setup();
    let before = net.flat_weights();
    let plan = FaultPlan::new(5)
        .with(FaultKind::BitFlip { rate: 0.01 })
        .with(FaultKind::GaussianNoise { fraction: 0.1 })
        .with(FaultKind::Prune { fraction: 0.2 })
        .scaled(0.0);
    plan.apply_to_network(&mut net).unwrap();
    // Bitwise identity, so decode ∘ encode is untouched.
    assert_eq!(net.flat_weights(), before);
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let plain = decoder.decode(&before).unwrap();
    let resilient = decoder.decode_resilient(&net.flat_weights());
    assert_eq!(resilient.images.len(), plain.len());
    assert_eq!(resilient.failed_count(), 0);
    assert_eq!(resilient.degraded_count(), 0);
    for (r, p) in resilient.images.iter().zip(&plain) {
        assert_eq!(r.image.as_ref().unwrap(), &p.image);
    }
}

#[test]
fn decode_quality_degrades_monotonically_with_bit_flip_rate() {
    let (mut net, layout, targets) = encoded_setup();
    let encoded = net.snapshot();
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let base = FaultPlan::new(41).with(FaultKind::BitFlip { rate: 0.0005 });
    let mut previous = f32::NEG_INFINITY;
    for severity in [0.0f32, 1.0, 4.0, 16.0, 64.0] {
        net.restore(&encoded).unwrap();
        base.scaled(severity).apply_to_network(&mut net).unwrap();
        let mape = mean_mape(&decoder, &net, &targets);
        // Nested flip sets make this monotone by construction; the
        // tolerance absorbs decoder-anchor quantization noise.
        assert!(
            mape >= previous - 2.0,
            "severity {severity}: mape {mape} dipped below {previous}"
        );
        previous = previous.max(mape);
    }
}

#[test]
fn fault_plans_are_deterministic_across_networks() {
    let (mut net, _layout, _targets) = encoded_setup();
    let encoded = net.snapshot();
    let plan = FaultPlan::new(77)
        .with(FaultKind::BitFlip { rate: 0.001 })
        .with(FaultKind::UniformNoise { fraction: 0.05 });
    plan.apply_to_network(&mut net).unwrap();
    let first = net.flat_weights();
    net.restore(&encoded).unwrap();
    plan.apply_to_network(&mut net).unwrap();
    assert_eq!(net.flat_weights(), first);
}

#[test]
fn flow_error_wraps_fault_error_with_source() {
    use std::error::Error;
    let fault = qce::faults::FaultError::InvalidFault {
        reason: "rate 2 exceeds 1".to_string(),
    };
    let flow: FlowError = fault.into();
    assert!(matches!(flow, FlowError::Faults(_)));
    assert!(flow.to_string().contains("fault injection"));
    assert!(flow.source().unwrap().to_string().contains("rate 2"));
}

#[test]
fn faulted_flow_evaluation_returns_partial_results() {
    let dataset = SynthCifar::new(8).classes(4).generate(240, 21).unwrap();
    let cfg = FlowConfig {
        grouping: Grouping::Uniform(5.0),
        band: BandRule::FirstN,
        quant: None,
        ..FlowConfig::tiny()
    };
    let mut trained = AttackFlow::new(cfg).train(&dataset).unwrap();
    let clean = trained.float_report().unwrap();
    let digests = trained.artifact_digests();

    let plan = FaultPlan::new(97).with(FaultKind::BitFlip { rate: 0.001 });
    let qcfg = QuantConfig::new(QuantMethod::KMeans, 4);
    let arms = [
        Perturbation::Fault(plan.clone()),
        Perturbation::Defense(
            DefensePlan::new(5).with(DefenseKind::NoiseWeights { fraction: 0.5 }),
        ),
    ];
    for arm in &arms {
        let report = trained
            .evaluate_arm(Some(qcfg), arm, "arm".to_string())
            .unwrap();
        assert_eq!(report.images.len(), clean.images.len());
        if let Perturbation::Fault(_) = arm {
            assert!(report.ok_count() + report.degraded_count() > 0);
        }
        // Every arm restores the float state afterwards.
        assert_eq!(trained.float_report().unwrap(), clean, "{arm:?}");
        assert_eq!(trained.artifact_digests(), digests, "{arm:?}");
    }

    let sweep = trained
        .robustness_sweep(Some(qcfg), &plan, &[0.0, 4.0, 16.0])
        .unwrap();
    assert_eq!(sweep.points.len(), 3);
    assert!(sweep.mape_monotone(5.0), "sweep:\n{}", sweep.summary());
    assert!(sweep.ssim_monotone(0.05), "sweep:\n{}", sweep.summary());
}

/// Applies a seeded bit-flip + noise plan at the given severity and
/// checks the resilient decoder stays coherent: one entry per planned
/// image, status agreeing with image presence, confidence in `[0, 1]`.
/// Returns a description of the first violated invariant.
fn check_resilient_decode_is_coherent(seed: u64, severity: f32) -> Result<(), String> {
    let (mut net, layout, _targets) = encoded_setup();
    let total = layout.total_encoded_images();
    FaultPlan::new(seed)
        .with(FaultKind::BitFlip { rate: 0.001 })
        .with(FaultKind::GaussianNoise { fraction: 0.01 })
        .scaled(severity)
        .apply_to_network(&mut net)
        .map_err(|e| e.to_string())?;
    let decoder = Decoder::new(layout, SignConvention::Positive);
    let resilient = decoder.decode_resilient(&net.flat_weights());
    if resilient.images.len() != total {
        return Err(format!(
            "{} images, planned {total}",
            resilient.images.len()
        ));
    }
    for r in &resilient.images {
        if r.status.is_decoded() != r.image.is_some() {
            return Err(format!(
                "image {} status disagrees with payload",
                r.target_index
            ));
        }
    }
    let conf = resilient.mean_confidence();
    if !(0.0..=1.0).contains(&conf) {
        return Err(format!("confidence {conf} outside [0, 1]"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Whatever the seed and severity, resilient decoding of a faulted
    // release never panics and reports a coherent status for every
    // planned image.
    #[test]
    fn resilient_decode_never_panics_under_faults(seed in 0u64..1000, severity in 0.0f32..50.0) {
        let outcome = check_resilient_decode_is_coherent(seed, severity);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
