//! `release_arms`: closed loop, one client. Set-up trains one attack
//! network; each op releases it through one arm of a fixed roster,
//! writes the release with `qce_quant::deploy`, reads it back, decodes
//! the extracted images and scores them.
//!
//! The roster is {k-means, WEQ, TCQ} × {2, 4, 6} bits without
//! fine-tuning, plus {permute, prune, noise, requantize} applied to the
//! 4-bit TCQ release. A defended release is packed back onto the
//! release's own 4-bit codebooks (nearest level), so every arm ships the
//! same deployment format. The float state is restored between arms.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qce::{AttackFlow, FlowConfig, QuantConfig, QuantMethod, SignConvention, TrainedAttack};
use qce_attack::{DecodedImage, Decoder};
use qce_data::{Dataset, Image, SynthCifar};
use qce_defense::{DefenseContext, DefenseKind, DefensePlan, RotationMode};
use qce_nn::accuracy;
use qce_quant::deploy::{read_deployment, write_deployment};
use qce_quant::{
    quantize_network, KMeansQuantizer, QuantizedNetwork, Quantizer, TargetCorrelatedQuantizer,
    WeightedEntropyQuantizer,
};
use qce_tensor::Tensor;

use super::{timed_phases, timed_setup, Ctx, Quality, Report, DATASET_SEED};
use crate::run::{ms_since, roster_sequence, Phase};
use crate::trace;

/// Seed of the trained attack network.
const TRAIN_SEED: u64 = 101;

/// The training data: 160 synthetic CIFAR-like 16×16 RGB images in 4
/// classes, so each arm decodes and scores a release of the `small`
/// preset's model at a realistic input size.
fn train_dataset() -> Result<Dataset, String> {
    SynthCifar::new(16)
        .classes(4)
        .generate(160, DATASET_SEED)
        .map_err(|e| format!("dataset synthesis: {e}"))
}

/// The `small` preset trimmed to one training epoch.
fn train_config() -> FlowConfig {
    FlowConfig {
        seed: TRAIN_SEED,
        epochs: 1,
        quant: Some(QuantConfig {
            finetune_epochs: 1,
            ..QuantConfig::new(QuantMethod::TargetCorrelated, 4)
        }),
        ..FlowConfig::small()
    }
}

/// One countermeasure arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Defense {
    /// Compensated hidden-channel permutation.
    Permute,
    /// Magnitude pruning of 10 % per tensor.
    Prune,
    /// Gaussian noise at 10 % of each tensor's weight σ.
    Noise,
    /// Defender k-means re-quantization at 3 bits.
    Requant,
}

impl Defense {
    fn name(self) -> &'static str {
        match self {
            Defense::Permute => "permute",
            Defense::Prune => "prune",
            Defense::Noise => "noise",
            Defense::Requant => "requant",
        }
    }

    fn plan(self) -> DefensePlan {
        let kind = match self {
            Defense::Permute => DefenseKind::Rotation {
                mode: RotationMode::Permute,
            },
            Defense::Prune => DefenseKind::PruneScrub { fraction: 0.1 },
            Defense::Noise => DefenseKind::NoiseWeights { fraction: 0.1 },
            Defense::Requant => DefenseKind::Requantize { bits: 3 },
        };
        DefensePlan::new(11).with(kind)
    }
}

/// One arm of the roster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arm {
    /// A quantizer at a bit width, no fine-tuning.
    Quant(QuantMethod, u32),
    /// A countermeasure on the 4-bit TCQ release.
    Defended(Defense),
}

/// The fixed roster, in a stable order.
pub fn roster() -> Vec<Arm> {
    let mut arms = Vec::new();
    for method in [
        QuantMethod::KMeans,
        QuantMethod::WeightedEntropy,
        QuantMethod::TargetCorrelated,
    ] {
        for bits in [2, 4, 6] {
            arms.push(Arm::Quant(method, bits));
        }
    }
    for d in [
        Defense::Permute,
        Defense::Prune,
        Defense::Noise,
        Defense::Requant,
    ] {
        arms.push(Arm::Defended(d));
    }
    arms
}

fn method_name(method: QuantMethod) -> &'static str {
    match method {
        QuantMethod::KMeans => "kmeans",
        QuantMethod::WeightedEntropy => "weq",
        QuantMethod::TargetCorrelated => "tcq",
        QuantMethod::Linear => "linear",
    }
}

fn qcfg(method: QuantMethod, bits: u32) -> QuantConfig {
    QuantConfig {
        finetune_epochs: 0,
        ..QuantConfig::new(method, bits)
    }
}

/// The trained network plus what scoring needs.
struct Trained {
    attack: TrainedAttack,
    decoder: Decoder,
    test_x: Tensor,
    test_y: Vec<usize>,
}

fn train() -> Result<Trained, String> {
    // Not a `data.synth` span: that metric times the `attack_flow`
    // dataset in every workload.
    let data = train_dataset()?;
    let cfg = train_config();
    let mut machine = AttackFlow::new(cfg.clone())
        .machine(&data)
        .map_err(|e| e.to_string())?;
    for step in ["core.select", "core.train"] {
        let _s = trace::span(step);
        machine.advance().map_err(|e| e.to_string())?;
    }
    let attack = machine.into_trained().map_err(|e| e.to_string())?;
    let layout = attack.layout().ok_or("the attack has no encoding layout")?;
    let decoder = Decoder::new(layout.clone(), SignConvention::Positive);
    // The flow's own validation split.
    let (_, test) = data
        .split(cfg.train_fraction, cfg.seed)
        .map_err(|e| e.to_string())?;
    Ok(Trained {
        attack,
        decoder,
        test_x: test.to_tensor(),
        test_y: test.labels().to_vec(),
    })
}

fn quantizer(
    attack: &TrainedAttack,
    method: QuantMethod,
    bits: u32,
) -> Result<Box<dyn Quantizer>, String> {
    let levels = 1usize << bits;
    let q: Box<dyn Quantizer> = match method {
        QuantMethod::KMeans => Box::new(KMeansQuantizer::new(levels).map_err(|e| e.to_string())?),
        QuantMethod::WeightedEntropy => {
            Box::new(WeightedEntropyQuantizer::new(levels).map_err(|e| e.to_string())?)
        }
        QuantMethod::TargetCorrelated => {
            let stream: Vec<u8> = attack
                .targets()
                .iter()
                .flat_map(|img| img.pixels().iter().copied())
                .collect();
            Box::new(TargetCorrelatedQuantizer::new(levels, &stream).map_err(|e| e.to_string())?)
        }
        QuantMethod::Linear => return Err("the roster has no linear arm".to_string()),
    };
    Ok(q)
}

/// Quantizes the float network in place; returns the release handle.
fn quantize(t: &mut Trained, method: QuantMethod, bits: u32) -> Result<QuantizedNetwork, String> {
    let _s = trace::span(&format!("quant.fit.{}", method_name(method)));
    let q = quantizer(&t.attack, method, bits)?;
    t.attack.restore_float().map_err(|e| e.to_string())?;
    quantize_network(t.attack.network_mut(), q.as_ref()).map_err(|e| e.to_string())
}

/// Packs the (defended) network's weights onto `release`'s codebooks
/// and applies the packed release to the network.
fn repack(t: &mut Trained, release: &QuantizedNetwork) -> Result<QuantizedNetwork, String> {
    let flat = t.attack.network().flat_weights();
    let mut packed = release.clone();
    let slots = t.attack.network().weight_slots();
    for (q, w) in packed.slots_mut().iter_mut().zip(slots) {
        q.assignment = q.codebook.assign(&flat[w.offset..w.offset + w.len]);
    }
    packed
        .reapply(t.attack.network_mut())
        .map_err(|e| e.to_string())?;
    Ok(packed)
}

fn decode(t: &Trained) -> Result<Vec<DecodedImage>, String> {
    let _s = trace::span("attack.decode");
    t.decoder
        .decode(&t.attack.network().flat_weights())
        .map_err(|e| e.to_string())
}

fn same_images(a: &[DecodedImage], b: &[DecodedImage]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.target_index == y.target_index && x.group == y.group && x.image == y.image
        })
}

/// What one arm produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// Images decoded at MAPE ≤ 20.
    pub recovered: u64,
    /// Images encoded.
    pub encoded: u64,
    /// Validation accuracy of the release.
    pub accuracy: f64,
    /// Deployment size in bytes.
    pub release_bytes: usize,
}

/// Runs one arm; `Err` for errors and for a read-back release that
/// decodes differently from the in-memory one.
fn run_arm(t: &mut Trained, arm: Arm, op: u64) -> Result<ArmResult, String> {
    let _op = trace::op_span("op", op);
    let release = match arm {
        Arm::Quant(method, bits) => quantize(t, method, bits)?,
        Arm::Defended(defense) => {
            let release = quantize(t, QuantMethod::TargetCorrelated, 4)?;
            {
                let _s = trace::span(&format!("defense.{}", defense.name()));
                defense
                    .plan()
                    .apply(t.attack.network_mut(), &DefenseContext::empty())
                    .map_err(|e| e.to_string())?;
            }
            repack(t, &release)?
        }
    };
    let in_memory = decode(t)?;
    let mut bytes = Vec::new();
    {
        let _s = trace::span("quant.deploy_write");
        write_deployment(&release, &mut bytes).map_err(|e| e.to_string())?;
    }
    let deployed = read_back(t, &bytes, &in_memory)?;
    let acc = {
        let _s = trace::span("nn.eval");
        accuracy(t.attack.network_mut(), &t.test_x, &t.test_y, 64).map_err(|e| e.to_string())?
    };
    let recovered = {
        let _s = trace::span("metrics.score");
        score(t.attack.targets(), &deployed)
    };
    t.attack.restore_float().map_err(|e| e.to_string())?;
    Ok(ArmResult {
        recovered,
        encoded: t.attack.targets().len() as u64,
        accuracy: f64::from(acc),
        release_bytes: bytes.len(),
    })
}

/// One pass over the roster on a freshly trained network, for the layer
/// drives of every traced run; returns the 4-bit TCQ release size.
pub fn drive_once() -> Result<Vec<(String, f64)>, String> {
    let mut t = train()?;
    let mut release_bytes = 0;
    for arm in roster() {
        let r = run_arm(&mut t, arm, super::DRIVE_OP)?;
        if arm == Arm::Quant(QuantMethod::TargetCorrelated, 4) {
            release_bytes = r.release_bytes;
        }
    }
    Ok(vec![(
        "quant.release_bytes".to_string(),
        release_bytes as f64,
    )])
}

/// Reads a deployment back, applies it to the network and decodes it;
/// `Err` unless the decoded images equal `in_memory` bit for bit.
fn read_back(
    t: &mut Trained,
    bytes: &[u8],
    in_memory: &[DecodedImage],
) -> Result<Vec<DecodedImage>, String> {
    let release = {
        let _s = trace::span("quant.deploy_read");
        read_deployment(bytes).map_err(|e| e.to_string())?
    };
    t.attack.restore_float().map_err(|e| e.to_string())?;
    release
        .reapply(t.attack.network_mut())
        .map_err(|e| e.to_string())?;
    let deployed = decode(t)?;
    if same_images(&deployed, in_memory) {
        Ok(deployed)
    } else {
        Err("the read-back release decodes differently from the in-memory one".to_string())
    }
}

/// MAPE and SSIM of every decoded image; returns how many are
/// recovered (MAPE ≤ 20).
fn score(targets: &[Image], decoded: &[DecodedImage]) -> u64 {
    let mut recovered = 0;
    for d in decoded {
        let original = &targets[d.target_index];
        let mape = qce_metrics::mape(original, &d.image);
        std::hint::black_box(qce_metrics::ssim(original, &d.image));
        if mape <= super::RECOVERED_MAPE {
            recovered += 1;
        }
    }
    recovered
}

/// The bench quantizes with `qce_quant` directly so it holds the
/// deployable handle; this checks that path lands on exactly the
/// weights `TrainedAttack::apply_quantized_state` produces.
fn check_against_flow(t: &mut Trained, method: QuantMethod, bits: u32) -> Result<(), String> {
    t.attack
        .apply_quantized_state(qcfg(method, bits))
        .map_err(|e| e.to_string())?;
    let flow_weights = t.attack.network().flat_weights();
    quantize(t, method, bits)?;
    let bench_weights = t.attack.network().flat_weights();
    t.attack.restore_float().map_err(|e| e.to_string())?;
    let same = flow_weights.len() == bench_weights.len()
        && flow_weights
            .iter()
            .zip(&bench_weights)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "{method:?} {bits}-bit: bench quantization differs from apply_quantized_state"
        ))
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let arms = roster();
    let mut report = Report::default();
    let Some(mut trained) = timed_setup(ctx, &mut report, |checks| {
        let mut t = train()?;
        // One discarded warm-up of every arm, checked like the ops.
        for (i, &arm) in arms.iter().enumerate() {
            let start = Instant::now();
            let outcome = run_arm(&mut t, arm, i as u64).map(|_| ());
            checks.record(ms_since(start), outcome);
            if let Arm::Quant(method, bits) = arm {
                checks.record(0.0, check_against_flow(&mut t, method, bits));
            }
        }
        Ok(t)
    })?
    else {
        return Ok(report);
    };

    let sequence = roster_sequence(ctx.seed, arms.len(), 256);
    let mut results: BTreeMap<usize, ArmResult> = BTreeMap::new();
    let mut next_op = arms.len() as u64;
    timed_phases(ctx, &mut report, |seconds| {
        let mut phase = Phase::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        for (i, &entry) in sequence.iter().enumerate() {
            if i >= ctx.min_ops(arms.len(), crate::stats::TAIL_MIN_SAMPLES)
                && Instant::now() >= deadline
            {
                break;
            }
            let t = Instant::now();
            let outcome = run_arm(&mut trained, arms[entry], next_op);
            next_op += 1;
            let latency = ms_since(t);
            match outcome {
                Ok(result) => {
                    // Every run of an arm must reproduce its first.
                    let first = results.entry(entry).or_insert_with(|| result.clone());
                    let check = if *first == result {
                        Ok(())
                    } else {
                        Err(format!("{:?}: result changed between runs", arms[entry]))
                    };
                    phase.record(latency, check);
                }
                Err(e) => phase.fail(e),
            }
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        Ok(phase)
    })?;

    let mut quality = Quality::default();
    for r in results.values() {
        quality.recovered += r.recovered;
        quality.encoded += r.encoded;
        quality.accuracies.push(r.accuracy);
    }
    report.quality = quality;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_doctored_deployment_fails_the_op() {
        let mut t = train().unwrap();
        let release = quantize(&mut t, QuantMethod::KMeans, 4).unwrap();
        let in_memory = decode(&t).unwrap();
        let mut bytes = Vec::new();
        write_deployment(&release, &mut bytes).unwrap();
        assert!(read_back(&mut t, &bytes, &in_memory).is_ok());
        // Flip bits all over the late layers, where the attack encodes
        // its images.
        let n = bytes.len();
        for b in &mut bytes[n / 2..] {
            *b ^= 0x5a;
        }
        let mut phase = Phase::default();
        phase.record(1.0, read_back(&mut t, &bytes, &in_memory).map(|_| ()));
        assert_eq!(phase.failed, 1);
        assert_eq!(phase.fail_ratio(), 1.0);
    }

    #[test]
    fn the_roster_has_thirteen_arms() {
        let arms = roster();
        assert_eq!(arms.len(), 13);
        assert_eq!(
            arms.iter()
                .filter(|a| matches!(a, Arm::Defended(_)))
                .count(),
            4
        );
    }
}
