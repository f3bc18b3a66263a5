use qce_attack::correlation::{correlation, SignConvention};
use qce_attack::statsign::{StatSignDecoder, StatSignLayout, StatSignRegularizer};
use qce_attack::{CorrelationRegularizer, DecodedImage, Decoder, EncodingLayout};
use qce_data::{Dataset, Image};
use qce_defense::{DefenseContext, DefensePlan};
use qce_metrics::{mape, ssim};
use qce_nn::{accuracy, Network, NetworkSnapshot, Regularizer, TrainingHistory};
use qce_quant::{
    finetune, quantize_network, FinetuneConfig, KMeansQuantizer, LinearQuantizer, Quantizer,
    TargetCorrelatedQuantizer, WeightedEntropyQuantizer,
};
use qce_store::StageCache;
use qce_telemetry::{RunManifest, StageStat};
use qce_tensor::Tensor;
use std::time::Instant;

use crate::faults::FaultPlan;
use crate::step::FlowMachine;
use crate::{
    EncodingChannel, FaultedImage, FaultedReport, FlowConfig, FlowError, ImageReport, QuantConfig,
    QuantMethod, Result, RobustnessPoint, RobustnessReport, StageReport,
};

/// The end-to-end quantized correlation encoding attack flow (Fig. 1 of
/// the paper).
///
/// [`AttackFlow::run`] executes everything in one call; for experiments
/// that evaluate one trained model under several quantizers (Tables I and
/// III sweep bit widths), [`AttackFlow::train`] returns a
/// [`TrainedAttack`] whose float state can be re-quantized repeatedly
/// without retraining.
///
/// # Checkpoint/resume
///
/// With a stage cache attached — explicitly via
/// [`AttackFlow::with_cache`], or via the `QCE_CACHE` environment
/// variable — every completed stage (select, train, quantize, each
/// evaluation, defend) is written to disk as a CRC-guarded
/// [`Artifact`](qce_store::Artifact), and re-runs with the same
/// configuration, seed and dataset load those checkpoints instead of
/// recomputing. Because each stage is deterministic, a resumed run is
/// bit-for-bit identical to a cold one; a corrupted or truncated
/// checkpoint (e.g. from a killed run) is detected by its checksums and
/// silently recomputed.
#[derive(Debug, Clone)]
pub struct AttackFlow {
    config: FlowConfig,
    cache: Option<StageCache>,
}

/// A trained (but not yet released) attack model: the float network, its
/// encoding plan, the held-out validation split, and everything needed to
/// quantize and evaluate it repeatedly.
pub struct TrainedAttack {
    pub(crate) config: FlowConfig,
    pub(crate) network: Network,
    pub(crate) float_state: NetworkSnapshot,
    pub(crate) layout: Option<EncodingLayout>,
    pub(crate) statsign: Option<StatSignLayout>,
    pub(crate) selection_indices: Vec<usize>,
    pub(crate) targets: Vec<Image>,
    pub(crate) target_labels: Vec<usize>,
    pub(crate) training: TrainingHistory,
    pub(crate) train_x: Tensor,
    pub(crate) train_y: Vec<usize>,
    pub(crate) test_x: Tensor,
    pub(crate) test_y: Vec<usize>,
    pub(crate) stage_stats: Vec<StageStat>,
}

impl std::fmt::Debug for TrainedAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedAttack")
            .field("targets", &self.targets.len())
            .field("weights", &self.network.num_weights())
            .finish()
    }
}

/// A quantized release produced by [`TrainedAttack::quantize`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRelease {
    /// Evaluation of the quantized model.
    pub report: StageReport,
    /// Weight-payload compression ratio vs. float32.
    pub compression_ratio: f64,
}

/// One perturbation arm of a release probe: what
/// [`TrainedAttack::evaluate_arm`] does to the would-be release before
/// measuring it.
#[derive(Debug, Clone, PartialEq)]
pub enum Perturbation {
    /// An accidental fault (bit rot, noise, pruning, …), applied to the
    /// packed index stream of a quantized release or to the float
    /// weights otherwise.
    Fault(FaultPlan),
    /// A data holder's countermeasure, applied to the released weights.
    Defense(DefensePlan),
}

/// Everything a full flow run produces.
#[derive(Debug)]
pub struct FlowOutcome {
    /// The released (possibly quantized) network.
    pub network: Network,
    /// The encoding plan (`None` for benign runs).
    pub layout: Option<EncodingLayout>,
    /// Indices of the encoded images in the *training split*.
    pub selection_indices: Vec<usize>,
    /// The original target images, in encoding order.
    pub targets: Vec<Image>,
    /// Labels of the target images.
    pub target_labels: Vec<usize>,
    /// Evaluation of the float model before quantization.
    pub pre_quant: StageReport,
    /// Evaluation after quantization + fine-tuning (`None` if the config
    /// skipped quantization).
    pub post_quant: Option<StageReport>,
    /// Evaluation after the data holder's countermeasures (`None` if the
    /// config carried no [`DefensePlan`]). When present, `network` is the
    /// *defended* release — the state this report measured.
    pub post_defense: Option<FaultedReport>,
    /// Training history of the main training phase.
    pub training: TrainingHistory,
    /// Weight-payload compression ratio vs. float32 (`None` without
    /// quantization).
    pub compression_ratio: Option<f64>,
    /// Observational run manifest: config hash, seed, thread count and
    /// per-stage wall times / key metrics. Also published to the
    /// telemetry sinks (and, with `QCE_TRACE`, a sibling
    /// `*.manifest.json` file) by [`AttackFlow::run`].
    pub manifest: RunManifest,
}

impl FlowOutcome {
    /// The report for the model that actually gets released: quantized if
    /// quantization ran, float otherwise.
    pub fn final_report(&self) -> &StageReport {
        self.post_quant.as_ref().unwrap_or(&self.pre_quant)
    }

    /// Content digests of the run's released state, in deterministic
    /// order — the exact-match side of conformance gating (see
    /// `qce-harness`). `release.weights` fingerprints the released
    /// network bit-for-bit; `select.indices` and `targets.pixels` pin
    /// the data-selection stage; `training.history` pins the loss
    /// trajectory.
    pub fn artifact_digests(&self) -> Vec<(String, u64)> {
        stage_digests(
            &self.network,
            &self.selection_indices,
            &self.targets,
            &self.training,
        )
    }
}

/// Shared digest derivation for [`FlowOutcome`] and [`TrainedAttack`]:
/// the network is fingerprinted in whatever state the caller holds it
/// (released/quantized for outcomes, current state for trained attacks).
fn stage_digests(
    network: &Network,
    selection_indices: &[usize],
    targets: &[Image],
    training: &TrainingHistory,
) -> Vec<(String, u64)> {
    let mut targets_digest = qce_store::Digester::new();
    for img in targets {
        targets_digest = targets_digest.bytes(img.pixels());
    }
    vec![
        (
            "release.weights".to_string(),
            qce_store::digest_f32s(&network.flat_weights()),
        ),
        (
            "select.indices".to_string(),
            qce_store::digest_indices(selection_indices),
        ),
        ("targets.pixels".to_string(), targets_digest.finish()),
        (
            "training.history".to_string(),
            qce_store::Digester::new()
                .f32s(&training.epoch_losses)
                .f32s(&training.epoch_penalties)
                .u64(training.rollbacks as u64)
                .finish(),
        ),
    ]
}

impl AttackFlow {
    /// Creates a flow with the given configuration.
    pub fn new(config: FlowConfig) -> Self {
        AttackFlow {
            config,
            cache: None,
        }
    }

    /// Attaches a stage cache explicitly, overriding the `QCE_CACHE`
    /// environment variable. Prefer this in tests and library callers —
    /// unlike the env var it is scoped to the one flow instead of the
    /// whole process.
    #[must_use]
    pub fn with_cache(mut self, cache: StageCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The cache this flow will use: the explicit override if set,
    /// otherwise whatever `QCE_CACHE` names, otherwise `None`.
    fn resolve_cache(&self) -> Option<StageCache> {
        self.cache.clone().or_else(StageCache::from_env)
    }

    /// The flow's configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Builds the flow as a resumable [`FlowMachine`] over a copy of
    /// `dataset` — the scheduler-facing entry point: the machine can be
    /// queued, moved to a worker thread and advanced one
    /// [`StageStep`](crate::StageStep) at a time, with every completed
    /// step checkpointed through the attached cache. Driving it to
    /// completion is bit-for-bit identical to [`AttackFlow::run`], which
    /// is implemented as exactly that loop.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidConfig`] for configuration or dataset
    /// problems (caught up front, before any stage runs).
    pub fn machine(&self, dataset: &Dataset) -> Result<FlowMachine> {
        FlowMachine::new(self.config.clone(), self.resolve_cache(), dataset.clone())
    }

    /// Runs the full pipeline on `dataset` (training, optional
    /// quantization from the config, evaluation of every released stage).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] describing the first failing stage.
    pub fn run(&self, dataset: &Dataset) -> Result<FlowOutcome> {
        // Push buffered trace events to disk even when a stage errors
        // out early — aborted runs must leave an analyzable prefix.
        let _flush = qce_telemetry::FlushGuard::new();
        let mut machine = self.machine(dataset)?;
        while !machine.is_done() {
            machine.advance()?;
        }
        machine.into_outcome()
    }

    /// Runs the data-preprocessing and training stages only, returning a
    /// [`TrainedAttack`] that can be evaluated and quantized repeatedly
    /// (the config's own `quant` field is ignored here).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] describing the first failing stage;
    /// configuration problems are caught up front by
    /// [`FlowConfig::validate`].
    pub fn train(&self, dataset: &Dataset) -> Result<TrainedAttack> {
        let _flush = qce_telemetry::FlushGuard::new();
        let mut machine = self.machine(dataset)?;
        machine.advance()?; // select
        machine.advance()?; // train
        machine.into_trained()
    }
}

impl TrainedAttack {
    /// The network in its current state.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network (e.g. for applying baseline attacks
    /// or external quantizers to the released weights).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Consumes the trained attack and returns the network in its current
    /// state.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// The encoding plan (`None` for benign runs).
    pub fn layout(&self) -> Option<&EncodingLayout> {
        self.layout.as_ref()
    }

    /// The statsign channel plan (`None` unless the flow trained with
    /// [`EncodingChannel::StatSign`]). Exposes the payload geometry and
    /// [`StatSignLayout::payload_ber`] for defense/robustness studies.
    pub fn statsign_layout(&self) -> Option<&StatSignLayout> {
        self.statsign.as_ref()
    }

    /// The original target images, in encoding order.
    pub fn targets(&self) -> &[Image] {
        &self.targets
    }

    /// Training history of the main phase.
    pub fn training(&self) -> &TrainingHistory {
        &self.training
    }

    /// Observational per-stage wall times and key metrics accumulated so
    /// far (select/train at construction, one entry per quantization).
    pub fn stage_stats(&self) -> &[StageStat] {
        &self.stage_stats
    }

    /// Content digests of the attack's *current* state (same entries as
    /// [`FlowOutcome::artifact_digests`]): the network in whatever state
    /// it is in right now — float after [`AttackFlow::train`], quantized
    /// after [`TrainedAttack::apply_quantized_state`].
    pub fn artifact_digests(&self) -> Vec<(String, u64)> {
        stage_digests(
            &self.network,
            &self.selection_indices,
            &self.targets,
            &self.training,
        )
    }

    /// Evaluates the float (uncompressed) model.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn float_report(&mut self) -> Result<StageReport> {
        self.restore_float()?;
        self.evaluate("uncompressed".to_string())
    }

    /// Quantizes a *copy* of the float model with `qcfg` (including
    /// fine-tuning per the config) and evaluates it; the float state is
    /// restored afterwards so `quantize` can be called repeatedly with
    /// different settings.
    ///
    /// # Errors
    ///
    /// Propagates quantization, fine-tuning or evaluation errors.
    pub fn quantize(&mut self, qcfg: QuantConfig) -> Result<QuantizedRelease> {
        self.restore_float()?;
        let ratio = self.quantize_in_place(qcfg)?.compression_ratio();
        let label = format!("{:?} {}-bit", qcfg.method, qcfg.bits);
        let report = self.evaluate(label)?;
        self.restore_float()?;
        Ok(QuantizedRelease {
            report,
            compression_ratio: ratio,
        })
    }

    /// Re-applies a quantization and *leaves* the network in that state —
    /// for callers that want to inspect the quantized weights directly
    /// (e.g. to decode Fig. 5 image strips). Returns the compression
    /// ratio. Call [`TrainedAttack::restore_float`] to undo.
    ///
    /// # Errors
    ///
    /// Propagates quantization errors.
    pub fn apply_quantized_state(&mut self, qcfg: QuantConfig) -> Result<f64> {
        self.restore_float()?;
        Ok(self.quantize_in_place(qcfg)?.compression_ratio())
    }

    /// Restores the network to its float (post-training) state.
    ///
    /// # Errors
    ///
    /// Returns an error only if the snapshot no longer matches (cannot
    /// happen through this type's public API).
    pub fn restore_float(&mut self) -> Result<()> {
        let state = self.float_state.clone();
        self.network.restore(&state)?;
        Ok(())
    }

    /// Quantizes (and fine-tunes, per `qcfg`) the network's current
    /// state in place, records the quantize stage, and returns the
    /// quantized handle the compression ratio and release come from.
    pub(crate) fn quantize_in_place(
        &mut self,
        qcfg: QuantConfig,
    ) -> Result<qce_quant::QuantizedNetwork> {
        let t_quant = Instant::now();
        let a_quant = alloc_mark();
        let quant_span = qce_telemetry::span!("flow.quantize", bits = qcfg.bits);
        let levels = 1usize << qcfg.bits;
        let quantizer: Box<dyn Quantizer> = match qcfg.method {
            QuantMethod::Linear => Box::new(LinearQuantizer::new(levels)?),
            QuantMethod::KMeans => Box::new(KMeansQuantizer::new(levels)?),
            QuantMethod::WeightedEntropy => Box::new(WeightedEntropyQuantizer::new(levels)?),
            QuantMethod::TargetCorrelated => {
                let stream: Vec<u8> = self
                    .targets
                    .iter()
                    .flat_map(|img| img.pixels().iter().copied())
                    .collect();
                if stream.is_empty() {
                    return Err(FlowError::InvalidConfig {
                        reason: "target-correlated quantization needs an attack run".to_string(),
                    });
                }
                Box::new(TargetCorrelatedQuantizer::new(levels, &stream)?)
            }
        };
        let mut qnet = quantize_network(&mut self.network, quantizer.as_ref())?;
        if qcfg.finetune_epochs > 0 {
            let ft = FinetuneConfig {
                epochs: qcfg.finetune_epochs,
                batch_size: self.config.batch_size,
                lr: qcfg.finetune_lr,
                momentum: 0.9,
                shuffle_seed: self.config.seed.wrapping_add(4),
            };
            let mut corr_reg: Option<CorrelationRegularizer> = None;
            let mut stat_reg: Option<StatSignRegularizer> = None;
            if qcfg.regularize_finetune {
                match self.config.channel {
                    EncodingChannel::Correlation => {
                        corr_reg = self
                            .layout
                            .clone()
                            .map(|l| CorrelationRegularizer::new(l, self.config.sign));
                    }
                    EncodingChannel::StatSign { lambda } => {
                        if let Some(l) = &self.statsign {
                            stat_reg = Some(StatSignRegularizer::new(l, lambda)?);
                        }
                    }
                }
            }
            let reg: Option<&mut dyn Regularizer> = match (corr_reg.as_mut(), stat_reg.as_mut()) {
                (Some(r), _) => Some(r),
                (None, Some(r)) => Some(r),
                (None, None) => None,
            };
            finetune(
                &mut self.network,
                &mut qnet,
                &self.train_x,
                &self.train_y,
                &ft,
                reg,
            )?;
        }
        drop(quant_span);
        let mut metrics = qce_telemetry::snapshot().flatten_with_prefix(&["quant."]);
        metrics.push((
            "quant.compression_ratio".to_string(),
            qnet.compression_ratio(),
        ));
        push_alloc_metrics(&mut metrics, a_quant);
        self.stage_stats.push(StageStat {
            name: format!("flow.quantize:{:?} {}-bit", qcfg.method, qcfg.bits),
            wall_ms: t_quant.elapsed().as_secs_f64() * 1e3,
            metrics,
        });
        Ok(qnet)
    }

    /// Evaluates one perturbation arm of a would-be release: restores
    /// the float state, quantizes with `qcfg` when given, applies `arm`,
    /// and measures task accuracy plus resilient extraction quality.
    ///
    /// A [`Perturbation::Fault`] hits the packed index stream of a
    /// quantized release and the float weights otherwise. A
    /// [`Perturbation::Defense`] goes through
    /// [`TrainedAttack::defend_in_place`], so it records the defend
    /// stage. The float state is restored before returning, on success
    /// and on error, so one trained model serves any number of arms.
    ///
    /// # Errors
    ///
    /// Propagates quantization, perturbation or evaluation errors.
    pub fn evaluate_arm(
        &mut self,
        qcfg: Option<QuantConfig>,
        arm: &Perturbation,
        label: String,
    ) -> Result<FaultedReport> {
        let result = self.restore_float().and_then(|()| {
            let mut qnet = match qcfg {
                Some(qcfg) => Some(self.quantize_in_place(qcfg)?),
                None => None,
            };
            match arm {
                Perturbation::Fault(plan) => {
                    match qnet.as_mut() {
                        Some(qnet) => plan.apply_to_quantized(qnet, &mut self.network)?,
                        None => plan.apply_to_network(&mut self.network)?,
                    }
                    self.resilient_report(label)
                }
                Perturbation::Defense(plan) => self.defend_in_place(plan, label),
            }
        });
        self.restore_float()?;
        result
    }

    /// Resiliently decodes the network's *current* weights through
    /// whichever channel the run encoded (`None` for benign runs).
    fn decode_release_resilient(&self) -> Result<Option<qce_attack::ResilientDecode>> {
        let flat = self.network.flat_weights();
        if let Some(layout) = &self.statsign {
            let decoded = StatSignDecoder::new(layout.clone()).decode_resilient(&flat)?;
            return Ok(Some(decoded));
        }
        if let Some(layout) = &self.layout {
            let decoder = Decoder::new(layout.clone(), self.config.sign);
            return Ok(Some(decoder.decode_resilient(&flat)));
        }
        Ok(None)
    }

    /// Measures the network's current state as a [`FaultedReport`]: task
    /// accuracy plus per-image resilient-decode status and quality.
    fn resilient_report(&mut self, label: String) -> Result<FaultedReport> {
        let acc = accuracy(&mut self.network, &self.test_x, &self.test_y, 64)?;
        let mut images = Vec::new();
        let mut mean_confidence = 0.0;
        if let Some(resilient) = self.decode_release_resilient()? {
            mean_confidence = resilient.mean_confidence();
            for r in &resilient.images {
                let (mape_v, ssim_v) = match &r.image {
                    Some(img) => {
                        let original = &self.targets[r.target_index];
                        (Some(mape(original, img)), Some(ssim(original, img)))
                    }
                    None => (None, None),
                };
                images.push(FaultedImage {
                    target_index: r.target_index,
                    group: r.group,
                    status: r.status.clone(),
                    mape: mape_v,
                    ssim: ssim_v,
                });
            }
        }
        Ok(FaultedReport {
            label,
            accuracy: acc,
            images,
            mean_confidence,
        })
    }

    /// Applies `plan` to the network's *current* (released) state and
    /// evaluates the defended release. Leaves the network defended — this
    /// is the data holder's release path, not a what-if probe; use
    /// [`TrainedAttack::evaluate_arm`] for repeatable sweeps.
    ///
    /// # Errors
    ///
    /// Propagates defense-application or evaluation errors.
    pub fn defend_in_place(&mut self, plan: &DefensePlan, label: String) -> Result<FaultedReport> {
        let t_defend = Instant::now();
        let a_defend = alloc_mark();
        let defend_span = qce_telemetry::span!("flow.defend", seed = plan.seed());
        let ctx = DefenseContext::with_data(&self.train_x, &self.train_y, self.config.batch_size);
        plan.apply(&mut self.network, &ctx)?;
        drop(defend_span);
        let report = self.resilient_report(label)?;
        let mut metrics = qce_telemetry::snapshot().flatten_with_prefix(&["defense.", "decode."]);
        metrics.push(("defense.accuracy".to_string(), f64::from(report.accuracy)));
        metrics.push(("defense.images_ok".to_string(), report.ok_count() as f64));
        metrics.push((
            "defense.images_failed".to_string(),
            report.failed_count() as f64,
        ));
        push_alloc_metrics(&mut metrics, a_defend);
        self.stage_stats.push(StageStat {
            name: format!("flow.defend:{}", report.label),
            wall_ms: t_defend.elapsed().as_secs_f64() * 1e3,
            metrics,
        });
        Ok(report)
    }

    /// Sweeps `plan` over severity factors (each point evaluates
    /// [`TrainedAttack::evaluate_arm`] on `plan.scaled(severity)`) —
    /// the raw material of the robustness tables. Pass severities in
    /// ascending order if you intend to check monotonicity.
    ///
    /// # Errors
    ///
    /// Propagates the first failing evaluation.
    pub fn robustness_sweep(
        &mut self,
        qcfg: Option<QuantConfig>,
        plan: &FaultPlan,
        severities: &[f32],
    ) -> Result<RobustnessReport> {
        let mut points = Vec::with_capacity(severities.len());
        for &severity in severities {
            let arm = Perturbation::Fault(plan.scaled(severity));
            let rep = self.evaluate_arm(qcfg, &arm, format!("severity {severity}"))?;
            points.push(RobustnessPoint {
                severity,
                accuracy: rep.accuracy,
                mean_mape: rep.mean_mape(),
                mean_ssim: rep.mean_ssim(),
                decoded: rep.ok_count(),
                degraded: rep.degraded_count(),
                failed: rep.failed_count(),
                mean_confidence: rep.mean_confidence,
            });
        }
        Ok(RobustnessReport {
            label: format!("plan seed {}", plan.seed()),
            points,
        })
    }

    /// Evaluates the network in its *current* state (float or quantized):
    /// validation accuracy plus, for attack runs, extraction quality.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn evaluate(&mut self, label: String) -> Result<StageReport> {
        let t_eval = Instant::now();
        let a_eval = alloc_mark();
        let _span = qce_telemetry::span!("flow.evaluate", label = label.as_str());
        let acc = accuracy(&mut self.network, &self.test_x, &self.test_y, 64)?;
        let mut images = Vec::new();
        let mut group_correlations = Vec::new();
        let mut decoded: Vec<DecodedImage> = Vec::new();
        let mut geometry = None;

        if let Some(layout) = &self.layout {
            let flat = self.network.flat_weights();
            for g in layout.groups() {
                let rho = if g.target().is_empty() {
                    0.0
                } else {
                    let stream = g.extract(&flat);
                    let n = g.target().len().min(stream.len());
                    correlation(&stream[..n], &g.target()[..n])
                };
                group_correlations.push(rho);
            }

            let decoder = Decoder::new(layout.clone(), self.config.sign);
            for gi in 0..layout.groups().len() {
                match self.config.sign {
                    SignConvention::Positive => {
                        decoded.extend(decoder.decode_group(&flat, gi, false)?);
                    }
                    SignConvention::Absolute => {
                        // Resolve polarity per group by reconstruction error.
                        let straight = decoder.decode_group(&flat, gi, false)?;
                        let flipped = decoder.decode_group(&flat, gi, true)?;
                        let err = |set: &[qce_attack::DecodedImage]| -> f32 {
                            set.iter()
                                .map(|d| mape(&self.targets[d.target_index], &d.image))
                                .sum::<f32>()
                                .max(0.0)
                        };
                        decoded.extend(if err(&straight) <= err(&flipped) {
                            straight
                        } else {
                            flipped
                        });
                    }
                }
            }
            geometry = Some(layout.geometry());
        } else if let Some(layout) = &self.statsign {
            // The hardened channel has no per-group correlation statistic;
            // its strict view is the resilient decode minus the failures.
            let resilient = StatSignDecoder::new(layout.clone())
                .decode_resilient(&self.network.flat_weights())?;
            decoded.extend(resilient.images.into_iter().filter_map(|r| {
                r.image.map(|image| DecodedImage {
                    image,
                    group: r.group,
                    target_index: r.target_index,
                })
            }));
            geometry = Some(layout.geometry());
        }

        // Batch-classify the decoded images with the released model.
        let recognized_flags = match geometry {
            Some((c, h, w)) if !decoded.is_empty() => {
                let mut flags = Vec::with_capacity(decoded.len());
                for chunk in decoded.chunks(64) {
                    let mut data = Vec::with_capacity(chunk.len() * c * h * w);
                    for d in chunk {
                        data.extend(d.image.to_f32_normalized());
                    }
                    let batch = Tensor::from_vec(data, &[chunk.len(), c, h, w])
                        .map_err(|e| FlowError::Nn(qce_nn::NnError::tensor("decode batch", e)))?;
                    let preds = self.network.predict(&batch)?;
                    for (d, p) in chunk.iter().zip(preds) {
                        flags.push(p == self.target_labels[d.target_index]);
                    }
                }
                flags
            }
            _ => Vec::new(),
        };

        for (d, recognized) in decoded.iter().zip(recognized_flags) {
            let original = &self.targets[d.target_index];
            images.push(ImageReport {
                target_index: d.target_index,
                dataset_index: self.selection_indices[d.target_index],
                group: d.group,
                mape: mape(original, &d.image),
                ssim: ssim(original, &d.image),
                recognized,
            });
        }

        let mut metrics = Vec::new();
        metrics.push(("eval.accuracy".to_string(), f64::from(acc)));
        metrics.push(("eval.images".to_string(), images.len() as f64));
        metrics.extend(qce_telemetry::snapshot().flatten_with_prefix(&["decode."]));
        push_alloc_metrics(&mut metrics, a_eval);
        Ok(StageReport {
            label,
            accuracy: acc,
            images,
            group_correlations,
            wall_ms: t_eval.elapsed().as_secs_f64() * 1e3,
            metrics,
        })
    }

    /// Decodes the currently-released weights into images (the raw
    /// adversary view, without evaluation against originals).
    ///
    /// # Errors
    ///
    /// Propagates decoding errors; returns an empty vector for benign
    /// runs.
    pub fn decode_images(&self) -> Result<Vec<qce_attack::DecodedImage>> {
        if self.statsign.is_some() {
            let decoded = self.decode_release_resilient()?.expect("statsign layout");
            return Ok(decoded
                .images
                .into_iter()
                .filter_map(|r| {
                    r.image.map(|image| DecodedImage {
                        image,
                        group: r.group,
                        target_index: r.target_index,
                    })
                })
                .collect());
        }
        let Some(layout) = &self.layout else {
            return Ok(Vec::new());
        };
        let decoder = Decoder::new(layout.clone(), self.config.sign);
        Ok(decoder.decode(&self.network.flat_weights())?)
    }
}

/// Allocation counters at stage entry, or `None` when `QCE_ALLOC` is
/// off — the stage then pays nothing for byte accounting.
pub(crate) fn alloc_mark() -> Option<qce_telemetry::alloc::AllocStats> {
    qce_telemetry::alloc::tracking_enabled().then(qce_telemetry::alloc::stats)
}

/// Appends the stage's allocation delta (bytes and calls since `mark`)
/// plus the process-wide peak so every stage reports memory next to
/// `wall_ms`. Observational only: `alloc.*` is not a gated counter
/// prefix, so conformance goldens are unaffected.
pub(crate) fn push_alloc_metrics(
    metrics: &mut Vec<(String, f64)>,
    mark: Option<qce_telemetry::alloc::AllocStats>,
) {
    let Some(before) = mark else { return };
    let now = qce_telemetry::alloc::stats();
    metrics.push((
        "alloc.bytes".to_string(),
        now.allocated_bytes.saturating_sub(before.allocated_bytes) as f64,
    ));
    metrics.push((
        "alloc.count".to_string(),
        now.allocations.saturating_sub(before.allocations) as f64,
    ));
    metrics.push(("alloc.peak_bytes".to_string(), now.peak_bytes as f64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandRule, Grouping};
    use qce_data::SynthCifar;

    fn tiny_data() -> Dataset {
        SynthCifar::new(8).classes(4).generate(160, 5).unwrap()
    }

    #[test]
    fn benign_flow_has_no_extraction() {
        let cfg = FlowConfig {
            grouping: Grouping::Benign,
            quant: None,
            ..FlowConfig::tiny()
        };
        let out = AttackFlow::new(cfg).run(&tiny_data()).unwrap();
        assert!(out.layout.is_none());
        assert!(out.pre_quant.images.is_empty());
        assert!(out.post_quant.is_none());
        assert!(out.compression_ratio.is_none());
        assert!(out.pre_quant.accuracy > 0.0);
    }

    #[test]
    fn uniform_attack_encodes_and_decodes() {
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: None,
            epochs: 3,
            ..FlowConfig::tiny()
        };
        let out = AttackFlow::new(cfg).run(&tiny_data()).unwrap();
        let layout = out.layout.as_ref().unwrap();
        assert!(layout.total_encoded_images() > 0);
        assert_eq!(out.pre_quant.images.len(), layout.total_encoded_images());
        assert!(
            out.pre_quant.group_correlations[0] > 0.5,
            "rho = {}",
            out.pre_quant.group_correlations[0]
        );
        assert!(
            out.pre_quant.mean_mape() < 60.0,
            "mape = {}",
            out.pre_quant.mean_mape()
        );
    }

    #[test]
    fn quantized_flow_reports_both_stages() {
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: Some(crate::QuantConfig {
                method: QuantMethod::TargetCorrelated,
                bits: 4,
                finetune_epochs: 1,
                finetune_lr: 0.01,
                regularize_finetune: true,
            }),
            epochs: 2,
            ..FlowConfig::tiny()
        };
        let out = AttackFlow::new(cfg).run(&tiny_data()).unwrap();
        let post = out.post_quant.as_ref().unwrap();
        assert!(post.label.contains("TargetCorrelated"));
        assert_eq!(post.images.len(), out.pre_quant.images.len());
        let ratio = out.compression_ratio.unwrap();
        assert!(ratio > 3.0, "ratio {ratio}");
        assert_eq!(out.final_report().label, post.label);
        // The released network really is quantized.
        let slots = out.network.weight_slots();
        let flat = out.network.flat_weights();
        for slot in slots.iter().filter(|s| s.len >= 16) {
            let mut vals: Vec<f32> = flat[slot.offset..slot.offset + slot.len].to_vec();
            vals.sort_by(f32::total_cmp);
            vals.dedup();
            assert!(
                vals.len() <= 16,
                "slot {} has {} values",
                slot.ordinal,
                vals.len()
            );
        }
    }

    #[test]
    fn trained_attack_supports_repeated_quantization() {
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: None,
            epochs: 2,
            ..FlowConfig::tiny()
        };
        let data = tiny_data();
        let mut trained = AttackFlow::new(cfg).train(&data).unwrap();
        let float1 = trained.float_report().unwrap();
        let q8 = trained
            .quantize(crate::QuantConfig::new(QuantMethod::Linear, 8))
            .unwrap();
        let q3 = trained
            .quantize(crate::QuantConfig::new(QuantMethod::Linear, 3))
            .unwrap();
        // The float state is untouched by the quantization passes.
        let float2 = trained.float_report().unwrap();
        assert_eq!(float1, float2);
        // Coarser quantization compresses more.
        assert!(q3.compression_ratio > q8.compression_ratio);
    }

    #[test]
    fn flow_is_deterministic() {
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(3.0),
            band: BandRule::FirstN,
            quant: None,
            epochs: 1,
            ..FlowConfig::tiny()
        };
        let data = tiny_data();
        let a = AttackFlow::new(cfg.clone()).run(&data).unwrap();
        let b = AttackFlow::new(cfg).run(&data).unwrap();
        assert_eq!(a.pre_quant.accuracy, b.pre_quant.accuracy);
        assert_eq!(a.pre_quant.mean_mape(), b.pre_quant.mean_mape());
        assert_eq!(a.network.flat_weights(), b.network.flat_weights());
        assert_eq!(a.artifact_digests(), b.artifact_digests());
    }

    #[test]
    fn artifact_digests_pin_the_released_state() {
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(3.0),
            band: BandRule::FirstN,
            quant: None,
            epochs: 1,
            ..FlowConfig::tiny()
        };
        let mut out = AttackFlow::new(cfg).run(&tiny_data()).unwrap();
        let before = out.artifact_digests();
        assert_eq!(before.len(), 4);
        assert_eq!(before[0].0, "release.weights");
        // Any single-weight perturbation moves the release digest and
        // leaves the selection/target digests alone.
        let mut flat = out.network.flat_weights();
        flat[0] += 1.0;
        out.network.set_flat_weights(&flat).unwrap();
        let after = out.artifact_digests();
        assert_ne!(before[0].1, after[0].1);
        assert_eq!(before[1..], after[1..]);
    }

    fn statsign_cfg() -> FlowConfig {
        FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            channel: EncodingChannel::StatSign { lambda: 3e4 },
            stage_channels: vec![12, 24],
            quant: None,
            epochs: 4,
            ..FlowConfig::tiny()
        }
    }

    #[test]
    fn statsign_flow_encodes_and_decodes() {
        let out = AttackFlow::new(statsign_cfg()).run(&tiny_data()).unwrap();
        assert!(out.layout.is_none());
        assert!(
            !out.pre_quant.images.is_empty(),
            "statsign run decoded no images"
        );
        assert!(out.pre_quant.accuracy > 0.0);
        assert!(
            out.pre_quant.mean_mape() < 20.0,
            "mape = {}",
            out.pre_quant.mean_mape()
        );
    }

    #[test]
    fn statsign_flow_survives_a_rotation_defense() {
        use qce_defense::{DefenseKind, RotationMode};
        let data = tiny_data();
        let mut trained = AttackFlow::new(statsign_cfg()).train(&data).unwrap();
        let plan = DefensePlan::new(11).with(DefenseKind::Rotation {
            mode: RotationMode::Permute,
        });
        let rep = trained
            .evaluate_arm(None, &Perturbation::Defense(plan), "rotated".to_string())
            .unwrap();
        assert!(!rep.images.is_empty());
        assert!(
            rep.failed_count() * 2 <= rep.images.len(),
            "rotation broke the hardened channel: {} of {} failed",
            rep.failed_count(),
            rep.images.len()
        );
        assert!(
            rep.mean_mape().unwrap_or(f32::INFINITY) < 20.0,
            "mape = {:?}",
            rep.mean_mape()
        );
    }

    #[test]
    fn defense_stage_is_part_of_the_released_flow() {
        use qce_defense::DefenseKind;
        let cfg = FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: None,
            epochs: 2,
            defense: Some(DefensePlan::new(3).with(DefenseKind::NoiseWeights { fraction: 0.05 })),
            ..FlowConfig::tiny()
        };
        let data = tiny_data();
        let out = AttackFlow::new(cfg.clone()).run(&data).unwrap();
        let defended = out.post_defense.as_ref().unwrap();
        assert!(defended.label.contains("seed 3"));
        // The released network is the defended one, and the manifest
        // records the defend stage.
        let undefended = AttackFlow::new(FlowConfig {
            defense: None,
            ..cfg
        })
        .run(&data)
        .unwrap();
        assert_ne!(
            out.network.flat_weights(),
            undefended.network.flat_weights()
        );
        assert!(out
            .manifest
            .stages
            .iter()
            .any(|s| s.name.starts_with("flow.defend:")));
    }

    #[test]
    fn rejects_empty_dataset_and_bad_config() {
        let empty = Dataset::new(Vec::new(), Vec::new(), 1).unwrap();
        assert!(AttackFlow::new(FlowConfig::tiny()).run(&empty).is_err());

        let cfg = FlowConfig {
            quant: Some(crate::QuantConfig::new(QuantMethod::TargetCorrelated, 4)),
            grouping: Grouping::Benign,
            ..FlowConfig::tiny()
        };
        // Target-correlated quantization without an attack is impossible.
        assert!(AttackFlow::new(cfg).run(&tiny_data()).is_err());
    }
}
