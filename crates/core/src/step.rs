//! Resumable stage-step execution of the attack flow.
//!
//! [`AttackFlow::run`](crate::AttackFlow::run) executes the whole
//! pipeline in one call, which is the right shape for a batch
//! experiment but the wrong one for a scheduler: a serving daemon (or
//! the sweep orchestrator) needs to interleave *many* flows, observe
//! per-stage progress, and stop a flow between stages without losing
//! the work already done. This module provides that shape:
//! [`FlowMachine`] is the flow decomposed into a state machine of
//! [`StageStep`]s, advanced one stage at a time by
//! [`FlowMachine::advance`].
//!
//! # The state machine
//!
//! ```text
//! Select -> Train -> EvaluateFloat -> Quantize -> EvaluateQuantized -> Defend -> Finish -> Done
//!                                       |   (no quant: both skip)        ^  (no plan: skips)
//!                                       +------------------------------>-+
//! ```
//!
//! Every step is a checkpoint point: with a stage cache attached, the
//! completed step's artifact is on disk before `advance` returns, so a
//! machine that is dropped (cancelled) between steps leaves a resumable
//! prefix — a fresh machine for the same (config, dataset, seed) loads
//! the completed stages as cache hits and recomputes only the rest.
//! Because each step is deterministic, driving the machine step by step
//! is bit-for-bit identical to [`AttackFlow::run`](crate::AttackFlow::run)
//! — which is implemented as exactly that loop.

use qce_attack::ecc::Ecc;
use qce_attack::statsign::{StatSignLayout, StatSignRegularizer};
use qce_attack::{CorrelationRegularizer, EncodingLayout, GroupSpec};
use qce_data::{select, Dataset, Image};
use qce_nn::models::ResNetLite;
use qce_nn::{LrSchedule, Network, Regularizer, TrainConfig, Trainer};
use qce_store::section_kind::{INDEX_LIST, NETWORK, QUANTIZED_NETWORK, TRAINING_HISTORY};
use qce_store::{persist, StageCache, StoreError};
use qce_telemetry::{RunManifest, StageStat};
use qce_tensor::par::Pool;
use qce_tensor::Tensor;
use std::time::Instant;

use crate::flow::{alloc_mark, push_alloc_metrics, FlowOutcome, TrainedAttack};
use crate::store_io::{self, load_network, Checkpoints, FAULTED_REPORT, STAGE_REPORT};
use crate::{
    Architecture, BandRule, EncodingChannel, FlowConfig, FlowError, Grouping, Result, StageReport,
};

/// One stage of the resumable flow state machine.
///
/// The variants are ordered; [`FlowMachine::advance`] executes the
/// current one and moves to the next. `Quantize`/`EvaluateQuantized`
/// skip when the config carries no quantization, `Defend` skips without
/// a [`DefensePlan`](qce_defense::DefensePlan) — a skipped step still
/// produces a [`StepEvent`] so schedulers see a fixed-length timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageStep {
    /// Train/validation split, model construction, target selection and
    /// the encoding plan (checkpoint: `select`).
    Select,
    /// Main training with the (possibly malicious) regularizer
    /// (checkpoint: `train`).
    Train,
    /// Evaluation of the float model (checkpoint: `evaluate:uncompressed`).
    EvaluateFloat,
    /// Quantization + fine-tuning per the config (checkpoint: `quantize`).
    Quantize,
    /// Evaluation of the quantized release (checkpoint:
    /// `evaluate:<method> <bits>-bit`).
    EvaluateQuantized,
    /// The data holder's release-time countermeasures (checkpoint:
    /// `defend`).
    Defend,
    /// Manifest assembly and emission; builds the [`FlowOutcome`].
    Finish,
    /// Terminal state: [`FlowMachine::into_outcome`] is ready.
    Done,
}

impl StageStep {
    /// Stable machine-readable name (used by the serve wire protocol).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageStep::Select => "select",
            StageStep::Train => "train",
            StageStep::EvaluateFloat => "evaluate_float",
            StageStep::Quantize => "quantize",
            StageStep::EvaluateQuantized => "evaluate_quantized",
            StageStep::Defend => "defend",
            StageStep::Finish => "finish",
            StageStep::Done => "done",
        }
    }

    fn next(self) -> StageStep {
        match self {
            StageStep::Select => StageStep::Train,
            StageStep::Train => StageStep::EvaluateFloat,
            StageStep::EvaluateFloat => StageStep::Quantize,
            StageStep::Quantize => StageStep::EvaluateQuantized,
            StageStep::EvaluateQuantized => StageStep::Defend,
            StageStep::Defend => StageStep::Finish,
            StageStep::Finish | StageStep::Done => StageStep::Done,
        }
    }
}

impl std::fmt::Display for StageStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`FlowMachine::advance`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// The step that just completed (or was skipped).
    pub step: StageStep,
    /// Human-readable stage label, e.g. `flow.quantize:KMeans 4-bit`.
    pub label: String,
    /// Wall time of the step in milliseconds (observational).
    pub wall_ms: f64,
    /// `true` when the step did not apply to this configuration (no
    /// quantization, no defense plan) and was passed over.
    pub skipped: bool,
}

/// State carried from [`StageStep::Select`] to [`StageStep::Train`]: the
/// initialized network, the encoding plan and its regularizer, and the
/// tensorized splits.
struct SelectedState {
    net: Network,
    layout: Option<EncodingLayout>,
    statsign: Option<StatSignLayout>,
    selection_indices: Vec<usize>,
    targets: Vec<Image>,
    target_labels: Vec<usize>,
    corr_reg: Option<CorrelationRegularizer>,
    stat_reg: Option<StatSignRegularizer>,
    train_x: Tensor,
    train_y: Vec<usize>,
    test_x: Tensor,
    test_y: Vec<usize>,
    stage_stats: Vec<StageStat>,
}

/// The attack flow as a resumable state machine (see the module docs).
///
/// Owns its dataset so a machine can be queued, moved to a worker
/// thread, and driven independently of the submitting context. Create
/// one with [`AttackFlow::machine`](crate::AttackFlow::machine).
pub struct FlowMachine {
    config: FlowConfig,
    dataset: Option<Dataset>,
    checkpoints: Checkpoints,
    step: StageStep,
    selected: Option<SelectedState>,
    trained: Option<TrainedAttack>,
    pre_quant: Option<StageReport>,
    post_quant: Option<StageReport>,
    compression_ratio: Option<f64>,
    post_defense: Option<crate::FaultedReport>,
    outcome: Option<FlowOutcome>,
}

impl std::fmt::Debug for FlowMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowMachine")
            .field("step", &self.step)
            .field("checkpoints", &self.checkpoints)
            .finish()
    }
}

impl FlowMachine {
    /// Builds a machine for `config` over `dataset`, validating the
    /// configuration and dataset geometry up front — a scheduler learns
    /// about an impossible job at submit time, not after queueing it.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] for configuration or geometry
    /// problems (same checks [`AttackFlow::run`](crate::AttackFlow::run)
    /// applies).
    pub fn new(
        config: FlowConfig,
        cache: Option<StageCache>,
        dataset: Dataset,
    ) -> Result<FlowMachine> {
        config.validate()?;
        let first = dataset.images().first().ok_or(FlowError::InvalidConfig {
            reason: "empty dataset".to_string(),
        })?;
        if first.height() != first.width() {
            return Err(FlowError::InvalidConfig {
                reason: "flow expects square images".to_string(),
            });
        }
        Ok(FlowMachine {
            checkpoints: Checkpoints::new(cache, &config, &dataset),
            config,
            dataset: Some(dataset),
            step: StageStep::Select,
            selected: None,
            trained: None,
            pre_quant: None,
            post_quant: None,
            compression_ratio: None,
            post_defense: None,
            outcome: None,
        })
    }

    /// The step the next [`FlowMachine::advance`] call will execute.
    #[must_use]
    pub fn step(&self) -> StageStep {
        self.step
    }

    /// Whether the machine has reached [`StageStep::Done`].
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.step == StageStep::Done
    }

    /// The flow configuration this machine executes.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Executes the current step and moves to the next one.
    ///
    /// With a stage cache attached, the completed step's checkpoint is
    /// on disk before this returns — dropping the machine afterwards
    /// loses no work. Calling `advance` on a finished machine returns a
    /// skipped [`StepEvent`] for [`StageStep::Done`].
    ///
    /// # Errors
    ///
    /// Propagates the failing stage's [`FlowError`]; the machine stays
    /// on the failed step (a retry re-runs it).
    pub fn advance(&mut self) -> Result<StepEvent> {
        let _flush = qce_telemetry::FlushGuard::new();
        let step = self.step;
        let started = Instant::now();
        let (label, skipped) = match step {
            StageStep::Select => (self.run_select()?, false),
            StageStep::Train => (self.run_train()?, false),
            StageStep::EvaluateFloat => (self.run_evaluate_float()?, false),
            StageStep::Quantize => match self.run_quantize()? {
                Some(label) => (label, false),
                None => ("flow.quantize".to_string(), true),
            },
            StageStep::EvaluateQuantized => match self.run_evaluate_quantized()? {
                Some(label) => (label, false),
                None => ("flow.evaluate:quantized".to_string(), true),
            },
            StageStep::Defend => match self.run_defend()? {
                Some(label) => (label, false),
                None => ("flow.defend".to_string(), true),
            },
            StageStep::Finish => (self.run_finish()?, false),
            StageStep::Done => ("done".to_string(), true),
        };
        self.step = step.next();
        Ok(StepEvent {
            step,
            label,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            skipped,
        })
    }

    /// Consumes the machine after [`StageStep::Train`] completed,
    /// returning the [`TrainedAttack`] — the resumable equivalent of
    /// [`AttackFlow::train`](crate::AttackFlow::train).
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] if training has not completed yet or
    /// the machine already advanced past the point where the trained
    /// state is held.
    pub fn into_trained(mut self) -> Result<TrainedAttack> {
        self.trained.take().ok_or_else(|| FlowError::InvalidConfig {
            reason: format!(
                "flow machine holds no trained state at step {:?}",
                self.step
            ),
        })
    }

    /// Consumes the finished machine and returns the [`FlowOutcome`].
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] unless the machine reached
    /// [`StageStep::Done`].
    pub fn into_outcome(mut self) -> Result<FlowOutcome> {
        self.outcome.take().ok_or_else(|| FlowError::InvalidConfig {
            reason: format!("flow machine is not done (at step {:?})", self.step),
        })
    }

    /// Stage 0+1: split, model construction, target selection, encoding
    /// plan.
    fn run_select(&mut self) -> Result<String> {
        let cfg = &self.config;
        let dataset = self
            .dataset
            .take()
            .ok_or_else(|| FlowError::InvalidConfig {
                reason: "select stage already consumed the dataset".to_string(),
            })?;
        qce_telemetry::debug!(
            "[flow] compute backend: {} thread(s) (override with QCE_THREADS; \
             results are identical for any thread count)",
            Pool::global().threads()
        );
        let first = dataset.images().first().ok_or(FlowError::InvalidConfig {
            reason: "empty dataset".to_string(),
        })?;

        let mut stage_stats = Vec::new();
        let t_select = Instant::now();
        let a_select = alloc_mark();
        let select_span = qce_telemetry::span!("flow.select", seed = cfg.seed);

        // Stage 0: the data holder's train/validation split.
        let (mut train, test) = dataset.split(cfg.train_fraction, cfg.seed)?;
        let train_x = train.to_tensor();
        let train_y = train.labels().to_vec();
        let test_x = test.to_tensor();
        let test_y = test.labels().to_vec();

        // Model.
        let net = match cfg.arch {
            Architecture::ResNetLite => ResNetLite::builder()
                .input(first.channels(), first.height())
                .classes(dataset.classes())
                .stage_channels(&cfg.stage_channels)
                .blocks_per_stage(cfg.blocks_per_stage)
                .build(cfg.seed.wrapping_add(1))?,
            Architecture::ConvNet => qce_nn::models::ConvNet::builder()
                .input(first.channels(), first.height())
                .classes(dataset.classes())
                .stage_channels(&cfg.stage_channels)
                .build(cfg.seed.wrapping_add(1))?,
        };
        let total_slots = net.weight_slots().len();

        // Stage 1: grouping + data pre-processing + encoding plan.
        let scale = cfg.lambda_scale;
        let specs = match cfg.grouping {
            Grouping::Benign => Vec::new(),
            Grouping::Uniform(l) => GroupSpec::uniform(total_slots, l * scale),
            Grouping::LayerWise(ls) => {
                GroupSpec::paper_thirds(total_slots, [ls[0] * scale, ls[1] * scale, ls[2] * scale])
            }
        };
        let mut layout = None;
        let mut statsign = None;
        let mut selection_indices = Vec::new();
        let mut targets: Vec<Image> = Vec::new();
        let mut target_labels = Vec::new();
        let mut corr_reg: Option<CorrelationRegularizer> = None;
        let mut stat_reg: Option<StatSignRegularizer> = None;

        if cfg.grouping.is_attack() {
            let slots = net.weight_slots();
            let image_pixels = first.num_pixels();
            // Both channels express their capacity in pixels so the band
            // selection below stays channel-agnostic: the correlation
            // channel spends one weight per pixel, the statsign channel
            // spends whole image blocks of group-mean sign bits.
            let capacity_pixels: usize = match cfg.channel {
                EncodingChannel::Correlation => specs
                    .iter()
                    .filter(|s| s.lambda > 0.0)
                    .flat_map(|s| s.ordinals.iter())
                    .map(|&o| slots[o].len)
                    .sum(),
                EncodingChannel::StatSign { .. } => {
                    StatSignLayout::capacity_images(&net, image_pixels, &Ecc::Hamming74)?
                        * image_pixels
                }
            };
            selection_indices = self.checkpoints.memo(
                "select",
                &mut train,
                |train, artifact| {
                    let indices = persist::indices_from_bytes(artifact.require(INDEX_LIST)?)?;
                    if indices.iter().any(|&i| i >= train.len()) {
                        return Err(StoreError::Payload {
                            reason: "selection index out of range".to_string(),
                        });
                    }
                    Ok(indices)
                },
                |train| {
                    Ok(match cfg.band {
                        BandRule::Auto { width } => {
                            select::select_targets(
                                train,
                                width,
                                capacity_pixels,
                                cfg.seed.wrapping_add(2),
                            )?
                            .indices
                        }
                        BandRule::Explicit { min, max } => {
                            let band = select::StdBand::new(min, max)?;
                            select::select_targets_in_band(
                                train,
                                band,
                                capacity_pixels,
                                cfg.seed.wrapping_add(2),
                            )?
                            .indices
                        }
                        BandRule::FirstN => {
                            let n = (capacity_pixels / image_pixels).min(train.len());
                            if n == 0 {
                                return Err(FlowError::InvalidConfig {
                                    reason: "no encoding capacity for even one image".to_string(),
                                });
                            }
                            (0..n).collect()
                        }
                    })
                },
                |_, indices| Ok(vec![(INDEX_LIST, persist::indices_to_bytes(indices))]),
            )?;
            targets = selection_indices
                .iter()
                .map(|&i| train.image(i).clone())
                .collect();
            target_labels = selection_indices.iter().map(|&i| train.label(i)).collect();
            match cfg.channel {
                EncodingChannel::Correlation => {
                    let planned = EncodingLayout::plan(&net, &specs, &targets)?;
                    // Warmup lets task features form before the encoding
                    // pressure peaks (the final epoch still runs at full
                    // λ); the constant schedule applies full pressure
                    // from epoch 0.
                    let reg = CorrelationRegularizer::new(planned.clone(), cfg.sign);
                    corr_reg = Some(match cfg.lambda_schedule {
                        crate::LambdaSchedule::Warmup => reg.with_warmup(),
                        crate::LambdaSchedule::Constant => reg,
                    });
                    layout = Some(planned);
                }
                EncodingChannel::StatSign { lambda } => {
                    let planned = StatSignLayout::plan(&net, &targets, Ecc::Hamming74)?;
                    stat_reg = Some(StatSignRegularizer::new(&planned, lambda)?);
                    statsign = Some(planned);
                }
            }
        }
        drop(select_span);
        let mut select_metrics = vec![
            ("select.targets".to_string(), targets.len() as f64),
            ("select.train_images".to_string(), train.len() as f64),
            ("select.test_images".to_string(), test.len() as f64),
        ];
        push_alloc_metrics(&mut select_metrics, a_select);
        stage_stats.push(StageStat {
            name: "flow.select".to_string(),
            wall_ms: t_select.elapsed().as_secs_f64() * 1e3,
            metrics: select_metrics,
        });

        self.selected = Some(SelectedState {
            net,
            layout,
            statsign,
            selection_indices,
            targets,
            target_labels,
            corr_reg,
            stat_reg,
            train_x,
            train_y,
            test_x,
            test_y,
            stage_stats,
        });
        Ok("flow.select".to_string())
    }

    /// Stage 2: training with the (possibly malicious) regularizer.
    fn run_train(&mut self) -> Result<String> {
        let cfg = &self.config;
        let mut sel = self
            .selected
            .take()
            .ok_or_else(|| FlowError::InvalidConfig {
                reason: "train stage needs the select stage's state".to_string(),
            })?;
        let t_train = Instant::now();
        let a_train = alloc_mark();
        let train_span = qce_telemetry::span!("flow.train", epochs = cfg.epochs);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            lr: cfg.lr,
            momentum: 0.9,
            weight_decay: 5e-4,
            schedule: LrSchedule::Cosine {
                total_epochs: cfg.epochs,
                min_lr: cfg.lr * 0.05,
            },
            shuffle_seed: cfg.seed.wrapping_add(3),
            guard: qce_nn::DivergenceGuard::default(),
        });
        let training = self.checkpoints.memo(
            "train",
            &mut sel,
            |sel, artifact| {
                let history = persist::history_from_bytes(artifact.require(TRAINING_HISTORY)?)?;
                load_network(&mut sel.net, artifact.require(NETWORK)?)?;
                Ok(history)
            },
            |sel| {
                let reg: Option<&mut dyn Regularizer> =
                    match (sel.corr_reg.as_mut(), sel.stat_reg.as_mut()) {
                        (Some(r), _) => Some(r),
                        (None, Some(r)) => Some(r),
                        (None, None) => None,
                    };
                Ok(trainer.fit(&mut sel.net, &sel.train_x, &sel.train_y, reg)?)
            },
            |sel, history| {
                Ok(vec![
                    (NETWORK, persist::network_to_bytes(&sel.net)?),
                    (TRAINING_HISTORY, persist::history_to_bytes(history)),
                ])
            },
        )?;
        drop(train_span);
        let mut train_metrics =
            qce_telemetry::snapshot().flatten_with_prefix(&["train.", "attack."]);
        push_alloc_metrics(&mut train_metrics, a_train);
        sel.stage_stats.push(StageStat {
            name: "flow.train".to_string(),
            wall_ms: t_train.elapsed().as_secs_f64() * 1e3,
            metrics: train_metrics,
        });

        let float_state = sel.net.snapshot();
        self.trained = Some(TrainedAttack {
            config: cfg.clone(),
            network: sel.net,
            float_state,
            layout: sel.layout,
            statsign: sel.statsign,
            selection_indices: sel.selection_indices,
            targets: sel.targets,
            target_labels: sel.target_labels,
            training,
            train_x: sel.train_x,
            train_y: sel.train_y,
            test_x: sel.test_x,
            test_y: sel.test_y,
            stage_stats: sel.stage_stats,
        });
        Ok("flow.train".to_string())
    }

    /// The trained state, and the checkpoints its stages go through.
    fn trained_mut(&mut self) -> Result<(&mut TrainedAttack, &Checkpoints)> {
        let trained = self
            .trained
            .as_mut()
            .ok_or_else(|| FlowError::InvalidConfig {
                reason: "flow machine has no trained state for this step".to_string(),
            })?;
        Ok((trained, &self.checkpoints))
    }

    fn run_evaluate_float(&mut self) -> Result<String> {
        let (trained, checkpoints) = self.trained_mut()?;
        trained.restore_float()?;
        let report = evaluate_stage(trained, checkpoints, "uncompressed".to_string())?;
        self.pre_quant = Some(report);
        Ok("flow.evaluate:uncompressed".to_string())
    }

    fn run_quantize(&mut self) -> Result<Option<String>> {
        let Some(qcfg) = self.config.quant else {
            return Ok(None);
        };
        let label = format!("flow.quantize:{:?} {}-bit", qcfg.method, qcfg.bits);
        let (trained, checkpoints) = self.trained_mut()?;
        // Quantize once and leave the network in its released
        // (quantized) state; the next step evaluates that state in place.
        // A hit loads the post-fine-tune network instead of re-running
        // quantization and fine-tuning.
        trained.restore_float()?;
        let qnet = checkpoints.memo(
            "quantize",
            trained,
            |trained, artifact| {
                let qnet = persist::quantized_from_bytes(artifact.require(QUANTIZED_NETWORK)?)?;
                load_network(&mut trained.network, artifact.require(NETWORK)?)?;
                trained.stage_stats.push(StageStat {
                    name: label.clone(),
                    wall_ms: 0.0,
                    metrics: vec![(
                        "quant.compression_ratio".to_string(),
                        qnet.compression_ratio(),
                    )],
                });
                Ok(qnet)
            },
            |trained| trained.quantize_in_place(qcfg),
            |trained, qnet| {
                Ok(vec![
                    (NETWORK, persist::network_to_bytes(&trained.network)?),
                    (QUANTIZED_NETWORK, persist::quantized_to_bytes(qnet)?),
                ])
            },
        )?;
        self.compression_ratio = Some(qnet.compression_ratio());
        Ok(Some(label))
    }

    fn run_evaluate_quantized(&mut self) -> Result<Option<String>> {
        let Some(qcfg) = self.config.quant else {
            return Ok(None);
        };
        let label = format!("{:?} {}-bit", qcfg.method, qcfg.bits);
        let (trained, checkpoints) = self.trained_mut()?;
        let report = evaluate_stage(trained, checkpoints, label.clone())?;
        self.post_quant = Some(report);
        Ok(Some(format!("flow.evaluate:{label}")))
    }

    fn run_defend(&mut self) -> Result<Option<String>> {
        // The data holder's release-time countermeasures run on whatever
        // state would otherwise be published (quantized if quantization
        // ran, float otherwise) and *stay applied*: the outcome's network
        // is the defended release.
        let Some(plan) = self.config.defense.clone() else {
            return Ok(None);
        };
        let label = format!("defended seed {}", plan.seed());
        let (trained, checkpoints) = self.trained_mut()?;
        let report = checkpoints.memo(
            "defend",
            trained,
            |trained, artifact| {
                let report = store_io::faulted_from_bytes(artifact.require(FAULTED_REPORT)?)?;
                store_io::check_label(&report.label, &label)?;
                load_network(&mut trained.network, artifact.require(NETWORK)?)?;
                trained.stage_stats.push(StageStat {
                    name: format!("flow.defend:{label}"),
                    wall_ms: 0.0,
                    metrics: vec![("defense.accuracy".to_string(), f64::from(report.accuracy))],
                });
                Ok(report)
            },
            |trained| trained.defend_in_place(&plan, label.clone()),
            |trained, report| {
                Ok(vec![
                    (NETWORK, persist::network_to_bytes(&trained.network)?),
                    (FAULTED_REPORT, store_io::faulted_to_bytes(report)),
                ])
            },
        )?;
        let label = format!("flow.defend:{}", report.label);
        self.post_defense = Some(report);
        Ok(Some(label))
    }

    /// Manifest assembly + emission, then the outcome (same ordering the
    /// monolithic `run` used, so manifests and goldens are unchanged).
    fn run_finish(&mut self) -> Result<String> {
        let trained = self
            .trained
            .take()
            .ok_or_else(|| FlowError::InvalidConfig {
                reason: "finish step needs the trained state".to_string(),
            })?;
        let pre_quant = self
            .pre_quant
            .take()
            .ok_or_else(|| FlowError::InvalidConfig {
                reason: "finish step needs the float evaluation".to_string(),
            })?;
        let post_quant = self.post_quant.take();
        let post_defense = self.post_defense.take();
        let mut stages = trained.stage_stats.clone();
        stages.push(StageStat {
            name: format!("flow.evaluate:{}", pre_quant.label),
            wall_ms: pre_quant.wall_ms,
            metrics: pre_quant.metrics.clone(),
        });
        if let Some(post) = &post_quant {
            stages.push(StageStat {
                name: format!("flow.evaluate:{}", post.label),
                wall_ms: post.wall_ms,
                metrics: post.metrics.clone(),
            });
        }
        // Observational memory gauges ride along in the manifest's
        // final metrics snapshot (never in gated counters).
        if qce_telemetry::alloc::tracking_enabled() {
            let a = qce_telemetry::alloc::stats();
            qce_telemetry::gauge("alloc.allocated_bytes").set(a.allocated_bytes as f64);
            qce_telemetry::gauge("alloc.peak_bytes").set(a.peak_bytes as f64);
            qce_telemetry::gauge("alloc.live_bytes").set(a.live_bytes as f64);
        }
        if let Some(rss) = qce_telemetry::alloc::peak_rss_bytes() {
            qce_telemetry::gauge("proc.peak_rss_bytes").set(rss as f64);
        }
        let manifest = RunManifest {
            config_hash: qce_telemetry::fnv1a(&format!("{:?}", self.config)),
            seed: self.config.seed,
            threads: Pool::global().threads(),
            stages,
            metrics: qce_telemetry::snapshot(),
        };
        qce_telemetry::emit_manifest(&manifest);
        self.outcome = Some(FlowOutcome {
            network: trained.network,
            layout: trained.layout,
            selection_indices: trained.selection_indices,
            targets: trained.targets,
            target_labels: trained.target_labels,
            pre_quant,
            post_quant,
            post_defense,
            training: trained.training,
            compression_ratio: self.compression_ratio,
            manifest,
        });
        Ok("flow.finish".to_string())
    }
}

/// Evaluates the network's current state under the `evaluate:<label>`
/// checkpoint. Evaluation reads the network without mutating it, so a
/// hit skips the whole stage safely.
fn evaluate_stage(
    trained: &mut TrainedAttack,
    checkpoints: &Checkpoints,
    label: String,
) -> Result<StageReport> {
    checkpoints.memo(
        &format!("evaluate:{label}"),
        trained,
        |_, artifact| {
            let report = store_io::report_from_bytes(artifact.require(STAGE_REPORT)?)?;
            store_io::check_label(&report.label, &label)?;
            Ok(report)
        },
        |trained| trained.evaluate(label.clone()),
        |_, report| Ok(vec![(STAGE_REPORT, store_io::report_to_bytes(report))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackFlow, QuantMethod};
    use qce_data::SynthCifar;

    fn tiny_data() -> Dataset {
        SynthCifar::new(8).classes(4).generate(160, 5).unwrap()
    }

    fn quant_cfg() -> FlowConfig {
        FlowConfig {
            grouping: Grouping::Uniform(5.0),
            band: BandRule::FirstN,
            quant: Some(crate::QuantConfig::new(QuantMethod::Linear, 4)),
            epochs: 1,
            ..FlowConfig::tiny()
        }
    }

    fn temp_cache(tag: &str) -> StageCache {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        StageCache::at(std::env::temp_dir().join(format!(
            "qce-step-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }

    #[test]
    fn machine_walks_the_full_step_sequence() {
        let data = tiny_data();
        let mut m = AttackFlow::new(quant_cfg()).machine(&data).unwrap();
        let mut steps = Vec::new();
        while !m.is_done() {
            let ev = m.advance().unwrap();
            steps.push((ev.step, ev.skipped));
        }
        assert_eq!(
            steps,
            vec![
                (StageStep::Select, false),
                (StageStep::Train, false),
                (StageStep::EvaluateFloat, false),
                (StageStep::Quantize, false),
                (StageStep::EvaluateQuantized, false),
                (StageStep::Defend, true),
                (StageStep::Finish, false),
            ]
        );
        let out = m.into_outcome().unwrap();
        assert!(out.post_quant.is_some());
        assert!(out.compression_ratio.is_some());
    }

    #[test]
    fn quantize_steps_skip_without_quant_config() {
        let cfg = FlowConfig {
            quant: None,
            ..quant_cfg()
        };
        let data = tiny_data();
        let mut m = AttackFlow::new(cfg).machine(&data).unwrap();
        let mut skipped = Vec::new();
        while !m.is_done() {
            let ev = m.advance().unwrap();
            if ev.skipped {
                skipped.push(ev.step);
            }
        }
        assert_eq!(
            skipped,
            vec![
                StageStep::Quantize,
                StageStep::EvaluateQuantized,
                StageStep::Defend
            ]
        );
        let out = m.into_outcome().unwrap();
        assert!(out.post_quant.is_none());
    }

    #[test]
    fn machine_outcome_matches_monolithic_run() {
        let data = tiny_data();
        let via_run = AttackFlow::new(quant_cfg()).run(&data).unwrap();
        let mut m = AttackFlow::new(quant_cfg()).machine(&data).unwrap();
        while !m.is_done() {
            m.advance().unwrap();
        }
        let via_machine = m.into_outcome().unwrap();
        assert_eq!(via_run.artifact_digests(), via_machine.artifact_digests());
        assert_eq!(via_run.pre_quant, via_machine.pre_quant);
        assert_eq!(via_run.post_quant, via_machine.post_quant);
    }

    #[test]
    fn into_trained_after_two_steps_matches_train() {
        let data = tiny_data();
        let mut m = AttackFlow::new(quant_cfg()).machine(&data).unwrap();
        m.advance().unwrap();
        m.advance().unwrap();
        assert_eq!(m.step(), StageStep::EvaluateFloat);
        let trained = m.into_trained().unwrap();
        let reference = AttackFlow::new(quant_cfg()).train(&data).unwrap();
        assert_eq!(trained.artifact_digests(), reference.artifact_digests());
    }

    #[test]
    fn dropped_machine_leaves_a_resumable_checkpoint() {
        let data = tiny_data();
        let cache = temp_cache("resume");
        let flow = AttackFlow::new(quant_cfg()).with_cache(cache.clone());

        // Simulated cancellation: run select + train, then drop.
        let mut m = flow.machine(&data).unwrap();
        m.advance().unwrap();
        m.advance().unwrap();
        drop(m);

        // The resumed machine must hit the cached select + train stages
        // and produce the exact uncached result.
        let hit0 = qce_telemetry::counter("store.hit").get();
        let mut resumed = flow.machine(&data).unwrap();
        while !resumed.is_done() {
            resumed.advance().unwrap();
        }
        let resumed_out = resumed.into_outcome().unwrap();
        assert!(
            qce_telemetry::counter("store.hit").get() - hit0 >= 2,
            "select + train checkpoints should hit"
        );
        let cold = AttackFlow::new(quant_cfg()).run(&data).unwrap();
        assert_eq!(cold.artifact_digests(), resumed_out.artifact_digests());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn into_outcome_before_done_is_an_error() {
        let data = tiny_data();
        let mut m = AttackFlow::new(quant_cfg()).machine(&data).unwrap();
        m.advance().unwrap();
        assert!(m.into_outcome().is_err());
        let m2 = AttackFlow::new(quant_cfg()).machine(&data).unwrap();
        assert!(m2.into_trained().is_err());
    }

    #[test]
    fn step_names_are_stable() {
        let all = [
            StageStep::Select,
            StageStep::Train,
            StageStep::EvaluateFloat,
            StageStep::Quantize,
            StageStep::EvaluateQuantized,
            StageStep::Defend,
            StageStep::Finish,
            StageStep::Done,
        ];
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "select",
                "train",
                "evaluate_float",
                "quantize",
                "evaluate_quantized",
                "defend",
                "finish",
                "done"
            ]
        );
        // The chain terminates at Done.
        let mut s = StageStep::Select;
        for _ in 0..16 {
            s = s.next();
        }
        assert_eq!(s, StageStep::Done);
    }
}
