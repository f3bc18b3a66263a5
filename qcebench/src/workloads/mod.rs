//! The four workloads and what they share.

pub mod attack_flow;
pub mod release_arms;
pub mod serve_mix;
pub mod sweep_grid;

use std::time::Instant;

use qce::{FlowConfig, QuantConfig, QuantMethod};
use qce_data::{Dataset, SynthCifar};

use crate::run::{Phase, RunDir};
use crate::trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["attack_flow", "release_arms", "serve_mix", "sweep_grid"];

/// Op id of the spans a layer drive records outside any workload op.
pub const DRIVE_OP: u64 = u64::MAX;

/// MAPE at or below which a decoded image counts as recovered (the
/// repository's `recovered` rule).
pub const RECOVERED_MAPE: f32 = 20.0;

/// Seed of the synthetic dataset the flow workloads train on.
pub const DATASET_SEED: u64 = 1;

/// Image count of the reference `attack_flow` dataset, whose shapes the
/// layer drives time.
pub const FLOW_IMAGES: usize = 96;

/// A dataset of `attack_flow`: `images` synthetic CIFAR-like 8×8 RGB
/// images in 4 classes.
pub fn flow_dataset(images: usize) -> Result<Dataset, String> {
    SynthCifar::new(8)
        .classes(4)
        .generate(images, DATASET_SEED)
        .map_err(|e| format!("dataset synthesis: {e}"))
}

/// The `small` preset trimmed to about a tenth of a second: ResNetLite
/// with stage widths 8/16/32, one training epoch, 4-bit
/// target-correlated quantization with one fine-tune epoch.
pub fn flow_config(seed: u64) -> FlowConfig {
    FlowConfig {
        seed,
        stage_channels: vec![8, 16, 32],
        epochs: 1,
        quant: Some(QuantConfig {
            finetune_epochs: 1,
            ..QuantConfig::new(QuantMethod::TargetCorrelated, 4)
        }),
        ..FlowConfig::small()
    }
}

/// What `main` hands a workload.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Whether this process only sets up (a cold set-up sample for the
    /// parent run; see [`timed_setup`]).
    pub setup_only: bool,
    /// When `main` was entered: the start of every set-up sample.
    pub started: Instant,
    /// Processor count.
    pub nproc: usize,
    /// The run-private directory.
    pub dir: RunDir,
}

impl Ctx {
    /// Fewest ops a timed phase of a roster workload runs, deadline or
    /// not: one whole pass over the roster, and in the untraced run at
    /// least `untraced` ops (enough for the tail percentile it needs).
    pub fn min_ops(&self, roster: usize, untraced: usize) -> usize {
        if self.traced {
            roster
        } else {
            roster.max(untraced)
        }
    }
}

/// Exact extraction quality over a workload's fixed roster of releases.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Encoded images decoded at MAPE ≤ 20.
    pub recovered: u64,
    /// Images encoded.
    pub encoded: u64,
    /// Validation accuracy of each released model.
    pub accuracies: Vec<f64>,
}

impl Quality {
    /// Recovered images over encoded images.
    pub fn recovered_frac(&self) -> f64 {
        self.recovered as f64 / self.encoded.max(1) as f64
    }

    /// Mean release accuracy.
    pub fn release_accuracy(&self) -> f64 {
        self.accuracies.iter().sum::<f64>() / self.accuracies.len().max(1) as f64
    }
}

/// Everything a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Cold set-up samples, seconds: this process's own, then one per
    /// set-up-only child process.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub phase: Phase,
    /// The traced timed phase (traced run only).
    pub traced: Option<Phase>,
    /// Failed checks outside the timed phases (set-up, warm-ups, drives).
    pub checks: Phase,
    /// Extraction quality over the roster.
    pub quality: Quality,
    /// Per-layer figures that are not span medians.
    pub layer: Vec<(String, f64)>,
    /// Extra lines for the human-readable output.
    pub notes: Vec<String>,
}

/// Runs `setup` once and records the time from process start to its end
/// (the first timed op) as a cold set-up sample. The traced run sets up
/// with tracing on.
///
/// Returns `None` in a set-up-only process, which stops there. In an
/// untraced run, [`crate::run::COLD_SETUPS`] set-up-only child processes
/// follow, one at a time, each adding its own cold sample and checks;
/// `setup_s` is the median of all of them, so one-time costs of a fresh
/// process show in every sample.
pub fn timed_setup<S>(
    ctx: &Ctx,
    report: &mut Report,
    setup: impl FnOnce(&mut Phase) -> Result<S, String>,
) -> Result<Option<S>, String> {
    if ctx.traced {
        trace::enable();
    }
    let state = {
        let _span = trace::span("setup");
        setup(&mut report.checks)
    };
    report.setup_s.push(ctx.started.elapsed().as_secs_f64());
    trace::disable();
    let state = state?;
    if ctx.setup_only {
        return Ok(None);
    }
    if !ctx.traced {
        for child in crate::run::cold_setups()? {
            report.setup_s.push(child.setup_s);
            report.checks.attempted += child.attempted;
            report.checks.failed += child.failed;
            if child.failed > 0 {
                report
                    .checks
                    .failures
                    .push(format!("{} set-up checks failed in a child", child.failed));
            }
        }
    }
    Ok(Some(state))
}

/// Runs the timed phase: untraced for `ctx.seconds`, or, in the traced
/// run, untraced for half of it and traced for the other half.
pub fn timed_phases(
    ctx: &Ctx,
    report: &mut Report,
    mut phase: impl FnMut(f64) -> Result<Phase, String>,
) -> Result<(), String> {
    if ctx.traced {
        report.phase = phase(ctx.seconds / 2.0)?;
        trace::enable();
        let traced = phase(ctx.seconds / 2.0);
        trace::disable();
        report.traced = Some(traced?);
    } else {
        report.phase = phase(ctx.seconds)?;
    }
    Ok(())
}
