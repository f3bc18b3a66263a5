//! `qce` — the integrated *quantized correlation encoding attack flow* of
//! the DAC 2020 paper "Stealing Your Data from Compressed Machine
//! Learning Models" (Xu, Liu et al.), reproduced end to end on
//! from-scratch substrates.
//!
//! # The attack in one paragraph
//!
//! A malicious ML provider hands a data holder a training algorithm that
//! looks normal: data pre-processing, training with a regularizer,
//! quantization with fine-tuning. Secretly, (1) the pre-processing picks
//! training images whose pixel distribution matches what the attack will
//! do to the weights, (2) the "regularizer" maximizes the correlation
//! between late-layer weights and those images' pixels, and (3) the
//! quantizer chooses cluster boundaries from the pixel histogram so that
//! compression does not erase the correlation. The data holder validates
//! accuracy, publishes the (deeply quantized) model — and the provider
//! decodes the training images straight out of the released weights.
//!
//! # Crate map
//!
//! * [`FlowConfig`] / [`AttackFlow`] — configure and run the full
//!   pipeline on a dataset; every stage (benign baseline, uniform CCS'17
//!   attack, the paper's layer-wise flow, each quantizer) is a config
//!   choice, which is what makes the ablation benches one-liners.
//! * [`FlowOutcome`] / [`StageReport`] — accuracy, per-image MAPE/SSIM,
//!   recognized-image counts, group correlations, compression ratio.
//! * [`audit`] — the defender's view: distribution-level heuristics that
//!   flag correlation-encoded weight tensors.
//! * [`faults`] / [`RobustnessReport`] — seeded fault injection on the
//!   released model (bit flips in the packed index stream, noise, pruning,
//!   centroid jitter, fine-tune drift) plus severity sweeps measuring how
//!   gracefully the resilient decoder degrades.
//!
//! # Examples
//!
//! ```no_run
//! use qce::{AttackFlow, FlowConfig};
//! use qce_data::SynthCifar;
//!
//! # fn main() -> Result<(), qce::FlowError> {
//! let data = SynthCifar::new(16).generate(600, 1)?;
//! let outcome = AttackFlow::new(FlowConfig::small()).run(&data)?;
//! println!(
//!     "accuracy {:.2}%, {} images recognized",
//!     100.0 * outcome.final_report().accuracy,
//!     outcome.final_report().recognized_count(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
#[cfg(test)]
mod defense;
mod error;
mod flow;
mod report;
mod step;
mod store_io;

pub mod audit;
pub mod faults;

pub use config::{
    Architecture, BandRule, EncodingChannel, FlowConfig, Grouping, LambdaSchedule, QuantConfig,
    QuantMethod,
};
pub use error::FlowError;
pub use faults::{FaultError, FaultKind, FaultPlan};
pub use flow::{AttackFlow, FlowOutcome, Perturbation, QuantizedRelease, TrainedAttack};
pub use qce_attack::correlation::SignConvention;
pub use qce_attack::ImageStatus;
pub use report::{
    FaultedImage, FaultedReport, ImageReport, RobustnessPoint, RobustnessReport, StageReport,
};
pub use step::{FlowMachine, StageStep, StepEvent};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlowError>;
