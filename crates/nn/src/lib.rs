//! From-scratch CPU neural-network training framework for the `qce`
//! workspace.
//!
//! The DAC'20 *quantized correlation encoding attack* needs a training
//! pipeline it can infiltrate: a "seemingly normal" loss with an extra
//! regularization term, white-box access to every weight, and a
//! quantization step it can replace. This crate provides that pipeline:
//!
//! * [`Layer`] — the forward/backward building block; implementations in
//!   [`layers`] cover `Conv2d`, `Linear`, `BatchNorm2d`, `ReLU`,
//!   `MaxPool2d`, `GlobalAvgPool`, `Flatten` and residual blocks.
//! * [`Network`] — an ordered stack of layers with flat, deterministic
//!   parameter access (the surface both the attack and the quantizers
//!   operate on).
//! * [`loss`] — softmax cross-entropy with analytic gradients.
//! * [`Sgd`] + [`LrSchedule`] — momentum SGD with weight decay.
//! * [`Trainer`] — mini-batch training loop with an optional
//!   [`Regularizer`] hook, which is exactly where the malicious
//!   correlation term of the paper plugs in.
//! * [`models`] — `ResNetLite` (the scaled-down ResNet-34 stand-in, also
//!   the face model) and `ConvNet` (a plain CNN without skips).
//!
//! # Examples
//!
//! Train a tiny classifier on random data:
//!
//! ```
//! use qce_nn::{models::ResNetLite, Mode, Sgd, TrainConfig, Trainer};
//! use qce_tensor::{init, Tensor};
//!
//! # fn main() -> Result<(), qce_nn::NnError> {
//! let mut rng = init::seeded_rng(0);
//! let x = init::uniform(&[8, 1, 8, 8], 0.0, 1.0, &mut rng);
//! let y = vec![0, 1, 0, 1, 0, 1, 0, 1];
//! let mut net = ResNetLite::builder()
//!     .input(1, 8)
//!     .classes(2)
//!     .stage_channels(&[4, 8])
//!     .blocks_per_stage(1)
//!     .build(42)?;
//! let mut trainer = Trainer::new(TrainConfig {
//!     epochs: 1,
//!     batch_size: 4,
//!     ..TrainConfig::default()
//! });
//! let history = trainer.fit(&mut net, &x, &y, None)?;
//! assert_eq!(history.epoch_losses.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod layer;
mod network;
mod param;
mod trainer;

pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod schedule;
pub mod serialize;

pub use error::NnError;
pub use layer::{Layer, Mode, WeightSymmetry};
pub use network::{Network, NetworkSnapshot, WeightSlot};
pub use optim::Sgd;
pub use param::{Param, ParamKind};
pub use schedule::LrSchedule;
pub use trainer::{
    accuracy, gather_batch, DivergenceGuard, Regularizer, TrainConfig, Trainer, TrainingHistory,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
