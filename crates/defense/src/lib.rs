//! Data-holder countermeasures against weight-encoded payloads — the
//! defender's half of the arms race.
//!
//! The DAC'20 attack smuggles training images into a released model's
//! weights (sign, LSB or correlation encodings). A data holder who
//! suspects the training pipeline can perturb the model *before* release
//! to destroy such payloads while keeping task accuracy. This crate
//! packages those perturbations as composable [`Defense`] objects driven
//! by a seeded [`DefensePlan`], mirroring the fault-injection
//! architecture of `qce::faults`:
//!
//! * [`Rotation`] — re-parameterize every residual block's hidden
//!   channel space. In [`RotationMode::Permute`] mode this applies the
//!   network's *exact* ReLU symmetry (a compensated channel
//!   permutation): task function is preserved up to float summation
//!   order, but any position-addressed payload is scrambled. The
//!   [`RotationMode::QrBlend`] mode blends each hidden basis toward a
//!   random orthogonal (QR-derived) rotation; it is deliberately
//!   *lossy* (batch-norm and ReLU do not commute with general
//!   rotations) and exists to measure the accuracy/decorrelation
//!   trade-off of non-symmetry rotations.
//! * [`FinetuneScrub`] — a short defensive retraining pass on clean
//!   data, eroding gradients the attacker's regularizer planted.
//! * [`PruneScrub`] — magnitude pruning via
//!   [`qce_quant::prune::magnitude_prune`].
//! * [`Requantize`] — defender-chosen k-means re-quantization,
//!   annihilating LSB payloads and re-drawing an attacker's
//!   target-correlated cluster boundaries.
//! * [`NoiseWeights`] — per-tensor σ-scaled Gaussian noise.
//!
//! Every draw derives from the plan seed (each defense gets an
//! independent RNG), so a plan is reproducible and composes
//! deterministically — the property the tournament goldens in
//! `qce-harness` rely on.
//!
//! **Measured picture** (see the tournament conformance suite under
//! `conformance/tournament/` and the `defenses` bench): against the
//! *correlation* attack, noise and defender re-quantization under-deliver
//! — perturbation strong enough to damage the encoding destroys task
//! accuracy first. The *rotation* family is different: a compensated
//! hidden-channel permutation is exactly accuracy-preserving and scrambles
//! the correlation channel's weight order, driving recovery to zero — but
//! the hardened statistics-sign channel (`qce_attack::statsign`) survives
//! it by construction. The arms race is measured, not asserted: the
//! tournament goldens pin per-cell recovery for every (attack variant ×
//! defense × bit width) combination, and *detection* (`qce::audit`) plus
//! reviewing third-party training code remain the defenses that do not
//! trade accuracy at all.
//!
//! # Examples
//!
//! ```
//! use qce_defense::{DefenseContext, DefenseKind, DefensePlan, RotationMode};
//! use qce_nn::models::ResNetLite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = ResNetLite::builder()
//!     .input(1, 8).classes(2).stage_channels(&[4]).blocks_per_stage(1)
//!     .build(1)?;
//! let before = net.flat_weights();
//! let plan = DefensePlan::new(7)
//!     .with(DefenseKind::Rotation { mode: RotationMode::Permute })
//!     .with(DefenseKind::NoiseWeights { fraction: 0.05 });
//! plan.apply(&mut net, &DefenseContext::empty())?;
//! assert_ne!(net.flat_weights(), before);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;

use qce_nn::{Network, NnError};
use qce_quant::QuantError;
use qce_tensor::Tensor;

mod countermeasures;
mod plan;

pub use countermeasures::{FinetuneScrub, NoiseWeights, PruneScrub, Requantize, Rotation};
pub use plan::{DefenseKind, DefensePlan, RotationMode};

/// Error type of defense application.
#[derive(Debug)]
#[non_exhaustive]
pub enum DefenseError {
    /// A defense's parameter is out of range.
    InvalidDefense {
        /// Why the defense is rejected.
        reason: String,
    },
    /// A defense needs clean training data the [`DefenseContext`] does
    /// not carry.
    MissingData {
        /// Which defense demanded the data.
        defense: &'static str,
    },
    /// Defensive retraining or weight surgery failed inside `qce-nn`.
    Nn(NnError),
    /// Re-quantization or pruning failed inside `qce-quant`.
    Quant(QuantError),
}

impl std::fmt::Display for DefenseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefenseError::InvalidDefense { reason } => write!(f, "invalid defense: {reason}"),
            DefenseError::MissingData { defense } => {
                write!(
                    f,
                    "defense `{defense}` needs clean training data in the DefenseContext"
                )
            }
            DefenseError::Nn(e) => write!(f, "defense (network): {e}"),
            DefenseError::Quant(e) => write!(f, "defense (quantization): {e}"),
        }
    }
}

impl std::error::Error for DefenseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DefenseError::Nn(e) => Some(e),
            DefenseError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for DefenseError {
    fn from(e: NnError) -> Self {
        DefenseError::Nn(e)
    }
}

impl From<QuantError> for DefenseError {
    fn from(e: QuantError) -> Self {
        DefenseError::Quant(e)
    }
}

/// Convenience alias for defense results.
pub type Result<T> = std::result::Result<T, DefenseError>;

/// Resources a defender has on hand while scrubbing a model.
///
/// Only [`FinetuneScrub`] consumes the training data; every other
/// defense works from the weights alone, so [`DefenseContext::empty`]
/// suffices for them.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefenseContext<'a> {
    /// Clean images `[N, C, H, W]` the defender trusts.
    pub train_x: Option<&'a Tensor>,
    /// Class labels aligned with `train_x`.
    pub train_labels: Option<&'a [usize]>,
    /// Mini-batch size for defensive retraining (0 falls back to 32).
    pub batch_size: usize,
}

impl<'a> DefenseContext<'a> {
    /// A context with no training data (weight-only defenses).
    pub fn empty() -> Self {
        DefenseContext::default()
    }

    /// A context carrying clean training data for [`FinetuneScrub`].
    pub fn with_data(x: &'a Tensor, labels: &'a [usize], batch_size: usize) -> Self {
        DefenseContext {
            train_x: Some(x),
            train_labels: Some(labels),
            batch_size,
        }
    }

    /// Effective mini-batch size (0 falls back to 32).
    pub fn effective_batch_size(&self) -> usize {
        if self.batch_size == 0 {
            32
        } else {
            self.batch_size
        }
    }
}

/// One countermeasure applied to a released float network in place.
///
/// Implementations draw all randomness from the `rng` argument (seeded
/// per-defense by [`DefensePlan`]) so identical plans reproduce
/// identical released weights.
pub trait Defense {
    /// Short stable name (used in telemetry counters and reports).
    fn name(&self) -> &'static str;

    /// Perturbs `net` in place.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError`] when parameters are out of range, when
    /// required [`DefenseContext`] resources are missing, or when the
    /// underlying weight surgery fails.
    fn apply(&self, net: &mut Network, ctx: &DefenseContext<'_>, rng: &mut StdRng) -> Result<()>;
}
