//! Training-data encoding attacks from the DAC'20 paper and its
//! background (Song et al., CCS'17).
//!
//! The star of the crate is the **correlated value encoding attack**: a
//! training-loss regularizer that maximizes the Pearson correlation
//! between selected model weights and a stream of secret pixel values, so
//! that the released model's weights *are* (an affine image of) the
//! training data. The pieces:
//!
//! * [`correlation`] — the penalty `C(θ, s)` of Eq. 1 and its analytic
//!   gradient.
//! * [`EncodingLayout`] — which images map onto which weight tensors, via
//!   the paper's layer groups (Eq. 2 assigns a correlation rate `λ_k` and
//!   parameter share `P_k` per group; the evaluation sets `λ_1 = λ_2 = 0`
//!   and encodes everything into group 3).
//! * [`CorrelationRegularizer`] — the [`qce_nn::Regularizer`] that plugs
//!   the layer-wise term into an otherwise normal training loop.
//! * [`Decoder`] — the white-box extraction step: remap released weights
//!   back to `[0, 255]` pixels, per group, per image chunk.
//! * [`lsb`] / [`sign`] — the two weaker baselines of §II-B, implemented
//!   to make "quantization trivially defeats LSB encoding" a measurable
//!   claim instead of a remark.
//! * [`statsign`] — the rotation-invariant hardened channel: payload bits
//!   ride the signs of weight-group means with per-row index headers, so
//!   the encoding survives the compensated channel permutations a
//!   `qce-defense` data holder applies before release.
//!
//! # Examples
//!
//! Encode-decode round trip on synthetic "perfectly correlated" weights:
//!
//! ```
//! use qce_attack::correlation::{correlation_penalty, SignConvention};
//!
//! let s = vec![10.0, 250.0, 80.0, 170.0];
//! // Weights already perfectly correlated with s.
//! let theta: Vec<f32> = s.iter().map(|&p| 0.01 * p - 2.0).collect();
//! let (c, _grad) = correlation_penalty(&theta, &s, 1.0, SignConvention::Positive);
//! assert!((c - (-1.0)).abs() < 1e-5); // penalty = -λ·ρ = -1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod error;
mod layout;
mod regularizer;

pub mod correlation;
pub mod ecc;
pub mod lsb;
pub mod sign;
pub mod statsign;

pub use decode::{
    DecodeDiagnostics, DecodedImage, Decoder, ImageStatus, ResilientDecode, ResilientImage,
};
pub use error::AttackError;
pub use layout::{EncodingLayout, GroupLayout, GroupSpec};
pub use regularizer::CorrelationRegularizer;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AttackError>;
