//! Weight quantizers for the `qce` workspace, including the
//! target-correlated quantizer of the DAC'20 paper (Algorithm 1).
//!
//! All quantizers share the same mechanics: a [`Codebook`] (sorted cluster
//! boundaries plus one representative value per cluster) produced by a
//! [`Quantizer`] fitted to a weight vector. They differ *only* in how they
//! choose the boundaries:
//!
//! * [`LinearQuantizer`] — equal-width clusters over the weight range
//!   (deep-compression-style linear centroid initialization).
//! * [`KMeansQuantizer`] — 1-D Lloyd iterations from the linear init.
//! * [`WeightedEntropyQuantizer`] — the paper's defense baseline
//!   (Park et al., CVPR'17): clusters of equal total *importance*
//!   (importance = w²), which concentrates clusters on large-magnitude
//!   weights and reshapes an attacked model's weight distribution
//!   (Fig. 3a).
//! * [`TargetCorrelatedQuantizer`] — Algorithm 1: cluster occupancies
//!   proportional to the *histogram of the target images' pixels*, so the
//!   quantized weights keep the encoded-data distribution (Fig. 3b).
//!
//! [`quantize_network`] applies a quantizer per weight tensor and returns
//! a [`QuantizedNetwork`] handle; [`finetune`] then recovers accuracy with
//! shared-centroid gradient updates that never un-quantize the model; and
//! [`pack`] bit-packs cluster indices to measure the deployment-size win.
//!
//! # Examples
//!
//! ```
//! use qce_quant::{LinearQuantizer, Quantizer};
//!
//! # fn main() -> Result<(), qce_quant::QuantError> {
//! let weights = vec![-1.0, -0.5, 0.0, 0.5, 1.0];
//! let codebook = LinearQuantizer::new(4)?.fit(&weights)?;
//! let q = codebook.quantize(&weights);
//! assert_eq!(codebook.levels(), 4);
//! assert!(q.iter().all(|v| codebook.representatives().contains(v)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codebook;
mod error;
mod finetune;
mod network;
mod quantizers;

pub mod deploy;
pub mod pack;
pub mod prune;

pub use codebook::Codebook;
pub use error::QuantError;
pub use finetune::{finetune, FinetuneConfig};
pub use network::{quantize_network, quantize_network_with, QuantizedNetwork, QuantizedSlot};
pub use quantizers::{
    KMeansQuantizer, LinearQuantizer, Quantizer, TargetCorrelatedQuantizer,
    WeightedEntropyQuantizer,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, QuantError>;
