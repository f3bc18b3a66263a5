//! Synthetic image datasets and the data-preprocessing stage of the
//! DAC'20 quantized correlation encoding attack.
//!
//! The paper evaluates on CIFAR-10 and FaceScrub; neither is shippable
//! with an offline reproduction, so this crate provides procedurally
//! generated substitutes with the two properties the attack actually
//! depends on (see `DESIGN.md` §2):
//!
//! 1. **Learnability** — class-conditioned structure a small CNN separates
//!    with high accuracy ([`SynthCifar`], [`SynthFaces`]).
//! 2. **A controllable per-image pixel-std spectrum** — the §IV-A
//!    preprocessing clusters images by pixel standard deviation and picks
//!    targets from a band around the dataset mean; the generators spread
//!    per-image contrast so every band of Fig. 2(b) is populated
//!    ([`select`]).
//!
//! [`Image`] is the 8-bit pixel container (planar CHW), [`Dataset`] pairs
//! images with labels and converts to training tensors, and [`io`] writes
//! PGM/PPM files for visual inspection of reconstructed images (Fig. 5).
//!
//! # Examples
//!
//! ```
//! use qce_data::{select, SynthCifar};
//!
//! # fn main() -> Result<(), qce_data::DataError> {
//! let data = SynthCifar::new(16).rgb(true).generate(200, 1)?;
//! let sel = select::select_targets(&data, 5.0, 20 * 16 * 16 * 3, 2)?;
//! assert!(!sel.indices.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod image;

pub mod io;
pub mod select;
pub mod synth;

pub use dataset::Dataset;
pub use error::DataError;
pub use image::Image;
pub use synth::{SynthCifar, SynthFaces};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
