//! Evaluation metrics for the `qce` workspace.
//!
//! These are the measurement instruments behind every table of the paper:
//!
//! * [`mape`] — *mean absolute pixel error* between a reconstructed image
//!   and its original (Tables II–IV; "badly encoded" means MAPE > 20).
//! * [`ssim`] — structural similarity (Wang et al., 2004), used for the
//!   face-texture comparison of Table IV / Fig. 5.
//! * [`distribution`] — KL divergence and 1-Wasserstein distance between
//!   histograms, quantifying the weight-distribution reshaping of
//!   Figs. 2–3.
//!
//! # Examples
//!
//! ```
//! use qce_data::Image;
//! use qce_metrics::{mape, ssim};
//!
//! # fn main() -> Result<(), qce_data::DataError> {
//! let a = Image::new(vec![10, 20, 30, 40], 1, 2, 2)?;
//! let b = Image::new(vec![12, 18, 30, 44], 1, 2, 2)?;
//! assert_eq!(mape(&a, &b), 2.0);
//! assert!((ssim(&a, &a) - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod image;

pub mod distribution;

pub use image::{mape, mape_slices, ssim};
