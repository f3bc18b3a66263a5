//! Minimal dense `f32` tensor library underpinning the `qce` workspace.
//!
//! This crate provides exactly the numerical substrate the DAC'20
//! *quantized correlation encoding attack* reproduction needs:
//!
//! * [`Tensor`] — a contiguous, row-major, n-dimensional `f32` array with
//!   elementwise arithmetic, reductions and reshaping.
//! * [`linalg`] — 2-D matrix multiplication and transposition.
//! * [`conv`] — im2col-based 2-D convolution and pooling with full
//!   backward passes (the building blocks of `qce-nn` layers).
//! * [`init`] — deterministic, seeded weight initializers (Kaiming,
//!   Xavier, uniform) built on a Box–Muller normal sampler.
//! * [`stats`] — scalar statistics (mean/std/histogram) shared by the
//!   data-preprocessing and quantization stages of the attack flow.
//! * [`par`] — a zero-dependency scoped thread pool whose static work
//!   partitioning keeps every kernel **bit-for-bit identical across
//!   thread counts** (`QCE_THREADS` selects the worker count).
//!
//! * [`simd`] — runtime-dispatched SIMD micro-kernels (AVX2 behind a
//!   one-time CPUID check, `QCE_SIMD=off|auto` override) whose vector
//!   paths perform the same IEEE-754 operations in the same per-element
//!   order as the scalar reference.
//! * [`tune`] — a startup probe of the cache hierarchy that sizes
//!   cache blocks and parallel work chunks, fixed for the life of the
//!   process.
//!
//! Everything is deterministic given explicit seeds: the blocked,
//! parallel and SIMD kernels all fix their floating-point accumulation
//! order independently of the thread count *and* of the vector width,
//! so `QCE_THREADS=1` and `QCE_THREADS=8` — with `QCE_SIMD=off` or
//! `auto` — produce the same bytes. `unsafe` is denied crate-wide and
//! granted only to the [`simd`] module, where every intrinsic call sits
//! behind the runtime feature check.
//!
//! # Examples
//!
//! ```
//! use qce_tensor::Tensor;
//!
//! # fn main() -> Result<(), qce_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = qce_tensor::linalg::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod conv;
pub mod init;
pub mod linalg;
pub mod par;
pub mod simd;
pub mod stats;
pub mod tune;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
