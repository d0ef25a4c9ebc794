//! Dense linear algebra for the voltsense workspace.
//!
//! The Rust statistics ecosystem is thin, and the DAC'15 methodology this
//! workspace reproduces needs only a compact, well-tested set of kernels:
//!
//! * [`Matrix`] — a row-major dense matrix with the usual arithmetic,
//!   slicing and reduction operations.
//! * [`decomp`] — Cholesky and Householder QR factorizations with solve
//!   routines, plus a Jacobi symmetric eigensolver.
//! * [`lstsq`] — ordinary and ridge least squares, with or without an
//!   intercept, built on the factorizations.
//! * [`stats`] — per-row means/standard deviations, the [`stats::Normalizer`]
//!   used to form the paper's `Z`/`G` matrices, and correlation helpers.
//! * [`vec_ops`] — small slice kernels (the mean).
//!
//! # Example
//!
//! ```
//! use voltsense_linalg::{Matrix, lstsq};
//!
//! # fn main() -> Result<(), voltsense_linalg::LinalgError> {
//! // Fit y = 2 x + 1 from four noiseless observations.
//! let x = Matrix::from_rows(&[&[0.0, 1.0, 2.0, 3.0]])?;
//! let y = Matrix::from_rows(&[&[1.0, 3.0, 5.0, 7.0]])?;
//! let fit = lstsq::ols_with_intercept(&x, &y)?;
//! assert!((fit.coefficients[(0, 0)] - 2.0).abs() < 1e-10);
//! assert!((fit.intercept[0] - 1.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the one exception is the run-time AVX2 dispatch
// of the lane kernels in `matrix.rs`, which calls each `#[target_feature]`
// twin in an `unsafe` block right after `is_x86_feature_detected!`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
mod error;
pub mod lstsq;
mod matrix;
pub mod stats;
pub mod vec_ops;

pub use error::LinalgError;
pub use matrix::Matrix;
