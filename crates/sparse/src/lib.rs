//! Sparse linear algebra for power-grid analysis.
//!
//! A full-chip power delivery network is a large, extremely sparse,
//! symmetric positive-definite system (a resistor mesh plus grounded
//! capacitors/pads). This crate provides exactly the kernels
//! `voltsense-powergrid` needs to solve it fast and repeatedly:
//!
//! * [`TripletMatrix`] — coordinate-format builder for stamping circuit
//!   elements.
//! * [`CsrMatrix`] — compressed sparse row storage with matrix-vector
//!   products.
//! * [`ordering`] — reverse Cuthill–McKee bandwidth reduction.
//! * [`EnvelopeCholesky`] — a profile (skyline) Cholesky factorization;
//!   after RCM ordering a 2-D grid matrix has a narrow envelope, so the
//!   DC operating point and factor-once/solve-per-timestep transient
//!   simulation are both cheap.
//!
//! # Example
//!
//! ```
//! use voltsense_sparse::{TripletMatrix, EnvelopeCholesky};
//!
//! # fn main() -> Result<(), voltsense_sparse::SparseError> {
//! // 1-D resistor chain: tridiagonal SPD system.
//! let mut t = TripletMatrix::new(3, 3);
//! for i in 0..3 {
//!     t.add(i, i, 2.0);
//! }
//! t.add(0, 1, -1.0); t.add(1, 0, -1.0);
//! t.add(1, 2, -1.0); t.add(2, 1, -1.0);
//! let a = t.to_csr();
//! let chol = EnvelopeCholesky::factor(&a)?;
//! let x = chol.solve(&[1.0, 0.0, 1.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod envelope;
mod error;
pub mod ordering;
mod triplet;

pub use csr::CsrMatrix;
pub use envelope::EnvelopeCholesky;
pub use error::SparseError;
pub use triplet::TripletMatrix;
