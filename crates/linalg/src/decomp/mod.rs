//! Dense matrix factorizations.
//!
//! * [`Cholesky`] — for symmetric positive-definite systems (the normal
//!   equations of the OLS refit, Gram matrices of selected sensors).
//! * [`Qr`] — Householder QR, the numerically robust path for least squares
//!   when the Gram matrix is ill-conditioned.
//! * [`SymmetricEigen`] — Jacobi eigendecomposition for spectral
//!   diagnostics (sensor-Gram conditioning, covariance spectra).

mod cholesky;
mod eigen;
mod qr;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use qr::Qr;
