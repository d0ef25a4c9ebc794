//! The DAC'15 methodology: group-lasso noise-sensor placement and OLS
//! full-chip voltage-map prediction.
//!
//! Given training data — candidate-location voltages `X` (`M x N`) and
//! critical-node voltages `F` (`K x N`), both collected from power-grid
//! simulation — this crate implements the paper's Steps 0–8:
//!
//! 1. **Normalize** `X`, `F` to zero-mean/unit-variance `Z`, `G`
//!    ([`voltsense_linalg::stats::Normalizer`]).
//! 2. **Select sensors** by solving the constrained multi-task group lasso
//!    `min ‖G − βZ‖_F s.t. Σ‖β_m‖₂ ≤ λ` and keeping candidates with
//!    `‖β_m‖₂ > T` ([`SelectionProblem`], [`SelectionHomotopy`]).
//! 3. **Refit by OLS** on the selected sensors only, in the original volt
//!    units, because the GL coefficients are biased by the budget
//!    constraint ([`VoltageMapModel`]).
//! 4. **Monitor at runtime**: predict every critical-node voltage from the
//!    placed sensors' readings and alarm when any prediction crosses the
//!    emergency threshold ([`VoltageMapModel::detect`],
//!    [`detection`]).
//!
//! [`Methodology`] packages the whole flow; [`GlDirectModel`] implements
//! the paper's Eq. 14 strawman (predicting straight from the biased GL
//! coefficients) for the ablation study that motivates the OLS refit.
//!
//! # Example
//!
//! ```
//! use voltsense_linalg::Matrix;
//! use voltsense_core::{Methodology, MethodologyConfig};
//!
//! # fn main() -> Result<(), voltsense_core::CoreError> {
//! // Tiny synthetic problem: one critical node tracks candidate 0.
//! let x = Matrix::from_rows(&[
//!     &[0.99, 0.84, 0.93, 0.88, 0.97, 0.86, 0.95, 0.90],
//!     &[0.96, 0.95, 0.97, 0.96, 0.95, 0.96, 0.97, 0.95],
//! ])?;
//! let f = Matrix::from_rows(&[&[0.98, 0.82, 0.91, 0.86, 0.96, 0.84, 0.94, 0.88]])?;
//! let fitted = Methodology::fit(&x, &f, &MethodologyConfig::default())?;
//! assert!(fitted.sensors().contains(&0));
//! let prediction = fitted.model().predict_from_candidates(&[0.85, 0.96])?;
//! assert!(prediction[0] < 0.90);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detection;
pub mod diagnostics;
mod error;
pub mod metrics;
pub mod monitor;
mod pipeline;
mod predict;
mod selection;

pub use error::CoreError;
pub use monitor::{
    EmergencyMonitor, FaultPolicy, MonitorCheckpoint, MonitorDecision, MonitorStats, SensorHealth,
};
pub use pipeline::{EvaluationReport, FittedMethodology, Methodology, MethodologyConfig};
pub use predict::{CrossFamily, FaultTolerantModel, GlDirectModel, VoltageMapModel};
pub use selection::{SelectionHomotopy, SelectionProblem, SelectionResult};
