//! Multi-task group-lasso solvers for sensor selection.
//!
//! The paper's sensor-selection step (its Eq. 12) is the constrained
//! multi-task group lasso
//!
//! ```text
//! min_β ‖G − β Z‖_F    s.t.   Σ_m ‖β_m‖₂ ≤ λ
//! ```
//!
//! where `β_m` (column `m` of the `K x M` coefficient matrix) groups every
//! coefficient attached to sensor candidate `m`. The paper reformulates
//! this as an SOCP and hands it to an interior-point solver; this crate
//! instead solves the equivalent *penalized* problem
//!
//! ```text
//! min_β ½‖G − β Z‖_F² + μ Σ_m ‖β_m‖₂
//! ```
//!
//! by block coordinate descent ([`solve_penalized`]) — each column update
//! has the closed form `β_m = soft(c_m, μ) / S_mm` — and recovers the
//! constrained solution by a monotone bisection on `μ`
//! ([`HomotopySolver::solve_constrained`]), so `λ` keeps the paper's
//! budget semantics. BCD is the crate's only solver; [`kkt_violation`]
//! verifies optimality of any solution, and the crate's tests also check
//! BCD against an independent accelerated proximal-gradient oracle.
//!
//! Budget and penalty sweeps — the shape of every experiment in the
//! paper — run on one [`HomotopySolver`]: it chains warm starts and
//! recorded (μ, budget) probes across solves, so each sweep point and
//! each bisection step starts from the previous solution and the
//! tightest bracket the history supports. The BCD inner loop also
//! prunes to the active set between periodic full passes
//! ([`GlOptions::full_pass_interval`]), which is where most of the
//! sweep-level speedup comes from on correlated problems.
//!
//! Problems are stored in covariance form ([`GlProblem`]: `S = Z Zᵀ`,
//! `Q = G Zᵀ`), so solver cost is independent of the sample count `N`
//! after a one-time `O(M²N + KMN)` reduction — the right trade for
//! `N ≈ 10⁴` training maps.
//!
//! # Example
//!
//! ```
//! use voltsense_linalg::Matrix;
//! use voltsense_grouplasso::{GlOptions, GlProblem, HomotopySolver};
//!
//! # fn main() -> Result<(), voltsense_grouplasso::GroupLassoError> {
//! // Two candidates; the target depends only on the first.
//! let z = Matrix::from_rows(&[
//!     &[1.0, -1.0, 0.5, -0.5, 1.5, -1.5],
//!     &[0.1, 0.2, -0.1, -0.2, 0.1, -0.1],
//! ])?;
//! let g = Matrix::from_rows(&[&[1.0, -1.0, 0.5, -0.5, 1.5, -1.5]])?;
//! let problem = GlProblem::from_data(&z, &g)?;
//! let mut solver = HomotopySolver::new(&problem, GlOptions::default())?;
//! let sol = solver.solve_constrained(0.9)?;
//! let norms = sol.solution.group_norms();
//! assert!(norms[0] > 0.5 && norms[1] < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bcd;
mod cv;
mod error;
mod homotopy;
mod kkt;
mod problem;

pub use bcd::{solve_penalized, GlOptions, GlSolution};
#[doc(hidden)]
pub use bcd::sweep_groups;
pub use cv::{cross_validate, CvResult};
pub use error::GroupLassoError;
pub use homotopy::{ConstrainedSolution, HomotopySolver, PathPoint};
pub use kkt::kkt_violation;
pub use problem::GlProblem;
