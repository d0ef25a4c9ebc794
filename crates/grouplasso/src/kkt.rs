//! KKT optimality checking for penalized group-lasso solutions.

use voltsense_linalg::Matrix;

use crate::problem::{column_norm, GlProblem};
use crate::GroupLassoError;

/// Largest violation of the KKT conditions of
/// `min ½‖G − βZ‖² + μ Σ‖β_m‖₂` at `beta`.
///
/// For each group `m`, with smooth gradient column
/// `r_m = (βS − Q)[:, m]`:
///
/// * active group (`β_m ≠ 0`): stationarity requires
///   `r_m + μ β_m / ‖β_m‖ = 0`; the violation is that vector's norm;
/// * inactive group: subgradient feasibility requires `‖r_m‖ ≤ μ`; the
///   violation is `max(0, ‖r_m‖ − μ)`.
///
/// A correct solver drives this to (near) zero — used by tests to verify
/// BCD and its test oracle against the optimality conditions rather than
/// against each other alone.
///
/// # Errors
///
/// * [`GroupLassoError::ShapeMismatch`] if `beta` does not match the
///   problem.
/// * [`GroupLassoError::InvalidParameter`] for a negative/non-finite `μ`.
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_grouplasso::{GlProblem, GlOptions, solve_penalized, kkt_violation};
///
/// # fn main() -> Result<(), voltsense_grouplasso::GroupLassoError> {
/// let z = Matrix::from_rows(&[&[1.0, -1.0, 0.5, -0.5]])?;
/// let g = Matrix::from_rows(&[&[0.9, -1.1, 0.4, -0.6]])?;
/// let p = GlProblem::from_data(&z, &g)?;
/// let sol = solve_penalized(&p, 0.1, &GlOptions::default(), None)?;
/// assert!(kkt_violation(&p, &sol.beta, 0.1)? < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn kkt_violation(
    problem: &GlProblem,
    beta: &Matrix,
    mu: f64,
) -> Result<f64, GroupLassoError> {
    problem.check_beta(beta)?;
    if !mu.is_finite() || mu < 0.0 {
        return Err(GroupLassoError::InvalidParameter {
            what: format!("penalty mu must be finite and >= 0, got {mu}"),
        });
    }
    let grad = {
        let mut g = beta.matmul(problem.s())?;
        g -= problem.q();
        g
    };
    let k_count = problem.num_targets();
    let mut worst = 0.0_f64;
    for m in 0..problem.num_candidates() {
        let bnorm = column_norm(beta, m);
        let violation = if bnorm > 0.0 {
            // ‖r_m + μ β_m/‖β_m‖‖
            let mut acc = 0.0;
            for k in 0..k_count {
                let v = grad[(k, m)] + mu * beta[(k, m)] / bnorm;
                acc += v * v;
            }
            acc.sqrt()
        } else {
            (column_norm(&grad, m) - mu).max(0.0)
        };
        worst = worst.max(violation);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_penalized, GlOptions};

    fn toy_problem() -> GlProblem {
        let z = Matrix::from_rows(&[
            &[1.0, -1.0, 0.8, -0.8, 1.2, -1.2],
            &[0.4, 0.6, -0.5, -0.4, 0.3, -0.4],
            &[0.1, -0.2, 0.3, -0.1, 0.2, -0.3],
        ])
        .unwrap();
        let g = Matrix::from_rows(&[
            &[0.9, -1.0, 0.7, -0.9, 1.1, -1.1],
            &[0.2, 0.4, -0.4, -0.2, 0.2, -0.2],
        ])
        .unwrap();
        GlProblem::from_data(&z, &g).unwrap()
    }

    #[test]
    fn bcd_solutions_satisfy_kkt() {
        let p = toy_problem();
        let opts = GlOptions {
            tolerance: 1e-12,
            max_sweeps: 10_000,
            ..GlOptions::default()
        };
        for &mu in &[0.05, 0.3, 1.0] {
            let sol = solve_penalized(&p, mu, &opts, None).unwrap();
            let v = kkt_violation(&p, &sol.beta, mu).unwrap();
            assert!(v < 1e-8, "mu={mu}: KKT violation {v}");
        }
    }

    #[test]
    fn zero_beta_kkt_holds_iff_mu_above_mu_max() {
        let p = toy_problem();
        let zero = Matrix::zeros(p.num_targets(), p.num_candidates());
        let above = kkt_violation(&p, &zero, p.mu_max() * 1.01).unwrap();
        assert!(above < 1e-12);
        let below = kkt_violation(&p, &zero, p.mu_max() * 0.5).unwrap();
        assert!(below > 0.0);
    }

    #[test]
    fn random_beta_violates() {
        let p = toy_problem();
        let junk = Matrix::filled(p.num_targets(), p.num_candidates(), 0.7);
        let v = kkt_violation(&p, &junk, 0.1).unwrap();
        assert!(v > 0.01);
    }

    #[test]
    fn bad_inputs_rejected() {
        let p = toy_problem();
        let beta = Matrix::zeros(p.num_targets(), p.num_candidates());
        assert!(kkt_violation(&p, &beta, -1.0).is_err());
        assert!(kkt_violation(&p, &Matrix::zeros(1, 1), 0.1).is_err());
    }
}
