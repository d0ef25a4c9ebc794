use voltsense_linalg::Matrix;

use crate::GroupLassoError;

/// A multi-task group-lasso problem in covariance form.
///
/// Holds `S = Z Zᵀ` (`M x M` candidate Gram matrix), `Q = G Zᵀ`
/// (`K x M` target–candidate cross-products) and `‖G‖_F²`, which together
/// determine the objective
/// `½‖G − βZ‖² = ½(‖G‖² − 2⟨β, Q⟩ + ⟨βS, β⟩)` for any coefficient matrix
/// `β`. Solver cost after this reduction is independent of the sample
/// count.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct GlProblem {
    /// `Z Zᵀ`, `M x M`.
    s: Matrix,
    /// `G Zᵀ`, `K x M`.
    q: Matrix,
    /// `‖G‖_F²`.
    gg: f64,
    /// Number of samples the covariance form was reduced from (0 when
    /// constructed directly from covariance matrices).
    num_samples: usize,
}

impl GlProblem {
    /// Builds the problem from data matrices: `z` is `M x N` (normalized
    /// candidate voltages, one row per candidate), `g` is `K x N`
    /// (normalized critical-node voltages).
    ///
    /// # Errors
    ///
    /// * [`GroupLassoError::ShapeMismatch`] if the sample counts differ.
    /// * [`GroupLassoError::InvalidParameter`] if either matrix is empty.
    /// * [`GroupLassoError::NonFinite`] if any entry is NaN/infinite.
    pub fn from_data(z: &Matrix, g: &Matrix) -> Result<Self, GroupLassoError> {
        if z.cols() != g.cols() {
            return Err(GroupLassoError::ShapeMismatch {
                what: "sample count of Z and G",
                expected: z.cols(),
                actual: g.cols(),
            });
        }
        if z.rows() == 0 || g.rows() == 0 || z.cols() == 0 {
            return Err(GroupLassoError::InvalidParameter {
                what: format!(
                    "problem must be non-empty (Z is {}x{}, G is {}x{})",
                    z.rows(),
                    z.cols(),
                    g.rows(),
                    g.cols()
                ),
            });
        }
        if !z.is_finite() {
            return Err(GroupLassoError::NonFinite { what: "Z" });
        }
        if !g.is_finite() {
            return Err(GroupLassoError::NonFinite { what: "G" });
        }
        let s = z.gram();
        let q = g.matmul_t(z)?;
        let gg = g.as_slice().iter().map(|x| x * x).sum();
        Ok(GlProblem {
            s,
            q,
            gg,
            num_samples: z.cols(),
        })
    }

    /// Builds the problem directly from covariance matrices `S = Z Zᵀ`
    /// (`M x M`, symmetric PSD) and `Q = G Zᵀ` (`K x M`), plus `‖G‖_F²`.
    ///
    /// # Errors
    ///
    /// * [`GroupLassoError::ShapeMismatch`] if `S` is not square or its
    ///   dimension differs from `Q`'s column count.
    /// * [`GroupLassoError::NonFinite`] on NaN/infinite entries or negative
    ///   `gg`.
    pub fn from_covariance(s: Matrix, q: Matrix, gg: f64) -> Result<Self, GroupLassoError> {
        if !s.is_square() {
            return Err(GroupLassoError::ShapeMismatch {
                what: "S squareness",
                expected: s.rows(),
                actual: s.cols(),
            });
        }
        if q.cols() != s.rows() {
            return Err(GroupLassoError::ShapeMismatch {
                what: "Q columns vs S dimension",
                expected: s.rows(),
                actual: q.cols(),
            });
        }
        if !s.is_finite() || !q.is_finite() || !gg.is_finite() || gg < 0.0 {
            return Err(GroupLassoError::NonFinite { what: "covariance input" });
        }
        Ok(GlProblem {
            s,
            q,
            gg,
            num_samples: 0,
        })
    }

    /// Number of sensor candidates `M`.
    pub fn num_candidates(&self) -> usize {
        self.s.rows()
    }

    /// Number of targets (critical nodes) `K`.
    pub fn num_targets(&self) -> usize {
        self.q.rows()
    }

    /// Sample count the problem was reduced from (0 if constructed from
    /// covariance form).
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// The candidate Gram matrix `S = Z Zᵀ`.
    pub fn s(&self) -> &Matrix {
        &self.s
    }

    /// The cross-product matrix `Q = G Zᵀ`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// `‖G‖_F²`.
    pub fn gg(&self) -> f64 {
        self.gg
    }

    /// Smooth part of the objective, `½‖G − βZ‖_F²`, for a `K x M`
    /// coefficient matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GroupLassoError::ShapeMismatch`] if `beta` is not `K x M`.
    pub fn smooth_objective(&self, beta: &Matrix) -> Result<f64, GroupLassoError> {
        self.check_beta(beta)?;
        let bs = beta.matmul(&self.s)?;
        let quad: f64 = bs
            .as_slice()
            .iter()
            .zip(beta.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let cross: f64 = self
            .q
            .as_slice()
            .iter()
            .zip(beta.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        Ok(0.5 * (self.gg - 2.0 * cross + quad))
    }

    /// Smallest penalty at which the all-zero solution is optimal:
    /// `μ_max = max_m ‖Q[:, m]‖₂`.
    pub fn mu_max(&self) -> f64 {
        (0..self.num_candidates())
            .map(|m| column_norm(&self.q, m))
            .fold(0.0, f64::max)
    }

    pub(crate) fn check_beta(&self, beta: &Matrix) -> Result<(), GroupLassoError> {
        if beta.rows() != self.num_targets() {
            return Err(GroupLassoError::ShapeMismatch {
                what: "beta rows",
                expected: self.num_targets(),
                actual: beta.rows(),
            });
        }
        if beta.cols() != self.num_candidates() {
            return Err(GroupLassoError::ShapeMismatch {
                what: "beta cols",
                expected: self.num_candidates(),
                actual: beta.cols(),
            });
        }
        Ok(())
    }
}

/// l2 norm of column `m` of a matrix.
pub(crate) fn column_norm(m: &Matrix, col: usize) -> f64 {
    m.col_iter(col).map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Matrix, Matrix) {
        let z = Matrix::from_rows(&[
            &[1.0, -1.0, 2.0, -2.0],
            &[0.5, 0.5, -0.5, -0.5],
        ])
        .unwrap();
        let g = Matrix::from_rows(&[&[1.0, 0.0, 1.0, 0.0], &[0.0, 1.0, 0.0, 1.0]]).unwrap();
        (z, g)
    }

    #[test]
    fn covariance_reduction_matches_definitions() {
        let (z, g) = toy();
        let p = GlProblem::from_data(&z, &g).unwrap();
        let s_ref = z.matmul(&z.transpose()).unwrap();
        let q_ref = g.matmul(&z.transpose()).unwrap();
        assert!(p.s().approx_eq(&s_ref, 1e-12));
        assert!(p.q().approx_eq(&q_ref, 1e-12));
        assert!((p.gg() - g.frobenius_norm().powi(2)).abs() < 1e-12);
        assert_eq!(p.num_candidates(), 2);
        assert_eq!(p.num_targets(), 2);
        assert_eq!(p.num_samples(), 4);
    }

    #[test]
    fn smooth_objective_matches_residual_norm() {
        let (z, g) = toy();
        let p = GlProblem::from_data(&z, &g).unwrap();
        let beta = Matrix::from_rows(&[&[0.3, -0.2], &[0.1, 0.4]]).unwrap();
        let resid = &g - &beta.matmul(&z).unwrap();
        let expected = 0.5 * resid.frobenius_norm().powi(2);
        let got = p.smooth_objective(&beta).unwrap();
        assert!((got - expected).abs() < 1e-10, "{got} vs {expected}");
    }

    #[test]
    fn zero_beta_objective_is_half_gg() {
        let (z, g) = toy();
        let p = GlProblem::from_data(&z, &g).unwrap();
        let beta = Matrix::zeros(2, 2);
        assert!((p.smooth_objective(&beta).unwrap() - 0.5 * p.gg()).abs() < 1e-12);
    }

    #[test]
    fn mu_max_is_largest_q_column_norm() {
        let (z, g) = toy();
        let p = GlProblem::from_data(&z, &g).unwrap();
        let q = p.q();
        let manual = (0..2)
            .map(|m| (0..2).map(|k| q[(k, m)].powi(2)).sum::<f64>().sqrt())
            .fold(0.0, f64::max);
        assert!((p.mu_max() - manual).abs() < 1e-12);
    }

    #[test]
    fn construction_errors() {
        let (z, g) = toy();
        let g_bad = Matrix::zeros(2, 3);
        assert!(GlProblem::from_data(&z, &g_bad).is_err());
        assert!(GlProblem::from_data(&Matrix::zeros(0, 4), &g).is_err());
        let mut z_nan = z.clone();
        z_nan[(0, 0)] = f64::NAN;
        assert!(matches!(
            GlProblem::from_data(&z_nan, &g),
            Err(GroupLassoError::NonFinite { .. })
        ));
    }

    #[test]
    fn from_covariance_validation() {
        let s = Matrix::identity(2);
        let q = Matrix::zeros(1, 2);
        assert!(GlProblem::from_covariance(s.clone(), q.clone(), 1.0).is_ok());
        assert!(GlProblem::from_covariance(Matrix::zeros(2, 3), q.clone(), 1.0).is_err());
        assert!(GlProblem::from_covariance(s.clone(), Matrix::zeros(1, 3), 1.0).is_err());
        assert!(GlProblem::from_covariance(s, q, -1.0).is_err());
    }

    #[test]
    fn beta_shape_checked() {
        let (z, g) = toy();
        let p = GlProblem::from_data(&z, &g).unwrap();
        assert!(p.smooth_objective(&Matrix::zeros(3, 2)).is_err());
        assert!(p.smooth_objective(&Matrix::zeros(2, 5)).is_err());
    }
}
