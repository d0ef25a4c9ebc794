//! Statistical helpers: per-row standardization and correlation.
//!
//! The paper requires `x` and `f` to be normalized to zero mean and unit
//! variance before the group-lasso step (its Eq. 9–11). [`Normalizer`]
//! implements exactly that transformation — fitted on training columns,
//! applicable to new samples, and invertible so predicted `g*` values can be
//! mapped back to volts.

use voltsense_parallel as parallel;

use crate::matrix::PAR_TASK_ELEMS;
use crate::{LinalgError, Matrix};

/// `f(i, row i)` for every row of `m`, row blocks on the pool. Each row
/// is reduced serially by one task, so the result is bit-identical at
/// any thread count.
fn per_row(m: &Matrix, f: impl Fn(usize, &[f64]) -> f64 + Sync) -> Vec<f64> {
    let mut out = vec![0.0; m.rows()];
    let min_rows = PAR_TASK_ELEMS.div_ceil(m.cols().max(1));
    parallel::for_each_row_block(&mut out, 1, min_rows, |first, block| {
        for (i, o) in (first..).zip(block) {
            *o = f(i, m.row(i));
        }
    });
    out
}

/// Mean of each row of a matrix (one value per row).
pub fn row_means(m: &Matrix) -> Vec<f64> {
    let n = m.cols().max(1) as f64;
    per_row(m, |_, row| row.iter().sum::<f64>() / n)
}

/// Population standard deviation of each row.
pub fn row_stds(m: &Matrix) -> Vec<f64> {
    row_stds_about(m, &row_means(m))
}

/// Population standard deviation of each row about the given row means.
fn row_stds_about(m: &Matrix, means: &[f64]) -> Vec<f64> {
    let n = m.cols().max(1) as f64;
    per_row(m, |i, row| {
        let mu = means[i];
        (row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / n).sqrt()
    })
}

/// Pearson correlation between two equally-long slices.
///
/// Returns 0 when either slice has zero variance.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    assert!(!a.is_empty(), "pearson: empty input");
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    let denom = (va * vb).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        cov / denom
    }
}

/// Per-row standardization fitted on a training matrix whose **columns are
/// samples** (the paper's `X`, `F` layout: variable per row, sample per
/// column).
///
/// Rows with (near-)zero variance are mapped with a unit scale so the
/// transform stays invertible; such rows carry no information and the
/// group lasso will assign them zero coefficients anyway.
///
/// # Example
///
/// ```
/// use voltsense_linalg::{Matrix, stats::Normalizer};
///
/// # fn main() -> Result<(), voltsense_linalg::LinalgError> {
/// let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]])?;
/// let norm = Normalizer::fit(&x);
/// let z = norm.apply(&x)?;
/// // Zero mean...
/// assert!(z.row(0).iter().sum::<f64>().abs() < 1e-12);
/// // ...and the inverse recovers the input.
/// assert!(norm.invert(&z)?.approx_eq(&x, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Normalizer {
    /// Threshold below which a row's standard deviation is treated as zero.
    const STD_FLOOR: f64 = 1e-12;

    /// Fits means and standard deviations on the rows of `training`.
    pub fn fit(training: &Matrix) -> Self {
        let means = row_means(training);
        let stds = row_stds_about(training, &means)
            .into_iter()
            .map(|s| if s < Self::STD_FLOOR { 1.0 } else { s })
            .collect();
        Normalizer { means, stds }
    }

    /// Number of variables (rows) this normalizer was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Fitted per-row means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-row standard deviations (zero-variance rows report 1.0).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Standardizes a matrix with the fitted parameters:
    /// `z_ij = (x_ij − μ_i) / σ_i`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `m.rows() != self.dim()`.
    pub fn apply(&self, m: &Matrix) -> Result<Matrix, LinalgError> {
        if m.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "normalizer apply",
                left: (self.dim(), 0),
                right: m.shape(),
            });
        }
        let cols = m.cols();
        let mut out = Matrix::zeros(m.rows(), cols);
        let min_rows = PAR_TASK_ELEMS.div_ceil(cols.max(1));
        parallel::for_each_row_block(out.as_mut_slice(), cols, min_rows, |first, block| {
            for (i, orow) in (first..).zip(block.chunks_mut(cols)) {
                let (mu, inv) = (self.means[i], 1.0 / self.stds[i]);
                for (o, &v) in orow.iter_mut().zip(m.row(i)) {
                    *o = (v - mu) * inv;
                }
            }
        });
        Ok(out)
    }

    /// Standardizes a single sample vector (one value per variable).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.dim()`.
    pub fn apply_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "normalizer apply_vec",
                left: (self.dim(), 1),
                right: (x.len(), 1),
            });
        }
        Ok(x.iter()
            .enumerate()
            .map(|(i, &v)| (v - self.means[i]) / self.stds[i])
            .collect())
    }

    /// Inverse transform: `x_ij = z_ij σ_i + μ_i`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `m.rows() != self.dim()`.
    pub fn invert(&self, m: &Matrix) -> Result<Matrix, LinalgError> {
        if m.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "normalizer invert",
                left: (self.dim(), 0),
                right: m.shape(),
            });
        }
        let mut out = m.clone();
        for i in 0..out.rows() {
            let mu = self.means[i];
            let s = self.stds[i];
            for v in out.row_mut(i) {
                *v = *v * s + mu;
            }
        }
        Ok(out)
    }

    /// Inverse transform for a single sample vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `z.len() != self.dim()`.
    pub fn invert_vec(&self, z: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if z.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "normalizer invert_vec",
                left: (self.dim(), 1),
                right: (z.len(), 1),
            });
        }
        Ok(z.iter()
            .enumerate()
            .map(|(i, &v)| v * self.stds[i] + self.means[i])
            .collect())
    }

    /// Restriction of this normalizer to a subset of its variables, in the
    /// given order. Used to carry sensor-candidate normalization over to the
    /// selected sensors.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Normalizer {
        Normalizer {
            means: indices.iter().map(|&i| self.means[i]).collect(),
            stds: indices.iter().map(|&i| self.stds[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[10.0, 10.0, 10.0, 10.0],
            &[-1.0, 1.0, -1.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn row_means_known() {
        assert_eq!(row_means(&training()), vec![2.5, 10.0, 0.0]);
    }

    #[test]
    fn row_stds_known() {
        let stds = row_stds(&training());
        assert!((stds[0] - (1.25_f64).sqrt()).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
        assert!((stds[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_rows_have_zero_mean_unit_variance() {
        let t = training();
        let norm = Normalizer::fit(&t);
        let z = norm.apply(&t).unwrap();
        for i in [0usize, 2] {
            let row = z.row(i);
            let mu: f64 = row.iter().sum::<f64>() / row.len() as f64;
            let var: f64 = row.iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / row.len() as f64;
            assert!(mu.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_variance_row_is_stable() {
        let t = training();
        let norm = Normalizer::fit(&t);
        let z = norm.apply(&t).unwrap();
        // Constant row maps to all-zeros (scale 1.0), not NaN.
        assert!(z.row(1).iter().all(|&v| v == 0.0));
        assert!(z.is_finite());
    }

    #[test]
    fn round_trip_matrix_and_vec() {
        let t = training();
        let norm = Normalizer::fit(&t);
        let z = norm.apply(&t).unwrap();
        assert!(norm.invert(&z).unwrap().approx_eq(&t, 1e-12));
        let x = [2.0, 10.0, 0.5];
        let zv = norm.apply_vec(&x).unwrap();
        let back = norm.invert_vec(&zv).unwrap();
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn select_restricts_variables() {
        let norm = Normalizer::fit(&training());
        let sub = norm.select(&[2, 0]);
        assert_eq!(sub.dim(), 2);
        assert_eq!(sub.means()[0], 0.0);
        assert_eq!(sub.means()[1], 2.5);
    }

    #[test]
    fn shape_mismatch_errors() {
        let norm = Normalizer::fit(&training());
        assert!(norm.apply(&Matrix::zeros(2, 4)).is_err());
        assert!(norm.invert(&Matrix::zeros(2, 4)).is_err());
        assert!(norm.apply_vec(&[1.0]).is_err());
        assert!(norm.invert_vec(&[1.0]).is_err());
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 4.0, 6.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [-1.0, -2.0, -3.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }
}
