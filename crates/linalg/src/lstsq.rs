//! Ordinary least squares in the paper's data layout.
//!
//! Throughout the workspace, data matrices have **variables as rows and
//! samples as columns** (the paper's Eq. 6). A multi-output linear model is
//! therefore `F ≈ α X + c 1ᵀ` with `X: P x N` predictors, `F: K x N`
//! responses, coefficients `α: K x P` and intercept `c: K`.
//!
//! The solver centers both sides, forms the Gram matrix `X̄ X̄ᵀ` and solves
//! the normal equations by Cholesky; if the Gram matrix is numerically
//! indefinite/singular (collinear predictors), it falls back to Householder
//! QR on the centered design, and as a last resort adds a tiny ridge.
//!
//! The data enter that solve only through centred second moments, so
//! [`Moments`] keeps those (and no `N`-length matrix) and refits any
//! subset of the predictors with the same normal-equation step.

use voltsense_parallel as parallel;

use crate::decomp::{Cholesky, Qr};
use crate::matrix::PAR_TASK_ELEMS;
use crate::stats;
use crate::{LinalgError, Matrix};

/// Result of a least-squares fit: `F ≈ coefficients · X + intercept`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Coefficient matrix `α` (`K x P`).
    pub coefficients: Matrix,
    /// Intercept vector `c` (`K`).
    pub intercept: Vec<f64>,
    /// Root-mean-square residual over all outputs and samples.
    pub rms_residual: f64,
}

impl LinearFit {
    /// Predicts responses for a single sample `x` (`P` values):
    /// `f* = α x + c`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len()` differs from the
    /// number of predictors.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut f = vec![0.0; self.coefficients.rows()];
        self.predict_into(x, &mut f)?;
        Ok(f)
    }

    /// [`LinearFit::predict`] into a caller-provided output slice of
    /// length `K`, allocating nothing — the steady-state form of the
    /// per-reading runtime prediction.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on predictor-count or
    /// output-length mismatch.
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        self.coefficients.matvec_into(x, out)?;
        for (fi, ci) in out.iter_mut().zip(&self.intercept) {
            *fi += ci;
        }
        Ok(())
    }

    /// Predicts responses for a batch of samples (columns of `x`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on predictor-count mismatch.
    pub fn predict_matrix(&self, x: &Matrix) -> Result<Matrix, LinalgError> {
        let mut f = self.coefficients.matmul(x)?;
        for i in 0..f.rows() {
            let c = self.intercept[i];
            for v in f.row_mut(i) {
                *v += c;
            }
        }
        Ok(f)
    }
}

/// Solves the paper's OLS refit (Eq. 17):
/// `min_{α, c} ‖F − α X − C‖_F` with `X: P x N`, `F: K x N`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `X` and `F` disagree on the sample
///   count `N`.
/// * [`LinalgError::InvalidDimensions`] if there are no samples or no
///   predictors.
/// * [`LinalgError::NonFinite`] if the inputs contain NaN/infinity.
///
/// # Example
///
/// ```
/// use voltsense_linalg::{Matrix, lstsq};
///
/// # fn main() -> Result<(), voltsense_linalg::LinalgError> {
/// let x = Matrix::from_rows(&[&[0.0, 1.0, 2.0, 3.0]])?;
/// let f = Matrix::from_rows(&[&[1.0, 3.0, 5.0, 7.0], &[0.0, -1.0, -2.0, -3.0]])?;
/// let fit = lstsq::ols_with_intercept(&x, &f)?;
/// let pred = fit.predict(&[10.0])?;
/// assert!((pred[0] - 21.0).abs() < 1e-10);
/// assert!((pred[1] + 10.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn ols_with_intercept(x: &Matrix, f: &Matrix) -> Result<LinearFit, LinalgError> {
    check_inputs(x, f)?;
    let (k, n) = f.shape();

    // Center both sides.
    let x_means = stats::row_means(x);
    let f_means = stats::row_means(f);
    let xc = centered(x, &x_means);
    let fc = centered(f, &f_means);

    // Normal equations: α X̄ X̄ᵀ = F̄ X̄ᵀ  =>  solve the SPD system
    // G αᵀ = (F̄ X̄ᵀ)ᵀ where G = X̄ X̄ᵀ is symmetric.
    let gram = xc.gram();
    let fxt = fc.matmul_t(&xc)?; // K x P

    // Collinear predictors: try QR on the centered design X̄ᵀ (N x P).
    let qr = || {
        let qr = Qr::new(&xc.transpose()).ok()?;
        let at = qr.solve_least_squares_matrix(&fc.transpose()).ok()?;
        Some(at.transpose())
    };
    let (alpha, intercept) = solve_normal(gram, &fxt, &x_means, &f_means, qr)?;

    // Residual on the training data.
    let mut resid = alpha.matmul(x)?;
    for (i, &c) in intercept.iter().enumerate() {
        for v in resid.row_mut(i) {
            *v += c;
        }
    }
    resid -= f;
    let rms_residual = resid.frobenius_norm() / ((k * n) as f64).sqrt();

    Ok(LinearFit {
        coefficients: alpha,
        intercept,
        rms_residual,
    })
}

/// The checks [`ols_with_intercept`] and [`Moments::new`] share.
fn check_inputs(x: &Matrix, f: &Matrix) -> Result<(), LinalgError> {
    let (p, n) = x.shape();
    let (k, nf) = f.shape();
    if n != nf {
        return Err(LinalgError::ShapeMismatch {
            op: "ols sample count",
            left: x.shape(),
            right: f.shape(),
        });
    }
    if n == 0 || p == 0 || k == 0 {
        return Err(LinalgError::InvalidDimensions {
            what: format!("ols requires non-empty data, got X {p}x{n}, F {k}x{nf}"),
        });
    }
    if !x.is_finite() || !f.is_finite() {
        return Err(LinalgError::NonFinite { what: "ols input" });
    }
    Ok(())
}

/// The one normal-equation solve: `α · sxx = sfx` by Cholesky, else the
/// caller's `collinear` fallback (`None` when it has none), else a tiny
/// ridge; then the intercept `c = mean(F) − α mean(X)`.
fn solve_normal(
    mut sxx: Matrix,
    sfx: &Matrix,
    x_means: &[f64],
    f_means: &[f64],
    collinear: impl FnOnce() -> Option<Matrix>,
) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let alpha = match Cholesky::new(&sxx) {
        // Solve G aᵀ_row = sfx_row for each output row.
        Ok(chol) => chol.solve_matrix(&sfx.transpose())?.transpose(),
        Err(_) => match collinear() {
            Some(alpha) => alpha,
            None => ridge_fallback(&mut sxx, sfx)?,
        },
    };
    let alpha_mx = alpha.matvec(x_means)?;
    let intercept = f_means.iter().zip(&alpha_mx).map(|(fm, am)| fm - am).collect();
    Ok((alpha, intercept))
}

/// Last-resort path for degenerate designs: a tiny relative ridge makes the
/// Gram matrix SPD; the resulting fit is the minimum-norm-ish solution.
fn ridge_fallback(gram: &mut Matrix, fxt: &Matrix) -> Result<Matrix, LinalgError> {
    let bump = gram.max_abs().max(1.0) * 1e-10;
    for i in 0..gram.rows() {
        gram[(i, i)] += bump;
    }
    let chol = Cholesky::new(gram)?;
    let at = chol.solve_matrix(&fxt.transpose())?;
    Ok(at.transpose())
}

/// The centred second moments of an OLS problem (`X: P x N` predictors,
/// `F: K x N` responses): the row means of both, `Sxx = X̄ X̄ᵀ`
/// (`P x P`), `Sfx = F̄ X̄ᵀ` (`K x P`), each response's `Σ f̄²` and `N`.
/// That is all the normal equations read of the data, in `O(P² + KP)`
/// numbers whatever `N` is.
///
/// A sub-block of these moments is the moments of a sub-problem, so an
/// OLS refit on any subset of the predictors — with `F` as the response
/// ([`Moments::fit`]) or with another predictor as the response
/// ([`Moments::fit_predictor`]) — is a gather plus the normal-equation
/// step [`ols_with_intercept`] runs. Whenever that step's Cholesky factor
/// exists, the coefficients and intercept carry exactly the bits
/// `ols_with_intercept` gives on the selected rows of `X`: every entry of
/// `Sxx` and `Sfx` is its own lane-identity dot of two centred rows,
/// whichever matrix it was formed in. Two things differ, because they
/// need the data:
///
/// * collinear predictors go straight to the ridge fallback (no QR);
/// * the RMS residual is `√(max(0, Σ f̄² − tr(α Sfxᵀ)) / (K N))`, which
///   is the data residual at the OLS solution up to the rounding of that
///   difference (relative error about `ε · Σ f̄² / Σ r²`).
#[derive(Debug)]
pub struct Moments {
    x_means: Vec<f64>,
    f_means: Vec<f64>,
    sxx: Matrix,
    sfx: Matrix,
    /// `Σ_s (f_ks − f̄_k)²` per response `k`: the diagonal of `F̄ F̄ᵀ`.
    ff: Vec<f64>,
    n: usize,
}

impl Moments {
    /// Forms the moments with one `gram` and one `matmul_t`.
    ///
    /// # Errors
    ///
    /// As [`ols_with_intercept`].
    pub fn new(x: &Matrix, f: &Matrix) -> Result<Self, LinalgError> {
        check_inputs(x, f)?;
        let x_means = stats::row_means(x);
        let f_means = stats::row_means(f);
        let xc = centered(x, &x_means);
        let fc = centered(f, &f_means);
        let sxx = xc.gram();
        let sfx = fc.matmul_t(&xc)?;
        let ff = (0..fc.rows())
            .map(|k| fc.row(k).iter().map(|v| v * v).sum())
            .collect();
        Ok(Moments {
            x_means,
            f_means,
            sxx,
            sfx,
            ff,
            n: x.cols(),
        })
    }

    /// Number of predictors `P`.
    pub fn num_predictors(&self) -> usize {
        self.sxx.rows()
    }

    /// OLS of every response on the `predictors` (row positions into
    /// `X`, ascending, as `select_rows` would take them).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidDimensions`] for an empty or out-of-range
    /// predictor list; propagates a failed ridge factorisation.
    pub fn fit(&self, predictors: &[usize]) -> Result<LinearFit, LinalgError> {
        self.check(predictors)?;
        let sfx = self.sfx.select_cols(predictors);
        let ff = self.ff.iter().sum();
        self.solve(predictors, &sfx, &self.f_means, ff)
    }

    /// OLS of predictor `target` (a row of `X`) on the `predictors`.
    ///
    /// # Errors
    ///
    /// As [`Moments::fit`], and for an out-of-range `target`.
    pub fn fit_predictor(
        &self,
        target: usize,
        predictors: &[usize],
    ) -> Result<LinearFit, LinalgError> {
        self.check(predictors)?;
        self.check(&[target])?;
        let sfx = Matrix::from_fn(1, predictors.len(), |_, j| self.sxx[(target, predictors[j])]);
        let ff = self.sxx[(target, target)];
        self.solve(predictors, &sfx, &[self.x_means[target]], ff)
    }

    fn check(&self, predictors: &[usize]) -> Result<(), LinalgError> {
        let p = self.num_predictors();
        if predictors.is_empty() || predictors.iter().any(|&i| i >= p) {
            return Err(LinalgError::InvalidDimensions {
                what: format!("predictor list {predictors:?} is empty or outside 0..{p}"),
            });
        }
        Ok(())
    }

    fn solve(
        &self,
        predictors: &[usize],
        sfx: &Matrix,
        f_means: &[f64],
        ff: f64,
    ) -> Result<LinearFit, LinalgError> {
        let p = predictors.len();
        let sxx = Matrix::from_fn(p, p, |a, b| self.sxx[(predictors[a], predictors[b])]);
        let x_means: Vec<f64> = predictors.iter().map(|&i| self.x_means[i]).collect();
        let (alpha, intercept) = solve_normal(sxx, sfx, &x_means, f_means, || None)?;
        let explained: f64 = alpha.as_slice().iter().zip(sfx.as_slice()).map(|(a, s)| a * s).sum();
        let rms_residual = ((ff - explained).max(0.0) / (f_means.len() * self.n) as f64).sqrt();
        Ok(LinearFit {
            coefficients: alpha,
            intercept,
            rms_residual,
        })
    }
}

/// `x − μ` row by row, written straight into one fresh matrix (row
/// blocks on the pool, as in `Normalizer::apply`).
fn centered(m: &Matrix, means: &[f64]) -> Matrix {
    let cols = m.cols();
    let mut out = Matrix::zeros(m.rows(), cols);
    let min_rows = PAR_TASK_ELEMS.div_ceil(cols.max(1));
    parallel::for_each_row_block(out.as_mut_slice(), cols, min_rows, |first, block| {
        for (i, orow) in (first..).zip(block.chunks_mut(cols)) {
            let mu = means[i];
            for (o, &v) in orow.iter_mut().zip(m.row(i)) {
                *o = v - mu;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_recovery_multi_output() {
        // F = A X + c with known A, c; noiseless => exact recovery.
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0, 5.0],
            &[0.0, 1.0, 0.0, -1.0, 2.0],
        ])
        .unwrap();
        let a_true = Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 3.0]]).unwrap();
        let c_true = [1.0, -2.0];
        let mut f = a_true.matmul(&x).unwrap();
        for (i, &c) in c_true.iter().enumerate() {
            for v in f.row_mut(i) {
                *v += c;
            }
        }
        let fit = ols_with_intercept(&x, &f).unwrap();
        assert!(fit.coefficients.approx_eq(&a_true, 1e-10));
        for (c, ct) in fit.intercept.iter().zip(&c_true) {
            assert!((c - ct).abs() < 1e-10);
        }
        assert!(fit.rms_residual < 1e-10);
    }

    #[test]
    fn predict_single_and_batch_agree() {
        let x = Matrix::from_rows(&[&[0.0, 1.0, 2.0, 3.0]]).unwrap();
        let f = Matrix::from_rows(&[&[1.0, 3.1, 4.9, 7.0]]).unwrap();
        let fit = ols_with_intercept(&x, &f).unwrap();
        let batch = fit.predict_matrix(&x).unwrap();
        for j in 0..4 {
            let single = fit.predict(&[x[(0, j)]]).unwrap();
            assert!((single[0] - batch[(0, j)]).abs() < 1e-12);
        }
    }

    #[test]
    fn residual_orthogonality() {
        // OLS residual must be orthogonal to centered predictors.
        let x = Matrix::from_rows(&[
            &[1.0, -1.0, 2.0, 0.5, -0.3, 1.7],
            &[0.2, 0.9, -1.1, 0.4, 2.0, -0.6],
        ])
        .unwrap();
        let f = Matrix::from_rows(&[&[1.0, 0.0, 2.0, -1.0, 0.5, 0.7]]).unwrap();
        let fit = ols_with_intercept(&x, &f).unwrap();
        let pred = fit.predict_matrix(&x).unwrap();
        let resid = &f - &pred;
        let xc = centered(&x, &stats::row_means(&x));
        let cross = resid.matmul(&xc.transpose()).unwrap();
        assert!(cross.max_abs() < 1e-10);
        // And the residual must sum to ~zero (intercept fitted).
        let s: f64 = resid.row(0).iter().sum();
        assert!(s.abs() < 1e-10);
    }

    #[test]
    fn collinear_predictors_fall_back_gracefully() {
        // Second predictor duplicates the first: Gram is singular but the
        // fit must still reproduce the (achievable) targets.
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0, 4.0],
            &[2.0, 4.0, 6.0, 8.0],
        ])
        .unwrap();
        let f = Matrix::from_rows(&[&[3.0, 6.0, 9.0, 12.0]]).unwrap();
        let fit = ols_with_intercept(&x, &f).unwrap();
        let pred = fit.predict_matrix(&x).unwrap();
        assert!(pred.approx_eq(&f, 1e-6));
    }

    #[test]
    fn moments_refit_the_data_fit_and_reject_bad_predictor_lists() {
        let x = Matrix::from_rows(&[
            &[1.0, -1.0, 2.0, 0.5, -0.3, 1.7],
            &[0.2, 0.9, -1.1, 0.4, 2.0, -0.6],
        ])
        .unwrap();
        let f = Matrix::from_rows(&[&[1.0, 0.0, 2.0, -1.0, 0.5, 0.7]]).unwrap();
        let moments = Moments::new(&x, &f).unwrap();
        let (got, want) = (moments.fit(&[0, 1]).unwrap(), ols_with_intercept(&x, &f).unwrap());
        assert_eq!(got.coefficients, want.coefficients);
        assert_eq!(got.intercept, want.intercept);
        assert!((got.rms_residual - want.rms_residual).abs() < 1e-12);
        for bad in [&[][..], &[2], &[0, 5]] {
            assert!(matches!(moments.fit(bad), Err(LinalgError::InvalidDimensions { .. })));
        }
        assert!(moments.fit_predictor(2, &[0]).is_err());
    }

    #[test]
    fn sample_count_mismatch() {
        let x = Matrix::zeros(1, 3);
        let f = Matrix::zeros(1, 4);
        assert!(matches!(
            ols_with_intercept(&x, &f),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(ols_with_intercept(&Matrix::zeros(0, 4), &Matrix::zeros(1, 4)).is_err());
        assert!(ols_with_intercept(&Matrix::zeros(1, 0), &Matrix::zeros(1, 0)).is_err());
    }

    #[test]
    fn non_finite_rejected() {
        let x = Matrix::from_rows(&[&[1.0, f64::INFINITY]]).unwrap();
        let f = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(matches!(
            ols_with_intercept(&x, &f),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn predict_wrong_dim() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let f = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let fit = ols_with_intercept(&x, &f).unwrap();
        assert!(fit.predict(&[1.0, 2.0]).is_err());
    }
}
