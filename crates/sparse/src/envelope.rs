use crate::ordering::reverse_cuthill_mckee;
use crate::{CsrMatrix, SparseError};

/// Envelope (profile / skyline) Cholesky factorization of a sparse
/// symmetric positive-definite matrix.
///
/// The factor `L` fills in only inside the envelope of the lower triangle,
/// so after a bandwidth-reducing [RCM] permutation a 2-D power-grid matrix
/// factors in `O(n·b²)` and solves in `O(n·b)` where `b` is the (small)
/// post-ordering bandwidth. The transient engine in `voltsense-powergrid`
/// factors once and then back-solves every timestep.
///
/// [RCM]: crate::ordering::reverse_cuthill_mckee
///
/// # Example
///
/// ```
/// use voltsense_sparse::{TripletMatrix, EnvelopeCholesky};
///
/// # fn main() -> Result<(), voltsense_sparse::SparseError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.add(0, 0, 4.0);
/// t.add(1, 1, 3.0);
/// t.add(0, 1, 2.0);
/// t.add(1, 0, 2.0);
/// let chol = EnvelopeCholesky::factor(&t.to_csr())?;
/// let x = chol.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnvelopeCholesky {
    n: usize,
    /// Permutation used: `perm[new] = old`.
    perm: Vec<usize>,
    /// First stored column of each (permuted) row's profile.
    first: Vec<usize>,
    /// Start offset of each row's profile in `lval`.
    offset: Vec<usize>,
    /// Row-major profile storage of L, row i holding columns
    /// `first[i]..=i`.
    lval: Vec<f64>,
}

impl EnvelopeCholesky {
    /// Factors `a` after applying an RCM ordering.
    ///
    /// # Errors
    ///
    /// * [`SparseError::NotSquare`] if `a` is not square.
    /// * [`SparseError::NonFinite`] if `a` has NaN/infinite entries.
    /// * [`SparseError::NotPositiveDefinite`] on a non-positive pivot.
    pub fn factor(a: &CsrMatrix) -> Result<Self, SparseError> {
        let perm = reverse_cuthill_mckee(a);
        Self::factor_with_permutation(a, perm)
    }

    /// Factors `a` in its natural ordering (no permutation). Useful for the
    /// ordering ablation and for matrices already well-ordered.
    ///
    /// # Errors
    ///
    /// Same as [`EnvelopeCholesky::factor`].
    pub fn factor_natural(a: &CsrMatrix) -> Result<Self, SparseError> {
        let perm: Vec<usize> = (0..a.rows()).collect();
        Self::factor_with_permutation(a, perm)
    }

    /// Factors `a` under a caller-supplied symmetric permutation
    /// (`perm[new] = old`).
    ///
    /// # Errors
    ///
    /// Same as [`EnvelopeCholesky::factor`], plus
    /// [`SparseError::ShapeMismatch`] if `perm.len() != n`.
    pub fn factor_with_permutation(a: &CsrMatrix, perm: Vec<usize>) -> Result<Self, SparseError> {
        if a.rows() != a.cols() {
            return Err(SparseError::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if perm.len() != n {
            return Err(SparseError::ShapeMismatch {
                op: "cholesky permutation length",
                expected: n,
                actual: perm.len(),
            });
        }
        let ap = a.permute_symmetric(&perm)?;

        // Envelope structure: first stored column <= i per row.
        let mut first = vec![0usize; n];
        for (i, f) in first.iter_mut().enumerate() {
            let mut fi = i;
            for (j, v) in ap.row_iter(i) {
                if !v.is_finite() {
                    return Err(SparseError::NonFinite {
                        what: "envelope cholesky input",
                    });
                }
                if j <= i {
                    fi = fi.min(j);
                    break; // columns are sorted: the first j <= i is the min
                }
            }
            *f = fi;
        }
        let mut offset = vec![0usize; n + 1];
        for i in 0..n {
            offset[i + 1] = offset[i] + (i - first[i] + 1);
        }
        let mut lval = vec![0.0; offset[n]];

        // Scatter A's lower triangle into the profile.
        for i in 0..n {
            for (j, v) in ap.row_iter(i) {
                if j <= i {
                    lval[offset[i] + (j - first[i])] = v;
                }
            }
        }

        // Row-oriented envelope factorization.
        let scale = lval
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        for i in 0..n {
            let fi = first[i];
            let (done, row_i) = lval.split_at_mut(offset[i]);
            for j in fi..i {
                let fj = first[j];
                let lo = fi.max(fj);
                // s = A[i][j] − Σ_{k=lo}^{j-1} L[i][k] L[j][k]
                let mut s = row_i[j - fi];
                let row_j = &done[offset[j]..offset[j + 1]];
                for k in lo..j {
                    s -= row_i[k - fi] * row_j[k - fj];
                }
                let djj = row_j[j - fj];
                row_i[j - fi] = s / djj;
            }
            let mut d = row_i[i - fi];
            for k in fi..i {
                let lik = row_i[k - fi];
                d -= lik * lik;
            }
            if d <= scale * 1e-14 {
                return Err(SparseError::NotPositiveDefinite {
                    index: i,
                    pivot: d,
                });
            }
            row_i[i - fi] = d.sqrt();
        }

        Ok(EnvelopeCholesky {
            n,
            perm,
            first,
            offset,
            lval,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (profile size).
    pub fn profile_len(&self) -> usize {
        self.lval.len()
    }

    /// Solves `A x = b`, allocating the result.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        let mut x = vec![0.0; self.n];
        let mut scratch = vec![0.0; self.n];
        self.solve_into(b, &mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing `scratch`
    /// (both length `n`). This is the per-timestep hot path of the transient
    /// engine — no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if any buffer length differs
    /// from `self.dim()`.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), SparseError> {
        let n = self.n;
        if b.len() != n || x.len() != n || scratch.len() != n {
            return Err(SparseError::ShapeMismatch {
                op: "envelope solve",
                expected: n,
                actual: b.len().min(x.len()).min(scratch.len()),
            });
        }
        let y = scratch;
        // Permute: y[new] = b[perm[new]].
        for (new, &old) in self.perm.iter().enumerate() {
            y[new] = b[old];
        }
        // Forward substitution L y = b (row-oriented).
        for i in 0..n {
            let fi = self.first[i];
            let row = &self.lval[self.offset[i]..self.offset[i + 1]];
            let mut s = y[i];
            for k in fi..i {
                s -= row[k - fi] * y[k];
            }
            y[i] = s / row[i - fi];
        }
        // Back substitution Lᵀ z = y (column-oriented over rows).
        for i in (0..n).rev() {
            let fi = self.first[i];
            let row = &self.lval[self.offset[i]..self.offset[i + 1]];
            let zi = y[i] / row[i - fi];
            y[i] = zi;
            for k in fi..i {
                y[k] -= row[k - fi] * zi;
            }
        }
        // Unpermute: x[perm[new]] = z[new].
        for (new, &old) in self.perm.iter().enumerate() {
            x[old] = y[new];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// `w x h` grid Laplacian plus grounded pads — SPD.
    fn grid_spd(w: usize, h: usize) -> CsrMatrix {
        let n = w * h;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    t.stamp_conductance(i, i + 1, 1.0);
                }
                if y + 1 < h {
                    t.stamp_conductance(i, i + w, 1.0);
                }
            }
        }
        // Ground every corner (pads) to make it non-singular.
        for &i in &[0, w - 1, n - w, n - 1] {
            t.stamp_grounded_conductance(i, 0.5);
        }
        t.to_csr()
    }

    #[test]
    fn solve_matches_dense_lu() {
        let a = grid_spd(5, 4);
        let chol = EnvelopeCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = chol.solve(&b).unwrap();
        // Dense Cholesky on the same SPD matrix is the reference.
        let dense = a.to_dense();
        let x_ref = voltsense_linalg::decomp::Cholesky::new(&dense)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (a, b) in x.iter().zip(&x_ref) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn natural_and_rcm_orderings_agree() {
        let a = grid_spd(6, 3);
        let b: Vec<f64> = (0..18).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let x1 = EnvelopeCholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x2 = EnvelopeCholesky::factor_natural(&a)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rcm_shrinks_profile() {
        // A long skinny grid numbered across the long axis has a fat
        // natural profile; RCM shrinks it.
        let a = grid_spd(30, 3);
        let nat = EnvelopeCholesky::factor_natural(&a).unwrap();
        let rcm = EnvelopeCholesky::factor(&a).unwrap();
        assert!(
            rcm.profile_len() < nat.profile_len(),
            "rcm {} vs natural {}",
            rcm.profile_len(),
            nat.profile_len()
        );
    }

    #[test]
    fn residual_is_small() {
        let a = grid_spd(8, 8);
        let chol = EnvelopeCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..64).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let x = chol.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        t.add(0, 1, 2.0);
        t.add(1, 0, 2.0);
        assert!(matches!(
            EnvelopeCholesky::factor(&t.to_csr()),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let t = TripletMatrix::new(2, 3);
        assert!(matches!(
            EnvelopeCholesky::factor_natural(&t.to_csr()),
            Err(SparseError::NotSquare { .. })
        ));
    }

    #[test]
    fn wrong_rhs_len_rejected() {
        let a = grid_spd(3, 3);
        let chol = EnvelopeCholesky::factor(&a).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let a = grid_spd(4, 4);
        let chol = EnvelopeCholesky::factor(&a).unwrap();
        let b = vec![1.0; 16];
        let mut x = vec![0.0; 16];
        let mut scratch = vec![0.0; 16];
        chol.solve_into(&b, &mut x, &mut scratch).unwrap();
        let expected = chol.solve(&b).unwrap();
        assert_eq!(x, expected);
    }

    #[test]
    fn identity_solve_is_identity() {
        let mut t = TripletMatrix::new(5, 5);
        for i in 0..5 {
            t.add(i, i, 1.0);
        }
        let chol = EnvelopeCholesky::factor(&t.to_csr()).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = chol.solve(&b).unwrap();
        for (a, b) in x.iter().zip(&b) {
            assert!((a - b).abs() < 1e-14);
        }
    }
}
