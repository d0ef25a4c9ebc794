use crate::ordering::reverse_cuthill_mckee;
use crate::{CsrMatrix, SparseError};

/// Rows per panel of the solve kernel. Two measured fastest on the paper
/// grid's transient step (DESIGN.md §5).
const R: usize = 2;

/// Envelope (profile / skyline) Cholesky factorization of a sparse
/// symmetric positive-definite matrix.
///
/// The factor `L` fills in only inside the envelope of the lower triangle,
/// so after a bandwidth-reducing [RCM] permutation a 2-D power-grid matrix
/// factors in `O(n·b²)` and solves in `O(n·b)` where `b` is the (small)
/// post-ordering bandwidth. The transient engine in `voltsense-powergrid`
/// factors once and then back-solves every timestep.
///
/// The solve is bound by latency, not bandwidth: each row ends in a
/// dependent multiply → subtract → divide on the row before it. So it runs
/// in panels of consecutive rows: the forward sweep loads each solution
/// value once for all the panel's rows that use it, and the back sweep
/// solves a panel's triangle in registers before its rows take their
/// terms off the values left of it. Every row keeps the order of
/// operations of the textbook row-oriented substitution, so the result is
/// bit-identical to it.
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
    /// (both length `n`). No allocation.
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
        for (yi, &old) in y.iter_mut().zip(&self.perm) {
            *yi = b[old];
        }
        self.solve_in_factor_order(y)?;
        for (&yi, &old) in y.iter().zip(&self.perm) {
            x[old] = yi;
        }
        Ok(())
    }

    /// The symmetric permutation the factor was taken under:
    /// `permutation()[new] = old`. Row `new` of the factor is row
    /// `permutation()[new]` of the matrix; "factor order" means this row
    /// order.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The solve kernel, in place and in factor order (see
    /// [`EnvelopeCholesky::permutation`]), for callers that keep their
    /// vectors in that order: on entry `y[i]` is the right-hand side of
    /// factor row `i`, on return its solution. The result is bit-identical
    /// to the row-oriented substitution `L w = b`, `Lᵀ z = w`: every row
    /// subtracts its terms in the same order. No allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] if `y.len() != self.dim()`.
    pub fn solve_in_factor_order(&self, y: &mut [f64]) -> Result<(), SparseError> {
        let n = self.n;
        if y.len() != n {
            return Err(SparseError::ShapeMismatch {
                op: "envelope solve",
                expected: n,
                actual: y.len(),
            });
        }
        let mut i = 0;
        while i < n {
            if self.is_panel(i) {
                self.forward_panel(i, y);
                i += R;
            } else {
                self.forward_row(i, y);
                i += 1;
            }
        }
        let mut end = n;
        while end > 0 {
            if end.is_multiple_of(R) && self.is_panel(end - R) {
                end -= R;
                self.back_panel(end, y);
            } else {
                end -= 1;
                self.back_row(end, y);
            }
        }
        Ok(())
    }

    /// Row `i`'s stored entries, columns `first[i]..=i`.
    #[inline(always)]
    fn row(&self, i: usize) -> &[f64] {
        &self.lval[self.offset[i]..self.offset[i + 1]]
    }

    /// Whether rows `i0..i0 + R` exist and none starts right of `i0`,
    /// so they run as one panel.
    #[inline(always)]
    fn is_panel(&self, i0: usize) -> bool {
        i0 + R <= self.n && self.first[i0..i0 + R].iter().all(|&f| f <= i0)
    }

    /// Forward substitution of one row on its own.
    #[inline(always)]
    fn forward_row(&self, i: usize, y: &mut [f64]) {
        let f = self.first[i];
        let row = self.row(i);
        let mut s = y[i];
        for k in f..i {
            s -= row[k - f] * y[k];
        }
        y[i] = s / row[i - f];
    }

    /// Forward substitution of rows `i0..i0 + R`. Each row first takes
    /// its columns left of the ones all R rows share (`c`); then each
    /// shared column's `y[k]` is loaded once for the R rows; then each row
    /// takes the panel's rows before it. Every row subtracts in ascending
    /// column order, as the row-oriented sweep does.
    #[inline(always)]
    fn forward_panel(&self, i0: usize, y: &mut [f64]) {
        let f: [usize; R] = std::array::from_fn(|r| self.first[i0 + r]);
        let c = f.iter().copied().max().unwrap_or(i0);
        let rows: [&[f64]; R] = std::array::from_fn(|r| self.row(i0 + r));
        let mut s: [f64; R] = std::array::from_fn(|r| y[i0 + r]);
        for r in 0..R {
            for (l, yk) in rows[r][..c - f[r]].iter().zip(&y[f[r]..c]) {
                s[r] -= l * yk;
            }
        }
        // Two columns at a time: both products of a row come from one
        // vector multiply, then leave the sum in column order.
        let w = i0 - c;
        let shared: [&[f64]; R] = std::array::from_fn(|r| &rows[r][c - f[r]..][..w]);
        let (ypairs, ytail) = y[c..i0].as_chunks::<2>();
        let lpairs: [&[[f64; 2]]; R] = std::array::from_fn(|r| shared[r].as_chunks::<2>().0);
        for (j, yy) in ypairs.iter().enumerate() {
            for r in 0..R {
                let l = lpairs[r][j];
                let p = [l[0] * yy[0], l[1] * yy[1]];
                s[r] -= p[0];
                s[r] -= p[1];
            }
        }
        if let Some(&yk) = ytail.first() {
            for r in 0..R {
                s[r] -= shared[r][w - 1] * yk;
            }
        }
        for r in 0..R {
            let row = rows[r];
            let mut a = s[r];
            for q in 0..r {
                a -= row[i0 + q - f[r]] * y[i0 + q];
            }
            y[i0 + r] = a / row[i0 + r - f[r]];
        }
    }

    /// Back substitution of one row on its own: its solution, then its
    /// terms come off the values left of it.
    #[inline(always)]
    fn back_row(&self, i: usize, y: &mut [f64]) {
        let f = self.first[i];
        let row = self.row(i);
        let z = y[i] / row[i - f];
        y[i] = z;
        subtract_scaled(&mut y[f..i], f, row, z);
    }

    /// Back substitution of rows `i0..i0 + R`, whose terms from the rows
    /// below them in the factor are all in `y` already. The panel's
    /// triangle is solved from its last row up in registers; then each
    /// row, last first, takes its terms off the values left of the panel.
    /// So every `y[k]` takes its terms in descending row order, as the
    /// column-oriented sweep does.
    #[inline(always)]
    fn back_panel(&self, i0: usize, y: &mut [f64]) {
        let f: [usize; R] = std::array::from_fn(|r| self.first[i0 + r]);
        let rows: [&[f64]; R] = std::array::from_fn(|r| self.row(i0 + r));
        let mut z: [f64; R] = std::array::from_fn(|r| y[i0 + r]);
        for r in (0..R).rev() {
            let zr = z[r] / rows[r][i0 + r - f[r]];
            z[r] = zr;
            for q in 0..r {
                z[q] -= rows[r][i0 + q - f[r]] * zr;
            }
        }
        y[i0..i0 + R].copy_from_slice(&z);
        for r in (0..R).rev() {
            subtract_scaled(&mut y[f[r]..i0], f[r], rows[r], z[r]);
        }
    }
}

/// `ys[j] -= row[j] * z` for the values `ys` starting at column `from`.
/// The pairs it updates start at even columns, so a pair written here and
/// read back by the next row is the same 16 bytes, which the store buffer
/// forwards; a pair straddling two earlier stores would wait for both to
/// reach the cache.
#[inline(always)]
fn subtract_scaled(ys: &mut [f64], from: usize, row: &[f64], z: f64) {
    let head = (from % 2).min(ys.len());
    if head == 1 {
        ys[0] -= row[0] * z;
    }
    let (pairs, tail) = ys[head..].as_chunks_mut::<2>();
    let (lpairs, _) = row[head..head + 2 * pairs.len()].as_chunks::<2>();
    for (yy, l) in pairs.iter_mut().zip(lpairs) {
        yy[0] -= l[0] * z;
        yy[1] -= l[1] * z;
    }
    if let Some(last) = tail.first_mut() {
        *last -= row[head + 2 * pairs.len()] * z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;
    use voltsense_testkit::{forall, u64_range, usize_range, vec_f64};

    /// The row-oriented substitution the panel kernel must reproduce bit
    /// for bit: a dependent reduction per row forward, a column update per
    /// row backward. Test-only oracle; nothing in the library calls it.
    fn solve_rowwise(chol: &EnvelopeCholesky, b: &[f64]) -> Vec<f64> {
        let n = chol.n;
        let mut y: Vec<f64> = chol.perm.iter().map(|&old| b[old]).collect();
        for i in 0..n {
            let fi = chol.first[i];
            let row = chol.row(i);
            let mut s = y[i];
            for k in fi..i {
                s -= row[k - fi] * y[k];
            }
            y[i] = s / row[i - fi];
        }
        for i in (0..n).rev() {
            let fi = chol.first[i];
            let row = chol.row(i);
            let zi = y[i] / row[i - fi];
            y[i] = zi;
            for k in fi..i {
                y[k] -= row[k - fi] * zi;
            }
        }
        let mut x = vec![0.0; n];
        for (new, &old) in chol.perm.iter().enumerate() {
            x[old] = y[new];
        }
        x
    }

    /// SplitMix64: a tiny seeded stream for permutations and value picks.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A `w x h` grid with positive edge weights cycled from `gs`, extra
    /// long-range couplings every `skip` nodes (so envelopes are ragged),
    /// and two grounded nodes — SPD.
    fn weighted_grid(w: usize, h: usize, skip: usize, gs: &[f64]) -> CsrMatrix {
        let n = w * h;
        let mut t = TripletMatrix::new(n, n);
        let mut g = gs.iter().copied().cycle();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    t.stamp_conductance(i, i + 1, g.next().expect("cycled"));
                }
                if y + 1 < h {
                    t.stamp_conductance(i, i + w, g.next().expect("cycled"));
                }
                if i.is_multiple_of(skip) && i + 2 * skip < n {
                    t.stamp_conductance(i, i + 2 * skip, g.next().expect("cycled"));
                }
            }
        }
        t.stamp_grounded_conductance(0, 1.0);
        t.stamp_grounded_conductance(n - 1, 0.5);
        t.to_csr()
    }

    /// A right-hand side mixing ordinary values with ±0.0, subnormals and
    /// ±1e300 (whose products overflow to infinities and NaNs).
    fn edgy_rhs(n: usize, seed: u64, plain: &[f64]) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|i| match splitmix(&mut s) % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => 4.9e-324 * (1 + i % 7) as f64,
                3 => -2.2e-310,
                4 => 1e300,
                5 => -1e300,
                _ => plain[i % plain.len()],
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn panel_solve_is_bit_identical_to_the_rowwise_oracle() {
        forall!(cases = 96, (w in usize_range(1, 13), h in usize_range(1, 9),
                             skip in usize_range(1, 9), ordering in usize_range(0, 3),
                             gs in vec_f64(64, 0.05, 8.0), plain in vec_f64(16, -3.0, 3.0),
                             seed in u64_range(0, 1 << 40)) => {
            let a = weighted_grid(w, h, skip, &gs);
            let n = a.rows();
            let chol = match ordering {
                0 => EnvelopeCholesky::factor(&a).unwrap(),
                1 => EnvelopeCholesky::factor_natural(&a).unwrap(),
                _ => {
                    // Fisher–Yates: envelopes with non-monotone `first`.
                    let mut perm: Vec<usize> = (0..n).collect();
                    let mut s = seed;
                    for i in (1..n).rev() {
                        perm.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
                    }
                    EnvelopeCholesky::factor_with_permutation(&a, perm).unwrap()
                }
            };
            for b in [edgy_rhs(n, seed, &plain), edgy_rhs(n, seed ^ 1, &[0.0, -0.0])] {
                let expected = solve_rowwise(&chol, &b);
                let got = chol.solve(&b).unwrap();
                assert_eq!(bits(&got), bits(&expected));
                // The in-place factor-order kernel: the same bits, permuted.
                let perm = chol.permutation();
                let mut y: Vec<f64> = perm.iter().map(|&old| b[old]).collect();
                chol.solve_in_factor_order(&mut y).unwrap();
                for (new, &old) in perm.iter().enumerate() {
                    assert_eq!(y[new].to_bits(), expected[old].to_bits());
                }
            }
        });
    }

    #[test]
    fn factor_is_stored_once() {
        for a in [grid_spd(30, 3), grid_spd(9, 7), grid_spd(5, 1)] {
            for chol in [
                EnvelopeCholesky::factor(&a).unwrap(),
                EnvelopeCholesky::factor_natural(&a).unwrap(),
            ] {
                let envelope: usize = (0..chol.n).map(|i| i - chol.first[i] + 1).sum();
                assert_eq!(chol.profile_len(), envelope);
                assert_eq!(chol.lval.len(), envelope);
            }
        }
    }

    #[test]
    fn factor_order_buffer_is_checked() {
        let chol = EnvelopeCholesky::factor(&grid_spd(3, 3)).unwrap();
        assert!(chol.solve_in_factor_order(&mut [0.0; 8]).is_err());
        let mut x = [0.0; 9];
        assert!(chol.solve_into(&[1.0; 9], &mut x, &mut [0.0; 8]).is_err());
    }

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
