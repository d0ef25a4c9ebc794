use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};
use std::sync::Mutex;

use voltsense_parallel as parallel;

use crate::LinalgError;

/// k-dimension block size for the cache-blocked matmul: a block of `rhs`
/// rows stays resident in cache while a row partition sweeps over it.
const MATMUL_K_BLOCK: usize = 64;

/// Minimum fused multiply-adds a parallel task must amortize before a
/// compute-bound kernel fans out; below this, dispatch overhead dominates.
const PAR_TASK_FLOPS: usize = 1 << 18;

/// Minimum elements moved per parallel task for memory-bound kernels
/// (transpose, row gathers, per-row statistics).
pub(crate) const PAR_TASK_ELEMS: usize = 1 << 16;

/// Unroll width of the lane kernels (`matmul*`, `gram*`, `matvec*`).
///
/// Every dot-style accumulation in this module walks its index range in
/// *aligned* chunks of `LANE` starting at index 0 and folds each chunk as
/// `acc += ((p0 + p1) + p2) + p3` (products in ascending index order),
/// then folds the `len % LANE` tail one product at a time, ascending.
/// DESIGN.md §8.4 names this the *lane identity*: any kernel in this
/// module — serial, blocked, parallel, or built for wider registers —
/// must produce exactly these bits for each output entry, which is what
/// keeps the blocked parallel kernels bit-identical to their serial
/// oracles and a batched GEMM row bit-identical to the equivalent
/// `matvec`.
const LANE: usize = 4;

/// Defines a row-block kernel `$name` from one `#[inline(always)]` body
/// `$body`, built twice: for the baseline target and, on x86_64, as the
/// twin `$wide` compiled with AVX2 enabled. `$name` picks the twin at run
/// time when the CPU has AVX2, so callers dispatch once per public call
/// or per pool row block, never per inner row.
///
/// The twin runs the same IEEE multiplies and adds in the same order —
/// AVX2 does not include FMA, `mul_add` is never written, and Rust never
/// contracts `a * b + c` on its own — so both builds return the same bits
/// by construction; the wider registers only change how many lanes each
/// instruction carries.
macro_rules! avx2_dispatch {
    ($(#[$doc:meta])* fn $name:ident => $body:ident / $wide:ident
        ($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        #[inline]
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `$wide` is safe code whose only requirement is
                // that the CPU supports AVX2, which the check above confirmed.
                #[allow(unsafe_code)]
                unsafe {
                    $wide($($arg),*)
                };
                return;
            }
            $body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn $wide($($arg: $ty),*) {
            $body($($arg),*)
        }
    };
}

avx2_dispatch! {
    /// Adds `a · rhs` into `block`, where `a` holds whole rows `a_cols`
    /// wide and `block` the matching rows of width `rhs.cols()`, zeroed
    /// by the caller: the row-block body of [`Matrix::matmul_into`] and,
    /// with `a` one row, of [`Matrix::vecmat_into`].
    fn gemm_rows => gemm_rows_body / gemm_rows_avx2(
        a: &[f64],
        a_cols: usize,
        rhs: &Matrix,
        block: &mut [f64],
    )
}

avx2_dispatch! {
    /// Rows `first..` of `m · v` into `block`: the row-block body of
    /// [`Matrix::matvec_into`].
    fn matvec_rows => matvec_rows_body / matvec_rows_avx2(
        m: &Matrix,
        v: &[f64],
        first: usize,
        block: &mut [f64],
    )
}

avx2_dispatch! {
    /// Rows `first..` of `a · bᵀ` into `block`; see [`fill_t_rows_body`].
    fn fill_t_rows => fill_t_rows_body / fill_t_rows_avx2(
        a: &Matrix,
        b: &Matrix,
        first: usize,
        block: &mut [f64],
        upper: bool,
    )
}

/// Dot product under the lane identity (see [`LANE`]): aligned chunks of
/// four fused products, then the ascending scalar tail. Both slices must
/// have equal length. The shorter dependency chain (one add per four
/// products) is what lets the compiler keep multiple multiplies in
/// flight; the fixed association is what keeps the result reproducible.
#[inline(always)]
fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let head = a.len() & !(LANE - 1);
    let (a4, a_tail) = a.split_at(head);
    let (b4, b_tail) = b.split_at(head);
    let mut acc = 0.0;
    for (ca, cb) in a4.chunks_exact(LANE).zip(b4.chunks_exact(LANE)) {
        acc += ca[0] * cb[0] + ca[1] * cb[1] + ca[2] * cb[2] + ca[3] * cb[3];
    }
    for (x, y) in a_tail.iter().zip(b_tail) {
        acc += x * y;
    }
    acc
}

/// Edge of the register tile of the A·Bᵀ kernel ([`Matrix::matmul_t`],
/// [`Matrix::gram`]): `TILE` rows of `a` against `TILE` rows of `b`.
const TILE: usize = 4;

/// The `TILE × TILE` lane-identity dots of rows `a[r]` with rows `b[c]`,
/// all of one length. Each lane chunk of the eight rows is loaded once
/// for the sixteen entries, whose independent accumulators keep the
/// multiplies in flight; every entry folds its chunk as
/// `((p0 + p1) + p2) + p3` and then the ascending tail, so it carries
/// exactly the bits of its [`dot_lanes`]. Plain array code that LLVM
/// vectorizes; IEEE semantics keep it from reassociating the sums.
#[inline(always)]
fn tile_dots(a: [&[f64]; TILE], b: [&[f64]; TILE]) -> [[f64; TILE]; TILE] {
    let len = a[0].len();
    let chunks = len / LANE;
    let head = chunks * LANE;
    let ac: [&[[f64; LANE]]; TILE] = std::array::from_fn(|r| &a[r].as_chunks().0[..chunks]);
    let bc: [&[[f64; LANE]]; TILE] = std::array::from_fn(|c| &b[c].as_chunks().0[..chunks]);
    let mut acc = [[0.0; TILE]; TILE];
    for k in 0..chunks {
        for (acc_r, ar) in acc.iter_mut().zip(&ac) {
            let x = ar[k];
            for (o, bcc) in acc_r.iter_mut().zip(&bc) {
                let y = bcc[k];
                *o += x[0] * y[0] + x[1] * y[1] + x[2] * y[2] + x[3] * y[3];
            }
        }
    }
    for k in head..len {
        for (acc_r, ar) in acc.iter_mut().zip(&a) {
            for (o, bc) in acc_r.iter_mut().zip(&b) {
                *o += ar[k] * bc[k];
            }
        }
    }
    acc
}

/// Rows `first..first + block.len() / width` of `a · bᵀ` (`width =
/// b.rows()`) into `block`, tile by tile. With `upper`, each row tile
/// starts at its own first row's column (the upper triangle of a Gram
/// matrix, plus a few entries below the diagonal that the caller's
/// mirror overwrites). A ragged tile at the last rows or columns repeats
/// its last row and keeps only its real entries: every entry is its own
/// lane-identity dot, so the bits do not depend on where the tiles fall.
#[inline(always)]
fn fill_t_rows_body(a: &Matrix, b: &Matrix, first: usize, block: &mut [f64], upper: bool) {
    let width = b.rows;
    if width == 0 {
        return;
    }
    let rows = block.len() / width;
    for r0 in (0..rows).step_by(TILE) {
        let tr = TILE.min(rows - r0);
        let i0 = first + r0;
        let ar: [&[f64]; TILE] = std::array::from_fn(|r| a.row(i0 + r.min(tr - 1)));
        let lo = if upper { i0 } else { 0 };
        for j in (lo..width).step_by(TILE) {
            let tc = TILE.min(width - j);
            let t = tile_dots(ar, std::array::from_fn(|c| b.row(j + c.min(tc - 1))));
            for (r, tile_row) in t.iter().take(tr).enumerate() {
                block[(r0 + r) * width + j..][..tc].copy_from_slice(&tile_row[..tc]);
            }
        }
    }
}

/// Adds `a[k] · rhs.row(k)` for every `k` in `kb..kend` into `out`, under
/// the lane identity (see [`LANE`]): four `rhs` rows fused per update as
/// `o += ((a0·r0 + a1·r1) + a2·r2) + a3·r3`, then the tail one row at a
/// time. `kb` must be a multiple of `LANE`, so chunks stay aligned to
/// index 0 across the k-blocks of a blocked caller; summed over all
/// blocks from a zeroed `out`, each entry is the [`dot_lanes`] of `a`
/// with a column of `rhs`.
#[inline(always)]
fn accumulate_rows(a: &[f64], rhs: &Matrix, kb: usize, kend: usize, out: &mut [f64]) {
    debug_assert_eq!(kb % LANE, 0);
    let lanes_end = kb + ((kend - kb) & !(LANE - 1));
    let mut k = kb;
    while k < lanes_end {
        let (a0, a1, a2, a3) = (a[k], a[k + 1], a[k + 2], a[k + 3]);
        let r0 = rhs.row(k);
        let r1 = rhs.row(k + 1);
        let r2 = rhs.row(k + 2);
        let r3 = rhs.row(k + 3);
        for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
            *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
        }
        k += LANE;
    }
    while k < kend {
        let ak = a[k];
        for (o, &r) in out.iter_mut().zip(rhs.row(k)) {
            *o += ak * r;
        }
        k += 1;
    }
}

/// [`gemm_rows`]: for each `MATMUL_K_BLOCK` of `rhs` rows, every row of
/// `a` (`a_cols` wide) accumulates into its row of `block` while the
/// block is hot in cache. `MATMUL_K_BLOCK` is a multiple of `LANE`, so
/// the blocks keep each entry's lane identity.
#[inline(always)]
fn gemm_rows_body(a: &[f64], a_cols: usize, rhs: &Matrix, block: &mut [f64]) {
    if rhs.cols == 0 {
        return;
    }
    for kb in (0..a_cols).step_by(MATMUL_K_BLOCK) {
        let kend = (kb + MATMUL_K_BLOCK).min(a_cols);
        for (arow, orow) in a.chunks_exact(a_cols).zip(block.chunks_mut(rhs.cols)) {
            accumulate_rows(arow, rhs, kb, kend, orow);
        }
    }
}

/// [`matvec_rows`]: each entry of `block` is the [`dot_lanes`] of its row
/// of `m` with `v`.
#[inline(always)]
fn matvec_rows_body(m: &Matrix, v: &[f64], first: usize, block: &mut [f64]) {
    for (i, o) in (first..).zip(block.iter_mut()) {
        *o = dot_lanes(m.row(i), v);
    }
}

/// A dense, row-major, `f64` matrix.
///
/// `Matrix` is the workhorse container of the workspace: training data
/// (`X`, `F`, `Z`, `G` in the paper), model coefficients (`alpha`, `beta`)
/// and intermediate products are all `Matrix` values.
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
///
/// # fn main() -> Result<(), voltsense_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// Zero-sized matrices (`rows == 0` or `cols == 0`) are permitted; they
    /// behave as empty operands where that makes sense.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::InvalidDimensions {
                    what: format!(
                        "row {i} has length {}, expected {ncols}",
                        row.len()
                    ),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimensions`] if
    /// `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidDimensions {
                what: format!(
                    "flat data has length {}, expected {rows}*{cols}={}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a single-column matrix from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Builds a single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new `Vec`.
    ///
    /// Hot loops should prefer [`Matrix::col_iter`] or
    /// [`Matrix::col_into`], which do not allocate per call.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Iterates over column `j` (a strided walk of the row-major storage)
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        self.data
            .iter()
            .skip(j)
            .step_by(self.cols)
            .take(self.rows)
            .copied()
    }

    /// Copies column `j` into `buf`, replacing its contents. Lets hot
    /// loops reuse one buffer across columns instead of allocating a
    /// fresh `Vec` per call.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_into(&self, j: usize, buf: &mut Vec<f64>) {
        buf.clear();
        buf.extend(self.col_iter(j));
    }

    /// Sets column `j` from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()` or `values.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, values: &[f64]) {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self[(i, j)] = v;
        }
    }

    /// Returns a new matrix containing only the rows whose indices appear in
    /// `indices`, in the given order. Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        // Validate up front so an out-of-bounds index panics identically
        // whether the gather below runs serially or fanned out.
        for &i in indices {
            assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        }
        let mut out = Matrix::zeros(indices.len(), self.cols);
        let min_rows = PAR_TASK_ELEMS.div_ceil(self.cols.max(1));
        parallel::for_each_row_block(&mut out.data, self.cols, min_rows, |first, block| {
            for (local, orow) in block.chunks_mut(self.cols).enumerate() {
                orow.copy_from_slice(self.row(indices[first + local]));
            }
        });
        out
    }

    /// Returns a new matrix containing only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        // Validated up front, as in `select_rows`, so an out-of-bounds
        // index panics on the calling thread before any task runs.
        for &j in indices {
            assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        }
        let width = indices.len();
        let mut out = Matrix::zeros(self.rows, width);
        let min_rows = PAR_TASK_ELEMS.div_ceil(width.max(1));
        parallel::for_each_row_block(&mut out.data, width, min_rows, |first, block| {
            for (i, orow) in (first..).zip(block.chunks_mut(width)) {
                let irow = self.row(i);
                for (o, &j) in orow.iter_mut().zip(indices) {
                    *o = irow[j];
                }
            }
        });
        out
    }

    /// Returns the transpose.
    ///
    /// Partitioned over output rows (source columns); each output row is
    /// written by exactly one task, so the result is bit-identical at any
    /// thread count.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let min_rows = PAR_TASK_ELEMS.div_ceil(self.rows.max(1));
        parallel::for_each_row_block(&mut out.data, self.rows, min_rows, |first, block| {
            for (local, orow) in block.chunks_mut(self.rows).enumerate() {
                let j = first + local;
                for (i, o) in orow.iter_mut().enumerate() {
                    *o = self.data[i * self.cols + j];
                }
            }
        });
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Cache-blocked i-k-j: output rows are partitioned across tasks, and
    /// within each partition a `MATMUL_K_BLOCK`-row block of `rhs` is
    /// swept across every partition row while it is hot in cache. Inside a
    /// block the k-loop is unrolled `LANE`-wide: four `rhs` row streams
    /// are fused into one update per output entry, following the lane
    /// identity (`MATMUL_K_BLOCK` is a multiple of `LANE`, so chunk
    /// boundaries stay globally aligned across blocks). Blocking, row
    /// partitioning, and unrolling all preserve the per-entry lane
    /// identity, so the result is bit-identical to [`Matrix::matmul_serial`]
    /// at any thread count.
    ///
    /// Zero `self` entries are *not* skipped: IEEE-754 requires `0 · NaN`
    /// and `0 · ∞` to contaminate the sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] into a caller-provided output matrix (shape
    /// `self.rows x rhs.cols`), allocating nothing. The steady-state form
    /// for hot loops that multiply fixed shapes repeatedly; pinned
    /// allocation-free by the `alloc_gate` tests.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                left: (self.rows, rhs.cols),
                right: out.shape(),
            });
        }
        out.data.fill(0.0);
        let n = rhs.cols;
        let min_rows = PAR_TASK_FLOPS.div_ceil((self.cols * n).max(1));
        parallel::for_each_row_block(&mut out.data, n, min_rows, |first, block| {
            let rows = block.len() / n;
            let a = &self.data[first * self.cols..(first + rows) * self.cols];
            gemm_rows(a, self.cols, rhs, block);
        });
        Ok(())
    }

    /// Like [`Matrix::matmul`] but serial and unblocked — the oracle the
    /// property tests compare the blocked parallel kernel against, and a
    /// fallback for callers that must not touch the pool. Each output
    /// entry is the plain [`dot_lanes`] of an a-row with a b-column, so
    /// this spells out the lane identity with none of the blocking.
    #[doc(hidden)]
    pub fn matmul_serial(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let lanes_end = self.cols & !(LANE - 1);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = out.data[i * rhs.cols..(i + 1) * rhs.cols].as_mut();
            let mut k = 0;
            while k < lanes_end {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                let r0 = rhs.row(k);
                let r1 = rhs.row(k + 1);
                let r2 = rhs.row(k + 2);
                let r3 = rhs.row(k + 3);
                for ((((o, &v0), &v1), &v2), &v3) in
                    orow.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    *o += a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3;
                }
                k += LANE;
            }
            while k < self.cols {
                let aik = arow[k];
                let rrow = rhs.row(k);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += aik * r;
                }
                k += 1;
            }
        }
        Ok(out)
    }

    /// Row-vector product `vᵀ · self` into `out` (length `self.cols()`),
    /// serial and allocation-free: one row of [`Matrix::matmul`] without
    /// the pool dispatch. Each `out[j]` carries the bits of the lane
    /// identity dot of `v` with column `j`, so on a transposed matrix this
    /// equals [`Matrix::matvec_into`] on the original bit for bit — the
    /// per-reading prediction kernel runs on a model's `Q×K` transpose
    /// this way.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.rows()`
    /// or `out.len() != self.cols()`.
    pub fn vecmat_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if v.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "vecmat",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vecmat_into",
                left: (1, self.cols),
                right: (1, out.len()),
            });
        }
        out.fill(0.0);
        gemm_rows(v, self.rows, self, out);
        Ok(())
    }

    /// Computes `self * selfᵀ` (a symmetric `rows x rows` Gram matrix)
    /// without materializing the transpose: the symmetric case of
    /// [`Matrix::matmul_t`].
    ///
    /// Only the tiles on and above the diagonal are computed; the lower
    /// triangle is mirrored. In the parallel path task `c` owns the
    /// *strided* tile rows `c, c+P, c+2P, …` — tile row `t` holds about
    /// `n/TILE - t` tiles, so striding balances the shrinking rows across
    /// tasks where contiguous blocks would not. Every entry carries the
    /// bits of its lane-identity dot on both paths, so the result is
    /// bit-identical at any thread count.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.rows);
        self.gram_into(&mut out)
            .expect("gram output allocated with the right shape");
        out
    }

    /// [`Matrix::gram`] into a caller-provided `rows x rows` output matrix,
    /// allocating nothing on the serial path (the parallel path builds its
    /// per-tile-row hand-off slots; hot loops that must stay
    /// allocation-free run it under one thread). Pinned by the
    /// `alloc_gate` tests.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `out` is not square with
    /// side `self.rows()`.
    pub fn gram_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.rows;
        if out.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_into",
                left: (n, n),
                right: out.shape(),
            });
        }
        let tile_rows = n.div_ceil(TILE);
        let total_flops = n * (n + 1) / 2 * self.cols;
        let parts = parallel::current_threads()
            .min((total_flops / PAR_TASK_FLOPS).max(1))
            .min(tile_rows);
        if parts <= 1 {
            fill_t_rows(self, self, 0, &mut out.data, true);
        } else {
            let slots: Vec<Mutex<Option<&mut [f64]>>> = out
                .data
                .chunks_mut(TILE * n)
                .map(|rows| Mutex::new(Some(rows)))
                .collect();
            parallel::run(parts, |c| {
                for t in (c..tile_rows).step_by(parts) {
                    let rows = slots[t]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("each gram tile row is owned by exactly one task");
                    fill_t_rows(self, self, t * TILE, rows, true);
                }
            });
        }
        for i in 1..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        Ok(())
    }

    /// Computes `self * otherᵀ` (`self.rows() x other.rows()`) without
    /// materializing the transpose: entry `(i, j)` is the lane-identity
    /// dot of row `i` of `self` with row `j` of `other`, so the result is
    /// bit-identical to `self.matmul(&other.transpose())` and to
    /// [`Matrix::matmul_serial`] on the transpose. The kernel works in
    /// `TILE × TILE` register tiles of row pairs, loading each pair of
    /// lane chunks once per tile instead of once per dot; output rows are
    /// partitioned across tasks, so the bits are the same at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if
    /// `self.cols() != other.cols()`.
    pub fn matmul_t(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matmul_t`] into a caller-provided output matrix (shape
    /// `self.rows x other.rows`), allocating nothing on the serial path.
    /// Pinned by the `alloc_gate` tests.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if
    /// `self.cols() != other.cols()` or `out` has the wrong shape.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                left: self.shape(),
                right: other.shape(),
            });
        }
        if out.shape() != (self.rows, other.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t_into",
                left: (self.rows, other.rows),
                right: out.shape(),
            });
        }
        let width = other.rows;
        let min_rows = PAR_TASK_FLOPS.div_ceil((self.cols * width).max(1));
        parallel::for_each_row_block(&mut out.data, width, min_rows, |first, block| {
            fill_t_rows(self, other, first, block, false);
        });
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::matvec`] into a caller-provided output slice of length
    /// `self.rows()`, allocating nothing. The steady-state form of the
    /// runtime `K×Q` prediction; pinned by the `alloc_gate` tests.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_into",
                left: (self.rows, 1),
                right: (out.len(), 1),
            });
        }
        let min_rows = PAR_TASK_FLOPS.div_ceil(self.cols.max(1));
        parallel::for_each_row_block(out, 1, min_rows, |first, block| {
            matvec_rows(self, v, first, block);
        });
        Ok(())
    }

    /// Entry-wise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every entry by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `self * s` as a new matrix.
    pub fn scaled(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Frobenius norm: `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Smallest entry.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of empty matrix");
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest entry.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is empty.
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of empty matrix");
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// `true` if `self` and `other` have the same shape and agree entry-wise
    /// within absolute tolerance `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt, $name:literal) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;

            /// # Panics
            ///
            /// Panics if the shapes differ.
            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("shape mismatch in ", $name)
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }
    };
}

elementwise_binop!(Add, add, +, "add");
elementwise_binop!(Sub, sub, -, "sub");

impl AddAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in sub_assign");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_diag() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_ragged_fails() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidDimensions { .. }));
    }

    #[test]
    fn from_vec_wrong_len_fails() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidDimensions { .. }));
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = sample();
        assert_eq!(m[(1, 2)], 6.0);
        m[(1, 2)] = 9.0;
        assert_eq!(m[(1, 2)], 9.0);
    }

    #[test]
    fn row_and_col_views() {
        let m = sample();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_entries() {
        let t = sample().transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let m = sample();
        let err = m.matmul(&m).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { op: "matmul", .. }));
    }

    #[test]
    fn matmul_propagates_non_finite_through_zero_entries() {
        // IEEE-754: 0 · NaN = NaN and 0 · ∞ = NaN, so non-finite values in
        // `rhs` must contaminate the product even where `self` is zero. A
        // shortcut skipping zero lhs entries silently drops them.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[f64::NAN, f64::INFINITY], &[1.0, 2.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c[(0, 0)].is_nan(), "0·NaN must propagate, got {}", c[(0, 0)]);
        assert!(c[(0, 1)].is_nan(), "0·∞ must propagate, got {}", c[(0, 1)]);
        let s = a.matmul_serial(&b).unwrap();
        assert!(s[(0, 0)].is_nan() && s[(0, 1)].is_nan());
    }

    #[test]
    fn col_iter_and_col_into_match_col() {
        let m = sample();
        for j in 0..m.cols() {
            assert_eq!(m.col_iter(j).collect::<Vec<_>>(), m.col(j));
            let mut buf = vec![999.0; 7];
            m.col_into(j, &mut buf);
            assert_eq!(buf, m.col(j));
        }
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = sample();
        let explicit = m.matmul(&m.transpose()).unwrap();
        assert!(m.gram().approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![6.0, 15.0]);
    }

    #[test]
    fn matvec_wrong_len() {
        let err = sample().matvec(&[1.0]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn select_rows_and_cols() {
        let m = sample();
        let r = m.select_rows(&[1, 0, 1]);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(r.row(2), &[4.0, 5.0, 6.0]);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let m = sample();
        let sum = &m + &m;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &m;
        assert!(diff.approx_eq(&m, 1e-15));
        let neg = -&m;
        assert_eq!(neg[(1, 2)], -6.0);
        let scaled = &m * 2.0;
        assert_eq!(scaled[(0, 1)], 4.0);
    }

    #[test]
    fn assign_ops() {
        let mut m = sample();
        let other = sample();
        m += &other;
        assert_eq!(m[(0, 0)], 2.0);
        m -= &other;
        assert!(m.approx_eq(&sample(), 1e-15));
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn min_max_and_finite() {
        let m = sample();
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.max_abs(), 6.0);
        assert!(m.is_finite());
        let mut bad = m.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn set_col_round_trip() {
        let mut m = sample();
        m.set_col(1, &[9.0, 8.0]);
        assert_eq!(m.col(1), vec![9.0, 8.0]);
    }

    #[test]
    fn debug_not_empty() {
        let m = sample();
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = Matrix::zeros(0, 3);
        assert!(m.is_empty());
        assert_eq!(m.frobenius_norm(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
    }
}

/// The dispatched kernels against their baseline-compiled bodies. On an
/// AVX2 host each dispatcher runs its `#[target_feature]` twin, while a
/// test calling `*_body` directly inlines the baseline build, so every
/// comparison below is twin against body, bit for bit.
#[cfg(test)]
mod avx2_twin_tests {
    use super::*;
    use voltsense_parallel::with_threads;
    use voltsense_testkit::{choice, forall, u64_range, usize_range};

    /// `true` when the dispatchers pick the AVX2 twins; otherwise says
    /// the comparison was skipped.
    fn twins_run(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return true;
        }
        eprintln!("{test}: skipped, this host has no AVX2 twin to compare");
        false
    }

    /// Finite edge values: signed zeros, the smallest and largest
    /// subnormals, and magnitudes whose products overflow to ±∞.
    const FINITE_EDGES: [f64; 8] = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        1e300,
        -1e300,
    ];

    /// One value in eight from the edge pool (plus ±∞ and NaN with
    /// `non_finite`), the rest uniform in `[-2, 2)`.
    fn edge_values(seed: u64, n: usize, non_finite: bool) -> Vec<f64> {
        let mut pool = FINITE_EDGES.to_vec();
        if non_finite {
            pool.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        }
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 7 == 0 {
                    pool[(state >> 3) as usize % pool.len()]
                } else {
                    (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
                }
            })
            .collect()
    }

    /// Asserts equal bits entry by entry, every NaN mapped to one key
    /// (Rust leaves a computed NaN's sign and payload unspecified).
    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        let key = |x: f64| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        };
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                key(g) == key(w),
                "{what}: entry {i} is {g:e}, baseline {w:e}"
            );
        }
    }

    #[test]
    fn avx2_twins_bit_equal_the_baseline_bodies_on_ragged_shapes() {
        if !twins_run("avx2_twins_bit_equal_the_baseline_bodies_on_ragged_shapes") {
            return;
        }
        // n, m in 1..=13 and len in 0..=37: full and ragged tiles, short
        // lane tails, rows shorter than one lane chunk and empty rows.
        forall!(cases = 256, (
            seed in u64_range(1, u64::MAX - 1),
            n in usize_range(1, 14),
            m in usize_range(1, 14),
            len in usize_range(0, 38),
            first in usize_range(0, 13)
        ) => {
            let non_finite = seed % 3 == 0;
            let first = first % n;
            let a = Matrix::from_vec(n, len, edge_values(seed, n * len, non_finite)).unwrap();
            let b = Matrix::from_vec(m, len, edge_values(seed ^ 0x5a5a, m * len, non_finite)).unwrap();
            let rhs = b.transpose();
            let rows = &a.as_slice()[first * len..];

            let (mut got, mut want) = (vec![0.0; (n - first) * m], vec![0.0; (n - first) * m]);
            gemm_rows(rows, len, &rhs, &mut got);
            gemm_rows_body(rows, len, &rhs, &mut want);
            assert_same_bits(&got, &want, "gemm_rows");

            let v = edge_values(seed ^ 0xa5a5, len, non_finite);
            let (mut got, mut want) = (vec![0.0; n - first], vec![0.0; n - first]);
            matvec_rows(&a, &v, first, &mut got);
            matvec_rows_body(&a, &v, first, &mut want);
            assert_same_bits(&got, &want, "matvec_rows");

            let (mut got, mut want) = (vec![0.0; (n - first) * m], vec![0.0; (n - first) * m]);
            fill_t_rows(&a, &b, first, &mut got, false);
            fill_t_rows_body(&a, &b, first, &mut want, false);
            assert_same_bits(&got, &want, "fill_t_rows");

            let (mut got, mut want) = (vec![0.0; (n - first) * n], vec![0.0; (n - first) * n]);
            fill_t_rows(&a, &a, first, &mut got, true);
            fill_t_rows_body(&a, &a, first, &mut want, true);
            assert_same_bits(&got, &want, "fill_t_rows (upper)");
        });
    }

    #[test]
    fn avx2_twins_bit_equal_the_baseline_bodies_when_fanned_out() {
        if !twins_run("avx2_twins_bit_equal_the_baseline_bodies_when_fanned_out") {
            return;
        }
        // Lengths past every kernel's dispatch threshold: the public
        // kernels run their twins once per pool row block, the reference
        // runs each baseline body once over all the rows.
        forall!(cases = 6, (
            seed in u64_range(1, u64::MAX - 1),
            n in usize_range(57, 71),
            m in usize_range(29, 38),
            len in usize_range(2001, 2006),
            threads in choice(vec![1_usize, 2, 4])
        ) => {
            let a = Matrix::from_vec(n, len, edge_values(seed, n * len, false)).unwrap();
            let b = Matrix::from_vec(m, len, edge_values(seed ^ 0x5a5a, m * len, false)).unwrap();
            let rhs = b.transpose();

            let got = with_threads(threads, || a.matmul(&rhs).unwrap());
            let mut want = vec![0.0; n * m];
            gemm_rows_body(a.as_slice(), len, &rhs, &mut want);
            assert_same_bits(got.as_slice(), &want, "matmul");

            let got = with_threads(threads, || a.matmul_t(&b).unwrap());
            let mut want = vec![0.0; n * m];
            fill_t_rows_body(&a, &b, 0, &mut want, false);
            assert_same_bits(got.as_slice(), &want, "matmul_t");

            let got = with_threads(threads, || a.gram());
            let mut want = Matrix::zeros(n, n);
            fill_t_rows_body(&a, &a, 0, want.as_mut_slice(), true);
            for i in 1..n {
                for j in 0..i {
                    want[(i, j)] = want[(j, i)];
                }
            }
            assert_same_bits(got.as_slice(), want.as_slice(), "gram");

            let tall = edge_values(seed ^ 0x3c3c, len * 200, false);
            let tall = Matrix::from_vec(len, 200, tall).unwrap();
            let v = edge_values(seed ^ 0xa5a5, 200, false);
            let got = with_threads(threads, || tall.matvec(&v).unwrap());
            let mut want = vec![0.0; len];
            matvec_rows_body(&tall, &v, 0, &mut want);
            assert_same_bits(&got, &want, "matvec");
        });
    }
}
