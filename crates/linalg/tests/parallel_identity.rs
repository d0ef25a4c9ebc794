//! Serial/parallel bit-identity for the dense kernels (DESIGN.md §8).
//!
//! Every parallel kernel in `voltsense-linalg` must return **exactly** the
//! same bits at any thread count, because each output entry keeps its
//! serial accumulation order. These suites compare against a serial oracle
//! with `assert_eq!` — no tolerance — at sizes large enough to actually
//! fan out (the kernels skip dispatch below a work threshold, so small
//! shapes would only exercise the inline path).

use voltsense_linalg::stats::Normalizer;
use voltsense_linalg::Matrix;
use voltsense_parallel::with_threads;
use voltsense_testkit::{choice, forall, matrix, u64_range, usize_range, vec_f64};

/// Thread counts swept by every property; 1 pins the inline path, the
/// rest force real fan-out even on a single-core machine.
const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn matmul_bit_identical_across_thread_counts() {
    // 130×60 · 60×70: per-row work 4200 FMAs → the kernel splits into ~3
    // chunks, so partitioning and k-blocking are both exercised.
    forall!(cases = 8, (a in matrix(130, 60, -10.0, 10.0),
                        b in matrix(60, 70, -10.0, 10.0)) => {
        let oracle = a.matmul_serial(&b).unwrap();
        for threads in THREADS {
            let got = with_threads(threads, || a.matmul(&b).unwrap());
            assert_eq!(got, oracle, "matmul diverged at {threads} threads");
        }
    });
}

#[test]
fn matmul_bit_identical_on_odd_small_shapes() {
    // Small and ragged shapes run inline; identity with the naive oracle
    // still pins that k-blocking does not reorder accumulation.
    forall!(cases = 32, (a in matrix(7, 13, -10.0, 10.0),
                         b in matrix(13, 3, -10.0, 10.0)) => {
        let oracle = a.matmul_serial(&b).unwrap();
        for threads in THREADS {
            let got = with_threads(threads, || a.matmul(&b).unwrap());
            assert_eq!(got, oracle, "matmul diverged at {threads} threads");
        }
    });
}

#[test]
fn gram_bit_identical_across_thread_counts() {
    // 120 rows × 150 cols: ~1.1M FMAs in the upper triangle → up to 4
    // strided row-set tasks.
    forall!(cases = 8, (m in matrix(120, 150, -10.0, 10.0)) => {
        let oracle = with_threads(1, || m.gram());
        for threads in THREADS {
            let got = with_threads(threads, || m.gram());
            assert_eq!(got, oracle, "gram diverged at {threads} threads");
        }
    });
}

#[test]
fn matvec_bit_identical_across_thread_counts() {
    // 1100×500: min task is ~525 rows, so ≥ 2 chunks fan out.
    forall!(cases = 4, (m in matrix(1100, 500, -10.0, 10.0),
                        v in vec_f64(500, -10.0, 10.0)) => {
        let oracle = with_threads(1, || m.matvec(&v).unwrap());
        for threads in THREADS {
            let got = with_threads(threads, || m.matvec(&v).unwrap());
            assert_eq!(got, oracle, "matvec diverged at {threads} threads");
        }
    });
}

#[test]
fn vecmat_on_the_transpose_bit_equals_matvec() {
    // The serial row kernel on `Aᵀ` against the pooled matvec on `A`:
    // 1100×500 fans the matvec out, and the odd column count leaves a
    // lane tail in every dot.
    forall!(cases = 4, (m in matrix(1100, 501, -10.0, 10.0),
                        v in vec_f64(501, -10.0, 10.0)) => {
        let mt = m.transpose();
        let mut got = vec![0.0; 1100];
        mt.vecmat_into(&v, &mut got).unwrap();
        for threads in THREADS {
            let want = with_threads(threads, || m.matvec(&v).unwrap());
            let same = got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "vecmat diverged from matvec at {threads} threads");
        }
    });
}

#[test]
fn transpose_and_select_rows_bit_identical_across_thread_counts() {
    forall!(cases = 4, (m in matrix(300, 500, -10.0, 10.0)) => {
        let t1 = with_threads(1, || m.transpose());
        let sel: Vec<usize> = (0..300).map(|i| (i * 7) % m.rows()).collect();
        let s1 = with_threads(1, || m.select_rows(&sel));
        for threads in THREADS {
            assert_eq!(with_threads(threads, || m.transpose()), t1,
                       "transpose diverged at {threads} threads");
            assert_eq!(with_threads(threads, || m.select_rows(&sel)), s1,
                       "select_rows diverged at {threads} threads");
        }
        assert_eq!(t1.transpose(), m);
    });
}

/// Finite edge values: signed zeros, the smallest and largest
/// subnormals, and magnitudes whose products overflow to ±∞ (and whose
/// sums of opposite infinities make NaN).
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

/// Deterministic value stream: one value in eight is an edge value, the
/// rest uniform in `[-2, 2)`. With `non_finite`, ±∞ and NaN join the
/// edge pool.
fn edge_values(seed: u64, n: usize, non_finite: bool) -> Vec<f64> {
    let pool: Vec<f64> = if non_finite {
        FINITE_EDGES
            .iter()
            .copied()
            .chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN])
            .collect()
    } else {
        FINITE_EDGES.to_vec()
    };
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

/// `to_bits`, with every NaN mapped to one key: Rust leaves the sign and
/// payload of a NaN produced by arithmetic unspecified, and the compiler
/// may commute the operands of a multiply or add, so two kernels that
/// make a NaN from the same sums in the same order may still differ in
/// its sign bit.
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Asserts `got` equals `oracle` bit for bit, entry by entry.
fn assert_same_bits(got: &Matrix, oracle: &Matrix, what: &str) {
    assert_eq!(got.shape(), oracle.shape(), "{what}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (g, o) = (got[(i, j)], oracle[(i, j)]);
            assert!(bits(g) == bits(o), "{what}: entry ({i}, {j}) is {g:e}, oracle {o:e}");
        }
    }
}

#[test]
fn tiled_a_bt_kernels_bit_equal_the_serial_oracle_on_ragged_shapes() {
    // n, m in 1..=13 and len in 0..=37 put full tiles, ragged tile
    // edges, short lane tails and empty rows in one sweep; the oracle is
    // the unblocked serial matmul on an explicit transpose.
    forall!(cases = 256, (
        seed in u64_range(1, u64::MAX - 1),
        n in usize_range(1, 14),
        m in usize_range(1, 14),
        len in usize_range(0, 38),
        threads in choice(vec![1_usize, 2, 4])
    ) => {
        let non_finite = seed % 3 == 0;
        let a = Matrix::from_vec(n, len, edge_values(seed, n * len, non_finite)).unwrap();
        let b = Matrix::from_vec(m, len, edge_values(seed ^ 0x5a5a, m * len, non_finite)).unwrap();
        let got = with_threads(threads, || a.matmul_t(&b).unwrap());
        assert_same_bits(&got, &a.matmul_serial(&b.transpose()).unwrap(), "matmul_t");
        let gram = with_threads(threads, || a.gram());
        assert_same_bits(&gram, &a.matmul_serial(&a.transpose()).unwrap(), "gram");
    });
}

#[test]
fn tiled_a_bt_kernels_bit_equal_the_serial_oracle_when_fanned_out() {
    // Long rows push both kernels past their dispatch threshold, so the
    // row blocks of `matmul_t` and the strided tile rows of `gram` run on
    // the pool; ragged row counts and lengths keep tile edges and tails.
    forall!(cases = 12, (
        seed in u64_range(1, u64::MAX - 1),
        n in usize_range(57, 71),
        m in usize_range(29, 38),
        len in usize_range(2001, 2006),
        threads in choice(vec![1_usize, 2, 4])
    ) => {
        let a = Matrix::from_vec(n, len, edge_values(seed, n * len, false)).unwrap();
        let b = Matrix::from_vec(m, len, edge_values(seed ^ 0x5a5a, m * len, false)).unwrap();
        let got = with_threads(threads, || a.matmul_t(&b).unwrap());
        assert_same_bits(&got, &a.matmul_serial(&b.transpose()).unwrap(), "matmul_t");
        let gram = with_threads(threads, || a.gram());
        assert_same_bits(&gram, &a.matmul_serial(&a.transpose()).unwrap(), "gram");
    });
}

#[test]
fn select_cols_bit_identical_across_thread_counts() {
    // 400 rows × 330 kept columns: about 2 row blocks of the copy.
    forall!(cases = 4, (m in matrix(400, 500, -10.0, 10.0)) => {
        let sel: Vec<usize> = (0..330).map(|j| (j * 13) % m.cols()).collect();
        let oracle = Matrix::from_fn(m.rows(), sel.len(), |i, c| m[(i, sel[c])]);
        for threads in THREADS {
            assert_eq!(with_threads(threads, || m.select_cols(&sel)), oracle,
                       "select_cols diverged at {threads} threads");
        }
    });
}

#[test]
#[should_panic(expected = "col index 500 out of bounds (500)")]
fn select_cols_panics_on_an_out_of_range_index_when_the_copy_is_pooled() {
    let m = Matrix::zeros(400, 500);
    let mut sel: Vec<usize> = (0..330).collect();
    sel.push(500);
    with_threads(4, || m.select_cols(&sel));
}

#[test]
fn normalizer_bit_equals_a_serial_two_pass_reference() {
    // 40 rows × 5000 samples: the statistics and the standardized copy
    // both run in about three row blocks. The reference is the plain
    // serial form: row means, then deviations about them, then
    // `(x − μ) · (1/σ)`.
    forall!(cases = 4, (m in matrix(40, 5000, -10.0, 10.0)) => {
        let n = m.cols() as f64;
        let means: Vec<f64> = (0..m.rows()).map(|i| m.row(i).iter().sum::<f64>() / n).collect();
        let stds: Vec<f64> = (0..m.rows())
            .map(|i| {
                let mu = means[i];
                (m.row(i).iter().map(|&x| (x - mu) * (x - mu)).sum::<f64>() / n).sqrt()
            })
            .collect();
        let z_ref =
            Matrix::from_fn(m.rows(), m.cols(), |i, j| (m[(i, j)] - means[i]) * (1.0 / stds[i]));
        for threads in THREADS {
            let norm = with_threads(threads, || Normalizer::fit(&m));
            let z = with_threads(threads, || norm.apply(&m).unwrap());
            let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(to_bits(norm.means()), to_bits(&means), "means at {threads} threads");
            assert_eq!(to_bits(norm.stds()), to_bits(&stds), "stds at {threads} threads");
            assert_same_bits(&z, &z_ref, "normalizer apply");
        }
    });
}
