//! Serial/parallel bit-identity for the dense kernels (DESIGN.md §8).
//!
//! Every parallel kernel in `voltsense-linalg` must return **exactly** the
//! same bits at any thread count, because each output entry keeps its
//! serial accumulation order. These suites compare against a serial oracle
//! with `assert_eq!` — no tolerance — at sizes large enough to actually
//! fan out (the kernels skip dispatch below a work threshold, so small
//! shapes would only exercise the inline path).

use voltsense_parallel::with_threads;
use voltsense_testkit::{forall, matrix, vec_f64};

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
