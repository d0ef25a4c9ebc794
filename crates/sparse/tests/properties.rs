//! Property-based tests for the sparse solvers (testkit harness: 64
//! deterministic seeded cases per property, greedy shrinking).

use voltsense_linalg::decomp::Cholesky;
use voltsense_sparse::{ordering, CsrMatrix, EnvelopeCholesky, TripletMatrix};
use voltsense_testkit::{forall, u64_range, usize_range, vec_f64};

/// A connected-ish SPD grid matrix with the given positive conductances
/// (cycled over the edges) and two grounded nodes — built from shrinkable
/// primitives so failing cases reduce to small grids with simple weights.
fn spd_grid(w: usize, h: usize, gs: &[f64]) -> CsrMatrix {
    let n = w * h;
    let mut t = TripletMatrix::new(n, n);
    let mut gi = gs.iter().copied().cycle();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.stamp_conductance(i, i + 1, gi.next().expect("cycled"));
            }
            if y + 1 < h {
                t.stamp_conductance(i, i + w, gi.next().expect("cycled"));
            }
        }
    }
    t.stamp_grounded_conductance(0, 1.0);
    t.stamp_grounded_conductance(n - 1, 1.0);
    t.to_csr()
}

#[test]
fn csr_matvec_matches_dense() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0), seed in u64_range(0, 1000)) => {
        let a = spd_grid(w, h, &gs);
        let n = a.rows();
        let x: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) as f64 * 0.1).sin()).collect();
        let sparse_y = a.matvec(&x).unwrap();
        let dense_y = a.to_dense().matvec(&x).unwrap();
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            assert!((s - d).abs() < 1e-10);
        }
    });
}

#[test]
fn grid_matrices_are_symmetric() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0)) => {
        assert!(spd_grid(w, h, &gs).is_symmetric(1e-12));
    });
}

#[test]
fn rcm_permutation_is_bijection() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0)) => {
        let a = spd_grid(w, h, &gs);
        let perm = ordering::reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..a.rows()).collect::<Vec<_>>());
    });
}

#[test]
fn permuted_matrix_preserves_spectrum_diag_sum() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0)) => {
        // The trace is invariant under symmetric permutation.
        let a = spd_grid(w, h, &gs);
        let perm = ordering::reverse_cuthill_mckee(&a);
        let b = a.permute_symmetric(&perm).unwrap();
        let ta: f64 = a.diagonal().iter().sum();
        let tb: f64 = b.diagonal().iter().sum();
        assert!((ta - tb).abs() < 1e-10);
        assert_eq!(a.nnz(), b.nnz());
    });
}

#[test]
fn cholesky_solve_residual_small() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0)) => {
        let a = spd_grid(w, h, &gs);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let chol = EnvelopeCholesky::factor(&a).unwrap();
        let x = chol.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-8);
        }
    });
}

#[test]
fn envelope_and_dense_cholesky_agree() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0)) => {
        let a = spd_grid(w, h, &gs);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64 - 3.0).collect();
        let direct = EnvelopeCholesky::factor(&a).unwrap().solve(&b).unwrap();
        // Dense Cholesky on the same matrix is the independent reference.
        let reference = Cholesky::new(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (p, q) in direct.iter().zip(&reference) {
            assert!((p - q).abs() < 1e-6, "{} vs {}", p, q);
        }
    });
}

#[test]
fn cholesky_solution_unique_across_orderings() {
    forall!(cases = 64, (w in usize_range(2, 6), h in usize_range(2, 6),
                         gs in vec_f64(200, 0.1, 5.0), b in vec_f64(4, -10.0, 10.0)) => {
        let a = spd_grid(w, h, &gs);
        // Resize rhs to match.
        let n = a.rows();
        let mut bb = b.clone();
        bb.resize(n, 0.5);
        let x1 = EnvelopeCholesky::factor(&a).unwrap().solve(&bb).unwrap();
        let x2 = EnvelopeCholesky::factor_natural(&a).unwrap().solve(&bb).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-8);
        }
    });
}
