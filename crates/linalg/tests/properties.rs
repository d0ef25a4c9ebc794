//! Property-based tests for the dense linear-algebra kernels (testkit
//! harness: 64 deterministic seeded cases per property, greedy shrinking).

use voltsense_linalg::decomp::{Cholesky, Qr};
use voltsense_linalg::stats::Normalizer;
use voltsense_linalg::lstsq;
use voltsense_testkit::{forall, matrix, spd, vec_f64};

#[test]
fn transpose_is_involution() {
    forall!(cases = 64, (m in matrix(4, 7, -10.0, 10.0)) => {
        assert_eq!(m.transpose().transpose(), m);
    });
}

#[test]
fn matmul_associative() {
    forall!(cases = 64, (a in matrix(3, 4, -10.0, 10.0),
                         b in matrix(4, 2, -10.0, 10.0),
                         c in matrix(2, 5, -10.0, 10.0)) => {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(left.approx_eq(&right, 1e-8));
    });
}

#[test]
fn matmul_transpose_identity() {
    forall!(cases = 64, (a in matrix(3, 4, -10.0, 10.0),
                         b in matrix(4, 2, -10.0, 10.0)) => {
        // (AB)ᵀ = Bᵀ Aᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-9));
    });
}

#[test]
fn frobenius_triangle_inequality() {
    forall!(cases = 64, (a in matrix(3, 3, -10.0, 10.0),
                         b in matrix(3, 3, -10.0, 10.0)) => {
        let sum = &a + &b;
        assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-12);
    });
}

#[test]
fn cholesky_reconstructs() {
    forall!(cases = 64, (a in spd(5)) => {
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-7 * a.max_abs().max(1.0)));
    });
}

#[test]
fn cholesky_solve_residual() {
    forall!(cases = 64, (a in spd(5), b in vec_f64(5, -5.0, 5.0)) => {
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-7);
        }
    });
}

#[test]
fn qr_least_squares_residual_orthogonal() {
    forall!(cases = 64, (a in matrix(8, 3, -10.0, 10.0),
                         b in vec_f64(8, -5.0, 5.0)) => {
        let qr = Qr::new(&a).unwrap();
        if let Ok(x) = qr.solve_least_squares(&b) {
            let ax = a.matvec(&x).unwrap();
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
            let atr = a.transpose().matvec(&r).unwrap();
            for v in atr {
                assert!(v.abs() < 1e-6);
            }
        }
    });
}

#[test]
fn normalizer_round_trip() {
    forall!(cases = 64, (m in matrix(4, 9, -10.0, 10.0)) => {
        let norm = Normalizer::fit(&m);
        let z = norm.apply(&m).unwrap();
        let back = norm.invert(&z).unwrap();
        assert!(back.approx_eq(&m, 1e-9 * m.max_abs().max(1.0)));
    });
}

#[test]
fn ols_never_worse_than_mean_model() {
    forall!(cases = 64, (x in matrix(2, 12, -10.0, 10.0),
                         f in matrix(1, 12, -10.0, 10.0)) => {
        let fit = lstsq::ols_with_intercept(&x, &f).unwrap();
        // The intercept-only model (predict the mean) is in the OLS model
        // class, so OLS training RMS cannot exceed the response std-dev.
        let mu: f64 = f.row(0).iter().sum::<f64>() / 12.0;
        let std = (f.row(0).iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / 12.0).sqrt();
        assert!(fit.rms_residual <= std + 1e-8);
    });
}
