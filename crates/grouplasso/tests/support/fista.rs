//! FISTA (accelerated proximal gradient) for the penalized multi-task
//! group lasso — the independent oracle the BCD solver is checked
//! against. Test-only: it reads nothing but `GlProblem`'s public
//! covariance form, so a bug in BCD's closed-form column updates cannot
//! also hide here.
//!
//! Included with `#[path]` by the solver tests of this crate and of the
//! umbrella crate.

use voltsense_grouplasso::{kkt_violation, GlOptions, GlProblem, GlSolution};
use voltsense_linalg::Matrix;

/// Solves `min_β ½‖G − βZ‖² + μ Σ‖β_m‖₂` from a cold start. The smooth
/// gradient is `βS − Q`; the proximal map of the penalty is a per-column
/// group soft threshold; the step is `1/L` with `L` bounding `λ_max(S)`.
/// Stops once the largest coefficient change falls below
/// `options.tolerance` times the largest coefficient, or after
/// `options.max_sweeps` iterations; no other option is read.
pub fn fista(problem: &GlProblem, mu: f64, options: &GlOptions) -> GlSolution {
    let (k_count, m_count) = (problem.num_targets(), problem.num_candidates());
    let (s, q) = (problem.s(), problem.q());
    let step = 1.0 / spectral_norm_upper(s).max(f64::MIN_POSITIVE);
    let mut beta = Matrix::zeros(k_count, m_count);
    let mut y = beta.clone();
    let mut t = 1.0_f64;
    let mut iterations = 0;
    let converged = loop {
        iterations += 1;
        // Gradient step at the extrapolated point y, then the group soft
        // threshold per column.
        let mut grad = y.matmul(s).expect("shapes agree");
        grad -= q;
        let mut next = y.clone();
        for (n, g) in next.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *n -= step * g;
        }
        let thresh = mu * step;
        for m in 0..m_count {
            let norm = next.col_iter(m).map(|v| v * v).sum::<f64>().sqrt();
            let scale = if norm <= thresh {
                0.0
            } else {
                1.0 - thresh / norm
            };
            for k in 0..k_count {
                next[(k, m)] *= scale;
            }
        }
        let (mut max_change, mut max_coef) = (0.0_f64, 0.0_f64);
        for (n, b) in next.as_slice().iter().zip(beta.as_slice()) {
            max_change = max_change.max((n - b).abs());
            max_coef = max_coef.max(n.abs());
        }
        // Momentum.
        let t_next = (1.0 + (1.0 + 4.0 * t * t).sqrt()) / 2.0;
        let momentum = (t - 1.0) / t_next;
        let pairs = next.as_slice().iter().zip(beta.as_slice());
        for (yv, (nv, bv)) in y.as_mut_slice().iter_mut().zip(pairs) {
            *yv = nv + momentum * (nv - bv);
        }
        beta = next;
        t = t_next;
        if max_change <= options.tolerance * max_coef.max(1e-12) {
            break true;
        }
        if iterations >= options.max_sweeps {
            break false;
        }
    };
    let kkt_residual = kkt_violation(problem, &beta, mu).expect("valid beta and mu")
        / problem.mu_max().max(f64::MIN_POSITIVE);
    let mut sol = GlSolution {
        beta,
        mu,
        objective: 0.0,
        sweeps: iterations,
        converged,
        kkt_residual,
    };
    sol.objective = problem.smooth_objective(&sol.beta).expect("valid beta") + sol.budget() * mu;
    sol
}

/// Upper estimate of `λ_max(S)`: 50 power iterations plus 5% headroom,
/// which keeps the step below `1/λ_max` even before the iteration has
/// fully converged.
pub fn spectral_norm_upper(s: &Matrix) -> f64 {
    let n = s.rows();
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    let mut lambda = 0.0;
    for _ in 0..50 {
        let w = s.matvec(&v).expect("square matvec");
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        lambda = norm / v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let inv = 1.0 / norm;
        v = w.into_iter().map(|x| x * inv).collect();
    }
    lambda * 1.05
}
