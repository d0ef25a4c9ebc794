//! Property-based tests for the group-lasso solver (testkit harness: 64
//! deterministic seeded cases per property, greedy shrinking), and BCD
//! checked against the independent FISTA oracle of `support/fista.rs`.

#[path = "support/fista.rs"]
mod oracle;

use oracle::{fista, spectral_norm_upper};
use voltsense_grouplasso::{kkt_violation, solve_penalized, GlOptions, GlProblem, HomotopySolver};
use voltsense_linalg::Matrix;
use voltsense_testkit::{f64_range, forall, usize_range, vec_f64};

/// Builds a random well-posed problem with `m` candidates, `k` targets, `n`
/// samples; targets are noisy linear mixes of the candidates, so the
/// problems resemble the real use case. Assembled from shrinkable
/// primitives: failing cases reduce toward the smallest problem with the
/// simplest data.
fn problem(m: usize, k: usize, n: usize, zdata: &[f64], mix: &[f64]) -> GlProblem {
    let z = Matrix::from_vec(m, n, zdata[..m * n].to_vec()).expect("shape");
    // G = W Z + small structured perturbation.
    let w = Matrix::from_vec(k, m, mix[..k * m].to_vec()).expect("shape");
    let mut g = w.matmul(&z).expect("shapes agree");
    for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
        *v += 0.01 * ((i as f64) * 0.77).sin();
    }
    GlProblem::from_data(&z, &g).expect("valid problem")
}

fn options() -> GlOptions {
    GlOptions {
        max_sweeps: 20_000,
        tolerance: 1e-9,
        ..GlOptions::default()
    }
}

#[test]
fn bcd_satisfies_kkt() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), mu_frac in f64_range(0.05, 0.9)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mu = p.mu_max() * mu_frac;
        let sol = solve_penalized(&p, mu, &options(), None).unwrap();
        let v = kkt_violation(&p, &sol.beta, mu).unwrap();
        assert!(v <= 1e-6 * p.mu_max().max(1.0), "violation {}", v);
    });
}

#[test]
fn bcd_and_fista_agree_on_objective() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), mu_frac in f64_range(0.1, 0.8)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mu = p.mu_max() * mu_frac;
        let bcd = solve_penalized(&p, mu, &options(), None).unwrap();
        let fista = fista(&p, mu, &options());
        let scale = bcd.objective.abs().max(1.0);
        assert!(
            (bcd.objective - fista.objective).abs() <= 1e-4 * scale,
            "bcd {} vs fista {}", bcd.objective, fista.objective
        );
    });
}

#[test]
fn budget_monotone_in_penalty() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mus = [0.1, 0.3, 0.6, 0.9].map(|f| p.mu_max() * f);
        let mut prev = f64::INFINITY;
        for mu in mus {
            let b = solve_penalized(&p, mu, &options(), None).unwrap().budget();
            assert!(b <= prev + 1e-9, "budget not monotone: {} then {}", prev, b);
            prev = b;
        }
    });
}

#[test]
fn above_mu_max_solution_is_zero() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let sol = solve_penalized(&p, p.mu_max() * 1.01 + 1e-12, &options(), None).unwrap();
        assert!(sol.beta.max_abs() < 1e-10);
    });
}

#[test]
fn constrained_budget_feasible() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), lam in f64_range(0.05, 2.0)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let sol = HomotopySolver::new(&p, options()).unwrap().solve_constrained(lam).unwrap();
        assert!(sol.budget_used <= lam * (1.0 + 1e-6));
    });
}

#[test]
fn penalized_objective_optimal_vs_perturbations() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), mu_frac in f64_range(0.2, 0.8)) => {
        // The solver's objective must not be improvable by simple scalings
        // of the solution (a weak but fully independent optimality probe).
        let p = problem(m, k, n, &zdata, &mix);
        let mu = p.mu_max() * mu_frac;
        let sol = solve_penalized(&p, mu, &options(), None).unwrap();
        let obj = |beta: &Matrix| {
            let smooth = p.smooth_objective(beta).unwrap();
            let pen: f64 = (0..beta.cols())
                .map(|m| (0..beta.rows()).map(|k| beta[(k, m)].powi(2)).sum::<f64>().sqrt())
                .sum();
            smooth + mu * pen
        };
        let base = obj(&sol.beta);
        for scale in [0.9, 1.1, 0.5, 2.0] {
            let perturbed = sol.beta.scaled(scale);
            assert!(obj(&perturbed) >= base - 1e-7 * base.abs().max(1.0));
        }
    });
}

#[test]
fn warm_start_agrees_with_cold() {
    forall!(cases = 64, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), mu_frac in f64_range(0.2, 0.7)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mu = p.mu_max() * mu_frac;
        let other = solve_penalized(&p, mu * 1.3, &options(), None).unwrap();
        let warm = solve_penalized(&p, mu, &options(), Some(&other.beta)).unwrap();
        let cold = solve_penalized(&p, mu, &options(), None).unwrap();
        let scale = cold.objective.abs().max(1.0);
        assert!((warm.objective - cold.objective).abs() <= 1e-5 * scale);
    });
}

/// A full-sweep-only option set: `full_pass_interval = 0` disables the
/// active-set pruning entirely, so these solves are the pre-pruning
/// reference the pruned solver must match.
fn full_sweep_options() -> GlOptions {
    GlOptions {
        full_pass_interval: 0,
        ..options()
    }
}

/// True when any cold group norm lies in the ambiguous band around the
/// selection threshold, where solver-tolerance-level differences can
/// legitimately flip membership.
fn support_ambiguous(norms: &[f64], threshold: f64) -> bool {
    norms
        .iter()
        .any(|&n| n > threshold * 0.5 && n < threshold * 2.0)
}

#[test]
fn pruned_solves_match_full_sweep_solves() {
    forall!(cases = 64, (m in usize_range(2, 6), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), mu_frac in f64_range(0.05, 0.9)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mu = p.mu_max() * mu_frac;
        let pruned = solve_penalized(&p, mu, &options(), None).unwrap();
        let full = solve_penalized(&p, mu, &full_sweep_options(), None).unwrap();
        // The `converged` / `kkt_residual` contract is identical: both
        // converge, both residuals are honest full-problem measurements.
        assert_eq!(pruned.converged, full.converged);
        if pruned.converged {
            assert!(pruned.kkt_residual <= 1e-9, "pruned residual {}", pruned.kkt_residual);
            let v = kkt_violation(&p, &pruned.beta, mu).unwrap();
            assert!(v <= 1e-6 * p.mu_max().max(1.0), "static violation {}", v);
        }
        // Same optimum: objective within tolerance…
        let scale = full.objective.abs().max(1.0);
        assert!(
            (pruned.objective - full.objective).abs() <= 1e-6 * scale,
            "pruned {} vs full {}", pruned.objective, full.objective
        );
        // …and same selected support at threshold T (skipping cases where
        // a norm sits inside the ambiguous band around T).
        let t = 1e-3;
        let full_norms = full.group_norms();
        if !support_ambiguous(&full_norms, t) {
            assert_eq!(pruned.selected(t), full.selected(t));
        }
    });
}

#[test]
fn homotopy_path_matches_cold_full_sweep_solves() {
    forall!(cases = 48, (m in usize_range(2, 6), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5)) => {
        let p = problem(m, k, n, &zdata, &mix);
        let mus: Vec<f64> = [0.7, 0.4, 0.15, 0.05].iter().map(|f| p.mu_max() * f).collect();
        let t = 1e-3;
        let mut h = HomotopySolver::new(&p, options()).unwrap();
        let path = h.path(&mus, t).unwrap();
        for (pt, &mu) in path.iter().zip(&mus) {
            let cold = solve_penalized(&p, mu, &full_sweep_options(), None).unwrap();
            let scale = cold.objective.abs().max(1.0);
            let warm_obj = pt.fit + mu * pt.budget;
            assert!(
                (warm_obj - cold.objective).abs() <= 1e-6 * scale,
                "mu={mu}: homotopy obj {warm_obj} vs cold {}", cold.objective
            );
            let cold_norms = cold.group_norms();
            if !support_ambiguous(&cold_norms, t) {
                let warm_support: Vec<usize> = pt.group_norms.iter().enumerate()
                    .filter(|&(_, &nm)| nm > t).map(|(i, _)| i).collect();
                assert_eq!(warm_support, cold.selected(t), "mu={mu}");
            }
        }
    });
}

#[test]
fn homotopy_constrained_matches_cold_bisection() {
    forall!(cases = 48, (m in usize_range(2, 5), k in usize_range(1, 4),
                         n in usize_range(8, 16), zdata in vec_f64(200, -1.0, 1.0),
                         mix in vec_f64(40, -0.5, 0.5), lam in f64_range(0.05, 2.0)) => {
        let p = problem(m, k, n, &zdata, &mix);
        // A shared chain solving two budgets must stay feasible and agree
        // with a fresh solver's cold bisection.
        let mut h = HomotopySolver::new(&p, options()).unwrap();
        let first = h.solve_constrained(lam * 1.5).unwrap();
        let second = h.solve_constrained(lam).unwrap();
        assert!(first.budget_used <= lam * 1.5 * (1.0 + 1e-6));
        assert!(second.budget_used <= lam * (1.0 + 1e-6));
        let mut cold = HomotopySolver::new(&p, options()).unwrap();
        let standalone = cold.solve_constrained(lam).unwrap();
        // Same budget up to twice the bisection's own budget tolerance.
        let tol = 2.0 * options().budget_tolerance * lam + 1e-9;
        assert!(
            (second.budget_used - standalone.budget_used).abs() <= tol,
            "warm {} vs standalone {}", second.budget_used, standalone.budget_used
        );
    });
}

/// Eight samples of three candidates and two targets: the oracle's
/// toy problem.
fn oracle_toy_problem() -> GlProblem {
    let z = Matrix::from_rows(&[
        &[1.0, -1.0, 0.8, -0.8, 1.2, -1.2, 0.9, -0.9],
        &[0.9, -0.9, 0.7, -0.9, 1.1, -1.0, 0.8, -1.0],
        &[0.3, 0.1, -0.2, 0.4, -0.1, 0.2, -0.3, -0.4],
    ])
    .unwrap();
    let g = Matrix::from_rows(&[
        &[1.0, -1.0, 0.8, -0.8, 1.2, -1.2, 0.9, -0.9],
        &[0.95, -0.95, 0.75, -0.85, 1.15, -1.1, 0.85, -0.95],
    ])
    .unwrap();
    GlProblem::from_data(&z, &g).unwrap()
}

fn tight_options() -> GlOptions {
    GlOptions {
        max_sweeps: 20_000,
        tolerance: 1e-10,
        ..GlOptions::default()
    }
}

#[test]
fn fista_matches_bcd_objective() {
    let p = oracle_toy_problem();
    for &mu in &[0.05, 0.3, 1.0, 2.5] {
        let bcd = solve_penalized(&p, mu, &tight_options(), None).unwrap();
        let fista = fista(&p, mu, &tight_options());
        assert!(
            (bcd.objective - fista.objective).abs() < 1e-5,
            "mu={mu}: bcd {} vs fista {}",
            bcd.objective,
            fista.objective
        );
    }
}

#[test]
fn fista_matches_bcd_support() {
    let p = oracle_toy_problem();
    let bcd = solve_penalized(&p, 0.8, &tight_options(), None).unwrap();
    let fista = fista(&p, 0.8, &tight_options());
    assert_eq!(bcd.selected(1e-6), fista.selected(1e-6));
}

#[test]
fn huge_penalty_zeroes_out() {
    let p = oracle_toy_problem();
    let sol = fista(&p, p.mu_max() * 1.1, &GlOptions::default());
    assert!(sol.beta.max_abs() < 1e-9);
}

#[test]
fn spectral_norm_bound_is_valid() {
    let p = oracle_toy_problem();
    let s = p.s();
    let upper = spectral_norm_upper(s);
    // Check against the Frobenius bound and a random quadratic form.
    assert!(upper <= s.frobenius_norm() * 1.05 + 1e-9);
    let v = [0.5, -0.3, 0.8];
    let sv = s.matvec(&v).unwrap();
    let rayleigh =
        v.iter().zip(&sv).map(|(a, b)| a * b).sum::<f64>() / v.iter().map(|x| x * x).sum::<f64>();
    assert!(rayleigh <= upper + 1e-9);
}

#[test]
fn fista_solutions_satisfy_kkt() {
    // The toy problem of the crate's `kkt` unit tests.
    let z = Matrix::from_rows(&[
        &[1.0, -1.0, 0.8, -0.8, 1.2, -1.2],
        &[0.4, 0.6, -0.5, -0.4, 0.3, -0.4],
        &[0.1, -0.2, 0.3, -0.1, 0.2, -0.3],
    ])
    .unwrap();
    let g = Matrix::from_rows(&[
        &[0.9, -1.0, 0.7, -0.9, 1.1, -1.1],
        &[0.2, 0.4, -0.4, -0.2, 0.2, -0.2],
    ])
    .unwrap();
    let p = GlProblem::from_data(&z, &g).unwrap();
    let opts = GlOptions {
        tolerance: 1e-12,
        max_sweeps: 50_000,
        ..GlOptions::default()
    };
    let sol = fista(&p, 0.3, &opts);
    let v = kkt_violation(&p, &sol.beta, 0.3).unwrap();
    assert!(v < 1e-6, "KKT violation {v}");
}
