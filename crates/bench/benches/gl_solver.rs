//! Bench: BCD group-lasso solver scaling in the candidate count M — the
//! design-time cost of the methodology. Testkit timer, JSON report in
//! `results/bench_gl_solver.json`.

use voltsense::grouplasso::{solve_penalized, GlOptions, GlProblem, HomotopySolver};
use voltsense::linalg::Matrix;
use voltsense::workload::GaussianRng;
use voltsense_testkit::bench::BenchTimer;

/// Synthetic normalized problem with `m` candidates, `k` targets, `n`
/// samples; targets are mixtures of a few candidates plus noise — the
/// structure the real selection problem has.
fn problem(m: usize, k: usize, n: usize, seed: u64) -> GlProblem {
    let mut rng = GaussianRng::seed_from_u64(seed);
    let mut z = Matrix::zeros(m, n);
    for v in z.as_mut_slice() {
        *v = rng.sample();
    }
    let mut g = Matrix::zeros(k, n);
    for kk in 0..k {
        let a = rng.uniform_index(m);
        let b = rng.uniform_index(m);
        for s in 0..n {
            g[(kk, s)] = 0.8 * z[(a, s)] + 0.3 * z[(b, s)] + 0.05 * rng.sample();
        }
    }
    GlProblem::from_data(&z, &g).expect("valid problem")
}

/// Synthetic *correlated* problem: candidates are mixtures of a few latent
/// factors plus small idiosyncratic noise, like neighbouring sites on a
/// power grid. Near-collinear groups are the slow case for cold BCD — and
/// the case the real selection problems live in.
fn correlated_problem(m: usize, k: usize, n: usize, factors: usize, seed: u64) -> GlProblem {
    let mut rng = GaussianRng::seed_from_u64(seed);
    let mut latent = Matrix::zeros(factors, n);
    for v in latent.as_mut_slice() {
        *v = rng.sample();
    }
    let mut z = Matrix::zeros(m, n);
    for mm in 0..m {
        // Each candidate loads mostly on one factor, with spillover onto
        // its neighbour — adjacent candidates end up highly correlated.
        let f0 = mm % factors;
        let f1 = (mm + 1) % factors;
        for s in 0..n {
            z[(mm, s)] =
                0.9 * latent[(f0, s)] + 0.45 * latent[(f1, s)] + 0.03 * rng.sample();
        }
    }
    let mut g = Matrix::zeros(k, n);
    for kk in 0..k {
        let a = rng.uniform_index(m);
        let b = rng.uniform_index(m);
        for s in 0..n {
            g[(kk, s)] = 0.8 * z[(a, s)] + 0.3 * z[(b, s)] + 0.05 * rng.sample();
        }
    }
    GlProblem::from_data(&z, &g).expect("valid problem")
}

fn main() {
    let mut timer = BenchTimer::new("gl_solver");
    for &m in &[50usize, 100, 200] {
        let p = problem(m, 30, 1000, 42);
        let mu = p.mu_max() * 0.3;
        let opts = GlOptions::default();
        timer.bench(&format!("bcd/{m}"), || {
            solve_penalized(&p, mu, &opts, None).expect("solve")
        });
    }

    // Sweep-shaped workloads — the paper's Table 1 λ loop and the
    // Q-matched budget bisections. "cold" disables pruning and solves each
    // point with a fresh solver (the pre-homotopy behaviour); "homotopy"
    // chains one warm solver through the whole sweep.
    {
        let m = 100;
        let p = correlated_problem(m, 30, 1000, 12, 42);
        let mu_grid: Vec<f64> = [0.6, 0.5, 0.45, 0.3, 0.2, 0.12, 0.09, 0.07]
            .iter()
            .map(|f| p.mu_max() * f)
            .collect();
        let cold_opts = GlOptions {
            full_pass_interval: 0,
            ..GlOptions::default()
        };
        timer.bench(&format!("mu_sweep_cold/{m}"), || {
            mu_grid
                .iter()
                .map(|&mu| solve_penalized(&p, mu, &cold_opts, None).expect("solve").sweeps)
                .sum::<usize>()
        });
        timer.bench(&format!("mu_sweep_homotopy/{m}"), || {
            let mut h = HomotopySolver::new(&p, GlOptions::default()).expect("options");
            h.path(&mu_grid, 1e-3).expect("path").len()
        });

        let lambdas = [2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.5, 8.0];
        timer.bench(&format!("lambda_sweep_cold/{m}"), || {
            // Fresh solver per budget, pruning off: every bisection
            // restarts from (0, μ_max) with cold solves.
            lambdas
                .iter()
                .map(|&l| {
                    HomotopySolver::new(&p, cold_opts.clone())
                        .expect("options")
                        .solve_constrained(l)
                        .expect("solve")
                        .budget_used
                })
                .sum::<f64>()
        });
        timer.bench(&format!("lambda_sweep_homotopy/{m}"), || {
            let mut h = HomotopySolver::new(&p, GlOptions::default()).expect("options");
            lambdas
                .iter()
                .map(|&l| h.solve_constrained(l).expect("solve").budget_used)
                .sum::<f64>()
        });
    }

    // The one-time O(M²N) reduction that makes solves sample-count-free.
    let mut rng = GaussianRng::seed_from_u64(7);
    let m = 200;
    let n = 2000;
    let mut z = Matrix::zeros(m, n);
    for v in z.as_mut_slice() {
        *v = rng.sample();
    }
    let mut g = Matrix::zeros(30, n);
    for v in g.as_mut_slice() {
        *v = rng.sample();
    }
    timer.bench("covariance_reduction_m200_n2000", || {
        GlProblem::from_data(&z, &g).expect("valid")
    });

    timer.finish().expect("write bench report");
}
