//! Block coordinate descent for the penalized multi-task group lasso.

use voltsense_linalg::Matrix;
use voltsense_telemetry as telemetry;

use crate::problem::{column_norm, GlProblem};
use crate::GroupLassoError;

/// Solver options for BCD and the constrained bisection.
#[derive(Debug, Clone, PartialEq)]
pub struct GlOptions {
    /// Maximum BCD sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance: BCD stops when the worst per-group KKT
    /// violation falls below `tolerance * μ_max`.
    pub tolerance: f64,
    /// Maximum bisection steps for the constrained solver.
    pub max_bisections: usize,
    /// Relative tolerance on the budget match for the constrained solver.
    pub budget_tolerance: f64,
    /// Active-set pruning cadence for BCD: between full sweeps, up to this
    /// many sweeps touch only the groups in the current support. `0`
    /// disables pruning (every sweep visits every group — the legacy
    /// cold full-sweep behaviour). Convergence is only ever declared from
    /// a full pass over **all** groups, so the returned
    /// `converged`/`kkt_residual` contract is identical either way.
    pub full_pass_interval: usize,
}

impl Default for GlOptions {
    fn default() -> Self {
        GlOptions {
            max_sweeps: 4000,
            tolerance: 3e-5,
            max_bisections: 60,
            budget_tolerance: 1e-4,
            full_pass_interval: 8,
        }
    }
}

impl GlOptions {
    pub(crate) fn validate(&self) -> Result<(), GroupLassoError> {
        if self.max_sweeps == 0
            || self.tolerance <= 0.0
            || self.tolerance.is_nan()
            || self.max_bisections == 0
            || self.budget_tolerance <= 0.0
            || self.budget_tolerance.is_nan()
        {
            return Err(GroupLassoError::InvalidParameter {
                what: format!("solver options out of range: {self:?}"),
            });
        }
        Ok(())
    }
}

/// A penalized group-lasso solution.
#[derive(Debug, Clone)]
pub struct GlSolution {
    /// Coefficients `β` (`K x M`).
    pub beta: Matrix,
    /// Penalty `μ` the problem was solved at.
    pub mu: f64,
    /// Value of the penalized objective at `beta`.
    pub objective: f64,
    /// Sweeps used.
    pub sweeps: usize,
    /// `true` if the KKT tolerance was met within the sweep limit; when
    /// `false`, `kkt_residual` says how far off the returned best-effort
    /// solution is.
    pub converged: bool,
    /// Final worst per-group KKT violation relative to `μ_max`.
    pub kkt_residual: f64,
}

impl GlSolution {
    /// The per-candidate group norms `‖β_m‖₂` — the quantities thresholded
    /// for sensor selection (the paper's Fig. 1).
    pub fn group_norms(&self) -> Vec<f64> {
        (0..self.beta.cols())
            .map(|m| column_norm(&self.beta, m))
            .collect()
    }

    /// Total budget `Σ_m ‖β_m‖₂` consumed by this solution.
    pub fn budget(&self) -> f64 {
        self.group_norms().iter().sum()
    }

    /// Indices of candidates whose group norm exceeds `threshold`
    /// (the paper's Step 5 with `T = threshold`).
    pub fn selected(&self, threshold: f64) -> Vec<usize> {
        self.group_norms()
            .iter()
            .enumerate()
            .filter(|&(_, n)| *n > threshold)
            .map(|(m, _)| m)
            .collect()
    }
}

/// Solves `min_β ½‖G − βZ‖² + μ Σ ‖β_m‖₂` by cyclic block coordinate
/// descent with closed-form column updates.
///
/// `warm_start` (if given) must be `K x M`; warm starting is what makes
/// the λ-path sweep and the constrained bisection cheap.
///
/// # Errors
///
/// * [`GroupLassoError::InvalidParameter`] for a negative/non-finite `μ`
///   or bad options.
/// * [`GroupLassoError::ShapeMismatch`] for a wrong warm start.
///
/// Hitting the sweep limit is *not* an error: sensor candidates on a real
/// power grid are so strongly correlated that the tail of the BCD
/// convergence is slow while the selected support is long stable. The
/// returned solution carries `converged = false` and its final
/// `kkt_residual` instead.
///
/// See the [crate-level docs](crate) for an example.
pub fn solve_penalized(
    problem: &GlProblem,
    mu: f64,
    options: &GlOptions,
    warm_start: Option<&Matrix>,
) -> Result<GlSolution, GroupLassoError> {
    options.validate()?;
    if !mu.is_finite() || mu < 0.0 {
        return Err(GroupLassoError::InvalidParameter {
            what: format!("penalty mu must be finite and >= 0, got {mu}"),
        });
    }
    // Solver-scope span (not per-sweep — the sweep is the zero-alloc hot
    // loop): attributes the whole solve to `gl.bcd` in sampled profiles.
    let _span = telemetry::span("gl.bcd.solve_penalized");
    let m_count = problem.num_candidates();
    let k_count = problem.num_targets();
    let s = problem.s();
    // Group-major working set: row `m` of `bt`/`qt`/`gradt` is the
    // contiguous K-vector of group `m`, so every inner loop below runs
    // flat over a slice (auto-vectorizable) instead of striding columns.
    let qt = problem.q().transpose();
    let (mut bt, mut gradt) = match warm_start {
        Some(b) => {
            problem.check_beta(b)?;
            let bt = b.transpose();
            // gradt = (β S)ᵀ = S βᵀ (S symmetric).
            let gradt = s.matmul(&bt)?;
            (bt, gradt)
        }
        None => (
            Matrix::zeros(m_count, k_count),
            Matrix::zeros(m_count, k_count),
        ),
    };

    // Convergence is judged on the KKT violation (computable for free from
    // the maintained gradient), scaled by μ_max — a coefficient-change
    // criterion stalls on near-collinear candidate groups.
    let kkt_scale = problem.mu_max().max(f64::MIN_POSITIVE);
    let tol = options.tolerance * kkt_scale;
    let interval = options.full_pass_interval;

    // Active-set state. A full sweep visits every group and re-derives the
    // set as the post-sweep support; the pruned sweeps in between touch
    // only active groups, and the incremental gradient is maintained only
    // on active rows (that is all those sweeps read). Rows outside the set
    // go stale and are rebuilt from the support at the next full pass — so
    // every full pass measures true violations over all M groups, and
    // convergence is only ever declared from one.
    let mut active = vec![true; m_count];
    let mut active_list: Vec<usize> = (0..m_count).collect();
    let all_groups: Vec<usize> = (0..m_count).collect();
    let mut stale = false;

    let mut delta = vec![0.0; k_count];
    let mut sweeps = 0;
    let mut since_full = 0usize;
    let mut force_full = true;
    let (converged, kkt_residual) = loop {
        sweeps += 1;
        let full = interval == 0 || force_full || since_full >= interval;
        force_full = false;
        if full {
            if stale {
                refresh_stale_rows(&mut gradt, &bt, s, &active, &active_list);
                stale = false;
            }
            since_full = 0;
        } else {
            since_full += 1;
            stale = true;
        }

        let groups: &[usize] = if full { &all_groups } else { &active_list };
        let rows: &[usize] = if full { &all_groups } else { &active_list };
        let worst_kkt = sweep_groups(&mut bt, &mut gradt, &qt, s, &mut delta, groups, rows, mu);
        if full {
            // The active set for the upcoming pruned sweeps is the
            // post-sweep support.
            active_list.clear();
            for (m, flag) in active.iter_mut().enumerate() {
                let nonzero = bt.row(m).iter().any(|&v| v != 0.0);
                *flag = nonzero;
                if nonzero {
                    active_list.push(m);
                }
            }
        }
        // Convergence telemetry: the KKT residual falls out of the sweep for
        // free, but the objective costs a matmul — only pay it for a
        // full-detail capture, never for the always-on flight recorder.
        if telemetry::detailed() {
            let beta_now = bt.transpose();
            let smooth = problem.smooth_objective(&beta_now)?;
            let penalty: f64 = (0..m_count).map(|m| row_norm(&bt, m)).sum::<f64>() * mu;
            let active_count = (0..m_count).filter(|&m| row_norm(&bt, m) > 0.0).count();
            telemetry::event(
                "bcd.sweep",
                &[
                    ("objective", smooth + penalty),
                    ("kkt_residual", worst_kkt / kkt_scale),
                    ("active_groups", active_count as f64),
                ],
            );
        }
        if worst_kkt <= tol {
            if full {
                break (true, worst_kkt / kkt_scale);
            }
            // The active set has converged; verify over all groups before
            // declaring victory.
            force_full = true;
        }
        if sweeps >= options.max_sweeps {
            // Honour the contract that `kkt_residual` covers *all* groups:
            // if the limit was hit mid-pruned-phase, measure the static
            // violation at the current iterate instead of the (partial)
            // sweep figure.
            let residual = if full {
                worst_kkt
            } else {
                if stale {
                    refresh_stale_rows(&mut gradt, &bt, s, &active, &active_list);
                }
                static_worst_kkt(&bt, &gradt, &qt, mu)
            };
            break (false, residual / kkt_scale);
        }
    };
    telemetry::counter("bcd.solves", 1);
    telemetry::histogram("bcd.sweeps", sweeps as f64, "sweeps");

    let beta = bt.transpose();
    let smooth = problem.smooth_objective(&beta)?;
    let penalty: f64 = (0..m_count).map(|m| column_norm(&beta, m)).sum::<f64>() * mu;
    Ok(GlSolution {
        beta,
        mu,
        objective: smooth + penalty,
        sweeps,
        converged,
        kkt_residual,
    })
}

/// One BCD pass over `groups`: the closed-form group soft-threshold update
/// of each visited group plus the lazy incremental gradient maintenance on
/// `rows`, fused with the pre-update KKT violation measurement. Returns the
/// worst per-group violation seen (absolute, not `μ_max`-scaled).
///
/// This is the solver's steady-state inner loop: it allocates nothing (all
/// state lives in the caller-owned `bt`/`gradt`/`delta` buffers), which the
/// `alloc_gate` test pins. Extracted from [`solve_penalized`] verbatim so
/// full and pruned sweeps share one bit-identical code path.
///
/// Not part of the public API — exposed for the allocation gates and
/// kernel-level benches.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sweep_groups(
    bt: &mut Matrix,
    gradt: &mut Matrix,
    qt: &Matrix,
    s: &Matrix,
    delta: &mut [f64],
    groups: &[usize],
    rows: &[usize],
    mu: f64,
) -> f64 {
    let k_count = bt.cols();
    let mut worst_kkt = 0.0_f64;
    for &m in groups {
        let smm = s[(m, m)];
        // c_m = Q[:,m] − (βS)[:,m] + β_m S_mm  (partial residual corr.)
        // Fused pass: c_m, ‖c_m‖² and ‖β_m‖² in one flat loop.
        let mut c_norm_sq = 0.0;
        let mut bnorm_sq = 0.0;
        {
            let qrow = qt.row(m);
            let grow = gradt.row(m);
            let brow = bt.row(m);
            for k in 0..k_count {
                let bv = brow[k];
                let c = qrow[k] - grow[k] + bv * smm;
                delta[k] = c;
                c_norm_sq += c * c;
                bnorm_sq += bv * bv;
            }
        }
        let c_norm = c_norm_sq.sqrt();
        // Closed-form group soft threshold.
        let scale = if smm <= 0.0 || c_norm <= mu {
            0.0
        } else {
            (1.0 - mu / c_norm) / smm
        };
        // KKT violation of this group *before* its update: the update
        // drives it to zero, so measuring pre-update violations over a
        // full sweep bounds the solution quality. The residual column
        // (βS − Q)[:,m] is recovered from the cached c_m:
        // r_k = β_k·S_mm − c_k.
        let bnorm_old = bnorm_sq.sqrt();
        let violation = if bnorm_old > 0.0 {
            let brow = bt.row(m);
            let mut acc = 0.0;
            for k in 0..k_count {
                let bv = brow[k];
                let r = bv * smm - delta[k] + mu * bv / bnorm_old;
                acc += r * r;
            }
            acc.sqrt()
        } else {
            (c_norm - mu).max(0.0)
        };
        worst_kkt = worst_kkt.max(violation);

        // δ = new β_m − old β_m; apply and update the gradient lazily
        // (δ = 0 — the common case for sparse solutions — is free).
        let mut changed = false;
        {
            let brow = bt.row_mut(m);
            for k in 0..k_count {
                let new = scale * delta[k];
                let d = new - brow[k];
                if d != 0.0 {
                    changed = true;
                }
                delta[k] = d;
                brow[k] = new;
            }
        }
        if changed {
            // gradt[j, :] += S[m, j] · δ. On pruned sweeps only the
            // active rows are maintained — the only rows those sweeps
            // read — cutting the update from O(M·K) to O(|A|·K).
            let srow = s.row(m);
            for &j in rows {
                let smj = srow[j];
                if smj == 0.0 {
                    continue;
                }
                let grow = gradt.row_mut(j);
                for (g, &d) in grow.iter_mut().zip(delta.iter()) {
                    *g += smj * d;
                }
            }
        }
    }
    worst_kkt
}

/// l2 norm of row `m` of a group-major matrix.
fn row_norm(mat: &Matrix, m: usize) -> f64 {
    mat.row(m).iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Rebuilds the gradient rows of groups outside the active set from the
/// current support. Pruned sweeps only maintain `gradt` on active rows;
/// since inactive groups hold β_m = 0 and are untouched between full
/// passes, `gradt[j, :] = Σ_{m active} S[j, m] · β_m` restores every stale
/// row exactly (in deterministic ascending-`m` order).
fn refresh_stale_rows(
    gradt: &mut Matrix,
    bt: &Matrix,
    s: &Matrix,
    active: &[bool],
    active_list: &[usize],
) {
    for j in 0..active.len() {
        if active[j] {
            continue;
        }
        gradt.row_mut(j).fill(0.0);
        for &m in active_list {
            let smj = s[(j, m)];
            if smj == 0.0 {
                continue;
            }
            let brow = bt.row(m);
            let grow = gradt.row_mut(j);
            for (g, &b) in grow.iter_mut().zip(brow) {
                *g += smj * b;
            }
        }
    }
}

/// Static worst KKT violation of the current iterate (`gradt` must be
/// fresh for every row). Mirrors [`crate::kkt_violation`] on the
/// group-major layout.
fn static_worst_kkt(bt: &Matrix, gradt: &Matrix, qt: &Matrix, mu: f64) -> f64 {
    let mut worst = 0.0_f64;
    for m in 0..bt.rows() {
        let brow = bt.row(m);
        let grow = gradt.row(m);
        let qrow = qt.row(m);
        let bnorm = brow.iter().map(|v| v * v).sum::<f64>().sqrt();
        let violation = if bnorm > 0.0 {
            let mut acc = 0.0;
            for k in 0..brow.len() {
                let r = grow[k] - qrow[k] + mu * brow[k] / bnorm;
                acc += r * r;
            }
            acc.sqrt()
        } else {
            let rnorm = grow
                .iter()
                .zip(qrow)
                .map(|(g, q)| (g - q) * (g - q))
                .sum::<f64>()
                .sqrt();
            (rnorm - mu).max(0.0)
        };
        worst = worst.max(violation);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> GlProblem {
        // Candidate 0 drives both targets; candidate 1 is weak; candidate 2
        // is pure noise.
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

    #[test]
    fn zero_penalty_fits_targets_well() {
        let p = toy_problem();
        let sol = solve_penalized(&p, 0.0, &GlOptions::default(), None).unwrap();
        // Residual must be tiny: targets are (nearly) in the candidate span.
        assert!(sol.objective < 0.05, "objective {}", sol.objective);
    }

    #[test]
    fn huge_penalty_gives_zero_solution() {
        let p = toy_problem();
        let mu = p.mu_max() * 1.001;
        let sol = solve_penalized(&p, mu, &GlOptions::default(), None).unwrap();
        assert!(sol.beta.max_abs() < 1e-12);
        assert_eq!(sol.budget(), 0.0);
    }

    #[test]
    fn just_below_mu_max_activates_one_group() {
        let p = toy_problem();
        let sol =
            solve_penalized(&p, p.mu_max() * 0.97, &GlOptions::default(), None).unwrap();
        let active = sol.selected(1e-10).len();
        assert_eq!(active, 1, "norms: {:?}", sol.group_norms());
    }

    #[test]
    fn budget_decreases_with_penalty() {
        let p = toy_problem();
        let b1 = solve_penalized(&p, 0.1, &GlOptions::default(), None)
            .unwrap()
            .budget();
        let b2 = solve_penalized(&p, 1.0, &GlOptions::default(), None)
            .unwrap()
            .budget();
        let b3 = solve_penalized(&p, 3.0, &GlOptions::default(), None)
            .unwrap()
            .budget();
        assert!(b1 > b2 && b2 > b3, "{b1} {b2} {b3}");
    }

    #[test]
    fn noise_candidate_is_dropped_first() {
        let p = toy_problem();
        let sol = solve_penalized(&p, 0.8, &GlOptions::default(), None).unwrap();
        let norms = sol.group_norms();
        // Candidate 2 (noise) must have (near-)zero weight while at least
        // one informative candidate stays active.
        assert!(norms[2] < 1e-8, "noise candidate kept: {norms:?}");
        assert!(norms[0] + norms[1] > 0.1);
    }

    #[test]
    fn warm_start_converges_faster() {
        let p = toy_problem();
        let cold = solve_penalized(&p, 0.5, &GlOptions::default(), None).unwrap();
        let warm =
            solve_penalized(&p, 0.55, &GlOptions::default(), Some(&cold.beta)).unwrap();
        let cold2 = solve_penalized(&p, 0.55, &GlOptions::default(), None).unwrap();
        assert!(warm.sweeps <= cold2.sweeps);
        assert!((warm.objective - cold2.objective).abs() < 1e-6);
    }

    #[test]
    fn objective_never_increases_with_more_sweeps() {
        // Run with loose then tight tolerance; objective must not go up.
        let p = toy_problem();
        let loose = solve_penalized(
            &p,
            0.3,
            &GlOptions {
                tolerance: 1e-2,
                ..GlOptions::default()
            },
            None,
        )
        .unwrap();
        let tight = solve_penalized(&p, 0.3, &GlOptions::default(), None).unwrap();
        assert!(tight.objective <= loose.objective + 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let p = toy_problem();
        assert!(solve_penalized(&p, -1.0, &GlOptions::default(), None).is_err());
        assert!(solve_penalized(&p, f64::NAN, &GlOptions::default(), None).is_err());
        let bad = GlOptions {
            max_sweeps: 0,
            ..GlOptions::default()
        };
        assert!(solve_penalized(&p, 0.1, &bad, None).is_err());
        let wrong_warm = Matrix::zeros(1, 1);
        assert!(solve_penalized(&p, 0.1, &GlOptions::default(), Some(&wrong_warm)).is_err());
    }

    #[test]
    fn selected_respects_threshold() {
        let p = toy_problem();
        let sol = solve_penalized(&p, 0.2, &GlOptions::default(), None).unwrap();
        let all = sol.selected(0.0);
        let none = sol.selected(f64::INFINITY);
        assert!(all.len() >= none.len());
        assert!(none.is_empty());
    }
}
