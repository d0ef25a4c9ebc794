//! Warm-started λ-homotopy over one group-lasso problem.
//!
//! The paper's workloads are *sweeps*: Table 1 solves the same problem at
//! λ = 10…60, the Q-matched comparison bisects the budget per core, and CV
//! solves a μ grid per fold. [`HomotopySolver`] makes every solve in such a
//! sweep share state with its neighbours:
//!
//! * the cached covariance form (`ZZᵀ` / `GZᵀ` Grams live in the borrowed
//!   [`GlProblem`], computed once);
//! * the coefficient matrix β of the most recent solve, used to warm-start
//!   the next one (the BCD active set falls out of the warm β's support);
//! * a probe history of `(μ, budget)` pairs, so a budget bisection for a
//!   new λ starts from the tightest bracket any earlier solve established
//!   instead of from `(0, μ_max)`.
//!
//! A one-off solve is a fresh solver; the selection pipeline keeps one
//! alive per core across its whole λ/Q sweep.

use voltsense_linalg::Matrix;

use crate::bcd::{solve_penalized, GlOptions, GlSolution};
use crate::problem::GlProblem;
use crate::GroupLassoError;

/// Relative interval width (vs `μ_max`) below which a budget bisection has
/// exhausted floating point and must stop.
const COLLAPSE_REL: f64 = 1e-12;

/// Result of a constrained solve.
#[derive(Debug, Clone)]
pub struct ConstrainedSolution {
    /// The underlying penalized solution at the matched penalty.
    pub solution: GlSolution,
    /// The penalty `μ(λ)` found by bisection.
    pub mu: f64,
    /// The budget `Σ‖β_m‖₂` the solution actually consumes (≤ λ up to the
    /// budget tolerance).
    pub budget_used: f64,
}

/// One point on a penalty path.
#[derive(Debug, Clone)]
pub struct PathPoint {
    /// The penalty this point was solved at.
    pub mu: f64,
    /// Per-candidate group norms `‖β_m‖₂`.
    pub group_norms: Vec<f64>,
    /// Budget `Σ‖β_m‖₂`.
    pub budget: f64,
    /// Number of candidates with group norm above `threshold`.
    pub num_selected: usize,
    /// Smooth data-fit part of the objective, `½‖G − βZ‖²`.
    pub fit: f64,
}

/// A stateful warm-started solver for sweeping one problem across
/// penalties and budgets.
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_grouplasso::{GlProblem, GlOptions, HomotopySolver};
///
/// # fn main() -> Result<(), voltsense_grouplasso::GroupLassoError> {
/// let z = Matrix::from_rows(&[&[1.0, -1.0, 0.5, -0.5]])?;
/// let g = Matrix::from_rows(&[&[0.9, -1.1, 0.4, -0.6]])?;
/// let p = GlProblem::from_data(&z, &g)?;
/// let mut h = HomotopySolver::new(&p, GlOptions::default())?;
/// // Budgets solved in sequence share warm starts and probe history.
/// let tight = h.solve_constrained(0.5)?;
/// let loose = h.solve_constrained(1.5)?;
/// assert!(tight.budget_used <= loose.budget_used + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HomotopySolver<'a> {
    problem: &'a GlProblem,
    options: GlOptions,
    /// β of the most recent solve and the μ it was solved at.
    warm: Option<(Matrix, f64)>,
    /// `(μ, budget)` of every solve so far, ascending in μ.
    probes: Vec<(f64, f64)>,
    num_solves: usize,
}

impl<'a> HomotopySolver<'a> {
    /// Creates a solver over the given problem.
    ///
    /// # Errors
    ///
    /// Returns [`GroupLassoError::InvalidParameter`] for invalid options.
    pub fn new(problem: &'a GlProblem, options: GlOptions) -> Result<Self, GroupLassoError> {
        options.validate()?;
        Ok(HomotopySolver {
            problem,
            options,
            warm: None,
            probes: Vec::new(),
            num_solves: 0,
        })
    }

    /// The problem this solver sweeps.
    pub fn problem(&self) -> &GlProblem {
        self.problem
    }

    /// The solver options.
    pub fn options(&self) -> &GlOptions {
        &self.options
    }

    /// Number of penalized solves performed so far (one per
    /// [`HomotopySolver::solve`] call; the early-exit logic in
    /// [`HomotopySolver::solve_constrained`] exists to keep this small).
    pub fn num_solves(&self) -> usize {
        self.num_solves
    }

    /// Solves the penalized problem at `mu`, warm-started from the most
    /// recent solve, and records the `(μ, budget)` probe.
    ///
    /// # Errors
    ///
    /// Same as [`solve_penalized`].
    pub fn solve(&mut self, mu: f64) -> Result<GlSolution, GroupLassoError> {
        let warm = self.warm.as_ref().map(|(b, _)| b);
        let sol = solve_penalized(self.problem, mu, &self.options, warm)?;
        self.num_solves += 1;
        self.record_probe(mu, sol.budget());
        self.warm = Some((sol.beta.clone(), mu));
        Ok(sol)
    }

    fn record_probe(&mut self, mu: f64, budget: f64) {
        match self.probes.binary_search_by(|(m, _)| m.total_cmp(&mu)) {
            Ok(i) => self.probes[i] = (mu, budget),
            Err(i) => self.probes.insert(i, (mu, budget)),
        }
    }

    /// Tightest `(lo, hi)` bisection bracket for budget `lambda` supported
    /// by the probe history: `budget(hi) ≤ λ < budget(lo)` (with the
    /// conventions `budget(0⁺) = ∞`-ish and `budget(μ_max) = 0`). Falls
    /// back to `(0, μ_max)` if the history is empty or numerically
    /// non-monotone around λ.
    fn bracket(&self, lambda: f64, mu_max: f64) -> (f64, f64) {
        let mut lo = 0.0_f64;
        let mut hi = mu_max;
        // Probes are ascending in μ; budget is non-increasing in μ.
        for &(mu, budget) in &self.probes {
            if budget > lambda {
                lo = lo.max(mu);
            } else {
                hi = hi.min(mu);
                break; // later probes only shrink the budget further
            }
        }
        if lo >= hi {
            (0.0, mu_max)
        } else {
            (lo, hi)
        }
    }

    /// Solves `min ‖G − βZ‖_F  s.t.  Σ‖β_m‖₂ ≤ λ` by monotone bisection
    /// on μ, reusing the warm chain and any bracket the probe history
    /// already establishes.
    ///
    /// The paper states its selection problem with this explicit budget
    /// (Eq. 12). By Lagrangian duality the solution coincides with a
    /// penalized solution for some `μ(λ) ≥ 0`, and the consumed budget
    /// `Σ‖β_m(μ)‖₂` is monotone non-increasing in `μ`, so the bisection
    /// keeps the paper's λ semantics (its Table 1 sweeps λ = 10…60) on the
    /// fast BCD solver.
    ///
    /// The always-feasible zero solution at `μ_max` (budget 0 ≤ λ by
    /// construction) seeds the feasible incumbent, so the solve cannot
    /// spuriously fail when every sampled midpoint lands infeasible (tiny
    /// λ, small `max_bisections`). When the constraint is inactive — no
    /// sampled μ is infeasible and the budget has stopped moving — the
    /// bisection exits early instead of burning the full `max_bisections`.
    ///
    /// # Errors
    ///
    /// * [`GroupLassoError::InvalidParameter`] for `λ <= 0`.
    /// * Propagates solver failures from the inner penalized solves.
    pub fn solve_constrained(
        &mut self,
        lambda: f64,
    ) -> Result<ConstrainedSolution, GroupLassoError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(GroupLassoError::InvalidParameter {
                what: format!("budget lambda must be finite and > 0, got {lambda}"),
            });
        }
        let mu_max = self.problem.mu_max();
        if mu_max == 0.0 {
            // Q = 0: the zero solution is optimal and consumes no budget.
            let solution = self.solve(0.0)?;
            let budget_used = solution.budget();
            return Ok(ConstrainedSolution {
                solution,
                mu: 0.0,
                budget_used,
            });
        }

        // Seed the incumbent with the exact zero solution at μ = μ_max:
        // every group satisfies ‖Q[:, m]‖ ≤ μ_max, so β = 0 is optimal
        // there with zero KKT residual, and its budget 0 is feasible for
        // any λ > 0 — no solve needed.
        let zero_beta = Matrix::zeros(self.problem.num_targets(), self.problem.num_candidates());
        let mut best = (
            GlSolution {
                beta: zero_beta,
                mu: mu_max,
                objective: 0.5 * self.problem.gg(),
                sweeps: 0,
                converged: true,
                kkt_residual: 0.0,
            },
            0.0_f64,
        );

        // Start from the tightest bracket the probe history supports
        // (bisections for nearby λ values share most of their midpoints).
        let (mut lo, mut hi) = self.bracket(lambda, mu_max);
        // Has any solve (this call) sampled an infeasible μ — equivalently,
        // is the constraint known to be active somewhere below `hi`? While
        // false, a stagnating budget means the bisection is converging to
        // the unconstrained optimum and can stop early. A probe-derived
        // lo > 0 proves infeasibility below without any new solve.
        let mut saw_infeasible = lo > 0.0;
        let mut prev_budget: Option<f64> = None;

        // A probe-derived `hi < μ_max` marks a μ an earlier bisection found
        // feasible, but only its (μ, budget) pair survives — the bisection
        // below samples strictly inside (lo, hi) and never at `hi` itself,
        // so if the budget jumps across λ just below `hi` every midpoint is
        // infeasible and the incumbent would stay the zero seed. One warm
        // solve at `hi` materializes the known-feasible solution first. If
        // warm-start drift makes the re-solve infeasible after all, the
        // boundary really sits above `hi`: widen the bracket upward.
        if hi < mu_max {
            let sol = self.solve(hi)?;
            let budget = sol.budget();
            if budget <= lambda {
                best = (sol, budget);
                prev_budget = Some(budget);
            } else {
                saw_infeasible = true;
                lo = hi;
                hi = mu_max;
            }
        }

        for _ in 0..self.options.max_bisections {
            // The incumbent may already be as tight as requested (a repeated
            // λ, or a probe that landed on the boundary).
            if (lambda - best.1).abs() <= self.options.budget_tolerance * lambda {
                break;
            }
            let mid = 0.5 * (lo + hi);
            let sol = self.solve(mid)?;
            let budget = sol.budget();
            if budget <= lambda {
                // Feasible: keep the closest-to-budget feasible solution.
                if budget > best.1 || best.0.sweeps == 0 {
                    best = (sol, budget);
                }
                hi = mid;
            } else {
                saw_infeasible = true;
                lo = mid;
            }
            // Budget-closeness: the incumbent is as tight as requested.
            if (lambda - best.1).abs() <= self.options.budget_tolerance * lambda {
                break;
            }
            // Inactive constraint: μ is collapsing towards 0 with every
            // midpoint feasible and the budget no longer moving (relative
            // to its own scale, so the loose solution still converges to
            // the unconstrained fit before the exit fires) — further
            // bisection just re-solves the same fit.
            if !saw_infeasible {
                if let Some(prev) = prev_budget {
                    let scale = budget.abs().max(prev.abs());
                    if (budget - prev).abs() <= self.options.budget_tolerance * scale {
                        break;
                    }
                }
            }
            prev_budget = Some(budget);
            // Interval collapse: floating point is exhausted; the incumbent
            // cannot improve.
            if hi - lo <= COLLAPSE_REL * mu_max {
                break;
            }
        }

        let (solution, budget_used) = best;
        let mu = solution.mu;
        Ok(ConstrainedSolution {
            solution,
            mu,
            budget_used,
        })
    }

    /// Solves the penalized problem at each `mu` in `mus` (any order;
    /// processed from largest to smallest through the warm chain, results
    /// returned in the caller's order). Duplicate penalties are solved
    /// once and the [`PathPoint`] reused.
    ///
    /// `threshold` is the selection threshold `T` used to count active
    /// sensors per point.
    ///
    /// # Errors
    ///
    /// * [`GroupLassoError::InvalidParameter`] if `mus` is empty or
    ///   contains a negative/non-finite value, or if `threshold` is
    ///   negative.
    /// * Propagates inner solver failures.
    ///
    /// # Example
    ///
    /// ```
    /// use voltsense_linalg::Matrix;
    /// use voltsense_grouplasso::{GlProblem, GlOptions, HomotopySolver};
    ///
    /// # fn main() -> Result<(), voltsense_grouplasso::GroupLassoError> {
    /// let z = Matrix::from_rows(&[&[1.0, -1.0, 0.5, -0.5]])?;
    /// let g = Matrix::from_rows(&[&[0.9, -1.1, 0.4, -0.6]])?;
    /// let p = GlProblem::from_data(&z, &g)?;
    /// let mut h = HomotopySolver::new(&p, GlOptions::default())?;
    /// let path = h.path(&[0.01, 0.1, 1.0], 1e-3)?;
    /// // Sparsity is monotone along the path.
    /// assert!(path[0].num_selected >= path[2].num_selected);
    /// # Ok(())
    /// # }
    /// ```
    pub fn path(
        &mut self,
        mus: &[f64],
        threshold: f64,
    ) -> Result<Vec<PathPoint>, GroupLassoError> {
        if mus.is_empty() {
            return Err(GroupLassoError::InvalidParameter {
                what: "penalty path needs at least one mu".into(),
            });
        }
        if mus.iter().any(|m| !(m.is_finite() && *m >= 0.0)) {
            return Err(GroupLassoError::InvalidParameter {
                what: format!("penalties must be finite and >= 0: {mus:?}"),
            });
        }
        if threshold < 0.0 || threshold.is_nan() {
            return Err(GroupLassoError::InvalidParameter {
                what: format!("threshold must be >= 0, got {threshold}"),
            });
        }

        // Process from largest to smallest penalty (sparsest first);
        // duplicates land adjacent in the order and are solved once.
        let mut order: Vec<usize> = (0..mus.len()).collect();
        order.sort_by(|&a, &b| mus[b].total_cmp(&mus[a]));

        let mut results: Vec<Option<PathPoint>> = vec![None; mus.len()];
        let mut prev: Option<usize> = None;
        for &idx in &order {
            if let Some(pidx) = prev {
                if mus[pidx] == mus[idx] {
                    results[idx] = results[pidx].clone();
                    continue;
                }
            }
            let sol = self.solve(mus[idx])?;
            let group_norms = sol.group_norms();
            let budget = group_norms.iter().sum();
            let num_selected = group_norms.iter().filter(|&&n| n > threshold).count();
            let fit = self.problem.smooth_objective(&sol.beta)?;
            results[idx] = Some(PathPoint {
                mu: mus[idx],
                group_norms,
                budget,
                num_selected,
                fit,
            });
            prev = Some(idx);
        }
        Ok(results.into_iter().map(|p| p.expect("all filled")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_problem() -> GlProblem {
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
    fn sweep_reuses_probe_brackets() {
        let p = toy_problem();
        let opts = GlOptions::default();
        // Cold per-λ solve counts.
        let lambdas = [0.3, 0.5, 0.8, 1.2, 1.5];
        let mut cold_solves = 0;
        let mut cold_budgets = Vec::new();
        for &l in &lambdas {
            let mut h = HomotopySolver::new(&p, opts.clone()).unwrap();
            let sol = h.solve_constrained(l).unwrap();
            cold_solves += h.num_solves();
            cold_budgets.push(sol.budget_used);
        }
        // One shared chain across the sweep.
        let mut h = HomotopySolver::new(&p, opts).unwrap();
        let mut warm_budgets = Vec::new();
        for &l in &lambdas {
            warm_budgets.push(h.solve_constrained(l).unwrap().budget_used);
        }
        assert!(
            h.num_solves() < cold_solves,
            "warm sweep took {} solves vs {} cold",
            h.num_solves(),
            cold_solves
        );
        // Same budgets (up to the shared budget tolerance).
        for (w, c) in warm_budgets.iter().zip(&cold_budgets) {
            assert!((w - c).abs() <= 2e-4 * c.max(1e-12), "{w} vs {c}");
        }
    }

    #[test]
    fn probe_bracket_tightens_with_history() {
        let p = toy_problem();
        let mu_max = p.mu_max();
        let mut h = HomotopySolver::new(&p, GlOptions::default()).unwrap();
        assert_eq!(h.bracket(0.5, mu_max), (0.0, mu_max));
        h.solve(0.4 * mu_max).unwrap();
        h.solve(0.1 * mu_max).unwrap();
        let (lo, hi) = h.bracket(0.5, mu_max);
        assert!(lo > 0.0 || hi < mu_max, "history should tighten the bracket");
        assert!(lo < hi);
    }

    #[test]
    fn num_solves_counts_every_penalized_solve() {
        let p = toy_problem();
        let mut h = HomotopySolver::new(&p, GlOptions::default()).unwrap();
        assert_eq!(h.num_solves(), 0);
        h.solve(0.5).unwrap();
        h.solve(0.1).unwrap();
        assert_eq!(h.num_solves(), 2);
    }

    #[test]
    fn invalid_options_rejected_at_construction() {
        let p = toy_problem();
        let bad = GlOptions {
            max_sweeps: 0,
            ..GlOptions::default()
        };
        assert!(HomotopySolver::new(&p, bad).is_err());
    }

    #[test]
    fn budget_is_respected_and_nearly_tight() {
        let p = toy_problem();
        for &lambda in &[0.3, 0.8, 1.5] {
            let sol = HomotopySolver::new(&p, GlOptions::default())
                .unwrap()
                .solve_constrained(lambda)
                .unwrap();
            assert!(
                sol.budget_used <= lambda * (1.0 + 1e-9),
                "λ={lambda}: budget {} exceeds",
                sol.budget_used
            );
            // Active constraint: the solver should use almost all of it.
            assert!(
                sol.budget_used >= lambda * 0.995,
                "λ={lambda}: budget {} too slack",
                sol.budget_used
            );
        }
    }

    #[test]
    fn large_budget_leaves_constraint_inactive() {
        let p = toy_problem();
        let opts = GlOptions::default();
        let mut h = HomotopySolver::new(&p, opts.clone()).unwrap();
        let sol = h.solve_constrained(1e6).unwrap();
        // The budget-stagnation exit fires long before the bisection
        // budget is exhausted: every midpoint is feasible and the budget
        // stops moving once μ is small, so burning all `max_bisections`
        // solves (the pre-fix behaviour) buys nothing.
        assert!(
            h.num_solves() < opts.max_bisections / 2,
            "inactive constraint took {} of {} solves",
            h.num_solves(),
            opts.max_bisections
        );
        assert!(sol.budget_used < 1e6);
        // μ has collapsed far enough that the fit is essentially the
        // unpenalized one: resolving at μ → 0 cannot improve it much.
        let loose = p.smooth_objective(&sol.solution.beta).unwrap();
        let ols_sol = crate::solve_penalized(&p, 0.0, &opts, None).unwrap();
        let ols = p.smooth_objective(&ols_sol.beta).unwrap();
        assert!(
            loose <= ols + 1e-3 * p.gg(),
            "loose fit {loose} far from unpenalized fit {ols}"
        );
    }

    #[test]
    fn tiny_budget_returns_feasible_zero_instead_of_failing() {
        // Regression: with λ tiny every sampled midpoint is infeasible, so
        // the pre-fix bisection never populated its feasible incumbent and
        // returned a spurious `DidNotConverge`. The μ_max zero solution is
        // always feasible (budget 0 ≤ λ) and must be returned instead.
        let p = toy_problem();
        let opts = GlOptions {
            max_bisections: 4,
            ..GlOptions::default()
        };
        let sol = HomotopySolver::new(&p, opts)
            .unwrap()
            .solve_constrained(1e-12)
            .expect("tiny budget must not fail");
        assert!(sol.budget_used <= 1e-12);
        assert!(sol.solution.converged);
        assert_eq!(sol.solution.kkt_residual, 0.0);
    }

    #[test]
    fn more_budget_activates_more_sensors() {
        let p = toy_problem();
        let small = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .solve_constrained(0.2)
            .unwrap();
        let large = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .solve_constrained(2.0)
            .unwrap();
        let q_small = small.solution.selected(1e-8).len();
        let q_large = large.solution.selected(1e-8).len();
        assert!(q_small <= q_large, "{q_small} > {q_large}");
        assert!(q_small >= 1);
    }

    #[test]
    fn objective_improves_with_budget() {
        let p = toy_problem();
        let small = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .solve_constrained(0.2)
            .unwrap();
        let large = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .solve_constrained(1.5)
            .unwrap();
        let fit_small = p.smooth_objective(&small.solution.beta).unwrap();
        let fit_large = p.smooth_objective(&large.solution.beta).unwrap();
        assert!(fit_large <= fit_small + 1e-10);
    }

    #[test]
    fn invalid_lambda_rejected() {
        let p = toy_problem();
        let mut h = HomotopySolver::new(&p, GlOptions::default()).unwrap();
        assert!(h.solve_constrained(0.0).is_err());
        assert!(h.solve_constrained(-1.0).is_err());
        assert!(h.solve_constrained(f64::NAN).is_err());
    }

    #[test]
    fn zero_signal_problem_returns_zero() {
        // G uncorrelated with Z in expectation — here exactly zero Q.
        let z = Matrix::from_rows(&[&[1.0, -1.0, 1.0, -1.0]]).unwrap();
        let g = Matrix::from_rows(&[&[1.0, 1.0, -1.0, -1.0]]).unwrap();
        let p = GlProblem::from_data(&z, &g).unwrap();
        assert_eq!(p.mu_max(), 0.0);
        let sol = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .solve_constrained(1.0)
            .unwrap();
        assert!(sol.solution.beta.max_abs() < 1e-12);
    }

    #[test]
    fn path_is_monotone_in_budget_and_selection() {
        let p = toy_problem();
        let mus = [0.01, 0.1, 0.5, 1.5, 4.0];
        let path = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .path(&mus, 1e-8)
            .unwrap();
        for w in path.windows(2) {
            assert!(w[0].budget >= w[1].budget - 1e-9);
            assert!(w[0].num_selected >= w[1].num_selected);
            assert!(w[0].fit <= w[1].fit + 1e-9);
        }
    }

    #[test]
    fn results_follow_caller_order() {
        let p = toy_problem();
        let mus = [1.0, 0.05, 0.4];
        let path = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .path(&mus, 1e-8)
            .unwrap();
        assert_eq!(path.len(), 3);
        for (pt, &mu) in path.iter().zip(&mus) {
            assert_eq!(pt.mu, mu);
        }
    }

    #[test]
    fn path_matches_cold_solves() {
        let p = toy_problem();
        let mus = [0.2, 0.8];
        let path = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .path(&mus, 1e-8)
            .unwrap();
        for (pt, &mu) in path.iter().zip(&mus) {
            let cold = solve_penalized(&p, mu, &GlOptions::default(), None).unwrap();
            let cold_budget = cold.budget();
            assert!(
                (pt.budget - cold_budget).abs() < 1e-6,
                "mu={mu}: warm {} vs cold {cold_budget}",
                pt.budget
            );
        }
    }

    #[test]
    fn duplicate_penalties_solved_once() {
        let p = toy_problem();
        let mus = [0.1, 0.1, 1.0];
        let path = HomotopySolver::new(&p, GlOptions::default())
            .unwrap()
            .path(&mus, 1e-8)
            .unwrap();
        assert_eq!(path.len(), 3);
        for (pt, &mu) in path.iter().zip(&mus) {
            assert_eq!(pt.mu, mu);
        }
        // The duplicated points are literally the same solve's numbers.
        assert_eq!(path[0].group_norms, path[1].group_norms);
        assert_eq!(path[0].fit, path[1].fit);
        // And the dedup really skips the second solve.
        let mut h = HomotopySolver::new(&p, GlOptions::default()).unwrap();
        h.path(&mus, 1e-8).unwrap();
        assert_eq!(h.num_solves(), 2, "three points must come from two solves");
    }

    #[test]
    fn bad_inputs_rejected() {
        let p = toy_problem();
        let mut h = HomotopySolver::new(&p, GlOptions::default()).unwrap();
        assert!(h.path(&[], 1e-3).is_err());
        assert!(h.path(&[-0.1], 1e-3).is_err());
        assert!(h.path(&[0.1], -1.0).is_err());
    }
}
