use voltsense_grouplasso::{GlOptions, GlProblem, HomotopySolver};
use voltsense_linalg::stats::Normalizer;
use voltsense_linalg::Matrix;

use crate::CoreError;

/// Result of the group-lasso sensor-selection step (paper Steps 3–5).
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Indices of the selected sensors (ascending, into the candidate
    /// rows of `X`).
    pub selected: Vec<usize>,
    /// Group norms `‖β_m‖₂` of every candidate — the quantities plotted in
    /// the paper's Fig. 1.
    pub group_norms: Vec<f64>,
    /// The normalized GL coefficient matrix `β` (`K x M`).
    pub beta: Matrix,
    /// The penalty `μ(λ)` the constrained solve landed on.
    pub mu: f64,
    /// Budget `Σ‖β_m‖₂` actually consumed (≤ λ).
    pub budget_used: f64,
    /// The candidate normalizer (needed to evaluate β on new data).
    pub x_normalizer: Normalizer,
    /// The target normalizer.
    pub f_normalizer: Normalizer,
}

impl SelectionResult {
    /// Number of selected sensors `Q`.
    pub fn num_selected(&self) -> usize {
        self.selected.len()
    }
}

/// A prepared sensor selection via the constrained multi-task group lasso
/// (paper Section 2.2): the normalized covariance form of `(X, F)`, built
/// once and reusable across many budgets.
///
/// The covariance reduction (`O(M²N + KMN)`) dominates a single selection,
/// so a sweep over λ or sensor counts builds one problem, and every
/// selection runs on its [`SelectionProblem::homotopy`].
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_core::SelectionProblem;
/// use voltsense_grouplasso::GlOptions;
///
/// # fn main() -> Result<(), voltsense_core::CoreError> {
/// let x = Matrix::from_rows(&[
///     &[0.99, 0.84, 0.93, 0.88, 0.97, 0.86],
///     &[0.96, 0.95, 0.97, 0.96, 0.95, 0.96],
/// ])?;
/// let f = Matrix::from_rows(&[&[0.98, 0.82, 0.91, 0.86, 0.96, 0.84]])?;
/// let prepared = SelectionProblem::new(&x, &f)?;
/// let one = prepared.homotopy(GlOptions::default())?.select_with_count(1, 1e-3)?;
/// assert_eq!(one.num_selected(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SelectionProblem {
    problem: GlProblem,
    x_normalizer: Normalizer,
    f_normalizer: Normalizer,
}

impl SelectionProblem {
    /// Normalizes the data and reduces it to covariance form (Steps 3 and
    /// the expensive half of Step 4).
    ///
    /// # Errors
    ///
    /// * [`CoreError::ShapeMismatch`] if `x` and `f` disagree on samples.
    /// * Propagates problem-construction failures (non-finite data, …).
    pub fn new(x: &Matrix, f: &Matrix) -> Result<Self, CoreError> {
        if x.cols() != f.cols() {
            return Err(CoreError::ShapeMismatch {
                what: format!(
                    "X has {} samples, F has {} — they must match",
                    x.cols(),
                    f.cols()
                ),
            });
        }
        let x_normalizer = Normalizer::fit(x);
        let f_normalizer = Normalizer::fit(f);
        let z = x_normalizer.apply(x)?;
        let g = f_normalizer.apply(f)?;
        let problem = GlProblem::from_data(&z, &g)?;
        Ok(SelectionProblem {
            problem,
            x_normalizer,
            f_normalizer,
        })
    }

    /// Number of candidates `M`.
    pub fn num_candidates(&self) -> usize {
        self.problem.num_candidates()
    }

    /// Starts a warm-started sweep over this problem: the returned
    /// [`SelectionHomotopy`] chains β, the active set and the
    /// budget-bisection probe history across every selection it performs,
    /// which is how λ sweeps and per-core Q bisections should run.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid solver options.
    pub fn homotopy(&self, options: GlOptions) -> Result<SelectionHomotopy<'_>, CoreError> {
        let solver = HomotopySolver::new(&self.problem, options)
            .map_err(|e| CoreError::InvalidConfig {
                what: format!("bad solver options: {e}"),
            })?;
        Ok(SelectionHomotopy {
            prepared: self,
            solver,
        })
    }

    pub(crate) fn finish(
        &self,
        beta: Matrix,
        mu: f64,
        budget_used: f64,
        lambda: f64,
        threshold: f64,
    ) -> Result<SelectionResult, CoreError> {
        let group_norms: Vec<f64> = (0..beta.cols())
            .map(|m| {
                (0..beta.rows())
                    .map(|k| beta[(k, m)] * beta[(k, m)])
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let selected: Vec<usize> = group_norms
            .iter()
            .enumerate()
            .filter(|&(_, n)| *n > threshold)
            .map(|(m, _)| m)
            .collect();
        if selected.is_empty() {
            return Err(CoreError::NoSensorsSelected { lambda, threshold });
        }
        Ok(SelectionResult {
            selected,
            group_norms,
            beta,
            mu,
            budget_used,
            x_normalizer: self.x_normalizer.clone(),
            f_normalizer: self.f_normalizer.clone(),
        })
    }
}

/// A warm-started selection sweep over one prepared problem.
///
/// Every selection this handle performs — whether budget-constrained or
/// count-targeted — shares the underlying [`HomotopySolver`]'s coefficient
/// warm start, active set and `(μ, budget)` probe history, so a λ sweep or
/// a Q bisection costs a fraction of independent cold selections.
///
/// # Example
///
/// ```
/// use voltsense_linalg::Matrix;
/// use voltsense_core::SelectionProblem;
/// use voltsense_grouplasso::GlOptions;
///
/// # fn main() -> Result<(), voltsense_core::CoreError> {
/// let x = Matrix::from_rows(&[
///     &[0.99, 0.84, 0.93, 0.88, 0.97, 0.86],
///     &[0.96, 0.95, 0.97, 0.96, 0.95, 0.96],
/// ])?;
/// let f = Matrix::from_rows(&[&[0.98, 0.82, 0.91, 0.86, 0.96, 0.84]])?;
/// let prepared = SelectionProblem::new(&x, &f)?;
/// let mut sweep = prepared.homotopy(GlOptions::default())?;
/// for lambda in [0.5, 1.0, 2.0] {
///     let result = sweep.select_constrained(lambda, 1e-3)?;
///     assert!(result.budget_used <= lambda + 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SelectionHomotopy<'a> {
    prepared: &'a SelectionProblem,
    solver: HomotopySolver<'a>,
}

impl SelectionHomotopy<'_> {
    /// Number of penalized GL solves performed so far across all
    /// selections on this handle.
    pub fn num_solves(&self) -> usize {
        self.solver.num_solves()
    }

    /// Selects sensors under a budget λ (Steps 4–5), warm-started from
    /// everything this handle solved before.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for a non-finite or non-positive λ
    ///   or a non-finite or negative threshold T, before any solve.
    /// * [`CoreError::NoSensorsSelected`] if nothing passes the threshold.
    /// * Propagates solver failures.
    pub fn select_constrained(
        &mut self,
        lambda: f64,
        threshold: f64,
    ) -> Result<SelectionResult, CoreError> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(CoreError::InvalidConfig {
                what: format!("lambda must be finite and > 0, got {lambda}"),
            });
        }
        check_threshold(threshold)?;
        let solution = self.solver.solve_constrained(lambda)?;
        self.prepared.finish(
            solution.solution.beta,
            solution.mu,
            solution.budget_used,
            lambda,
            threshold,
        )
    }

    /// Selects (approximately) `q` sensors by bisecting the penalty μ,
    /// sharing the warm chain with every other selection on this handle.
    /// The count `Q(μ)` is monotone non-increasing, so this needs one
    /// bisection rather than nested budget searches; it returns the
    /// closest achievable count if the selection path jumps over `q`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] for `q` out of `1..=M` or a
    ///   non-finite or negative threshold T, before any solve.
    /// * [`CoreError::NoSensorsSelected`] if even the loosest penalty
    ///   selects nothing.
    /// * Propagates solver failures.
    pub fn select_with_count(
        &mut self,
        q: usize,
        threshold: f64,
    ) -> Result<SelectionResult, CoreError> {
        check_threshold(threshold)?;
        let m_count = self.prepared.num_candidates();
        if q == 0 || q > m_count {
            return Err(CoreError::InvalidConfig {
                what: format!("target sensor count {q} out of range (1..={m_count})"),
            });
        }
        let mu_max = self.prepared.problem.mu_max();
        if mu_max == 0.0 {
            return Err(CoreError::NoSensorsSelected {
                lambda: 0.0,
                threshold,
            });
        }
        let mut lo = 0.0_f64; // count(lo) >= q by convention (never solved)
        let mut hi = mu_max; // count(mu_max) = 0
        let mut best: Option<voltsense_grouplasso::GlSolution> = None;
        let count_of = |sol: &voltsense_grouplasso::GlSolution| sol.selected(threshold).len();
        for _ in 0..self.solver.options().max_bisections {
            let mid = 0.5 * (lo + hi);
            let sol = self.solver.solve(mid)?;
            let n = count_of(&sol);
            let better = n > 0
                && match &best {
                    Some(b) => {
                        let cur = count_of(b);
                        (n as i64 - q as i64).abs() < (cur as i64 - q as i64).abs()
                            || ((n as i64 - q as i64).abs() == (cur as i64 - q as i64).abs()
                                && n <= q
                                && cur > q)
                    }
                    None => true,
                };
            if better {
                best = Some(sol.clone());
            }
            match n.cmp(&q) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Greater => lo = mid,
                std::cmp::Ordering::Less => hi = mid,
            }
            if hi - lo <= 1e-9 * mu_max {
                break;
            }
        }
        let solution = best.ok_or(CoreError::NoSensorsSelected {
            lambda: f64::INFINITY,
            threshold,
        })?;
        let budget = solution.budget();
        let mu = solution.mu;
        self.prepared.finish(solution.beta, mu, budget, budget, threshold)
    }
}

/// The paper's T keeps candidates with `‖β_m‖₂ > T`: a negative T would
/// keep every candidate and a NaN T none.
fn check_threshold(threshold: f64) -> Result<(), CoreError> {
    if threshold.is_finite() && threshold >= 0.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidConfig {
            what: format!("threshold must be finite and >= 0, got {threshold}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 candidates / 2 targets: target 0 follows candidate 0, target 1
    /// follows candidate 2; candidates 1, 3 are weakly-informative noise.
    fn training() -> (Matrix, Matrix) {
        let n = 40;
        let mut x = Matrix::zeros(4, n);
        let mut f = Matrix::zeros(2, n);
        for s in 0..n {
            let t = s as f64;
            let sig0 = 0.93 + 0.05 * (t * 0.7).sin();
            let sig1 = 0.94 + 0.04 * (t * 1.3).cos();
            x[(0, s)] = sig0 + 0.001 * (t * 3.1).sin();
            x[(1, s)] = 0.96 + 0.002 * (t * 2.3).sin();
            x[(2, s)] = sig1 + 0.001 * (t * 4.7).cos();
            x[(3, s)] = 0.95 + 0.002 * (t * 1.9).cos();
            f[(0, s)] = sig0 - 0.02;
            f[(1, s)] = sig1 - 0.02;
        }
        (x, f)
    }

    /// One cold selection under budget `lambda`: a fresh homotopy over a
    /// freshly prepared problem.
    fn select(
        x: &Matrix,
        f: &Matrix,
        lambda: f64,
        threshold: f64,
    ) -> Result<SelectionResult, CoreError> {
        SelectionProblem::new(x, f)?
            .homotopy(GlOptions::default())?
            .select_constrained(lambda, threshold)
    }

    #[test]
    fn selects_the_informative_candidates() {
        let (x, f) = training();
        let result = select(&x, &f, 1.5, 1e-3).unwrap();
        assert!(result.selected.contains(&0));
        assert!(result.selected.contains(&2));
    }

    #[test]
    fn group_norms_separate_selected_from_rest() {
        let (x, f) = training();
        let result = select(&x, &f, 1.5, 1e-3).unwrap();
        let min_selected = result
            .selected
            .iter()
            .map(|&m| result.group_norms[m])
            .fold(f64::INFINITY, f64::min);
        for (m, &n) in result.group_norms.iter().enumerate() {
            if !result.selected.contains(&m) {
                assert!(n <= 1e-3);
                assert!(min_selected > n);
            }
        }
    }

    #[test]
    fn smaller_lambda_selects_fewer() {
        let (x, f) = training();
        let small = select(&x, &f, 0.4, 1e-3).unwrap();
        let large = select(&x, &f, 3.0, 1e-3).unwrap();
        assert!(small.num_selected() <= large.num_selected());
    }

    #[test]
    fn budget_respected() {
        let (x, f) = training();
        let result = select(&x, &f, 1.0, 1e-3).unwrap();
        assert!(result.budget_used <= 1.0 + 1e-6);
        assert!(result.mu > 0.0);
    }

    #[test]
    fn tiny_threshold_tolerated_huge_threshold_errors() {
        let (x, f) = training();
        let ok = select(&x, &f, 1.0, 0.0);
        assert!(ok.is_ok());
        let none = select(&x, &f, 1.0, 1e9);
        assert!(matches!(none, Err(CoreError::NoSensorsSelected { .. })));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (x, f) = training();
        assert!(select(&x, &f, 0.0, 1e-3).is_err());
        assert!(select(&x, &f, -1.0, 1e-3).is_err());
        assert!(select(&x, &f, 1.0, -1e-3).is_err());
        assert!(select(&x, &f, f64::NAN, 1e-3).is_err());
    }

    #[test]
    fn bad_budget_or_threshold_rejected_before_any_solve() {
        let (x, f) = training();
        let prepared = SelectionProblem::new(&x, &f).unwrap();
        let mut sweep = prepared.homotopy(GlOptions::default()).unwrap();
        for lambda in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = sweep.select_constrained(lambda, 1e-3);
            assert!(
                matches!(r, Err(CoreError::InvalidConfig { .. })),
                "λ={lambda}: {r:?}"
            );
        }
        for threshold in [-1e-3, f64::NAN, f64::INFINITY] {
            let r = sweep.select_constrained(1.0, threshold);
            assert!(
                matches!(r, Err(CoreError::InvalidConfig { .. })),
                "T={threshold}: {r:?}"
            );
            let r = sweep.select_with_count(2, threshold);
            assert!(
                matches!(r, Err(CoreError::InvalidConfig { .. })),
                "T={threshold}: {r:?}"
            );
        }
        assert_eq!(sweep.num_solves(), 0);
    }

    #[test]
    fn sample_mismatch_rejected() {
        let (x, _) = training();
        let f_bad = Matrix::zeros(2, 3);
        assert!(matches!(
            select(&x, &f_bad, 1.0, 1e-3),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
