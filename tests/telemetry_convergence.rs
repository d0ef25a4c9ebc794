//! Convergence regression tests driven by telemetry captures.
//!
//! The BCD solver records per-sweep convergence events (see DESIGN.md §7);
//! this test pins the *shape* of that series on a seeded problem: the
//! objective must be exactly non-increasing and the KKT residual driven to
//! tolerance. A solver change that keeps the final answer right but
//! silently degrades convergence fails here instead of in a wall-clock
//! regression much later.

use std::sync::Arc;

use voltsense::grouplasso::{solve_penalized, GlOptions, GlProblem};
use voltsense::linalg::Matrix;
use voltsense::telemetry::{self, MemoryRecorder, Snapshot};
use voltsense::workload::GaussianRng;

/// A deterministic group-lasso problem: 8 candidates, 3 targets, 60
/// samples. Targets are noisy mixtures of the first three candidates, so a
/// mid-range penalty has a non-trivial active set to converge on.
fn seeded_problem() -> GlProblem {
    let (m_count, k_count, n_count) = (8, 3, 60);
    let mut rng = GaussianRng::seed_from_u64(0x5EED);
    let mut z = Matrix::zeros(m_count, n_count);
    for m in 0..m_count {
        for n in 0..n_count {
            z[(m, n)] = rng.sample();
        }
    }
    let mut g = Matrix::zeros(k_count, n_count);
    for k in 0..k_count {
        for n in 0..n_count {
            g[(k, n)] = z[(k, n)] + 0.4 * z[((k + 1) % 3, n)] + 0.05 * rng.sample();
        }
    }
    GlProblem::from_data(&z, &g).unwrap()
}

/// Captures everything `f` records (from this thread) into a snapshot.
fn capture(f: impl FnOnce()) -> Snapshot {
    let recorder = Arc::new(MemoryRecorder::new());
    telemetry::with_scoped(recorder.clone(), f);
    recorder.snapshot("test")
}

#[test]
fn bcd_objective_descends_and_kkt_reaches_tolerance() {
    let problem = seeded_problem();
    let mu = 0.3 * problem.mu_max();
    let options = GlOptions::default();
    let snapshot = capture(|| {
        let sol = solve_penalized(&problem, mu, &options, None).unwrap();
        assert!(sol.converged);
    });

    let objectives = snapshot.event_series("bcd.sweep", "objective");
    assert!(objectives.len() >= 2, "expected several bcd.sweep events");
    // Exact coordinate minimisation: each sweep is a true descent step.
    for pair in objectives.windows(2) {
        assert!(
            pair[1] <= pair[0] + 1e-12,
            "BCD objective rose: {} -> {}",
            pair[0],
            pair[1]
        );
    }
    let kkt = snapshot.event_series("bcd.sweep", "kkt_residual");
    let (first, last) = (kkt[0], *kkt.last().unwrap());
    assert!(
        last <= options.tolerance,
        "final BCD kkt residual {last} above tolerance {}",
        options.tolerance
    );
    assert!(last <= first, "BCD kkt residual rose: {first} -> {last}");
    assert_eq!(snapshot.counter("bcd.solves"), Some(1));
}
