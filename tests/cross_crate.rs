//! Cross-crate consistency checks: independent implementations must agree
//! on real (simulated) data, not just on toy matrices.

#[path = "../crates/grouplasso/tests/support/fista.rs"]
mod oracle;

use oracle::fista;
use voltsense::core::{
    EmergencyMonitor, FaultPolicy, FaultTolerantModel, SelectionProblem, VoltageMapModel,
};
use voltsense::faults::{FaultEvent, FaultInjector, FaultKind, FaultSchedule};
use voltsense::grouplasso::{kkt_violation, solve_penalized, GlOptions, GlProblem};
use voltsense::linalg::stats::Normalizer;
use voltsense::linalg::{lstsq, Matrix};
use voltsense::scenario::Scenario;
use voltsense::linalg::decomp::Cholesky;
use voltsense::sparse::{EnvelopeCholesky, TripletMatrix};

fn scenario_data() -> (Matrix, Matrix) {
    let s = Scenario::small().expect("scenario builds");
    let data = s.collect(&[0]).expect("simulation succeeds");
    (data.x, data.f)
}

#[test]
fn direct_and_iterative_solvers_agree_on_grid_matrix() {
    // Rebuild a grid-like SPD matrix at the scenario's scale and compare
    // the sparse envelope factorization with dense Cholesky.
    let n = 300;
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        if i + 1 < n {
            t.stamp_conductance(i, i + 1, 4.0);
        }
        if i + 20 < n {
            t.stamp_conductance(i, i + 20, 4.0);
        }
        if i % 25 == 0 {
            t.stamp_grounded_conductance(i, 1.5);
        }
    }
    let a = t.to_csr();
    let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.01).sin()).collect();
    let direct = EnvelopeCholesky::factor(&a).unwrap().solve(&b).unwrap();
    let reference = Cholesky::new(&a.to_dense()).unwrap().solve(&b).unwrap();
    for (d, i) in direct.iter().zip(&reference) {
        assert!((d - i).abs() < 1e-6, "{d} vs {i}");
    }
}

#[test]
fn bcd_and_fista_agree_on_simulated_voltages() {
    let (x, f) = scenario_data();
    // Use a candidate subset to keep the FISTA oracle fast.
    let rows: Vec<usize> = (0..x.rows()).step_by(7).collect();
    let x = x.select_rows(&rows);
    let f_rows: Vec<usize> = (0..f.rows()).step_by(4).collect();
    let f = f.select_rows(&f_rows);

    let z = Normalizer::fit(&x).apply(&x).unwrap();
    let g = Normalizer::fit(&f).apply(&f).unwrap();
    let p = GlProblem::from_data(&z, &g).unwrap();
    let mu = p.mu_max() * 0.3;
    let opts = GlOptions {
        max_sweeps: 50_000,
        tolerance: 1e-7,
        ..GlOptions::default()
    };
    let bcd = solve_penalized(&p, mu, &opts, None).unwrap();
    let fista = fista(&p, mu, &opts);
    let scale = bcd.objective.abs().max(1.0);
    assert!(
        (bcd.objective - fista.objective).abs() < 1e-3 * scale,
        "objectives diverge: bcd {} vs fista {}",
        bcd.objective,
        fista.objective
    );
    // KKT check validates both against the optimality conditions.
    assert!(kkt_violation(&p, &bcd.beta, mu).unwrap() < 1e-5 * p.mu_max());
}

#[test]
fn voltage_map_model_matches_manual_normal_equations() {
    let (x, f) = scenario_data();
    let sensors: Vec<usize> = vec![0, x.rows() / 2, x.rows() - 1];
    let model = VoltageMapModel::fit(&x, &f, &sensors).unwrap();
    // Manual OLS through the public linalg API.
    let x_sel = x.select_rows(&sensors);
    let manual = lstsq::ols_with_intercept(&x_sel, &f).unwrap();
    assert!(model
        .linear_fit()
        .coefficients
        .approx_eq(&manual.coefficients, 1e-9));
    // Predictions agree on a sample.
    let sample = x.col(5);
    let via_model = model.predict_from_candidates(&sample).unwrap();
    let readings: Vec<f64> = sensors.iter().map(|&s| sample[s]).collect();
    let via_manual = manual.predict(&readings).unwrap();
    for (a, b) in via_model.iter().zip(&via_manual) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn selection_is_stable_across_solver_tolerances() {
    // Tightening the solver tolerance must keep the selected support
    // essentially the same (the support is the methodology's real
    // output). Candidates on a power grid are near-duplicates, so swaps
    // between statistically-equivalent neighbours are allowed; wholesale
    // changes are not.
    let (x, f) = scenario_data();
    let rows: Vec<usize> = (0..x.rows()).step_by(5).collect();
    let x = x.select_rows(&rows);

    let prepared = SelectionProblem::new(&x, &f).unwrap();
    let loose = prepared
        .homotopy(GlOptions {
            tolerance: 1e-4,
            ..GlOptions::default()
        })
        .unwrap()
        .select_constrained(5.0, 1e-3)
        .unwrap();
    let tight = prepared
        .homotopy(GlOptions {
            tolerance: 1e-6,
            max_sweeps: 20_000,
            ..GlOptions::default()
        })
        .unwrap()
        .select_constrained(5.0, 1e-3)
        .unwrap();
    let loose_set: std::collections::BTreeSet<usize> = loose.selected.iter().copied().collect();
    let tight_set: std::collections::BTreeSet<usize> = tight.selected.iter().copied().collect();
    let overlap = loose_set.intersection(&tight_set).count() as f64;
    let union = loose_set.union(&tight_set).count() as f64;
    assert!(
        overlap / union >= 0.7,
        "supports diverged: loose {loose_set:?} vs tight {tight_set:?}"
    );
    let diff = (loose.selected.len() as i64 - tight.selected.len() as i64).abs();
    assert!(diff <= 2, "selected counts diverged by {diff}");
}

#[test]
fn injected_fault_is_survived_on_simulated_voltages() {
    // Wire the fault injector (voltsense-faults) into the fault-tolerant
    // monitor (voltsense-core) on real simulated data: a sensor dropping
    // to NaN mid-trace must be failed and predicted around, and the whole
    // run must replay bit-identically from the seed.
    let (x, f) = scenario_data();
    let m = x.rows();
    let sensors = vec![0, m / 3, 2 * m / 3, m - 1];
    let q = sensors.len();
    let ft = FaultTolerantModel::fit(&x, &f, &sensors).unwrap();

    let onset = 5u64;
    let schedule =
        FaultSchedule::new(vec![FaultEvent::new(1, onset, FaultKind::OpenNaN)]).unwrap();
    let run = |mut monitor: EmergencyMonitor| -> Vec<f64> {
        let mut injector = FaultInjector::new(schedule.clone(), q, 2024).unwrap();
        (0..30)
            .map(|s| {
                let readings: Vec<f64> = sensors.iter().map(|&r| x[(r, s)]).collect();
                let corrupted = injector.corrupt(&readings).unwrap();
                monitor.observe(&corrupted).unwrap().predicted_min
            })
            .collect()
    };

    let monitor =
        EmergencyMonitor::fault_tolerant(ft.clone(), 0.85, 1, 0.0, FaultPolicy::default())
            .unwrap();
    let mut probe = monitor.clone();
    let trace = run(probe.clone());
    // Every sample produced a finite prediction despite the dead sensor.
    assert!(trace.iter().all(|v| v.is_finite()));

    // The dead sensor is permanently failed within the persistence window.
    let mut injector = FaultInjector::new(schedule.clone(), q, 2024).unwrap();
    for s in 0..30 {
        let readings: Vec<f64> = sensors.iter().map(|&r| x[(r, s)]).collect();
        probe.observe(&injector.corrupt(&readings).unwrap()).unwrap();
    }
    let persistence = FaultPolicy::default().health_persistence as u64;
    assert_eq!(probe.failed_sensors(), vec![1]);
    assert_eq!(probe.stats().sensors_failed, 1);
    // Gated on every pre-promotion strike; once failed it is excluded
    // outright rather than gated.
    assert_eq!(probe.stats().gated_readings, persistence - 1);

    // After failure, predictions equal the leave-sensor-1-out model fed
    // with the surviving readings — the hot-swap is exact.
    let survivors: Vec<usize> = sensors
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, &r)| r)
        .collect();
    let fallback = VoltageMapModel::fit(&x, &f, &survivors).unwrap();
    let s = 29usize;
    let surviving: Vec<f64> = survivors.iter().map(|&r| x[(r, s)]).collect();
    let expected = fallback.predict_from_sensors(&surviving).unwrap();
    let expected_min = expected.iter().copied().fold(f64::INFINITY, f64::min);
    assert!((trace[s] - expected_min).abs() < 1e-12);

    // Same seed, same monitor => bit-identical replay.
    let replay = run(monitor);
    assert_eq!(trace.len(), replay.len());
    for (a, b) in trace.iter().zip(&replay) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn normalization_round_trips_through_selection() {
    let (x, f) = scenario_data();
    let prepared = SelectionProblem::new(&x, &f).unwrap();
    let mut sweep = prepared.homotopy(GlOptions::default()).unwrap();
    let result = sweep.select_constrained(5.0, 1e-3).unwrap();
    // The stored normalizers must reproduce X and F exactly.
    let z = result.x_normalizer.apply(&x).unwrap();
    let back = result.x_normalizer.invert(&z).unwrap();
    assert!(back.approx_eq(&x, 1e-9));
    let g = result.f_normalizer.apply(&f).unwrap();
    let back_f = result.f_normalizer.invert(&g).unwrap();
    assert!(back_f.approx_eq(&f, 1e-9));
}
