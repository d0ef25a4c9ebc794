//! Shape checks against the paper's qualitative results: the absolute
//! numbers depend on the synthetic substrate, but the *relationships* the
//! paper reports must hold.

use voltsense::core::{Methodology, MethodologyConfig, SelectionProblem};
use voltsense::eagleeye::{EagleEyeConfig, EagleEyePlacement};
use voltsense::core::detection;
use voltsense::grouplasso::GlOptions;
use voltsense::scenario::{Scenario, ScenarioData};

fn collect() -> (Scenario, ScenarioData) {
    let s = Scenario::small().expect("scenario builds");
    // Use several benchmarks so emergencies appear in train and test.
    let data = s.collect(&[0, 3, 6, 12]).expect("simulation succeeds");
    (s, data)
}

/// Paper Table 1 shape: more budget → more sensors, lower error.
#[test]
fn lambda_sweep_monotonicity() {
    let (_, data) = collect();
    let (train, test) = data.split(3);
    let mut prev_q = 0usize;
    let mut errors = Vec::new();
    for lambda in [3.0, 10.0, 25.0] {
        let cfg = MethodologyConfig {
            lambda,
            ..MethodologyConfig::default()
        };
        let fitted = Methodology::fit(&train.x, &train.f, &cfg).expect("fit");
        let q = fitted.sensors().len();
        assert!(
            q >= prev_q,
            "sensor count not monotone in lambda: {prev_q} then {q}"
        );
        prev_q = q;
        let report = fitted.evaluate(&test.x, &test.f).expect("evaluate");
        errors.push(report.relative_error);
    }
    assert!(
        errors.windows(2).all(|w| w[1] <= w[0] * 1.25),
        "relative error should broadly decrease with lambda: {errors:?}"
    );
    assert!(
        errors[0] < 0.02,
        "even the smallest budget should predict well (paper: < 1e-2), got {}",
        errors[0]
    );
}

/// Paper Fig. 1 shape: selected and unselected group norms are separated
/// by orders of magnitude, making the threshold T easy to pick.
#[test]
fn group_norms_bimodal_separation() {
    let (_, data) = collect();
    let prepared = SelectionProblem::new(&data.x, &data.f).expect("prepared problem");
    let mut sweep = prepared.homotopy(GlOptions::default()).expect("homotopy");
    let result = sweep.select_constrained(8.0, 1e-3).expect("selection");
    let mut selected_min = f64::INFINITY;
    let mut unselected_max = 0.0_f64;
    for (m, &norm) in result.group_norms.iter().enumerate() {
        if result.selected.contains(&m) {
            selected_min = selected_min.min(norm);
        } else {
            unselected_max = unselected_max.max(norm);
        }
    }
    assert!(
        selected_min > 10.0 * unselected_max.max(1e-12),
        "selected ({selected_min:.3e}) and unselected ({unselected_max:.3e}) \
         norms are not well separated"
    );
}

/// Paper Table 2 shape: the prediction-model detector beats Eagle-Eye on
/// miss error (and total error) at an equal sensor budget.
#[test]
fn proposed_beats_eagle_eye_on_miss_error() {
    let (_, data) = collect();
    let (train, test) = data.split(3);

    // Fit the proposed methodology; give Eagle-Eye the same sensor count.
    let cfg = MethodologyConfig {
        lambda: 10.0,
        ..MethodologyConfig::default()
    };
    let fitted = Methodology::fit(&train.x, &train.f, &cfg).expect("fit");
    let q = fitted.sensors().len();
    let eagle = EagleEyePlacement::place(&train.x, &train.f, q, &EagleEyeConfig::default())
        .expect("eagle-eye placement");

    let truth = detection::ground_truth(&test.f, 0.85);
    let emergencies = truth.iter().filter(|&&t| t).count();
    assert!(
        emergencies >= 5,
        "test split has too few emergencies ({emergencies}) to compare"
    );

    let proposed_alarms = fitted.model().detect_matrix(&test.x, 0.85).expect("detect");
    let eagle_alarms = eagle.detect_matrix(&test.x).expect("detect");
    let proposed = detection::evaluate(&truth, &proposed_alarms).expect("evaluate");
    let eagle = detection::evaluate(&truth, &eagle_alarms).expect("evaluate");

    assert!(
        proposed.miss_rate <= eagle.miss_rate,
        "proposed ME {} should not exceed Eagle-Eye ME {}",
        proposed.miss_rate,
        eagle.miss_rate
    );
    assert!(
        proposed.total_error_rate <= eagle.total_error_rate,
        "proposed TE {} should not exceed Eagle-Eye TE {}",
        proposed.total_error_rate,
        eagle.total_error_rate
    );
}

/// The paper's premise for Fig. 3: Eagle-Eye chases worst-noise candidates;
/// the proposed selection spreads towards correlation. Verify the placements
/// actually differ and Eagle-Eye's picks are noisier on average.
#[test]
fn placements_differ_and_eagle_eye_prefers_noisy_spots() {
    let (_, data) = collect();
    let cfg = MethodologyConfig {
        lambda: 10.0,
        ..MethodologyConfig::default()
    };
    let fitted = Methodology::fit(&data.x, &data.f, &cfg).expect("fit");
    let q = fitted.sensors().len().max(2);
    let eagle = EagleEyePlacement::place(&data.x, &data.f, q, &EagleEyeConfig::default())
        .expect("placement");

    let proposed: std::collections::BTreeSet<usize> =
        fitted.sensors().iter().copied().collect();
    let eagles: std::collections::BTreeSet<usize> = eagle.selected().iter().copied().collect();
    assert_ne!(proposed, eagles, "the two approaches picked identical sensors");

    // Mean of the minimum observed voltage at each approach's sensors:
    // Eagle-Eye's should be lower (worse noise).
    let min_at = |c: usize| {
        data.x
            .row(c)
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    };
    let eagle_mean: f64 =
        eagles.iter().map(|&c| min_at(c)).sum::<f64>() / eagles.len() as f64;
    let proposed_mean: f64 =
        proposed.iter().map(|&c| min_at(c)).sum::<f64>() / proposed.len() as f64;
    assert!(
        eagle_mean <= proposed_mean + 1e-9,
        "eagle-eye sensors ({eagle_mean:.4}) should sit at noisier spots than \
         proposed ({proposed_mean:.4})"
    );
}

/// Wrong-alarm rates stay small for both approaches (paper: < 1e-3 scale;
/// our substrate is noisier, so allow an order of magnitude slack).
#[test]
fn wrong_alarm_rates_are_small() {
    let (_, data) = collect();
    let (train, test) = data.split(3);
    let cfg = MethodologyConfig {
        lambda: 10.0,
        ..MethodologyConfig::default()
    };
    let fitted = Methodology::fit(&train.x, &train.f, &cfg).expect("fit");
    let report = fitted.evaluate(&test.x, &test.f).expect("evaluate");
    assert!(
        report.detection.wrong_alarm_rate < 0.05,
        "WAE too high: {}",
        report.detection.wrong_alarm_rate
    );
}
