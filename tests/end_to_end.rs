//! End-to-end integration: floorplan → workload → power grid → selection →
//! prediction → detection, on the small test scenario.

use voltsense::core::{Methodology, MethodologyConfig};
use voltsense::scenario::{CorePartition, PerCoreModel, Scenario};

fn scenario() -> Scenario {
    Scenario::small().expect("small scenario builds")
}

#[test]
fn whole_chip_pipeline_produces_accurate_model() {
    let s = scenario();
    let data = s.collect(&[0, 6, 12]).expect("simulation succeeds");
    assert!(data.num_samples() > 200, "too few samples: {}", data.num_samples());
    assert_eq!(data.num_blocks(), 60);

    let (train, test) = data.split(3);
    let cfg = MethodologyConfig {
        lambda: 10.0,
        ..MethodologyConfig::default()
    };
    let fitted = Methodology::fit(&train.x, &train.f, &cfg).expect("fit succeeds");
    assert!(
        !fitted.sensors().is_empty(),
        "no sensors selected at lambda 10"
    );
    assert!(
        fitted.sensors().len() < data.num_candidates() / 2,
        "selection is not sparse: {} of {}",
        fitted.sensors().len(),
        data.num_candidates()
    );

    let report = fitted.evaluate(&test.x, &test.f).expect("evaluation succeeds");
    // The paper reports relative errors well under 1e-2 even with few
    // sensors; the substrate should land in the same regime.
    assert!(
        report.relative_error < 0.02,
        "relative error too large: {}",
        report.relative_error
    );
    // Total error rate should beat the trivial never-alarm detector on
    // emergency-containing data.
    assert!(report.detection.samples > 0);
}

#[test]
fn per_core_model_covers_all_blocks() {
    let s = scenario();
    let data = s.collect(&[0, 3]).expect("simulation succeeds");
    let (train, test) = data.split(3);
    let partition = CorePartition::from_chip(s.chip());
    assert_eq!(partition.num_cores(), 2);

    let cfg = MethodologyConfig {
        lambda: 6.0,
        ..MethodologyConfig::default()
    };
    let model = PerCoreModel::fit(&train, &partition, &cfg).expect("per-core fit");
    assert_eq!(model.fits().len(), 2);
    assert!(model.total_sensors() >= 2, "each core places >= 1 sensor");

    let report = model.evaluate(&test).expect("per-core evaluation");
    assert!(
        report.relative_error < 0.03,
        "per-core relative error too large: {}",
        report.relative_error
    );

    // Every block row must be predicted (non-zero row somewhere).
    let pred = model.predict_matrix(&test.x).expect("prediction");
    for k in 0..pred.rows() {
        let row_norm: f64 = pred.row(k).iter().map(|v| v * v).sum();
        assert!(row_norm > 0.0, "block {k} never predicted");
    }
}

#[test]
fn per_core_sweep_matches_individual_fits() {
    let s = scenario();
    let data = s.collect(&[0, 3]).expect("simulation succeeds");
    let (train, _test) = data.split(3);
    let partition = CorePartition::from_chip(s.chip());

    let lambdas = [6.0, 10.0];
    let sweep = PerCoreModel::fit_sweep(
        &train,
        &partition,
        &lambdas,
        &MethodologyConfig::default(),
    )
    .expect("sweep fit");
    assert_eq!(sweep.len(), lambdas.len());
    for (model, &lambda) in sweep.iter().zip(&lambdas) {
        let solo = PerCoreModel::fit(
            &train,
            &partition,
            &MethodologyConfig {
                lambda,
                ..MethodologyConfig::default()
            },
        )
        .expect("individual fit");
        assert_eq!(
            model.sensors_global(),
            solo.sensors_global(),
            "λ={lambda}: warm sweep placed different sensors than the solo fit"
        );
    }

    let qs = [2usize, 4];
    let q_sweep = PerCoreModel::fit_with_sensor_count_sweep(
        &train,
        &partition,
        &qs,
        &MethodologyConfig::default(),
    )
    .expect("count sweep fit");
    for (model, &q) in q_sweep.iter().zip(&qs) {
        for fit in model.fits() {
            let got = fit.fitted.sensors().len();
            assert!(
                (got as i64 - q as i64).abs() <= 1,
                "core {:?}: asked for {q} sensors, got {got}",
                fit.core
            );
        }
    }
}

#[test]
fn per_core_count_fit_rejects_a_bad_threshold() {
    // A negative T would place every candidate and a NaN T none, after a
    // full bisection per core; the count path rejects both up front.
    let s = scenario();
    let data = s.collect(&[0]).expect("simulation succeeds");
    let partition = CorePartition::from_chip(s.chip());
    for threshold in [-1e-3, f64::NAN] {
        let cfg = MethodologyConfig {
            threshold,
            ..MethodologyConfig::default()
        };
        match PerCoreModel::fit_with_sensor_count(&data, &partition, 2, &cfg) {
            Ok(model) => panic!("T={threshold}: placed {} sensors", model.total_sensors()),
            Err(e) => assert!(
                e.to_string().contains("invalid configuration"),
                "T={threshold}: {e}"
            ),
        }
    }
}

#[test]
fn critical_nodes_live_inside_their_blocks() {
    let s = scenario();
    let data = s.collect(&[1]).expect("simulation succeeds");
    let lattice = s.chip().lattice();
    for (block, node) in s.chip().blocks().iter().zip(&data.critical_nodes) {
        match lattice.site(*node) {
            voltsense::floorplan::NodeSite::FunctionArea(owner) => {
                assert_eq!(owner, block.id());
            }
            other => panic!("critical node in blank area: {other:?}"),
        }
    }
}

#[test]
fn dataset_bookkeeping_is_consistent() {
    let s = scenario();
    let data = s.collect(&[2, 4]).expect("simulation succeeds");
    assert_eq!(data.sample_benchmark.len(), data.num_samples());
    let bm2 = data.benchmark_subset(2);
    let bm4 = data.benchmark_subset(4);
    assert_eq!(bm2.num_samples() + bm4.num_samples(), data.num_samples());
    assert!(bm2.sample_benchmark.iter().all(|&b| b == 2));

    let (train, test) = data.split(4);
    assert_eq!(train.num_samples() + test.num_samples(), data.num_samples());
    // No overlap: test gets every 4th sample.
    assert_eq!(test.num_samples(), data.num_samples().div_ceil(4));
}

#[test]
fn voltage_maps_have_spatial_correlation() {
    // The methodology's premise: nearby nodes are highly correlated,
    // distant ones less so. Verify on real simulated data.
    let s = scenario();
    let maps = s.simulate(0).expect("simulation succeeds");
    let lattice = s.chip().lattice();
    let candidates = lattice.candidate_sites();
    // Pick a candidate and find its nearest and farthest peers.
    let a = candidates[candidates.len() / 2];
    let pa = lattice.position(a);
    let (nearest, farthest) = {
        let mut nearest = (f64::INFINITY, a);
        let mut farthest = (0.0, a);
        for &c in candidates {
            if c == a {
                continue;
            }
            let d = lattice.position(c).distance_to(pa);
            if d < nearest.0 {
                nearest = (d, c);
            }
            if d > farthest.0 {
                farthest = (d, c);
            }
        }
        (nearest.1, farthest.1)
    };
    let corr_near = voltsense::linalg::stats::pearson(
        maps.node_waveform(a),
        maps.node_waveform(nearest),
    );
    let corr_far = voltsense::linalg::stats::pearson(
        maps.node_waveform(a),
        maps.node_waveform(farthest),
    );
    assert!(
        corr_near > corr_far,
        "near correlation {corr_near} not above far correlation {corr_far}"
    );
    assert!(corr_near > 0.8, "local correlation too weak: {corr_near}");
}
