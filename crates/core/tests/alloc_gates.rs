//! Allocation pins for sharing fitted models.
//!
//! The paper fits the voltage map once per design and every chip runs the
//! same map, so a fleet opens one monitor per chip around one fitted
//! model. These gates pin that a monitor's model costs it no copy:
//! cloning a `VoltageMapModel` is a reference-count increment, and
//! cloning a fault-aware monitor copies only its per-instance state.
//! The fault-tolerant model itself keeps nothing of size `N`: its
//! fallback refits solve on a moment block, not on the training data.

voltsense_telemetry::install_counting_allocator!();

use voltsense_core::monitor::{EmergencyMonitor, FaultPolicy};
use voltsense_core::{FaultTolerantModel, VoltageMapModel};
use voltsense_linalg::Matrix;
use voltsense_parallel as parallel;
use voltsense_telemetry::alloc_gate;
use voltsense_telemetry::profile;

/// `M` candidates × `n` samples of smooth, distinct voltage traces and
/// `K` targets, each a blend of two candidates (no RNG needed).
fn training(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let x = Matrix::from_fn(m, n, |i, s| {
        0.93 + 0.04 * ((s as f64) * (0.11 + 0.07 * i as f64)).sin()
    });
    let f = Matrix::from_fn(k, n, |t, s| 0.6 * x[(t % m, s)] + 0.35 * x[((t + 3) % m, s)]);
    (x, f)
}

#[test]
fn model_clone_is_alloc_free() {
    let (x, f) = training(16, 240, 200);
    let sensors: Vec<usize> = (0..16).step_by(2).collect();
    let model = VoltageMapModel::fit(&x, &f, &sensors).unwrap();
    alloc_gate!("core.model_clone", 64, || {
        let clone = std::hint::black_box(model.clone());
        assert!(clone.shares_params(&model));
    });
}

#[test]
fn fault_aware_monitor_clone_copies_no_training_data() {
    let (k, n) = (240, 500);
    let (x, f) = training(12, k, n);
    let model = FaultTolerantModel::fit(&x, &f, &[0, 3, 6, 9]).unwrap();
    let monitor =
        EmergencyMonitor::fault_tolerant(model, 0.85, 1, 0.01, FaultPolicy::default()).unwrap();
    let _window = profile::enable_counting();
    let (bytes_before, ..) = profile::thread_alloc_totals();
    let clone = std::hint::black_box(monitor.clone());
    let (bytes_after, ..) = profile::thread_alloc_totals();
    let copied = bytes_after - bytes_before;
    // The K×N training targets alone are K·N·8 bytes; a clone that copied
    // them (or the Q×N readings and fallback fits) would be far above 1%.
    let budget = (k * n * 8 / 100) as u64;
    assert!(copied < budget, "monitor clone allocated {copied} bytes, budget {budget}");
    assert!(clone.model().shares_params(monitor.model()));
}

#[test]
fn fault_tolerant_model_retains_nothing_of_size_n() {
    let (q_candidates, k) = (12, 240);
    let sensors = [0, 3, 6, 9];
    // Bytes a fitted model keeps: allocated minus freed on this thread
    // while fitting, with the training matrices built before and dropped
    // after. One thread keeps every allocation on the counted thread.
    let retained = |n: usize| -> u64 {
        let (x, f) = training(q_candidates, k, n);
        parallel::with_threads(1, || {
            let _window = profile::enable_counting();
            let (alloc_before, _, freed_before, _) = profile::thread_alloc_totals();
            let model = std::hint::black_box(FaultTolerantModel::fit(&x, &f, &sensors).unwrap());
            let (alloc_after, _, freed_after, _) = profile::thread_alloc_totals();
            drop(model);
            (alloc_after - alloc_before) - (freed_after - freed_before)
        })
    };
    // Warm any lazily initialised process state first.
    retained(50);
    let (small, large) = (retained(500), retained(5_000));
    assert_eq!(small, large, "a model fitted on 10× the samples keeps more bytes");
}
