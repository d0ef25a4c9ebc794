//! Bench: the *runtime* cost of the fitted monitor — one voltage-map
//! prediction (and emergency decision) per sensor sample.
//!
//! The paper's Section 2.4 claims runtime evaluation is "computationally
//! cheap"; this bench quantifies it: a Q-sensor → K-block affine map.
//! The fleet's readings-frame codec at the same Q is priced alongside, so
//! the framing cost around each prediction reads next to the kernels.
//! What a fleet pays per chip for the shared model is priced too: a model
//! clone, one session opened around it, and the serial per-reading
//! kernel. Testkit timer, JSON report in
//! `results/bench_runtime_predict.json`.

use voltsense::core::{EmergencyMonitor, VoltageMapModel};
use voltsense::fleet::frame::{Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use voltsense::fleet::session::{LadderConfig, Session, SessionKey};
use voltsense::linalg::Matrix;
use voltsense::workload::GaussianRng;
use voltsense_testkit::bench::BenchTimer;

fn model(m: usize, k: usize, q: usize) -> (VoltageMapModel, Vec<f64>) {
    let mut rng = GaussianRng::seed_from_u64(3);
    let n = 500;
    let mut x = Matrix::zeros(m, n);
    for v in x.as_mut_slice() {
        *v = 0.95 + 0.02 * rng.sample();
    }
    let mut f = Matrix::zeros(k, n);
    for kk in 0..k {
        let src = rng.uniform_index(m);
        for s in 0..n {
            f[(kk, s)] = x[(src, s)] - 0.02;
        }
    }
    let sensors: Vec<usize> = (0..q).map(|i| i * (m / q)).collect();
    let model = VoltageMapModel::fit(&x, &f, &sensors).expect("fit");
    let readings: Vec<f64> = (0..q).map(|_| 0.95 + 0.02 * rng.sample()).collect();
    (model, readings)
}

fn main() {
    let mut timer = BenchTimer::new("runtime_predict");
    // Paper-scale: K = 240 blocks; Q = 16 sensors (2/core) and 56 (7/core).
    for &q in &[16usize, 56] {
        let (model, readings) = model(1024, 240, q);
        timer.bench(&format!("predict/q{q}_k240"), || {
            model.predict_from_sensors(&readings).expect("predict")
        });
    }

    // Batch-size sweep over the fleet drain's GEMM formulation: B queued
    // readings predicted as one B×Q · Q×K product (`predict_batch_into`,
    // bit-identical per row to `predict_into` — DESIGN.md §8.4). The
    // per-reading amortized cost should fall as B grows; B = 1 prices
    // the GEMM path's overhead against plain `predict/q16_k240`.
    for &b in &[1usize, 8, 64, 256] {
        let (model, readings) = model(1024, 240, 16);
        let mut rng = GaussianRng::seed_from_u64(17);
        let mut batch = Matrix::zeros(b, 16);
        for row in 0..b {
            for (v, &r) in batch.row_mut(row).iter_mut().zip(&readings) {
                *v = r + 0.001 * rng.sample();
            }
        }
        let mut out = Matrix::zeros(b, 240);
        timer.bench(&format!("predict_batch/b{b}_q16_k240"), || {
            model.predict_batch_into(&batch, &mut out).expect("predict batch");
            out[(0, 0)]
        });
    }

    // Full detection decision including the threshold scan.
    let (model, readings) = model(1024, 240, 16);

    // The per-chip cost of the shared model: a clone is a reference-count
    // increment, a session opens a monitor around a clone, and the
    // per-reading kernel writes into a reused output (no allocation).
    timer.bench("model_clone", || model.clone());
    timer.bench("session_open_q16_k240", || {
        let monitor = EmergencyMonitor::new(model.clone(), 0.85, 1, 0.01).expect("monitor");
        Session::new(SessionKey { tenant: 1, chip: 1 }, Box::new(monitor), LadderConfig::default())
    });
    let mut predicted = vec![0.0; model.num_targets()];
    timer.bench("predict_into_q16_k240", || {
        model.predict_into(&readings, &mut predicted).expect("predict");
        predicted[0]
    });

    let mut candidates = vec![0.95; 1024];
    for (i, &s) in model.sensor_indices().iter().enumerate() {
        candidates[s] = readings[i];
    }
    timer.bench("detect/q16_k240", || {
        model.detect(&candidates, 0.85).expect("detect")
    });

    // One traced Q = 16 readings frame, as a fleet client sends it:
    // encoded into a fresh exact-size `Vec`, into a reused buffer, and
    // decoded (push + next, the values buffer recycled as the server does).
    let frame = Frame::Readings { chip: 7, seq: 513, trace: Some(0x5eed), values: readings };
    timer.bench("frame/encode_readings_q16", || frame.encode());
    let mut wire = Vec::new();
    timer.bench("frame/encode_into_readings_q16", || {
        wire.clear();
        frame.encode_into(&mut wire);
        wire.len()
    });
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    timer.bench("frame/decode_readings_q16", || {
        decoder.push(&wire);
        let Some(Frame::Readings { values, .. }) = decoder.next().expect("decode") else {
            panic!("expected one readings frame");
        };
        let first = values[0];
        decoder.recycle(values);
        first
    });

    timer.finish().expect("write bench report");
}
