//! Checkpoint round-trip properties: serialize a live monitor session,
//! parse it back, and the restored monitor must continue bit-identically
//! — same predictions, same alarm edges, same counters — because a
//! restarted fleet server is only trustworthy if restore is exact.

use voltsense_core::EmergencyMonitor;
use voltsense_fleet::checkpoint;
use voltsense_fleet::session::SessionKey;
use voltsense_linalg::Matrix;
use voltsense_testkit::{f64_range, forall, matrix, u64_range, usize_range, vec_f64};

/// A monitor over a synthetic `k x q` OLS fit (no training loop — the
/// checkpoint does not care where the coefficients came from).
fn monitor_from(
    coeffs: &Matrix,
    intercept: &[f64],
    threshold: f64,
    persistence: usize,
) -> EmergencyMonitor {
    let q = coeffs.cols();
    let model = voltsense_core::VoltageMapModel::from_parts(
        (0..q).collect(),
        q + 3,
        coeffs.clone(),
        intercept.to_vec(),
        0.004,
    )
    .expect("generated parts are consistent");
    EmergencyMonitor::new(model, threshold, persistence, 0.02).expect("valid config")
}

#[test]
fn roundtrip_preserves_state_and_future_decisions_bit_exactly() {
    forall!(cases = 48, (
        coeffs in matrix(3, 4, -0.5, 0.5),
        intercept in vec_f64(3, 0.4, 0.8),
        threshold in f64_range(0.7, 0.9),
        persistence in usize_range(1, 4),
        tenant in u64_range(0, u64::MAX),
        chip in u64_range(0, u64::MAX),
        warmup in vec_f64(24, 0.6, 1.1),
        future in vec_f64(24, 0.6, 1.1),
    ) => {
        let key = SessionKey { tenant, chip };
        let mut original = monitor_from(&coeffs, &intercept, threshold, persistence);
        // Drive it into an arbitrary mid-stream state (possibly alarmed,
        // possibly mid-debounce) before freezing.
        for chunk in warmup.chunks(4) {
            original.observe(chunk).expect("arity matches");
        }
        let json = checkpoint::to_json(key, &original);
        let (restored_key, mut restored) =
            checkpoint::from_json(&json).expect("own output parses");
        assert_eq!(restored_key, key, "u64 ids survive (even > 2^53)");
        assert_eq!(restored.checkpoint(), original.checkpoint(), "state machine is exact");

        // The real contract: both monitors agree on every future sample.
        for chunk in future.chunks(4) {
            let a = original.observe(chunk).expect("arity matches");
            let b = restored.observe(chunk).expect("arity matches");
            assert_eq!(a.predicted_min.to_bits(), b.predicted_min.to_bits(),
                "prediction must be bit-identical after restore");
            assert_eq!((a.alarm, a.rising_edge), (b.alarm, b.rising_edge));
        }
        assert_eq!(restored.stats(), original.stats());
    });
}

#[test]
fn tampered_documents_are_typed_errors_not_monitors() {
    let coeffs = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.7]]).unwrap();
    let monitor = monitor_from(&coeffs, &[0.1, 0.05], 0.8, 2);
    let key = SessionKey { tenant: 1, chip: 2 };
    let good = checkpoint::to_json(key, &monitor);
    assert!(checkpoint::from_json(&good).is_ok());

    // Wrong schema tag.
    let bad = good.replace("voltsense-fleet-checkpoint-v1", "v0");
    assert!(checkpoint::from_json(&bad).is_err());
    // Invalid monitor config smuggled in: re-validated on restore.
    let bad = good.replace("\"persistence\":2", "\"persistence\":0");
    assert!(checkpoint::from_json(&bad).is_err());
    // Structural damage: not JSON at all.
    assert!(checkpoint::from_json(&good[..good.len() / 2]).is_err());
    // Inconsistent model shape.
    let bad = good.replace("\"cols\":2", "\"cols\":3");
    assert!(checkpoint::from_json(&bad).is_err());
}

#[test]
fn store_and_load_are_atomic_per_session_files() {
    let dir = std::env::temp_dir().join(format!("fleet_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let coeffs = Matrix::from_rows(&[&[1.0]]).unwrap();
    let mut monitor = monitor_from(&coeffs, &[0.0], 0.8, 1);
    // Latch the alarm, then persist: the load must come back latched.
    monitor.observe(&[0.5]).unwrap();
    assert!(monitor.is_alarmed());
    let key = SessionKey { tenant: 9, chip: 1 };
    let path = checkpoint::write(&dir, key, &checkpoint::to_json(key, &monitor)).expect("write");
    assert!(path.ends_with("tenant_9_chip_1.json"));
    let restored = checkpoint::load(&dir, key).expect("load").expect("present");
    assert!(restored.is_alarmed(), "latched alarm survives the disk");
    // Unknown key: cleanly absent, not an error.
    assert!(checkpoint::load(&dir, SessionKey { tenant: 9, chip: 2 }).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
