//! Observability end to end, on the real methodology and monitor:
//!
//! * profile attribution — one small fit under a recorder, profiled
//!   through the live `/profile?format=collapsed` route, must show a
//!   group-lasso solver span (`gl.bcd.*`) as the hottest
//!   frame nested below `methodology.*`, not some untracked frame;
//! * incidents — a fault-aware monitor under the flight recorder, with a
//!   sensor stuck mid-trace, must leave an `alarm` file, a `hot_swap` file
//!   naming the failed sensor, and `monitor.alarm` in a frozen ring. The
//!   files' full schema is pinned by the telemetry crate's
//!   `endpoint_contract` suite; this checks what a real monitor writes.
//!
//! Only the incident test touches the process flight registry and
//! `VOLTSENSE_INCIDENT_DIR`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use voltsense::core::{EmergencyMonitor, FaultPolicy, FaultTolerantModel};
use voltsense::core::{Methodology, MethodologyConfig};
use voltsense::linalg::Matrix;
use voltsense::telemetry::json::{self, Value};
use voltsense::telemetry::serve::{serve, SnapshotSource};
use voltsense::telemetry::{self, flight, MemoryRecorder, Recorder};
use voltsense::workload::GaussianRng;

/// `m` candidates and `k` targets over `n` samples, all driven by a few
/// shared latent sources plus small noise: the selection has real
/// structure to find, and every sensor is well predicted by the others,
/// so a stuck one stands out.
fn latent_mixture(seed: u64, sources: usize, m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let mut rng = GaussianRng::seed_from_u64(seed);
    let latent: Vec<Vec<f64>> =
        (0..sources).map(|_| (0..n).map(|_| rng.sample()).collect()).collect();
    let mut mix = |rows: usize| {
        let mut out = Matrix::zeros(rows, n);
        for r in 0..rows {
            let weights: Vec<f64> = (0..sources).map(|_| rng.uniform()).collect();
            for s in 0..n {
                let v: f64 = weights.iter().zip(&latent).map(|(w, l)| w * l[s]).sum();
                out[(r, s)] = 0.95 + 0.01 * v + 1e-4 * rng.sample();
            }
        }
        out
    };
    let x = mix(m);
    let f = mix(k);
    (x, f)
}

fn collapsed(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(b"GET /profile?format=collapsed HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// Inclusive self time per frame, counting only frames nested below a
/// frame that starts with `parent`.
fn tally_under(collapsed: &str, parent: &str) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    for line in collapsed.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("collapsed line has a weight");
        let count: u64 = count.parse().expect("integer weight");
        let mut in_scope = false;
        for frame in stack.split(';') {
            if in_scope {
                match counts.iter_mut().find(|(f, _)| f == frame) {
                    Some((_, c)) => *c += count,
                    None => counts.push((frame.to_string(), count)),
                }
            }
            in_scope |= frame.starts_with(parent);
        }
    }
    counts
}

#[test]
fn hottest_frame_under_the_methodology_is_a_group_lasso_solver() {
    let (x, f) = latent_mixture(0x9F0F, 4, 48, 24, 300);
    let config = MethodologyConfig::default();
    // The always-on process recorder's kind: a bounded ring, whose span
    // profile is still exact.
    let recorder = Arc::new(MemoryRecorder::bounded(4096));
    telemetry::with_scoped(recorder.clone() as Arc<dyn Recorder>, || {
        Methodology::fit_with_sensor_count(&x, &f, 4, &config).expect("fit");
    });
    let source: SnapshotSource = Arc::new(move || recorder.snapshot("profile_attribution"));
    let server = serve("127.0.0.1:0", source).expect("bind");

    let counts = tally_under(&collapsed(server.addr()), "methodology.");
    let (frame, ns) = counts
        .iter()
        .max_by_key(|(_, c)| *c)
        .unwrap_or_else(|| panic!("no frames folded under methodology.*"));
    assert!(*ns > 0, "no self time under methodology.*: {counts:?}");
    assert!(
        frame.starts_with("gl.bcd"),
        "hottest frame under methodology.* is {frame:?} ({ns} ns): {counts:?}"
    );
}

#[test]
fn stuck_sensor_and_alarms_leave_attributed_incidents() {
    let dir = std::env::temp_dir().join(format!("voltsense_monitor_incidents_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("VOLTSENSE_INCIDENT_DIR", &dir);
    let recorder = Arc::new(MemoryRecorder::bounded(256));
    flight::install(recorder.clone());

    let (x, f) = latent_mixture(0x1C1D, 2, 6, 8, 400);
    let sensors = [0, 1, 2, 3];
    let model = FaultTolerantModel::fit(&x, &f, &sensors).expect("fit");
    // A threshold at the nominal level: roughly every other sample droops
    // below it, so rising edges (and alarm incidents) are plentiful.
    let mut monitor =
        EmergencyMonitor::fault_tolerant(model, 0.95, 1, 0.0, FaultPolicy::default()).unwrap();
    telemetry::with_scoped(recorder.clone() as Arc<dyn Recorder>, || {
        for s in 0..x.cols() {
            let mut readings: Vec<f64> = sensors.iter().map(|&m| x[(m, s)]).collect();
            if s >= 100 {
                readings[1] = 0.5; // stuck low from sample 100 on
            }
            monitor.observe(&readings).expect("one failed sensor is within budget");
        }
    });
    assert_eq!(monitor.failed_sensors(), vec![1]);
    std::env::remove_var("VOLTSENSE_INCIDENT_DIR");

    let docs: Vec<Value> = std::fs::read_dir(&dir)
        .expect("incident dir exists")
        .map(|e| {
            let text = std::fs::read_to_string(e.expect("dir entry").path()).expect("read");
            json::parse(&text).expect("incident parses")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let kind = |doc: &Value| doc.get("kind").and_then(Value::as_str).map(str::to_string);
    let failed = |doc: &Value| {
        doc.get("failed_sensors")
            .and_then(Value::as_array)
            .map(|a| a.iter().filter_map(Value::as_f64).collect::<Vec<_>>())
            .unwrap_or_default()
    };
    for doc in &docs {
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("voltsense-incident-v1")
        );
    }
    assert!(docs.iter().any(|d| kind(d).as_deref() == Some("alarm")), "no alarm incident");
    let swap = docs
        .iter()
        .find(|d| kind(d).as_deref() == Some("hot_swap"))
        .expect("no hot_swap incident");
    assert_eq!(failed(swap), [1.0], "the hot swap names the stuck sensor");
    assert!(
        docs.iter().any(|d| {
            d.get("ring").and_then(Value::as_array).is_some_and(|ring| {
                ring.iter()
                    .any(|e| e.get("name").and_then(Value::as_str) == Some("monitor.alarm"))
            })
        }),
        "no incident ring carries a monitor.alarm event"
    );
}
