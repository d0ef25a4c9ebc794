//! The observability contract, checked in-process: the export files a
//! `VOLTSENSE_TELEMETRY` run leaves behind, the live `/profile` document
//! with its collapsed-stack text, and the `voltsense-incident-v1` files.
//! (`serve.rs` and `prom.rs` pin the `/metrics` and `/snapshot` routes.)
//!
//! The endpoint is bound on `127.0.0.1:0` and scraped over real HTTP;
//! files land in a per-test temp directory. Only the export test installs
//! a process-global recorder.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use voltsense_telemetry::incident::{self, Incident};
use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::serve::{serve, SnapshotSource};
use voltsense_telemetry::{MemoryRecorder, Recorder};

/// One plain HTTP/1.1 GET; returns (status code, body).
fn get(addr: SocketAddr, path: &str) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{path}: no status code in {head:?}"));
    (status, body.to_string())
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("voltsense_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn parse_file(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn schema(doc: &Value) -> Option<&str> {
    doc.get("schema").and_then(Value::as_str)
}

fn num(doc: &Value, key: &str) -> Option<f64> {
    doc.get(key).and_then(Value::as_f64)
}

#[test]
fn export_files_carry_spans_counters_histograms_and_complete_events() {
    let dir = scratch_dir("export_contract");
    std::env::set_var("VOLTSENSE_TELEMETRY", dir.join("run"));
    let guard = voltsense_telemetry::init_from_env("export_contract").expect("capture active");
    std::env::remove_var("VOLTSENSE_TELEMETRY");
    {
        let _outer = voltsense_telemetry::span("export.outer");
        let _inner = voltsense_telemetry::span("export.inner");
        voltsense_telemetry::counter("export.solves", 2);
        voltsense_telemetry::gauge("export.active", 1.0);
        voltsense_telemetry::histogram("export.iterations", 12.0, "iters");
        voltsense_telemetry::event("export.iter", &[("residual", 0.5)]);
    }
    let (snapshot_path, trace_path) = (guard.snapshot_path(), guard.trace_path());
    drop(guard); // writes both files

    let snapshot = parse_file(&snapshot_path);
    assert_eq!(schema(&snapshot), Some("voltsense-metrics-v1"));
    let metrics = snapshot.get("metrics").and_then(Value::as_array).expect("metrics array");
    let count_kind = |kind: &str| {
        metrics
            .iter()
            .filter(|m| m.get("kind").and_then(Value::as_str) == Some(kind))
            .count()
    };
    assert!(count_kind("counter") > 0, "no counter metrics");
    assert!(count_kind("histogram") > 0, "no histogram metrics");
    for m in metrics {
        assert!(
            m.get("name").and_then(Value::as_str).is_some()
                && m.get("unit").and_then(Value::as_str).is_some()
                && m.get("value").is_some(),
            "metric entry missing shared name/value/unit fields: {m:?}"
        );
    }
    let spans = snapshot.get("spans").and_then(Value::as_array).map_or(0, <[Value]>::len);
    assert!(spans > 0, "no spans captured");

    let trace = parse_file(&trace_path);
    let events = trace.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("X")),
        "no complete (ph=X) span events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parse one collapsed line into (stack, weight).
fn parse_collapsed_line(line: &str) -> (&str, u64) {
    let (stack, weight) = line
        .rsplit_once(' ')
        .unwrap_or_else(|| panic!("collapsed line without a weight: {line:?}"));
    let weight = weight
        .parse()
        .unwrap_or_else(|_| panic!("unparseable collapsed weight: {line:?}"));
    assert!(
        !stack.is_empty() && !stack.split(';').any(str::is_empty),
        "empty frame in collapsed stack: {line:?}"
    );
    (stack, weight)
}

#[test]
fn profile_route_serves_a_consistent_profile() {
    let recorder = Arc::new(MemoryRecorder::bounded(16));
    voltsense_telemetry::with_scoped(recorder.clone(), || {
        for _ in 0..4 {
            let _outer = voltsense_telemetry::span("contract.outer");
            let _inner = voltsense_telemetry::span("contract.inner");
        }
    });
    let source: SnapshotSource = Arc::new(move || recorder.snapshot("profile_contract"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let (status, body) = get(server.addr(), "/profile");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("/profile parses");
    assert_eq!(schema(&doc), Some("voltsense-profile-v2"));
    let stacks = doc.get("stacks").and_then(Value::as_array).expect("stacks array");
    let (mut self_sum, mut root_sum) = (0u64, 0u64);
    for entry in stacks {
        let frames = entry.get("stack").and_then(Value::as_array).expect("stack array");
        assert!(
            !frames.is_empty() && frames.iter().all(|f| f.as_str().is_some_and(|s| !s.is_empty())),
            "empty frame name in {entry:?}"
        );
        for key in ["calls", "total_ns", "self_ns", "alloc_bytes", "alloc_calls"] {
            assert!(num(entry, key).is_some(), "/profile stack: missing numeric {key:?}");
        }
        let (total, self_ns) = (num(entry, "total_ns").unwrap(), num(entry, "self_ns").unwrap());
        assert!(self_ns <= total, "self time above total in {entry:?}");
        self_sum += self_ns as u64;
        if frames.len() == 1 {
            root_sum += total as u64;
        }
    }
    assert_eq!(self_sum, root_sum, "Σ self_ns == Σ root total_ns");
    for key in ["allocator_installed", "counting"] {
        let flag = doc.get("alloc").and_then(|a| a.get(key));
        assert!(matches!(flag, Some(Value::Bool(_))), "alloc section lacks boolean {key:?}");
    }

    let (status, collapsed) = get(server.addr(), "/profile?format=collapsed");
    assert_eq!(status, 200, "{collapsed}");
    let mut prev = u64::MAX;
    let mut collapsed_sum = 0;
    for line in collapsed.lines() {
        let (_, weight) = parse_collapsed_line(line);
        assert!(weight <= prev, "collapsed weights not descending at {line:?}");
        prev = weight;
        collapsed_sum += weight;
    }
    assert_eq!(collapsed_sum, self_sum, "collapsed weights are the JSON self times");
    let nested = stacks
        .iter()
        .find(|s| {
            matches!(s.get("stack"), Some(Value::Array(frames))
                if frames.iter().filter_map(Value::as_str).eq(["contract.outer", "contract.inner"]))
        })
        .unwrap_or_else(|| panic!("no nested stack in {body}"));
    assert_eq!(num(nested, "calls"), Some(4.0), "every close is folded, none sampled");
    assert!(collapsed.contains("contract.outer;contract.inner "), "{collapsed}");
}

/// Structural check of one `voltsense-incident-v1` file; returns its kind.
fn check_incident_file(path: &Path) -> String {
    let doc = parse_file(path);
    assert_eq!(schema(&doc), Some("voltsense-incident-v1"), "{path:?}");
    let kind = doc
        .get("kind")
        .and_then(Value::as_str)
        .filter(|k| !k.is_empty())
        .unwrap_or_else(|| panic!("{path:?}: missing \"kind\""));
    for key in ["seq", "at_unix_ms"] {
        assert!(num(&doc, key).is_some(), "{path:?}: missing numeric {key:?}");
    }
    let Some(Value::Object(fields)) = doc.get("fields") else {
        panic!("{path:?}: \"fields\" is not an object");
    };
    assert!(
        fields.values().all(|v| matches!(v, Value::Number(_) | Value::Null)),
        "{path:?}: non-numeric incident field"
    );
    for key in ["failed_sensors", "gated_sensors"] {
        let arr = doc
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{path:?}: {key:?} is not an array"));
        assert!(
            arr.iter().all(|v| v.as_f64().is_some_and(|n| n >= 0.0 && n.fract() == 0.0)),
            "{path:?}: {key:?} holds a non-index value"
        );
    }
    let sampling = doc.get("sampling").and_then(Value::as_array).expect("sampling array");
    for s in sampling {
        assert!(
            s.get("name").and_then(Value::as_str).is_some()
                && ["seen", "kept", "stride"].iter().all(|k| num(s, k).is_some()),
            "{path:?}: malformed sampling record {s:?}"
        );
    }
    let ring = doc.get("ring").and_then(Value::as_array).expect("ring array");
    assert!(!ring.is_empty(), "{path:?}: empty ring");
    for e in ring {
        assert!(
            e.get("name").and_then(Value::as_str).is_some()
                && num(e, "seq").is_some()
                && num(e, "at_ns").is_some()
                && matches!(e.get("fields"), Some(Value::Object(_))),
            "{path:?}: malformed ring event {e:?}"
        );
    }
    assert_eq!(
        doc.get("metrics").and_then(schema),
        Some("voltsense-metrics-v1"),
        "{path:?}: embedded metrics snapshot lacks its schema marker"
    );
    assert_eq!(
        doc.get("profile").and_then(schema),
        Some("voltsense-profile-v2"),
        "{path:?}: embedded span profile lacks its schema marker"
    );
    kind.to_string()
}

#[test]
fn incident_files_follow_the_v1_schema() {
    let rec = MemoryRecorder::bounded(64);
    rec.event("monitor.observe", &[("sample", 0.0)]);
    rec.event("monitor.alarm", &[("sample", 1.0), ("predicted_min", 0.78)]);
    rec.counter_add("monitor.alarm_events", 1);
    rec.histogram_record("monitor.observe_ns", 180.0, "ns");
    let dir = scratch_dir("incident_contract");
    let alarm = Incident {
        kind: "alarm",
        fields: &[("predicted_min", 0.78), ("threshold", 0.8), ("undefined", f64::NAN)],
        failed_sensors: &[2],
        gated_sensors: &[],
    };
    let hot_swap = Incident {
        kind: "hot_swap",
        fields: &[("newly_failed", 1.0)],
        failed_sensors: &[2],
        gated_sensors: &[2],
    };
    for i in [&alarm, &hot_swap] {
        incident::write(i, &rec, &dir).expect("incident write");
    }

    let mut kinds: Vec<String> = std::fs::read_dir(&dir)
        .expect("incident dir")
        .map(|entry| check_incident_file(&entry.expect("dir entry").path()))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    kinds.sort();
    assert_eq!(kinds, ["alarm", "hot_swap"]);
}
