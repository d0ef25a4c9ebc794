//! The combined activation path: `init_always_on` with `VOLTSENSE_TELEMETRY`
//! set installs one unbounded recorder as both the global sink and the
//! flight recorder. Its own test binary because it sets environment
//! variables and installs the process-global recorder.

use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::{self as telemetry, flight, incident};

#[test]
fn one_recorder_serves_export_flight_slot_and_incidents() {
    let dir = std::env::temp_dir().join(format!("voltsense_always_on_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prefix = dir.join("run");
    std::env::set_var("VOLTSENSE_TELEMETRY", &prefix);
    std::env::set_var("VOLTSENSE_FLIGHT_CAPACITY", "8");
    std::env::set_var("VOLTSENSE_INCIDENT_DIR", &dir);

    let guard = telemetry::init_always_on("always_on");
    assert!(telemetry::detailed(), "VOLTSENSE_TELEMETRY asks for a full capture");
    for i in 0..50 {
        telemetry::event("always_on.tick", &[("i", i as f64)]);
    }
    {
        let _outer = telemetry::span("always_on.outer");
        let _inner = telemetry::span("always_on.inner");
    }

    let current = flight::current().expect("init_always_on registers a flight recorder");
    assert!(std::sync::Arc::ptr_eq(&current, guard.flight()), "one recorder, not two");
    let snap = current.snapshot("always_on");
    assert_eq!(snap.events_named("always_on.tick").len(), 50);
    assert_eq!(snap.spans.len(), 2);
    let outer = snap.spans.iter().position(|s| s.name == "always_on.outer").unwrap();
    let inner = snap.spans.iter().find(|s| s.name == "always_on.inner").unwrap();
    assert_eq!(inner.parent, Some(outer));

    let path = incident::report(&incident::Incident::new("always_on")).expect("incident written");
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("incident parses");
    let ring = doc.get("ring").and_then(Value::as_array).expect("ring array");
    assert!(!ring.is_empty() && ring.len() <= 8, "{} ring entries", ring.len());
    let embedded = doc.get("metrics").expect("embedded snapshot");
    let events = embedded.get("events").and_then(Value::as_array).unwrap().len();
    let spans = embedded.get("spans").and_then(Value::as_array).unwrap().len();
    assert!(events + spans <= 8, "{events} events and {spans} spans embedded");

    drop(guard);
    let run = json::parse(&std::fs::read_to_string(dir.join("run.json")).unwrap())
        .expect("run.json parses");
    let exported = run.get("events").and_then(Value::as_array).unwrap();
    let ticks = exported
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("always_on.tick"))
        .count();
    assert_eq!(ticks, 50, "the export keeps every event");
    let trace = json::parse(&std::fs::read_to_string(dir.join("run.trace.json")).unwrap())
        .expect("run.trace.json parses");
    let complete = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .count();
    assert_eq!(complete, 2, "both spans export as complete events");
    let _ = std::fs::remove_dir_all(&dir);
}
