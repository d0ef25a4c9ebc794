//! Tests for the telemetry crate itself: histogram percentile math and
//! merging, span nesting/ordering under threads, the no-recorder no-op
//! path, and round-tripping the exporters through the in-tree JSON parser.

use std::sync::Arc;

use voltsense_telemetry::{self as telemetry, json, Histogram, MemoryRecorder, Recorder};

/// Half a log-bucket: the worst-case relative error of a percentile query.
const HIST_REL_TOL: f64 = 0.05;

fn assert_close_rel(actual: f64, expected: f64, tol: f64, what: &str) {
    let err = (actual - expected).abs() / expected.abs().max(1e-300);
    assert!(
        err <= tol,
        "{what}: got {actual}, expected {expected} (rel err {err:.4} > {tol})"
    );
}

#[test]
fn histogram_percentiles_on_known_data() {
    let mut h = Histogram::new();
    // 1..=10_000 uniformly: p50 = 5000, p95 = 9500, p99 = 9900.
    for v in 1..=10_000 {
        h.record(v as f64);
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 10_000.0);
    assert_close_rel(h.mean(), 5000.5, 1e-12, "mean");
    assert_close_rel(h.quantile(0.50), 5000.0, HIST_REL_TOL, "p50");
    assert_close_rel(h.quantile(0.95), 9500.0, HIST_REL_TOL, "p95");
    assert_close_rel(h.quantile(0.99), 9900.0, HIST_REL_TOL, "p99");
    // Extreme quantiles are exact because they clamp to min/max.
    assert_eq!(h.quantile(0.0), 1.0);
    assert_eq!(h.quantile(1.0), 10_000.0);
}

#[test]
fn histogram_quantiles_span_many_octaves() {
    let mut h = Histogram::new();
    // Strongly skewed data across 12 octaves: 99 fast ops and 1 slow one.
    for _ in 0..99 {
        h.record(1e3);
    }
    h.record(4e6);
    assert_close_rel(h.quantile(0.50), 1e3, HIST_REL_TOL, "p50 skewed");
    assert_close_rel(h.quantile(0.99), 1e3, HIST_REL_TOL, "p99 skewed");
    assert_eq!(h.quantile(1.0), 4e6);
}

#[test]
fn histogram_merge_matches_single_histogram() {
    let mut all = Histogram::new();
    let mut left = Histogram::new();
    let mut right = Histogram::new();
    for v in 1..=1000 {
        all.record(v as f64);
        if v % 2 == 0 {
            left.record(v as f64);
        } else {
            right.record(v as f64);
        }
    }
    let mut merged = Histogram::new();
    merged.merge(&left);
    merged.merge(&right);
    assert_eq!(merged.count(), all.count());
    assert_eq!(merged.min(), all.min());
    assert_eq!(merged.max(), all.max());
    assert_close_rel(merged.sum(), all.sum(), 1e-12, "merged sum");
    for q in [0.25, 0.5, 0.9, 0.95, 0.99] {
        assert_eq!(
            merged.quantile(q),
            all.quantile(q),
            "quantile {q} differs after merge"
        );
    }
    // Merging an empty histogram is the identity.
    let before = merged.quantile(0.5);
    merged.merge(&Histogram::new());
    assert_eq!(merged.count(), 1000);
    assert_eq!(merged.quantile(0.5), before);
}

#[test]
fn histogram_handles_nonpositive_values() {
    let mut h = Histogram::new();
    h.record(-5.0);
    h.record(0.0);
    h.record(f64::NAN);
    h.record(8.0);
    assert_eq!(h.count(), 4);
    assert_eq!(h.min(), -5.0);
    assert_eq!(h.max(), 8.0);
    // Ranks 1..=3 fall in the underflow bucket -> exact minimum.
    assert_eq!(h.quantile(0.25), -5.0);
    assert_close_rel(h.quantile(1.0), 8.0, 1e-12, "max rank");
}

#[test]
fn noop_recorder_identity() {
    // With no recorder active, the free functions are no-ops and
    // enabled() reports false on this thread.
    assert!(!telemetry::enabled());
    let s = telemetry::span("unrecorded");
    telemetry::counter("unrecorded", 1);
    drop(s);
}

#[test]
fn memory_recorder_counters_gauges_events() {
    let rec = MemoryRecorder::new();
    rec.counter_add("widgets", 2);
    rec.counter_add("widgets", 3);
    rec.gauge_set("level", 1.0);
    rec.gauge_set("level", 4.5);
    rec.histogram_record("latency", 10.0, "ns");
    rec.event("tick", &[("i", 0.0)]);
    rec.event("tick", &[("i", 1.0)]);
    let snap = rec.snapshot("unit");
    assert_eq!(snap.suite, "unit");
    assert_eq!(snap.counter("widgets"), Some(5));
    assert_eq!(snap.gauge("level"), Some(4.5));
    assert_eq!(snap.histogram("latency").unwrap().count, 1);
    assert_eq!(snap.event_series("tick", "i"), vec![0.0, 1.0]);
}

#[test]
fn span_nesting_is_tracked_per_thread() {
    let rec = Arc::new(MemoryRecorder::new());
    telemetry::with_scoped(rec.clone(), || {
        let _outer = telemetry::span("outer");
        {
            let _inner = telemetry::span("inner");
            telemetry::counter("work", 1);
        }
    });
    let snap = rec.snapshot("unit");
    assert_eq!(snap.spans.len(), 2);
    let outer = snap.spans.iter().position(|s| s.name == "outer").unwrap();
    let inner = &snap.spans[snap.spans.iter().position(|s| s.name == "inner").unwrap()];
    assert_eq!(inner.parent, Some(outer), "inner span must parent to outer");
    assert!(snap.spans[outer].parent.is_none());
    // Inner is contained in outer.
    assert!(inner.start_ns >= snap.spans[outer].start_ns);
    assert!(inner.end_ns <= snap.spans[outer].end_ns);
    // Span durations feed histograms automatically.
    assert_eq!(snap.histogram("outer").unwrap().count, 1);
    assert_eq!(snap.histogram("inner").unwrap().unit, "ns");
}

#[test]
fn spans_from_multiple_threads_do_not_interleave_parents() {
    let rec = Arc::new(MemoryRecorder::new());
    let mut handles = Vec::new();
    for t in 0..4 {
        let rec = rec.clone();
        handles.push(std::thread::spawn(move || {
            telemetry::with_scoped(rec, move || {
                let _outer = telemetry::span(thread_span_name(t));
                let _inner = telemetry::span("t.inner");
            });
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = rec.snapshot("unit");
    assert_eq!(snap.spans.len(), 8);
    for inner in snap.spans.iter().filter(|s| s.name == "t.inner") {
        let parent = inner.parent.expect("inner span lost its parent");
        let parent = &snap.spans[parent];
        // The parent must be the outer span from the *same* thread.
        assert_eq!(parent.thread, inner.thread, "cross-thread parenting");
        assert_ne!(parent.name, "t.inner");
    }
    // Four distinct dense thread indices were assigned.
    let mut threads: Vec<usize> = snap.spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), 4);
}

fn thread_span_name(t: usize) -> &'static str {
    ["t0.outer", "t1.outer", "t2.outer", "t3.outer"][t]
}

#[test]
fn scoped_recorder_shadows_and_pops_on_panic() {
    let outer = Arc::new(MemoryRecorder::new());
    let inner = Arc::new(MemoryRecorder::new());
    telemetry::with_scoped(outer.clone(), || {
        telemetry::counter("hits", 1);
        let inner2 = inner.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            telemetry::with_scoped(inner2, || {
                telemetry::counter("hits", 10);
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        // The panicked scope was popped; we are back on the outer recorder.
        telemetry::counter("hits", 1);
    });
    assert_eq!(outer.snapshot("unit").counter("hits"), Some(2));
    assert_eq!(inner.snapshot("unit").counter("hits"), Some(10));
}

#[test]
fn json_snapshot_roundtrips_through_parser() {
    let rec = MemoryRecorder::new();
    rec.counter_add("cg.solves", 7);
    rec.gauge_set("monitor.failed_sensors", 2.0);
    rec.histogram_record("cg.iterations", 12.0, "iters");
    rec.event("fista.iter", &[("objective", 1.25), ("kkt_residual", 1e-7)]);
    {
        let id = rec.span_begin("methodology.fit");
        rec.span_end(id);
    }
    let snap = rec.snapshot("roundtrip \"quoted\"");
    let doc = json::parse(&snap.to_json()).expect("snapshot JSON must parse");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("voltsense-metrics-v1")
    );
    assert_eq!(
        doc.get("suite").and_then(|v| v.as_str()),
        Some("roundtrip \"quoted\"")
    );
    let metrics = doc.get("metrics").and_then(|v| v.as_array()).unwrap();
    let kinds: Vec<&str> = metrics
        .iter()
        .filter_map(|m| m.get("kind").and_then(|k| k.as_str()))
        .collect();
    assert!(kinds.contains(&"counter"));
    assert!(kinds.contains(&"gauge"));
    assert!(kinds.contains(&"histogram"));
    for m in metrics {
        assert!(m.get("name").and_then(|v| v.as_str()).is_some());
        assert!(m.get("value").and_then(|v| v.as_f64()).is_some());
        assert!(m.get("unit").and_then(|v| v.as_str()).is_some());
    }
    assert_eq!(doc.get("spans").and_then(|v| v.as_array()).unwrap().len(), 1);
    let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
    assert_eq!(events.len(), 1);
    let fields = events[0].get("fields").unwrap();
    assert_eq!(fields.get("objective").and_then(|v| v.as_f64()), Some(1.25));
}

#[test]
fn chrome_trace_roundtrips_through_parser() {
    let rec = MemoryRecorder::new();
    let outer = rec.span_begin("fit");
    let inner = rec.span_begin("refit");
    rec.span_end(inner);
    rec.span_end(outer);
    rec.event("cg.iter", &[("residual", 0.5)]);
    let trace = rec.snapshot("unit").to_chrome_trace();
    let doc = json::parse(&trace).expect("chrome trace must parse");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    assert_eq!(events.len(), 3);
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
        .count();
    assert_eq!(complete, 2, "both spans export as complete events");
    for e in events {
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("pid").is_some() && e.get("tid").is_some());
    }
}

#[test]
fn non_finite_event_fields_export_as_null() {
    let rec = MemoryRecorder::new();
    rec.event("weird", &[("v", f64::NAN), ("w", f64::INFINITY)]);
    let snap = rec.snapshot("unit");
    let doc = json::parse(&snap.to_json()).expect("NaN fields must not break JSON");
    let events = doc.get("events").and_then(|v| v.as_array()).unwrap();
    let fields = events[0].get("fields").unwrap();
    assert_eq!(fields.get("v"), Some(&json::Value::Null));
    json::parse(&snap.to_chrome_trace()).expect("NaN fields must not break the trace");
}

#[test]
fn env_helper_parses_boolish_spellings() {
    use voltsense_telemetry::env;
    for v in ["1", "true", "TRUE", "on", "Yes", " on "] {
        assert!(env::is_truthy(v), "{v:?} should be truthy");
        assert!(!env::is_falsy(v), "{v:?} should not be falsy");
    }
    for v in ["0", "false", "OFF", "no", ""] {
        assert!(env::is_falsy(v), "{v:?} should be falsy");
        assert!(!env::is_truthy(v), "{v:?} should not be truthy");
    }
    // A path-like value is neither: init_from_env treats it as a prefix.
    assert!(!env::is_truthy("results/run1"));
    assert!(!env::is_falsy("results/run1"));
}

#[test]
fn json_parser_rejects_malformed_documents() {
    for bad in ["", "{", "[1,", "{\"a\": }", "tru", "\"unterminated", "{}extra", "nan"] {
        assert!(json::parse(bad).is_err(), "{bad:?} should fail to parse");
    }
    // And accepts the fiddly corners we rely on.
    assert_eq!(json::parse("-1.5e-3").unwrap().as_f64(), Some(-0.0015));
    assert_eq!(
        json::parse("\"a\\u0041\\n\"").unwrap().as_str(),
        Some("aA\n")
    );
    assert_eq!(json::parse("[]").unwrap().as_array().map(|a| a.len()), Some(0));
}
