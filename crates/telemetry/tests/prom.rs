//! Prometheus text-exposition encoder tests: name/label escaping, quantile
//! rendering against the exact log-scale histogram percentiles, the
//! empty-registry document, and a full round-trip parse of every sample
//! line the encoder emits.

use voltsense_telemetry::prom::{encode, escape_label_value, sanitize_name};
use voltsense_telemetry::{MemoryRecorder, Recorder, Snapshot};
use voltsense_testkit::{forall, vec_f64};

/// Minimal exposition-line parser (the same grammar `endpoint_contract.rs`
/// enforces in CI): `name[{labels}] value` → (name, labels, value).
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (name_part, value_part) = line.rsplit_once(' ').expect("sample has a value");
    let value = match value_part {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse().unwrap_or_else(|_| panic!("bad value {v:?} in {line:?}")),
    };
    let (name, labels) = match name_part.split_once('{') {
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').expect("terminated label set");
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').expect("label has a value");
                let v = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')).expect("quoted");
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
        None => (name_part.to_string(), Vec::new()),
    };
    assert!(
        name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        }),
        "metric name {name:?} violates the exposition grammar"
    );
    (name, labels, value)
}

fn empty_snapshot(suite: &str) -> Snapshot {
    Snapshot {
        suite: suite.to_string(),
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
        spans: Vec::new(),
        events: Vec::new(),
        stacks: Vec::new(),
    }
}

#[test]
fn empty_registry_is_a_valid_nonempty_document() {
    let text = encode(&empty_snapshot("nothing_here"));
    assert!(!text.is_empty());
    assert!(text.starts_with("# voltsense"), "leads with the suite comment");
    assert!(text.contains("nothing_here"));
    assert!(text.ends_with('\n'), "exposition format requires a trailing newline");
    // Only the suite comment and the static build-info family — and every
    // non-comment line still parses as a sample.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, _, value) = parse_sample(line);
        assert_eq!(name, "voltsense_build_info", "unexpected sample in empty registry: {line}");
        assert_eq!(value, 1.0);
    }
}

#[test]
fn build_info_gauge_is_always_exposed() {
    let text = encode(&empty_snapshot("build"));
    assert!(text.contains("# TYPE voltsense_build_info gauge"));
    let line = text
        .lines()
        .find(|l| l.starts_with("voltsense_build_info{"))
        .expect("build_info sample present");
    let (name, labels, value) = parse_sample(line);
    assert_eq!(name, "voltsense_build_info");
    assert_eq!(value, 1.0, "info-style gauges always read 1; the payload is in the labels");
    let get = |k: &str| labels.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
    assert_eq!(get("version"), Some(env!("CARGO_PKG_VERSION")));
    assert_eq!(get("debug"), Some(if cfg!(debug_assertions) { "true" } else { "false" }));
}

#[test]
fn suite_comment_cannot_break_out_of_its_line() {
    let text = encode(&empty_snapshot("evil\nfake_metric 1\rmore"));
    // The whole hostile suite name collapses into the single leading
    // comment line; only the static build-info family follows it.
    let mut lines = text.lines();
    let first = lines.next().unwrap();
    assert!(first.starts_with("# voltsense"));
    assert!(first.contains("evilfake_metric 1more"), "newlines in the suite name must be stripped");
    assert!(
        lines.all(|l| l.contains("voltsense_build_info")),
        "nothing but build_info may follow the suite comment"
    );
}

#[test]
fn names_are_sanitized_to_the_prometheus_grammar() {
    assert_eq!(sanitize_name("monitor.observe"), "monitor_observe");
    assert_eq!(sanitize_name("fista/iter time (ms)"), "fista_iter_time__ms_");
    assert_eq!(sanitize_name("9lives"), "_9lives");
    assert_eq!(sanitize_name(""), "_");
    assert_eq!(sanitize_name("already_ok:subsystem_1"), "already_ok:subsystem_1");
    // An encoded document with hostile names still parses line-by-line.
    let mut snap = empty_snapshot("escape");
    snap.counters.push(("weird name{with}braces".to_string(), 7));
    snap.gauges.push(("99 problems".to_string(), 1.5));
    let text = encode(&snap);
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        parse_sample(line);
    }
    assert!(text.contains("weird_name_with_braces_total 7"));
    assert!(text.contains("_99_problems 1.5"));
}

#[test]
fn label_values_escape_backslash_quote_and_newline() {
    assert_eq!(escape_label_value(r"a\b"), r"a\\b");
    assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
    assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
    assert_eq!(escape_label_value("plain μs"), "plain μs");
}

#[test]
fn quantiles_render_the_exact_histogram_percentiles() {
    forall!(cases = 32, (values in vec_f64(60, 1e-6, 1e9)) => {
        let rec = MemoryRecorder::new();
        for v in &values {
            rec.histogram_record("solver_time", *v, "ms");
        }
        let snap = rec.snapshot("quantiles");
        let h = snap.histogram("solver_time").unwrap().clone();
        let text = encode(&snap);

        let mut seen = 0;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, labels, value) = parse_sample(line);
            let quantile = labels.iter().find(|(k, _)| k == "quantile").map(|(_, v)| v.clone());
            match (name.as_str(), quantile.as_deref()) {
                ("solver_time", Some("0.5")) => { assert_eq!(value, h.p50); seen += 1; }
                ("solver_time", Some("0.95")) => { assert_eq!(value, h.p95); seen += 1; }
                ("solver_time", Some("0.99")) => { assert_eq!(value, h.p99); seen += 1; }
                ("solver_time_sum", None) => {
                    assert!((value - h.mean * h.count as f64).abs() <= 1e-9 * value.abs().max(1.0));
                    seen += 1;
                }
                ("solver_time_count", None) => { assert_eq!(value, h.count as f64); seen += 1; }
                ("solver_time_min", None) => { assert_eq!(value, h.min); seen += 1; }
                ("solver_time_max", None) => { assert_eq!(value, h.max); seen += 1; }
                ("voltsense_build_info", None) => assert_eq!(value, 1.0),
                other => panic!("unexpected sample {other:?}"),
            }
            // Every quantile sample carries the unit label.
            if quantile.is_some() {
                assert!(labels.iter().any(|(k, v)| k == "unit" && v == "ms"));
            }
        }
        assert_eq!(seen, 7, "3 quantiles + sum + count + min + max");
        // Percentile ordering is preserved through the rendering.
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
    });
}

#[test]
fn every_family_gets_a_help_line_naming_the_raw_signal() {
    let rec = MemoryRecorder::new();
    rec.counter_add("fleet.frames_total", 2);
    rec.gauge_set("fleet.sessions", 3.0);
    rec.histogram_record("fleet.reading_total_ns", 120.0, "ns");
    let snap = rec.snapshot("help");
    let text = encode(&snap);

    // Every # TYPE line is immediately preceded by a # HELP line for the
    // same (sanitized) family name — the conformance shape scrapers and
    // promtool both expect.
    let lines: Vec<&str> = text.lines().collect();
    let mut type_lines = 0;
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            type_lines += 1;
            let name = rest.split_whitespace().next().unwrap();
            assert!(i > 0, "TYPE can never be the first line");
            assert!(
                lines[i - 1].starts_with(&format!("# HELP {name} ")),
                "family {name} must lead with HELP, got {:?}",
                lines[i - 1]
            );
        }
    }
    // build_info + counter + gauge + summary + its _min and _max gauges.
    assert_eq!(type_lines, 6);
    assert!(text.contains("# HELP voltsense_build_info Build metadata of the scraped process."));
    // The help text names the raw dotted signal, not the sanitized name.
    assert!(text.contains("# HELP fleet_frames_total_total voltsense counter \"fleet.frames_total\"."));
    assert!(text.contains("# HELP fleet_sessions voltsense gauge \"fleet.sessions\"."));
    assert!(text
        .contains("# HELP fleet_reading_total_ns voltsense histogram \"fleet.reading_total_ns\" rendered as a summary."));
    assert!(text.contains("# HELP fleet_reading_total_ns_min exact minimum of \"fleet.reading_total_ns\"."));
}

#[test]
fn help_text_escapes_backslash_newline_and_quotes() {
    let mut snap = empty_snapshot("escapes");
    snap.counters.push(("evil\\name\nwith \"quotes\"".to_string(), 1));
    let text = encode(&snap);
    // One logical HELP line: the newline is escaped, not emitted. (Skip
    // the static build_info family's HELP line.)
    let help = text
        .lines()
        .find(|l| l.starts_with("# HELP") && !l.contains("voltsense_build_info"))
        .expect("help line present");
    assert!(help.contains("evil\\\\name\\nwith 'quotes'"), "{help}");
    // And the document still parses line-by-line.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        parse_sample(line);
    }
}

#[test]
fn nonfinite_values_use_the_exposition_spellings() {
    let mut snap = empty_snapshot("nonfinite");
    snap.gauges.push(("g_nan".to_string(), f64::NAN));
    snap.gauges.push(("g_pinf".to_string(), f64::INFINITY));
    snap.gauges.push(("g_ninf".to_string(), f64::NEG_INFINITY));
    let text = encode(&snap);
    assert!(text.contains("g_nan NaN\n"));
    assert!(text.contains("g_pinf +Inf\n"));
    assert!(text.contains("g_ninf -Inf\n"));
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        parse_sample(line);
    }
}

#[test]
fn full_document_round_trips_with_counters_gauges_and_type_lines() {
    let rec = MemoryRecorder::new();
    rec.counter_add("monitor.alarm_events", 3);
    rec.counter_add("monitor.samples", 1000);
    rec.gauge_set("monitor.predicted_min_v", 0.93);
    rec.histogram_record("observe_latency", 12.5, "us");
    let snap = rec.snapshot("roundtrip");
    let text = encode(&snap);

    let mut types = Vec::new();
    let mut samples = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut p = rest.split_whitespace();
            types.push((p.next().unwrap().to_string(), p.next().unwrap().to_string()));
        } else if !line.starts_with('#') {
            samples.push(parse_sample(line));
        }
    }
    // Counter names gain the `_total` suffix; every TYPE line has samples.
    assert!(types.contains(&("monitor_alarm_events_total".into(), "counter".into())));
    assert!(types.contains(&("monitor_samples_total".into(), "counter".into())));
    assert!(types.contains(&("monitor_predicted_min_v".into(), "gauge".into())));
    assert!(types.contains(&("observe_latency".into(), "summary".into())));
    for (name, kind) in &types {
        let n = samples.iter().filter(|(s, _, _)| s == name).count();
        let expected = if kind == "summary" { 3 } else { 1 };
        assert_eq!(n, expected, "TYPE {name} {kind} should have {expected} sample(s)");
    }
    let get = |n: &str| samples.iter().find(|(s, _, _)| s == n).map(|&(_, _, v)| v);
    assert_eq!(get("monitor_alarm_events_total"), Some(3.0));
    assert_eq!(get("monitor_samples_total"), Some(1000.0));
    assert_eq!(get("monitor_predicted_min_v"), Some(0.93));
    assert_eq!(get("observe_latency_count"), Some(1.0));
}
