//! Property suite pinning the recorder's ring-buffer semantics: bounded
//! capacity, oldest-first eviction, deterministic decimation bookkeeping,
//! aggregate exactness of a bounded recorder against an unbounded one,
//! and span parentage derived from nesting per thread.

mod common;

use std::sync::Arc;

use common::{close_innermost_first, run_span_program, span_program};
use voltsense_telemetry::{flight, incident, Detail, MemoryRecorder, Recorder};
use voltsense_testkit::{forall, u64_range, usize_range, vec_f64};

/// Names used to interleave event streams; `&'static str` as the API requires.
const NAMES: [&str; 3] = ["stream.a", "stream.b", "stream.c"];

#[test]
fn ring_never_exceeds_capacity_and_evicts_oldest_first() {
    forall!(cases = 64, (
        capacity in usize_range(1, 48),
        pushes in usize_range(0, 400),
    ) => {
        let rec = MemoryRecorder::bounded(capacity);
        for i in 0..pushes {
            rec.event(NAMES[i % NAMES.len()], &[("i", i as f64)]);
        }
        let ring = rec.ring_events();
        assert!(ring.len() <= capacity, "{} events in a capacity-{capacity} ring", ring.len());
        // Admission sequence numbers are strictly increasing and the
        // retained window is exactly the *latest* admitted suffix.
        for pair in ring.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "out-of-order ring: {:?}", ring);
        }
        let admitted: u64 = rec.sampler_stats().iter().map(|(_, s)| s.kept).sum();
        if let Some(last) = ring.last() {
            assert_eq!(last.seq + 1, admitted, "ring does not end at the newest admission");
        }
        if admitted >= capacity as u64 {
            assert_eq!(ring.len(), capacity, "ring should be full once admissions exceed capacity");
        } else {
            assert_eq!(ring.len(), admitted as usize);
        }
    });
}

#[test]
fn decimation_is_deterministic_and_only_thins_high_rate_names() {
    forall!(cases = 48, (
        capacity in usize_range(1, 64),
        n in usize_range(0, 600),
    ) => {
        let rec = MemoryRecorder::bounded(capacity);
        for i in 0..n {
            rec.event("hot.loop", &[("i", i as f64)]);
        }
        let stats = rec.sampler_stats();
        if n == 0 {
            assert!(stats.is_empty());
        } else {
            let (_, s) = stats[0];
            assert_eq!(s.seen, n as u64);
            // Every occurrence below the capacity is kept verbatim.
            if n <= capacity {
                assert_eq!(s.kept, n as u64, "no decimation below one ring's worth");
                assert_eq!(s.stride, ((n / capacity) as u64 + 1).next_power_of_two());
            }
            // Replaying the same load admits exactly the same events
            // (timestamps aside — those are wall-clock).
            let rec2 = MemoryRecorder::bounded(capacity);
            for i in 0..n {
                rec2.event("hot.loop", &[("i", i as f64)]);
            }
            let key = |e: &voltsense_telemetry::RingEvent| (e.seq, e.name, e.fields.clone());
            assert_eq!(
                rec.ring_events().iter().map(key).collect::<Vec<_>>(),
                rec2.ring_events().iter().map(key).collect::<Vec<_>>()
            );
        }
    });
}

#[test]
fn aggregates_match_the_unsampled_memory_recorder_exactly() {
    forall!(cases = 48, (
        values in vec_f64(40, 1e-3, 1e6),
        deltas in vec_f64(20, 0.0, 100.0),
        capacity in usize_range(1, 8),
    ) => {
        // A tiny ring so events are heavily decimated — aggregates must
        // still match the unbounded recorder because they are never sampled.
        let fr = MemoryRecorder::bounded(capacity);
        let mr = MemoryRecorder::new();
        for v in &values {
            fr.histogram_record("h", *v, "V");
            mr.histogram_record("h", *v, "V");
            fr.event("e", &[("v", *v)]);
            mr.event("e", &[("v", *v)]);
        }
        for d in &deltas {
            let d = *d as u64;
            fr.counter_add("c", d);
            mr.counter_add("c", d);
        }
        fr.gauge_set("g", values[0]);
        mr.gauge_set("g", values[0]);

        let fs = fr.snapshot("flight");
        let ms = mr.snapshot("memory");
        assert_eq!(fs.counter("c"), ms.counter("c"));
        assert_eq!(fs.gauge("g"), ms.gauge("g"));
        let (fh, mh) = (fs.histogram("h").unwrap(), ms.histogram("h").unwrap());
        assert_eq!(fh.count, mh.count);
        assert_eq!(fh.min, mh.min);
        assert_eq!(fh.max, mh.max);
        assert_eq!(fh.mean, mh.mean);
        assert_eq!(fh.p50, mh.p50);
        assert_eq!(fh.p95, mh.p95);
        assert_eq!(fh.p99, mh.p99);
    });
}

/// Span names by program thread and nesting depth, so a snapshot span
/// names the program thread that opened it.
const SPAN_NAMES: [[&str; 5]; 4] = [
    ["t0.d0", "t0.d1", "t0.d2", "t0.d3", "t0.d4"],
    ["t1.d0", "t1.d1", "t1.d2", "t1.d3", "t1.d4"],
    ["t2.d0", "t2.d1", "t2.d2", "t2.d3", "t2.d4"],
    ["t3.d0", "t3.d1", "t3.d2", "t3.d3", "t3.d4"],
];

/// Random nested programs on 1–4 threads; the snapshot's `parent` and
/// `thread` must equal the per-thread-stack oracle. Program thread 0 runs
/// on the calling thread and keeps its unclosed spans open across the
/// snapshot, so spans open at snapshot time are checked too.
fn parentage_matches_the_stack_oracle(make: fn() -> MemoryRecorder) {
    forall!(cases = 48, (
        threads in usize_range(1, 5),
        len in usize_range(0, 40),
        seed in u64_range(0, 1 << 32),
    ) => {
        let rec = Arc::new(make());
        let programs: Vec<Vec<bool>> = (0..threads)
            .map(|t| span_program(seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64)), len))
            .collect();
        let mut oracles: Vec<Vec<(&'static str, Option<usize>)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads)
                .map(|t| {
                    let (rec, program) = (rec.clone(), &programs[t]);
                    scope.spawn(move || {
                        voltsense_telemetry::with_scoped(rec, || {
                            let (open, oracle) =
                                run_span_program(program, |_, depth| SPAN_NAMES[t][depth]);
                            close_innermost_first(open);
                            oracle
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let snap = voltsense_telemetry::with_scoped(rec.clone(), || {
            let (open, oracle) = run_span_program(&programs[0], |_, depth| SPAN_NAMES[0][depth]);
            oracles.insert(0, oracle);
            let snap = rec.snapshot("parentage");
            close_innermost_first(open);
            snap
        });

        let total: usize = oracles.iter().map(Vec::len).sum();
        assert_eq!(snap.spans.len(), total, "every span is retained");
        // Group the snapshot by its dense thread index; each group must be
        // one program thread's spans, in begin order.
        let mut seen_threads = Vec::new();
        for thread in 0..threads {
            let group: Vec<usize> =
                (0..snap.spans.len()).filter(|&i| snap.spans[i].thread == thread).collect();
            if group.is_empty() {
                continue;
            }
            let t = (0..threads)
                .find(|&t| SPAN_NAMES[t].contains(&snap.spans[group[0]].name.as_str()))
                .expect("span name from a program thread");
            seen_threads.push(t);
            let got: Vec<(&str, Option<usize>)> = group
                .iter()
                .map(|&i| {
                    let span = &snap.spans[i];
                    let parent = span.parent.map(|p| {
                        assert_eq!(snap.spans[p].thread, thread, "cross-thread parent");
                        group.iter().position(|&g| g == p).expect("parent in the same thread")
                    });
                    (span.name.as_str(), parent)
                })
                .collect();
            assert_eq!(got, oracles[t], "program thread {t}");
        }
        seen_threads.sort_unstable();
        let expected: Vec<usize> = (0..threads).filter(|&t| !oracles[t].is_empty()).collect();
        assert_eq!(seen_threads, expected, "one dense thread index per thread with spans");
    });
}

#[test]
fn unbounded_span_parentage_matches_a_per_thread_stack_oracle() {
    parentage_matches_the_stack_oracle(MemoryRecorder::new);
}

#[test]
fn bounded_span_parentage_matches_a_per_thread_stack_oracle() {
    // Four threads of at most 40 spans each: nothing is decimated or evicted.
    parentage_matches_the_stack_oracle(|| MemoryRecorder::bounded(1024));
}

#[test]
fn span_durations_feed_exact_histograms_without_parent_tracking() {
    let rec = MemoryRecorder::bounded(4);
    for _ in 0..10 {
        let id = rec.span_begin("work");
        rec.span_end(id);
    }
    let snap = rec.snapshot("spans");
    let h = snap.histogram("work").expect("span duration histogram");
    assert_eq!(h.count, 10, "every span close lands in the histogram");
    assert!(snap.spans.len() <= 4, "a bounded recorder keeps at most a ring of spans");
    // Closing an unknown or NONE id is a no-op, not a panic.
    rec.span_end(voltsense_telemetry::SpanId::NONE);
    rec.span_end(voltsense_telemetry::SpanId(9999));
}

#[test]
fn flight_recorder_reports_sampled_detail() {
    let rec = Arc::new(MemoryRecorder::bounded(16));
    assert_eq!(rec.detail(), Detail::Sampled);
    voltsense_telemetry::with_scoped(rec.clone(), || {
        assert!(voltsense_telemetry::enabled());
        assert!(
            !voltsense_telemetry::detailed(),
            "expensive diagnostics must stay off under the flight recorder"
        );
    });
    let mem: Arc<MemoryRecorder> = Arc::new(MemoryRecorder::new());
    voltsense_telemetry::with_scoped(mem, || {
        assert!(voltsense_telemetry::detailed());
    });
}

#[test]
fn incident_write_freezes_ring_and_metrics() {
    forall!(cases = 16, (
        capacity in usize_range(1, 32),
        n in usize_range(1, 120),
        failed in usize_range(0, 5),
        seed in u64_range(0, 1 << 20),
    ) => {
        let rec = Arc::new(MemoryRecorder::bounded(capacity));
        for i in 0..n {
            rec.event("monitor.observe", &[("sample", i as f64)]);
            rec.counter_add("monitor.alarm_events", 1);
            rec.histogram_record("latency", (seed % 97 + i as u64) as f64, "steps");
        }
        let failed_sensors: Vec<usize> = (0..failed).collect();
        let dir = std::env::temp_dir().join(format!("voltsense_incident_{seed}_{capacity}_{n}"));
        let path = incident::write(
            &incident::Incident {
                kind: "alarm",
                fields: &[("predicted_min", 0.83), ("threshold", 0.85)],
                failed_sensors: &failed_sensors,
                gated_sensors: &[],
            },
            &rec,
            &dir,
        )
        .expect("incident write");
        let text = std::fs::read_to_string(&path).expect("read incident back");
        let doc = voltsense_telemetry::json::parse(&text).expect("incident JSON parses");
        let _ = std::fs::remove_dir_all(&dir);
        use voltsense_telemetry::json::Value;
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-incident-v1"));
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("alarm"));
        let ring = doc.get("ring").and_then(Value::as_array).expect("ring array");
        assert_eq!(ring.len(), rec.ring_events().len(), "ring serialized in full");
        assert!(ring.len() <= capacity);
        let failed_out = doc.get("failed_sensors").and_then(Value::as_array).unwrap();
        assert_eq!(failed_out.len(), failed);
        let metrics = doc.get("metrics").expect("embedded metrics snapshot");
        assert_eq!(
            metrics.get("schema").and_then(Value::as_str),
            Some("voltsense-metrics-v1")
        );
        assert_eq!(
            metrics.get("metrics").and_then(Value::as_array).map(<[Value]>::len),
            Some(2),
            "embedded snapshot carries exactly the counter and the histogram"
        );
    });
}

#[test]
fn report_is_a_noop_without_a_registered_flight_recorder_and_capped_with_one() {
    // This test owns the process-global flight registry and the incident
    // env knobs; it is the only test in this binary that touches them.
    incident::reset_caps();
    let dir = std::env::temp_dir().join("voltsense_incident_cap_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("VOLTSENSE_INCIDENT_DIR", &dir);
    std::env::set_var("VOLTSENSE_INCIDENT_MAX", "3");

    // No registered recorder yet: report must decline without writing.
    assert!(flight::current().is_none(), "another test installed a flight recorder");
    assert!(incident::report(&incident::Incident::new("cap_test")).is_none());
    assert!(!dir.exists(), "a declined report must not create the incident dir");

    flight::install(Arc::new(MemoryRecorder::bounded(8)));
    let incident = incident::Incident::new("cap_test");
    let mut written = 0;
    for _ in 0..10 {
        if incident::report(&incident).is_some() {
            written += 1;
        }
    }
    assert_eq!(written, 3, "per-kind cap must bound incident files");
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 3);
    let _ = std::fs::remove_dir_all(&dir);
    std::env::remove_var("VOLTSENSE_INCIDENT_DIR");
    std::env::remove_var("VOLTSENSE_INCIDENT_MAX");
}
