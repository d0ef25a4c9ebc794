//! Live endpoint round-trip: bind `telemetry::serve` on an OS-assigned
//! port, scrape it over a real `TcpStream`, and check every route.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::serve::{serve, SnapshotSource};
use voltsense_telemetry::{MemoryRecorder, Recorder};

/// One HTTP request against the server; returns (status line, headers, body).
fn request(addr: std::net::SocketAddr, head: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(head.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

fn get(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
}

#[test]
fn endpoint_serves_metrics_snapshot_and_healthz() {
    let rec = Arc::new(MemoryRecorder::bounded(64));
    rec.counter_add("scrapes.seen", 2);
    rec.gauge_set("monitor.alarm_active", 0.0);
    rec.histogram_record("observe", 4.2, "us");
    rec.event("monitor.observe", &[("sample", 1.0)]);
    let source_rec = rec.clone();
    let source: SnapshotSource = Arc::new(move || source_rec.snapshot("serve_test"));
    // Port 0: the OS assigns; Server::addr reports what was bound.
    let mut server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();
    assert_eq!(addr.ip().to_string(), "127.0.0.1");
    assert_ne!(addr.port(), 0);

    // --- /metrics -----------------------------------------------------
    let (status, headers, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        headers.contains("text/plain; version=0.0.4"),
        "exposition content type, got: {headers}"
    );
    assert!(body.contains("# TYPE scrapes_seen_total counter"));
    assert!(body.contains("scrapes_seen_total 2"));
    assert!(body.contains("monitor_alarm_active 0"));
    assert!(body.contains("observe{quantile=\"0.5\",unit=\"us\"}"));

    // --- /snapshot (rendered live: mutate between scrapes) ------------
    rec.counter_add("scrapes.seen", 1);
    let (status, headers, body) = get(addr, "/snapshot");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("application/json"));
    let doc = json::parse(&body).expect("snapshot parses");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-metrics-v1"));
    assert_eq!(doc.get("suite").and_then(Value::as_str), Some("serve_test"));
    let metrics = doc.get("metrics").and_then(Value::as_array).unwrap();
    let counter = metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("scrapes.seen"))
        .expect("counter in snapshot");
    assert_eq!(counter.get("value").and_then(Value::as_f64), Some(3.0), "snapshot is live");
    assert_eq!(
        doc.get("events").and_then(Value::as_array).map(<[Value]>::len),
        Some(1),
        "ring event present"
    );

    // --- /healthz, 404, 405 -------------------------------------------
    let (status, _, body) = get(addr, "/healthz");
    assert!(status.contains("200"));
    assert_eq!(body, "ok\n");
    let (status, _, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    let (status, _, _) = request(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    assert!(status.contains("405"), "{status}");

    // --- shutdown ------------------------------------------------------
    server.stop();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
            || TcpStream::connect(addr)
                .and_then(|mut s| {
                    s.set_read_timeout(Some(Duration::from_millis(500)))?;
                    s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")?;
                    let mut out = String::new();
                    s.read_to_string(&mut out).map(|_| out)
                })
                .map_or(true, |out| out.is_empty()),
        "stopped server must not answer"
    );
}

#[test]
fn trace_and_slo_routes_serve_empty_documents_when_uninstalled() {
    // No TraceBuffer / SloTracker is installed in this test binary, so
    // both routes must answer valid, schema-tagged empty documents
    // rather than 404 — a scraper can always rely on the shape.
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("routes"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();

    let (status, headers, body) = get(addr, "/trace");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("application/json"), "{headers}");
    let doc = json::parse(&body).expect("trace document parses");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-trace-v1"));
    assert_eq!(
        doc.get("tenants").and_then(Value::as_array).map(<[Value]>::len),
        Some(0),
        "no buffer installed → no tenants"
    );

    let (status, headers, body) = get(addr, "/slo");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("application/json"), "{headers}");
    let doc = json::parse(&body).expect("slo document parses");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-slo-v1"));
    assert_eq!(
        doc.get("tenants").and_then(Value::as_array).map(<[Value]>::len),
        Some(0),
    );

    // The 404 route list advertises the observability routes.
    let (status, _, body) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("/trace") && body.contains("/slo"), "{body}");
}

#[test]
fn stalled_head_gets_408_instead_of_wedging_the_loop() {
    // Per-connection deadline is read per request, so a short budget here
    // only affects connections opened while this test runs.
    std::env::set_var("VOLTSENSE_TELEMETRY_READ_DEADLINE_MS", "400");
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("loris"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();

    // A slow-loris client: send a partial request line, then stall.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"GET /metri").expect("send partial head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.contains("408"), "expected 408, got: {response}");

    // The loop is not wedged: a well-formed scrape still answers.
    let (status, _, body) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");
    std::env::remove_var("VOLTSENSE_TELEMETRY_READ_DEADLINE_MS");
}

#[test]
fn oversized_head_gets_413_not_processed() {
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("oversize"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();

    // Exactly MAX_HEAD bytes with no terminator: the server consumes all
    // of it (no unread data to RST on) and must refuse rather than parse.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&vec![b'a'; 8 * 1024]).expect("send oversized head");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.contains("413"), "expected 413, got: {response}");

    // Follow-up request on a fresh connection still works.
    let (status, _, _) = get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
}

#[test]
fn bare_port_binds_loopback() {
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("loopback"));
    // Bare "0": loopback by default — the documented security posture.
    let server = serve("0", source).expect("bind");
    assert!(server.addr().ip().is_loopback());
}

#[test]
fn root_serves_endpoint_index() {
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("index"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();

    let (status, headers, body) = get(addr, "/");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("application/json"), "{headers}");
    let doc = json::parse(&body).expect("index parses");
    assert_eq!(doc.get("service").and_then(Value::as_str), Some("voltsense-telemetry"));
    let Some(Value::Array(endpoints)) = doc.get("endpoints") else {
        panic!("\"endpoints\" is not an array: {body}");
    };
    // Every served route documents itself in the index.
    for path in ["/metrics", "/snapshot", "/trace", "/slo", "/profile", "/healthz"] {
        assert!(
            endpoints
                .iter()
                .any(|e| e.get("path").and_then(Value::as_str) == Some(path)),
            "index lacks {path}: {body}"
        );
    }

    // An unknown route still 404s (the index is "/" exactly, not a prefix).
    let (status, _, _) = get(addr, "/nope");
    assert!(status.contains("404"), "{status}");
}

#[test]
fn profile_route_serves_json_and_collapsed() {
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("profile"));
    let server = serve("127.0.0.1:0", source).expect("bind");
    let addr = server.addr();

    // An empty recorder still answers with a valid document (never 404 —
    // scrapers can rely on the schema).
    let (status, headers, body) = get(addr, "/profile");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("application/json"), "{headers}");
    let doc = json::parse(&body).expect("empty profile parses");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-profile-v2"));
    assert_eq!(doc.get("stacks").and_then(Value::as_array).map(<[Value]>::len), Some(0));
    assert!(doc.get("alloc").and_then(|a| a.get("allocator_installed")).is_some(), "{body}");

    // Collapsed format: no spans, empty text — but still 200 and
    // text/plain.
    let (status, headers, body) = get(addr, "/profile?format=collapsed");
    assert!(status.contains("200"), "{status}");
    assert!(headers.contains("text/plain"), "{headers}");
    assert!(body.is_empty(), "no spans yet, got: {body}");

    // Unknown query on a known path is a 404, not a silent default.
    let (status, _, _) = get(addr, "/profile?format=svg");
    assert!(status.contains("404"), "{status}");
}
