//! A live fleet server wired into the process endpoint
//! (`install_observability`) and scraped over real HTTP: `/trace` serves
//! complete tail-sampled records and a populated 1-in-k sample ring,
//! `/slo` shows a burning, paging tenant, `/healthz` answers the
//! structured healthy body, and the fast-burn page leaves a
//! `voltsense-incident-v1` file behind.
//!
//! One test only: it owns the process-global trace / SLO / health /
//! flight registries and the `VOLTSENSE_INCIDENT_DIR` knob.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use voltsense_core::{EmergencyMonitor, VoltageMapModel};
use voltsense_fleet::chaos::ChaosConfig;
use voltsense_fleet::client::{FleetClient, RetryPolicy};
use voltsense_fleet::frame::Frame;
use voltsense_fleet::server::{FleetConfig, FleetServer, SessionFactory};
use voltsense_fleet::session::ChipMonitor;
use voltsense_linalg::Matrix;
use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::serve::{self, SnapshotSource};
use voltsense_telemetry::slo::SloConfig;
use voltsense_telemetry::trace::{TraceConfig, STAGES};
use voltsense_telemetry::{flight, MemoryRecorder};

const TENANT: u64 = 3;
const READINGS: u64 = 16;

fn identity_factory() -> SessionFactory {
    Arc::new(|_key| {
        let model = VoltageMapModel::from_parts(
            vec![0],
            1,
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            vec![0.0],
            0.001,
        )
        .unwrap();
        Ok(Box::new(EmergencyMonitor::new(model, 0.8, 2, 10.0).unwrap()) as Box<dyn ChipMonitor>)
    })
}

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
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    (status, body.to_string())
}

fn schema(doc: &Value) -> Option<&str> {
    doc.get("schema").and_then(Value::as_str)
}

fn tenants(doc: &Value) -> &[Value] {
    doc.get("tenants").and_then(Value::as_array).expect("tenants array")
}

#[test]
fn fleet_routes_serve_traces_a_paging_slo_healthz_and_an_incident() {
    let incident_dir =
        std::env::temp_dir().join(format!("voltsense_fleet_routes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&incident_dir);
    std::env::set_var("VOLTSENSE_INCIDENT_DIR", &incident_dir);
    flight::install(Arc::new(MemoryRecorder::bounded(64)));

    let cfg = FleetConfig {
        tick: Duration::from_millis(2),
        trace: TraceConfig {
            slowest_per_tenant: 32,
            sample_every: 4,
            ..TraceConfig::default()
        },
        // Every decision misses a 1 ns latency SLO: both burn windows read
        // 1000x budget and the tenant's first evaluation pages.
        slo: SloConfig { latency_threshold_ns: 1, ..SloConfig::default() },
        ..FleetConfig::default()
    };
    let mut server = FleetServer::start(cfg, identity_factory()).expect("bind fleet server");
    server.install_observability();
    let source: SnapshotSource = Arc::new(|| MemoryRecorder::bounded(1).snapshot("fleet_routes"));
    let endpoint = serve::serve("127.0.0.1:0", source).expect("bind endpoint");
    let addr = endpoint.addr();

    let mut client =
        FleetClient::new(server.addr(), TENANT, RetryPolicy::default(), ChaosConfig::quiet(1));
    client.hello(0).expect("handshake");
    for seq in 0..READINGS {
        client.send_readings(0, seq, &[0.95]).expect("send");
        client
            .wait_for(Duration::from_secs(10), |f| {
                matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
            })
            .expect("decision arrives");
    }
    // Quiesce before scraping: the trace is sealed just after the
    // response write, so the client can be a hair ahead of the buffer.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.traces().stats(TENANT).recorded < READINGS {
        assert!(std::time::Instant::now() < deadline, "trace buffer never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }

    // --- /trace: complete tail records and a populated sample ring ------
    let (status, body) = get(addr, "/trace");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("/trace parses");
    assert_eq!(schema(&doc), Some("voltsense-trace-v1"));
    let mut complete = 0;
    let mut sampled = 0;
    for t in tenants(&doc) {
        for rec in t.get("slowest").and_then(Value::as_array).unwrap_or(&[]) {
            let total = rec.get("total_ns").and_then(Value::as_f64).unwrap_or(0.0);
            let id_ok = rec
                .get("trace_id")
                .and_then(Value::as_str)
                .is_some_and(|s| s.len() == 16 && s.chars().all(|c| c.is_ascii_hexdigit()));
            let stages_ok = STAGES.iter().all(|s| {
                rec.get("stages")
                    .and_then(|v| v.get(s))
                    .and_then(|v| v.get("ns"))
                    .and_then(Value::as_f64)
                    .is_some()
            });
            assert!(total > 0.0 && id_ok && stages_ok, "incomplete trace record: {rec:?}");
            complete += 1;
        }
        sampled += t.get("sampled").and_then(Value::as_array).map_or(0, <[Value]>::len);
    }
    assert_eq!(complete, READINGS as usize, "every reading is in the tail");
    assert_eq!(sampled, (READINGS / 4) as usize, "seq % 4 == 0 sampled");

    // --- /slo: a burning tenant that paged ------------------------------
    let (status, body) = get(addr, "/slo");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("/slo parses");
    assert_eq!(schema(&doc), Some("voltsense-slo-v1"));
    let mut pages = 0.0;
    let mut max_burn = 0.0f64;
    for t in tenants(&doc) {
        pages += t.get("pages").and_then(Value::as_f64).unwrap_or(0.0);
        for sli in ["latency", "availability"] {
            for window in ["burn_5m", "burn_1h"] {
                let burn = t.get(sli).and_then(|v| v.get(window)).and_then(Value::as_f64);
                max_burn = max_burn.max(burn.unwrap_or(0.0));
            }
        }
    }
    assert!(pages >= 1.0, "no fast-burn page: {body}");
    assert!(max_burn > 0.0, "no tenant burns budget: {body}");

    // --- /healthz: the structured fleet body, healthy --------------------
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("/healthz body is JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));

    // --- the page froze an incident carrying the trace buffer -----------
    drop(endpoint);
    serve::clear_health();
    server.stop();
    std::env::remove_var("VOLTSENSE_INCIDENT_DIR");
    let incidents: Vec<Value> = std::fs::read_dir(&incident_dir)
        .expect("incident dir exists")
        .map(|e| {
            let text = std::fs::read_to_string(e.expect("dir entry").path()).expect("read");
            json::parse(&text).expect("incident parses")
        })
        .filter(|doc| doc.get("kind").and_then(Value::as_str) == Some("slo_fast_burn"))
        .collect();
    let _ = std::fs::remove_dir_all(&incident_dir);
    assert_eq!(incidents.len(), 1, "one page, one incident");
    assert_eq!(schema(&incidents[0]), Some("voltsense-incident-v1"));
    assert_eq!(incidents[0].get("traces").and_then(schema), Some("voltsense-trace-v1"));
}
