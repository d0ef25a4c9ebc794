//! Property suite for per-reading tracing and the SLO burn-rate engine
//! over real sockets.
//!
//! The load-bearing invariants:
//!
//! * Trace IDs are a pure function of `(tenant, chip, seq)`, so the set
//!   of recorded IDs is bit-identical no matter how many worker threads
//!   drained the shards (CI runs this suite at `VOLTSENSE_THREADS` 1 and
//!   4) and no matter what order chaos delivered the frames in.
//! * Tail sampling is keyed on `seq`, not arrival order, so the sampled
//!   set is the same under reordering.
//! * Chaos duplicates are deduped by the trace buffer *before* the SLO
//!   engine sees them: a frame delivered twice burns exactly one unit of
//!   error budget, never two.
//! * `/healthz` flips to 503 the moment a monitor is quarantined.

use std::sync::Arc;
use std::time::Duration;

use voltsense_core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense_fleet::chaos::ChaosConfig;
use voltsense_fleet::client::{FleetClient, RetryPolicy};
use voltsense_fleet::frame::{error_code, Frame};
use voltsense_fleet::server::{FleetConfig, FleetServer, SessionFactory};
use voltsense_fleet::session::{ChipMonitor, SessionKey};
use voltsense_linalg::Matrix;
use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::trace::{self, TraceConfig, TraceContext};
use voltsense_testkit::{forall, u64_range, usize_range};

fn identity_monitor() -> EmergencyMonitor {
    let model = VoltageMapModel::from_parts(
        vec![0],
        1,
        Matrix::from_rows(&[&[1.0]]).unwrap(),
        vec![0.0],
        0.001,
    )
    .unwrap();
    EmergencyMonitor::new(model, 0.8, 2, 10.0).unwrap()
}

fn identity_factory() -> SessionFactory {
    Arc::new(|_key| Ok(Box::new(identity_monitor()) as Box<dyn ChipMonitor>))
}

fn traced_cfg(sample_every: u64) -> FleetConfig {
    FleetConfig {
        tick: Duration::from_millis(2),
        trace: TraceConfig {
            slowest_per_tenant: 128,
            sample_every,
            sampled_capacity: 128,
            dedup_window: 512,
        },
        ..FleetConfig::default()
    }
}

/// Wait until the server's trace buffer has recorded (or deduped) enough
/// readings — `finish_trace` runs just *after* the response write, so a
/// client that saw every decision can still be a hair ahead of it.
fn await_recorded(server: &FleetServer, tenant: u64, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.traces().stats(tenant).recorded < want {
        assert!(
            std::time::Instant::now() < deadline,
            "trace buffer stuck at {:?}, want {want} recorded",
            server.traces().stats(tenant)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn trace_ids_and_sampling_are_pure_functions_of_identity() {
    forall!(cases = 4, (
        tenant in u64_range(1, 1 << 40),
        chip in u64_range(0, 1 << 32),
        n in usize_range(12, 24),
    ) => {
        const EVERY: u64 = 4;
        let mut server = FleetServer::start(traced_cfg(EVERY), identity_factory()).unwrap();
        let mut client = FleetClient::new(
            server.addr(), tenant, RetryPolicy::default(), ChaosConfig::quiet(tenant),
        );
        client.hello(chip).unwrap();
        for seq in 0..n as u64 {
            client.send_readings(chip, seq, &[0.95]).unwrap();
            client
                .wait_for(Duration::from_secs(5), |f| {
                    matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
                })
                .unwrap();
        }
        await_recorded(&server, tenant, n as u64);
        // Read both ledgers only once the server is quiescent: `stop`
        // joins the readers and the dispatcher, so no decision can land
        // between the trace read and the SLO read below.
        server.stop();

        let traces = server.traces();
        let stats = traces.stats(tenant);
        assert_eq!(stats.recorded, n as u64, "every decision recorded exactly once");
        assert_eq!(stats.deduped, 0, "a quiet client never duplicates");

        // Every retained record carries the pure-function ID — the same
        // value any replica, replay, or thread count would derive.
        let slowest = traces.slowest(tenant);
        assert_eq!(slowest.len(), n, "capacity exceeds n: nothing evicted");
        let mut seqs: Vec<u64> = Vec::new();
        for rec in &slowest {
            assert_eq!(rec.ctx, TraceContext::derive(tenant, chip, rec.ctx.seq));
            assert_eq!(rec.ctx.trace_id, trace::trace_id(tenant, chip, rec.ctx.seq));
            assert_eq!(
                rec.stages.total(),
                rec.total_ns(),
                "stage decomposition sums to the end-to-end duration"
            );
            assert!(rec.total_ns() > 0, "a real reading takes time");
            seqs.push(rec.ctx.seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>(), "all seqs retained");
        // Slowest-N is reported slowest first.
        for pair in slowest.windows(2) {
            assert!(pair[0].total_ns() >= pair[1].total_ns());
        }

        // Sampling is keyed on seq, not on arrival order or timing.
        let mut sampled: Vec<u64> =
            traces.sampled(tenant).iter().map(|r| r.ctx.seq).collect();
        sampled.sort_unstable();
        let expect: Vec<u64> = (0..n as u64).filter(|s| s % EVERY == 0).collect();
        assert_eq!(sampled, expect, "sampled set == seq % {EVERY} == 0");

        // The exact tail quantile of a fully-retained population is the max.
        let max = slowest.first().unwrap().total_ns();
        assert_eq!(traces.exact_quantile(tenant, 1.0), Some(max));

        // The SLO engine saw each reading exactly once.
        let slo = server.slo();
        assert_eq!(slo.availability_counts(tenant), (n as u64, 0));
        let (good, bad) = slo.latency_counts(tenant);
        assert_eq!(good + bad, n as u64, "one latency event per reading");
    });
}

#[test]
fn chaos_duplicates_and_reorders_never_double_count() {
    forall!(cases = 3, (seed in u64_range(1, 1 << 20)) => {
        const N: u64 = 48;
        const EVERY: u64 = 8;
        // Duplicates and reorders only: every frame is eventually
        // delivered (a reorder pocket is flushed by the next send), so
        // the delivered-seq set is exactly known.
        let chaos = ChaosConfig {
            p_duplicate: 0.25,
            p_reorder: 0.15,
            ..ChaosConfig::quiet(seed)
        };
        let mut server = FleetServer::start(traced_cfg(EVERY), identity_factory()).unwrap();
        let mut client =
            FleetClient::new(server.addr(), 9, RetryPolicy::default(), chaos);
        client.hello(1).unwrap();
        for seq in 0..N {
            client.send_readings(1, seq, &[0.95]).unwrap();
            // Pace the flood so the ladder never rejects: a Busy would
            // legitimately burn availability and cloud the assertion.
            client.drain_responses(Duration::from_millis(1));
        }
        // Two sentinels: the first flushes any pocketed main-run frame,
        // the second flushes the first if *it* got pocketed. Only the
        // last sentinel can still be stranded when the run ends.
        for extra in 0..2u64 {
            client.send_readings(1, N + extra, &[0.95]).unwrap();
            client.drain_responses(Duration::from_millis(1));
        }
        await_recorded(&server, 9, N + 1);
        // A trailing sentinel or duplicate may still be in flight; stop
        // the server (joining readers and dispatcher) so the trace stats
        // and the SLO ledger below describe the same population.
        server.stop();

        let stats = server.traces().stats(9);
        let dup = client.chaos_stats().duplicates;
        assert!(dup > 0, "0.25 over {N} sends fires with overwhelming probability");
        assert!(
            stats.recorded > N && stats.recorded <= N + 2,
            "every distinct seq recorded once: {stats:?}"
        );
        // `dup` counts every duplicated frame, Hellos included (and a
        // pocketed HelloAck can trigger a Hello resend, adding more
        // duplicable non-readings frames), so the trace dedupe count is
        // bounded by it rather than equal to it.
        assert!(
            stats.deduped > 0 && stats.deduped <= dup,
            "duplicated readings dedupe, once each: {stats:?} vs {dup} duplicates"
        );

        // The SLO ledger matches the *distinct* readings, not deliveries.
        let slo = server.slo();
        assert_eq!(
            slo.availability_counts(9),
            (stats.recorded, 0),
            "duplicates must not burn the availability budget twice"
        );
        let (good, bad) = slo.latency_counts(9);
        assert_eq!(good + bad, stats.recorded);

        // Reordered arrival does not disturb seq-keyed sampling.
        for rec in server.traces().sampled(9) {
            assert_eq!(rec.ctx.seq % EVERY, 0);
        }
    });
}

/// Monitor that panics on a sub-0.5 reading — drives quarantine.
struct PanickingMonitor;

impl ChipMonitor for PanickingMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        if readings.first().copied().unwrap_or(1.0) < 0.5 {
            panic!("injected monitor panic");
        }
        Ok(MonitorDecision {
            predicted_min: readings[0],
            worst_block: 0,
            alarm: false,
            rising_edge: false,
            health: None,
        })
    }
    fn is_alarmed(&self) -> bool {
        false
    }
    fn checkpoint_json(&self, _key: SessionKey) -> Option<String> {
        None
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// The one test in this binary that touches the process-global trace /
/// SLO / health registries (via `install_observability`); the property
/// tests above only use per-server accessors, so parallel test threads
/// never race on the globals.
#[test]
fn endpoint_serves_traces_slo_and_healthz_flips_on_quarantine() {
    let factory: SessionFactory = Arc::new(|key| {
        if key.chip == 666 {
            Ok(Box::new(PanickingMonitor) as Box<dyn ChipMonitor>)
        } else {
            Ok(Box::new(identity_monitor()) as Box<dyn ChipMonitor>)
        }
    });
    let mut server = FleetServer::start(traced_cfg(1), factory).unwrap();
    server.install_observability();
    let source: voltsense_telemetry::serve::SnapshotSource =
        Arc::new(|| voltsense_telemetry::MemoryRecorder::bounded(16).snapshot("trace_slo_props"));
    let endpoint = voltsense_telemetry::serve::serve("127.0.0.1:0", source).expect("bind");

    let mut client = FleetClient::new(
        server.addr(), 5, RetryPolicy::default(), ChaosConfig::quiet(5),
    );
    client.hello(7).unwrap();
    for seq in 0..6u64 {
        client.send_readings(7, seq, &[0.95]).unwrap();
        client
            .wait_for(Duration::from_secs(5), |f| {
                matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
            })
            .unwrap();
    }
    await_recorded(&server, 5, 6);

    // Healthy: 200 with a JSON census body.
    let (status, body) = http_get(endpoint.addr(), "/healthz");
    assert!(status.contains("200"), "{status}: {body}");
    let doc = json::parse(&body).expect("healthz body is JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("quarantined").and_then(Value::as_f64), Some(0.0));

    // /trace serves this server's buffer with the full stage breakdown.
    let (status, body) = http_get(endpoint.addr(), "/trace");
    assert!(status.contains("200"), "{status}");
    let doc = json::parse(&body).expect("trace body is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-trace-v1"));
    let tenants = doc.get("tenants").and_then(Value::as_array).expect("tenants");
    let tenant5 = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Value::as_f64) == Some(5.0))
        .expect("tenant 5 present");
    let slowest = tenant5.get("slowest").and_then(Value::as_array).expect("slowest");
    assert!(!slowest.is_empty());
    for stage in trace::STAGES {
        assert!(
            slowest[0].get("stages").and_then(|s| s.get(stage)).is_some(),
            "stage {stage} serialized"
        );
    }

    // /slo serves the burn-rate view for the same tenant.
    let (status, body) = http_get(endpoint.addr(), "/slo");
    assert!(status.contains("200"), "{status}");
    let doc = json::parse(&body).expect("slo body is JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("voltsense-slo-v1"));
    let tenants = doc.get("tenants").and_then(Value::as_array).expect("tenants");
    assert!(tenants
        .iter()
        .any(|t| t.get("tenant").and_then(Value::as_f64) == Some(5.0)));

    // Quarantine chip 666 and watch /healthz flip to 503.
    client.hello(666).unwrap();
    client.send_readings(666, 0, &[0.1]).unwrap();
    client
        .wait_for(Duration::from_secs(5), |f| {
            matches!(f, Frame::Error { code, .. } if *code == error_code::QUARANTINED)
        })
        .unwrap();
    let (status, body) = http_get(endpoint.addr(), "/healthz");
    assert!(status.contains("503"), "quarantine must unready: {status}: {body}");
    let doc = json::parse(&body).expect("unhealthy body is JSON");
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("quarantined"));
    assert_eq!(doc.get("quarantined").and_then(Value::as_f64), Some(1.0));

    drop(endpoint);
    voltsense_telemetry::serve::clear_health();
    server.stop();
}
