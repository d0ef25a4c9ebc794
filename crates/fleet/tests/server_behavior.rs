//! End-to-end server behavior over real sockets: the happy path, the
//! hostile paths (slow-loris, oversize, overload, panics), and the
//! durability paths (eviction, crash + restart from checkpoints).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use voltsense_core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense_fleet::chaos::ChaosConfig;
use voltsense_fleet::client::{FleetClient, RetryPolicy};
use voltsense_fleet::frame::{decision_flags, error_code, Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use voltsense_fleet::session::{ChipMonitor, LadderConfig, SessionKey};
use voltsense_fleet::server::{FleetConfig, FleetServer, FleetStats, SessionFactory};
use voltsense_linalg::Matrix;

/// Identity monitor: one sensor, one critical node, prediction == the
/// reading. `release_margin` of 10 V makes the latch effectively
/// permanent — no realistic reading releases it.
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

fn quiet_client(server: &FleetServer, tenant: u64) -> FleetClient {
    FleetClient::new(server.addr(), tenant, RetryPolicy::default(), ChaosConfig::quiet(tenant))
}

fn fast_cfg() -> FleetConfig {
    FleetConfig { tick: Duration::from_millis(2), ..FleetConfig::default() }
}

#[test]
fn alarm_rises_after_persistence_and_latches() {
    let mut server = FleetServer::start(fast_cfg(), identity_factory()).unwrap();
    let mut client = quiet_client(&server, 1);
    let hello = client.hello(7).unwrap();
    assert!(!hello.resumed);
    assert!(!hello.alarmed);

    // First droop sample: below threshold but persistence = 2, no alarm.
    client.send_readings(7, 0, &[0.75]).unwrap();
    let d = client
        .wait_for(Duration::from_secs(5), |f| matches!(f, Frame::Decision { seq: 0, .. }))
        .unwrap();
    match d {
        Frame::Decision { flags, predicted_min, .. } => {
            assert_eq!(flags & decision_flags::ALARM, 0);
            assert_eq!(predicted_min.to_bits(), 0.75f64.to_bits(), "identity model");
        }
        _ => unreachable!(),
    }
    // Second consecutive droop: rising edge.
    client.send_readings(7, 1, &[0.74]).unwrap();
    let d = client
        .wait_for(Duration::from_secs(5), |f| matches!(f, Frame::Decision { seq: 1, .. }))
        .unwrap();
    match d {
        Frame::Decision { flags, .. } => {
            assert_ne!(flags & decision_flags::ALARM, 0);
            assert_ne!(flags & decision_flags::RISING, 0);
        }
        _ => unreachable!(),
    }
    // Healthy readings do not release (hysteresis margin is huge).
    client.send_readings(7, 2, &[0.99]).unwrap();
    let d = client
        .wait_for(Duration::from_secs(5), |f| matches!(f, Frame::Decision { seq: 2, .. }))
        .unwrap();
    match d {
        Frame::Decision { flags, .. } => assert_ne!(flags & decision_flags::ALARM, 0),
        _ => unreachable!(),
    }
    assert_eq!(server.session_alarmed(SessionKey { tenant: 1, chip: 7 }), Some(true));
    assert_eq!(server.stats().frames, 4);
    server.stop();
}

#[test]
fn slow_loris_partial_frame_is_closed_and_server_stays_live() {
    let cfg = FleetConfig {
        read_deadline: Duration::from_millis(150),
        ..fast_cfg()
    };
    let mut server = FleetServer::start(cfg, identity_factory()).unwrap();
    // A client that sends half a header and stalls forever.
    use std::io::{Read, Write};
    let mut loris = std::net::TcpStream::connect(server.addr()).unwrap();
    loris.write_all(&[0x04, 0x00]).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = Vec::new();
    // The server must cut the connection (EOF) instead of waiting.
    let closed = loris.read_to_end(&mut sink).map(|n| n == 0).unwrap_or(true);
    assert!(closed, "stalled connection must be closed");
    // And an honest client still gets service.
    let mut client = quiet_client(&server, 2);
    assert!(!client.hello(1).unwrap().resumed);
    server.stop();
}

#[test]
fn oversized_length_prefix_gets_a_typed_error_then_close() {
    let mut server = FleetServer::start(fast_cfg(), identity_factory()).unwrap();
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut wire = ((DEFAULT_MAX_FRAME as u32) + 1).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 4]);
    stream.write_all(&wire).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = Vec::new();
    let _ = stream.read_to_end(&mut bytes); // server answers, then closes
    let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
    dec.push(&bytes);
    match dec.next().unwrap() {
        Some(Frame::Error { code, .. }) => assert_eq!(code, error_code::PROTOCOL),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(server.stats().decode_errors, 1);
    server.stop();
}

/// Monitor that takes its time — lets tests force queue buildup.
struct SlowMonitor {
    inner: EmergencyMonitor,
    delay: Duration,
}

impl ChipMonitor for SlowMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        std::thread::sleep(self.delay);
        self.inner.observe(readings)
    }
    fn is_alarmed(&self) -> bool {
        self.inner.is_alarmed()
    }
    fn checkpoint_json(&self, _key: SessionKey) -> Option<String> {
        None
    }
}

#[test]
fn overload_walks_the_ladder_shed_then_reject_then_recover() {
    let cfg = FleetConfig {
        ladder: LadderConfig { queue_capacity: 2, shed_streak_threshold: 2, busy_retry_ms: 30 },
        drain_budget: 1,
        tick: Duration::from_millis(20),
        ..FleetConfig::default()
    };
    let factory: SessionFactory = Arc::new(|_key| {
        Ok(Box::new(SlowMonitor { inner: identity_monitor(), delay: Duration::from_millis(10) })
            as Box<dyn ChipMonitor>)
    });
    let mut server = FleetServer::start(cfg, factory).unwrap();
    let mut client = quiet_client(&server, 1);
    client.hello(1).unwrap();
    // Flood without reading responses: sends are instant, each observe
    // takes 10ms, so the 2-deep queue must overflow almost immediately.
    for seq in 0..40 {
        client.send_readings(1, seq, &[0.95]).unwrap();
    }
    let mut saw_busy = false;
    // Let the server catch up, collecting stragglers.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        for f in client.drain_responses(Duration::from_millis(20)) {
            saw_busy |= matches!(f, Frame::Busy { retry_after_ms: 30, .. });
        }
        let s = server.stats();
        if s.rejected > 0 && s.recoveries > 0 && saw_busy {
            break;
        }
    }
    let stats = server.stats();
    assert!(stats.shed > 0, "drop-oldest must have engaged: {stats:?}");
    assert!(stats.rejected > 0, "sustained overload must reject: {stats:?}");
    assert!(saw_busy, "client must have seen a Busy backoff hint");
    // After the flood the session recovers and serves again. The tail of
    // the flood can still be in flight (the reader thread may lag the
    // sender under load), so a probe can race a re-entered Rejecting
    // state and draw a Busy — retry like a client that honors the hint.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut probe_seq = 1000u64;
    let mut served_again = false;
    while !served_again {
        assert!(
            std::time::Instant::now() < deadline,
            "session must accept again after recovery: {:?}",
            server.stats()
        );
        client.send_readings(1, probe_seq, &[0.95]).unwrap();
        let want = probe_seq;
        served_again = client
            .wait_for(Duration::from_millis(500), |f| {
                matches!(f, Frame::Decision { seq: s, .. } if *s == want)
            })
            .is_ok();
        probe_seq += 1;
        std::thread::sleep(Duration::from_millis(30)); // the Busy hint
    }
    assert!(server.stats().recoveries > 0, "{:?}", server.stats());
    server.stop();
}

/// Monitor that panics on command — drives the quarantine path.
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

#[test]
fn panicking_session_is_quarantined_and_its_neighbors_survive() {
    let factory: SessionFactory = Arc::new(|key| {
        if key.chip == 666 {
            Ok(Box::new(PanickingMonitor) as Box<dyn ChipMonitor>)
        } else {
            Ok(Box::new(identity_monitor()) as Box<dyn ChipMonitor>)
        }
    });
    let mut server = FleetServer::start(fast_cfg(), factory).unwrap();
    let mut client = quiet_client(&server, 3);
    client.hello(666).unwrap();
    client.hello(7).unwrap();
    // Trip the panic.
    client.send_readings(666, 0, &[0.1]).unwrap();
    let err = client.wait_for(Duration::from_secs(5), |f| matches!(f, Frame::Error { .. }));
    match err {
        Ok(Frame::Error { code, chip, .. }) => {
            assert_eq!(code, error_code::QUARANTINED);
            assert_eq!(chip, 666);
        }
        other => panic!("expected quarantine error, got {other:?}"),
    }
    assert_eq!(server.stats().quarantined, 1);
    // The quarantined session answers with its terminal error…
    client.send_readings(666, 1, &[0.9]).unwrap();
    let again = client.wait_for(Duration::from_secs(5), |f| {
        matches!(f, Frame::Error { code, .. } if *code == error_code::QUARANTINED)
    });
    assert!(again.is_ok(), "quarantine is terminal");
    // …while the sibling session on the same shard pool keeps deciding.
    client.send_readings(7, 0, &[0.95]).unwrap();
    let d = client.wait_for(Duration::from_secs(5), |f| matches!(f, Frame::Decision { .. }));
    assert!(d.is_ok(), "neighbor session must be unaffected");
    server.stop();
}

#[test]
fn idle_sessions_are_evicted_with_a_checkpoint_and_resume_alarmed() {
    let dir = std::env::temp_dir().join(format!("fleet_evict_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetConfig {
        idle_timeout: Duration::from_millis(120),
        tick: Duration::from_millis(5),
        checkpoint_dir: Some(dir.clone()),
        ..FleetConfig::default()
    };
    let mut server = FleetServer::start(cfg, identity_factory()).unwrap();
    let mut client = quiet_client(&server, 4);
    client.hello(1).unwrap();
    // Latch the alarm, then go idle.
    for seq in 0..2 {
        client.send_readings(1, seq, &[0.7]).unwrap();
    }
    client.wait_for(Duration::from_secs(5), |f| {
        matches!(f, Frame::Decision { seq: 1, flags, .. } if flags & decision_flags::ALARM != 0)
    }).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().evicted == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = server.stats();
    assert!(stats.evicted >= 1, "idle session must evict: {stats:?}");
    assert_eq!(stats.sessions, 0, "no live sessions after eviction");
    // Re-hello: session comes back from the eviction checkpoint, latched.
    let hello = client.hello(1).unwrap();
    assert!(hello.resumed, "must resume from checkpoint, not refit");
    assert!(hello.alarmed, "latched alarm survives eviction");
    assert!(server.stats().restores >= 1);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_then_restart_resumes_every_session_without_refit() {
    let dir = std::env::temp_dir().join(format!("fleet_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = FleetConfig {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_interval: 1, // checkpoint every sample: crash loses nothing
        tick: Duration::from_millis(2),
        ..FleetConfig::default()
    };
    let mut server = FleetServer::start(cfg.clone(), identity_factory()).unwrap();
    let mut client = quiet_client(&server, 5);
    for chip in [1u64, 2, 3] {
        client.hello(chip).unwrap();
    }
    // Alarm chip 2; keep 1 and 3 healthy.
    for seq in 0..2 {
        client.send_readings(1, seq, &[0.95]).unwrap();
        client.send_readings(2, seq, &[0.70]).unwrap();
        client.send_readings(3, seq, &[0.93]).unwrap();
    }
    client.wait_for(Duration::from_secs(5), |f| {
        matches!(f, Frame::Decision { chip: 2, seq: 1, flags, .. }
            if flags & decision_flags::ALARM != 0)
    }).unwrap();
    // Wait until the dispatcher has persisted all three sessions.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().checkpoints < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.stats().checkpoints >= 3, "{:?}", server.stats());
    // kill -9: no graceful flush.
    server.abort();

    // Restart on the same dir with a factory that must never run.
    let refits = Arc::new(AtomicUsize::new(0));
    let counting = refits.clone();
    let factory: SessionFactory = Arc::new(move |_key| {
        counting.fetch_add(1, Ordering::SeqCst);
        Err("refit is forbidden during recovery".into())
    });
    let restart_cfg = FleetConfig { addr: "127.0.0.1:0".into(), ..cfg };
    let mut server2 = FleetServer::start(restart_cfg, factory).unwrap();
    let mut client2 = FleetClient::new(
        server2.addr(), 5, RetryPolicy::default(), ChaosConfig::quiet(5),
    );
    for chip in [1u64, 2, 3] {
        let hello = client2.hello(chip).unwrap();
        assert!(hello.resumed, "chip {chip} must resume from checkpoint");
        assert_eq!(hello.alarmed, chip == 2, "alarm state per chip survives the crash");
    }
    assert_eq!(refits.load(Ordering::SeqCst), 0, "no session may be refit");
    assert_eq!(server2.stats().restores, 3);
    // The restored monitor keeps monitoring: chip 2 stays latched.
    client2.send_readings(2, 100, &[0.99]).unwrap();
    let d = client2.wait_for(Duration::from_secs(5), |f| {
        matches!(f, Frame::Decision { chip: 2, seq: 100, .. })
    }).unwrap();
    match d {
        Frame::Decision { flags, .. } => assert_ne!(flags & decision_flags::ALARM, 0),
        _ => unreachable!(),
    }
    server2.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Monitor that counts how often its checkpoint is serialized.
struct CountingMonitor {
    inner: EmergencyMonitor,
    serialized: Arc<AtomicUsize>,
}

impl ChipMonitor for CountingMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        self.inner.observe(readings)
    }
    fn is_alarmed(&self) -> bool {
        self.inner.is_alarmed()
    }
    fn checkpoint_json(&self, key: SessionKey) -> Option<String> {
        self.serialized.fetch_add(1, Ordering::SeqCst);
        Some(voltsense_fleet::checkpoint::to_json(key, &self.inner))
    }
}

/// Serve readings that cross 0.85 V on every sample (persistence 1, no
/// release margin, so each decision is an alarm edge), stop the server,
/// and return its final stats with the number of serialized checkpoints.
fn serve_alarm_edges(checkpoint_dir: Option<std::path::PathBuf>) -> (FleetStats, usize) {
    let serialized = Arc::new(AtomicUsize::new(0));
    let counter = serialized.clone();
    let factory: SessionFactory = Arc::new(move |_key| {
        let model = VoltageMapModel::from_parts(
            vec![0],
            1,
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            vec![0.0],
            0.001,
        )
        .unwrap();
        let inner = EmergencyMonitor::new(model, 0.85, 1, 0.0).unwrap();
        Ok(Box::new(CountingMonitor { inner, serialized: counter.clone() }) as Box<dyn ChipMonitor>)
    });
    let cfg = FleetConfig { checkpoint_dir, ..fast_cfg() };
    let mut server = FleetServer::start(cfg, factory).unwrap();
    let mut client = quiet_client(&server, 6);
    client.hello(1).unwrap();
    for seq in 0..8u64 {
        let reading = if seq % 2 == 0 { 0.80 } else { 0.90 };
        client.send_readings(1, seq, &[reading]).unwrap();
        let d = client
            .wait_for(Duration::from_secs(5), |f| {
                matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
            })
            .unwrap();
        match d {
            Frame::Decision { flags, .. } => assert_eq!(
                flags & decision_flags::RISING != 0,
                seq % 2 == 0,
                "seq {seq}: every droop is a rising edge"
            ),
            _ => unreachable!(),
        }
    }
    // Stopping joins the dispatcher (and flushes the final checkpoint),
    // so the stats and the count below are final, not a race.
    server.stop();
    (server.stats(), serialized.load(Ordering::SeqCst))
}

#[test]
fn checkpoints_are_serialized_only_when_written() {
    let (stats, serialized) = serve_alarm_edges(None);
    assert_eq!(stats.checkpoints + stats.checkpoint_failures, 0, "{stats:?}");
    assert_eq!(serialized, 0, "no checkpoint dir: nothing may be serialized");

    let dir = std::env::temp_dir().join(format!("fleet_ckpt_count_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (stats, serialized) = serve_alarm_edges(Some(dir.clone()));
    assert!(stats.checkpoints > 0, "alarm edges must persist: {stats:?}");
    assert_eq!(
        serialized as u64,
        stats.checkpoints + stats.checkpoint_failures,
        "one serialization per write attempt: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
