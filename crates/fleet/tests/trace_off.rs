//! The `VOLTSENSE_TRACE=0` kill switch, end to end. `trace::enabled()`
//! caches the variable on first read, so this binary holds exactly one
//! test and sets the variable before anything can read it.

use std::sync::Arc;
use std::time::Duration;

use voltsense_core::{EmergencyMonitor, VoltageMapModel};
use voltsense_fleet::chaos::ChaosConfig;
use voltsense_fleet::client::{FleetClient, RetryPolicy};
use voltsense_fleet::frame::{decision_flags, Frame};
use voltsense_fleet::server::{FleetConfig, FleetServer, SessionFactory};
use voltsense_fleet::session::ChipMonitor;
use voltsense_linalg::Matrix;
use voltsense_telemetry::trace;

/// Identity monitor: one sensor, one critical node, prediction == the
/// reading, persistence 2, a latch no realistic reading releases.
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

#[test]
fn trace_off_serves_the_same_decisions_and_records_no_traces_or_slo() {
    std::env::set_var("VOLTSENSE_TRACE", "0");
    assert!(!trace::enabled(), "VOLTSENSE_TRACE=0 must switch tracing off");

    let factory: SessionFactory =
        Arc::new(|_key| Ok(Box::new(identity_monitor()) as Box<dyn ChipMonitor>));
    let cfg = FleetConfig { tick: Duration::from_millis(2), ..FleetConfig::default() };
    let mut server = FleetServer::start(cfg, factory).unwrap();
    let tenant = 5;
    let mut client = FleetClient::new(
        server.addr(),
        tenant,
        RetryPolicy::default(),
        ChaosConfig::quiet(tenant),
    );
    client.hello(0).unwrap();

    // Healthy, a first droop (debounced), the rising edge, a latched
    // healthy reading, and another droop: every flag combination the
    // identity monitor can produce. The mirror is what tracing-on serves.
    let mut mirror = identity_monitor();
    for (seq, v) in [0.95, 0.75, 0.74, 0.99, 0.70].into_iter().enumerate() {
        let seq = seq as u64;
        client.send_readings(0, seq, &[v]).unwrap();
        let frame = client
            .wait_for(Duration::from_secs(5), |f| {
                matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
            })
            .unwrap();
        let want = mirror.observe(&[v]).unwrap();
        let mut want_flags = 0;
        if want.alarm {
            want_flags |= decision_flags::ALARM;
        }
        if want.rising_edge {
            want_flags |= decision_flags::RISING;
        }
        match frame {
            Frame::Decision { flags, predicted_min, .. } => {
                assert_eq!(flags, want_flags, "seq {seq}");
                assert_eq!(predicted_min.to_bits(), want.predicted_min.to_bits(), "seq {seq}");
            }
            other => panic!("expected a decision, got {other:?}"),
        }
    }
    assert!(mirror.is_alarmed(), "the schedule must latch the alarm");

    // Join readers and the dispatcher before reading the buffers.
    server.stop();
    assert_eq!(server.traces().stats(tenant).recorded, 0);
    assert!(server.traces().tenants().is_empty());
    assert!(server.slo().tenants().is_empty());
}
