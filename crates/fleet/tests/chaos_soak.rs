//! Seeded chaos soaks pinning the three headline properties: no chaos
//! schedule (a) crashes the server, (b) corrupts another tenant's
//! session, or (c) de-asserts a latched alarm. Every run is replayable
//! from its seed (`TESTKIT_SEED` replays a failing case).
//!
//! The scale here is CI-sized; `fleet_soak` (the bench bin) runs the
//! acceptance-scale version (≥ 64 sessions, ≥ 10k frames).

use std::sync::Arc;
use std::time::Duration;

use voltsense_core::{EmergencyMonitor, VoltageMapModel};
use voltsense_fleet::chaos::ChaosConfig;
use voltsense_fleet::client::{FleetClient, RetryPolicy};
use voltsense_fleet::frame::{decision_flags, Frame};
use voltsense_fleet::server::{FleetConfig, FleetServer, SessionFactory};
use voltsense_fleet::session::{ChipMonitor, SessionKey};
use voltsense_linalg::Matrix;
use voltsense_testkit::{forall, u64_range};
use voltsense_workload::GaussianRng;

/// Identity monitor: prediction == reading, persistence 2, latch
/// effectively permanent (10 V release margin).
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

fn soak_server() -> FleetServer {
    let cfg = FleetConfig { tick: Duration::from_millis(2), ..FleetConfig::default() };
    FleetServer::start(cfg, identity_factory()).expect("bind soak server")
}

const CONTROL_TENANT: u64 = 100;
const CHAOS_TENANTS: [u64; 3] = [1, 2, 3];
const CHIPS_PER_TENANT: u64 = 3;
const DROOP_CHIP: u64 = 0; // chip 0 of every chaos tenant gets the droop window

#[test]
fn no_chaos_schedule_crashes_crosses_tenants_or_clears_a_latch() {
    forall!(cases = 3, (seed in u64_range(1, 1 << 31)) => {
        let mut server = soak_server();

        // --- chaos tenants: hostile transports, droop on chip 0 -------
        let mut chaos_clients: Vec<FleetClient> = CHAOS_TENANTS
            .iter()
            .map(|&tenant| {
                let mut client = FleetClient::new(
                    server.addr(),
                    tenant,
                    RetryPolicy::default(),
                    ChaosConfig::moderate(seed ^ (tenant << 8)),
                );
                for chip in 0..CHIPS_PER_TENANT {
                    client.hello(chip).expect("handshake retries through chaos");
                }
                client
            })
            .collect();
        let mut rng = GaussianRng::seed_from_u64(seed);
        for round in 0..40u64 {
            for client in &mut chaos_clients {
                for chip in 0..CHIPS_PER_TENANT {
                    // Healthy band, occasionally dipping near (but above)
                    // the 0.8 threshold so only the droop window alarms.
                    let v = 0.9 + 0.08 * rng.uniform();
                    client.send_readings(chip, round, &[v]).expect("send survives chaos");
                }
                let _ = client.drain_responses(Duration::from_millis(1));
            }
        }
        // The droop window: 8 consecutive sub-threshold readings on chip
        // 0 of each chaos tenant — enough that persistence-2 alarms even
        // if chaos eats a few frames.
        for round in 40..48u64 {
            for client in &mut chaos_clients {
                client.send_readings(DROOP_CHIP, round, &[0.70]).expect("droop send");
            }
        }
        // Wait until every chaos tenant's droop chip is latched server-side.
        for &tenant in &CHAOS_TENANTS {
            let key = SessionKey { tenant, chip: DROOP_CHIP };
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while server.session_alarmed(key) != Some(true) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "tenant {tenant} droop chip never alarmed (seed {seed})"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }

        // --- property (c): a latched alarm survives disconnect+reconnect
        for client in &mut chaos_clients {
            client.disconnect();
            let hello = client.hello(DROOP_CHIP).expect("reconnect handshake");
            assert!(hello.resumed, "mid-stream reconnect resumes, not refits");
            assert!(hello.alarmed, "latched alarm survives the disconnect");
        }
        // And healthy readings after reconnect still cannot release it.
        for (i, client) in chaos_clients.iter_mut().enumerate() {
            client.send_readings(DROOP_CHIP, 1000 + i as u64, &[0.99]).expect("post-latch send");
        }
        for &tenant in &CHAOS_TENANTS {
            let key = SessionKey { tenant, chip: DROOP_CHIP };
            assert_eq!(server.session_alarmed(key), Some(true), "latch must hold");
        }

        // --- property (b): the control tenant, sharing the server with
        // all that chaos, sees decisions bit-identical to an offline
        // monitor fed the same readings — zero cross-tenant bleed.
        let mut control = FleetClient::new(
            server.addr(),
            CONTROL_TENANT,
            RetryPolicy::default(),
            ChaosConfig::quiet(seed),
        );
        let hello = control.hello(0).expect("control handshake");
        assert!(!hello.alarmed, "fresh control session starts clean");
        let mut mirror = identity_monitor();
        let mut control_rng = GaussianRng::seed_from_u64(seed ^ 0xC0117501);
        for seq in 0..30u64 {
            let v = 0.78 + 0.3 * control_rng.uniform();
            control.send_readings(0, seq, &[v]).expect("control send");
            let got = control
                .wait_for(Duration::from_secs(10), |f| {
                    matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
                })
                .expect("control decision arrives");
            let want = mirror.observe(&[v]).expect("offline mirror");
            match got {
                Frame::Decision { flags, predicted_min, .. } => {
                    assert_eq!(
                        predicted_min.to_bits(),
                        want.predicted_min.to_bits(),
                        "control prediction must be bit-identical to offline (seq {seq})"
                    );
                    assert_eq!(flags & decision_flags::ALARM != 0, want.alarm);
                    assert_eq!(flags & decision_flags::RISING != 0, want.rising_edge);
                }
                _ => unreachable!(),
            }
        }

        // --- property (a): nothing crashed. Every session is live (none
        // quarantined), the server still answers, and the only alarms in
        // the fleet are the droop chips we droop'ed. Stop first (joining
        // readers and dispatcher) so frames still in flight cannot move
        // the counters between the reads below.
        server.stop();
        let stats = server.stats();
        assert_eq!(stats.quarantined, 0, "chaos must never panic a session: {stats:?}");
        assert_eq!(
            stats.sessions,
            CHAOS_TENANTS.len() as u64 * CHIPS_PER_TENANT + 1,
            "all sessions alive: {stats:?}"
        );
        // The adversary must actually have fired (the properties above
        // are vacuous against a quiet transport). Which classes fire is
        // seed-dependent; corruption specifically shows up server-side
        // as decode errors when it does.
        let injected: u64 = chaos_clients
            .iter()
            .map(|c| {
                let s = c.chaos_stats();
                s.disconnects + s.corruptions + s.truncations + s.duplicates + s.reorders + s.stalls
            })
            .sum();
        assert!(injected > 0, "chaos schedule injected nothing (seed {seed})");
        let corruptions: u64 = chaos_clients.iter().map(|c| c.chaos_stats().corruptions).sum();
        if corruptions >= 5 {
            assert!(stats.decode_errors > 0, "corrupt frames must surface as typed decode errors");
        }
        for &tenant in &CHAOS_TENANTS {
            for chip in 1..CHIPS_PER_TENANT {
                assert_eq!(
                    server.session_alarmed(SessionKey { tenant, chip }),
                    Some(false),
                    "healthy chip {chip} of tenant {tenant} must not alarm"
                );
            }
        }
        assert_eq!(
            server.session_alarmed(SessionKey { tenant: CONTROL_TENANT, chip: DROOP_CHIP }),
            Some(mirror.is_alarmed()),
            "control session state matches its offline mirror"
        );
    });
}
