//! Zero-allocation gate for the fleet's per-reading hot path.
//!
//! One steady-state reading travels decode → queue → predict → decide →
//! encode: the decoder parses a wire frame into a recycled values buffer,
//! the session queues it, `drain_into` runs the monitor and appends the
//! decision to a caller-reused output vector, the decision is encoded
//! into a reused wire buffer, and the spent buffer is recycled back into
//! the decoder. With every buffer warm, that loop
//! must allocate nothing — this gate pins it end to end, so a
//! regression anywhere along the path (a fresh `Vec` per frame, a
//! `String` per decision, a non-`_into` predict) fails with a
//! per-iteration allocation count.
//!
//! Acknowledging a due checkpoint is gated the same way: a server without
//! a checkpoint directory takes the checkpoint on every alarm edge, and
//! that must not build the document it will never write.

voltsense_telemetry::install_counting_allocator!();

use voltsense_core::{EmergencyMonitor, VoltageMapModel};
use voltsense_fleet::frame::{Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use voltsense_fleet::session::{ChipMonitor, Drained, LadderConfig, Offer, Session, SessionKey};
use voltsense_fleet::BatchPlane;
use voltsense_linalg::Matrix;
use voltsense_parallel::with_threads;
use voltsense_telemetry::alloc_gate;

/// Identity monitor: one sensor, one critical node, prediction == the
/// reading (same construction as the server-behavior tests).
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
fn per_reading_path_is_alloc_free() {
    with_threads(1, || {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut session = Session::new(
            SessionKey { tenant: 1, chip: 7 },
            Box::new(identity_monitor()) as Box<dyn ChipMonitor>,
            LadderConfig::default(),
        );
        // A healthy reading (1.0 V > 0.8 V threshold): no alarm edge, so
        // the loop stays on the pure decision path — incident capture and
        // checkpoint serialization are cold paths and allocate freely.
        let wire = Frame::Readings { chip: 7, seq: 0, trace: None, values: vec![1.0] }.encode();
        let mut out: Vec<Drained> = Vec::with_capacity(4);
        let mut response: Vec<u8> = Vec::with_capacity(64);
        alloc_gate!("fleet.per_reading", 64, || {
            decoder.push(&wire);
            let frame = decoder.next().expect("decode").expect("one frame");
            let Frame::Readings { seq, values, .. } = frame else {
                panic!("expected readings frame");
            };
            match session.offer(seq, values, None) {
                Offer::Queued => {}
                other => panic!("expected Queued, got {other:?}"),
            }
            session.drain_into(&mut out, 8, usize::MAX);
            assert!(matches!(out[0].frame, Frame::Decision { .. }));
            response.clear();
            out[0].frame.encode_into(&mut response);
            assert_eq!(response.len(), 8 + 26, "one decision frame");
            out.clear();
            // Close the recycling loop: the session's spent values buffer
            // becomes the decoder's next decode target.
            let spare = session.take_spare().expect("drained buffer recycled");
            decoder.recycle(spare);
        });
    });
}

#[test]
fn batched_gather_gemm_scatter_is_alloc_free() {
    with_threads(1, || {
        let session = |chip: u64| {
            Session::new(
                SessionKey { tenant: 2, chip },
                Box::new(identity_monitor()) as Box<dyn ChipMonitor>,
                LadderConfig::default(),
            )
        };
        let (mut s0, mut s1, mut s2) = (session(0), session(1), session(2));
        let mut plane = BatchPlane::new(2);
        // Warm passes populate every lazy piece the steady state reuses:
        // the model's fingerprint, the plane's model group (its model
        // handle and staged/output scratch), each session's verified
        // group index, the work-item and response vectors, and each
        // session's spare buffer.
        for _ in 0..2 {
            for s in [&mut s0, &mut s1, &mut s2] {
                match s.offer(0, vec![1.0], None) {
                    Offer::Queued => {}
                    other => panic!("expected Queued, got {other:?}"),
                }
            }
            plane.drain(&mut [&mut s0, &mut s1, &mut s2], 8, usize::MAX);
            assert_eq!(plane.drained().len(), 3, "three GEMM-batched decisions");
            // Leave the spent buffers in each session's spare pool; the
            // steady-state loop below lives off them.
        }
        // Steady state: each pass gathers one reading per session into the
        // shared-model group, runs the one blocked GEMM, and scatters the
        // rows back — with every buffer recycled, not one allocation.
        alloc_gate!("fleet.batched_drain", 64, || {
            for s in [&mut s0, &mut s1, &mut s2] {
                let mut values = s.take_spare().expect("spare from previous pass");
                values.clear();
                values.push(1.0);
                match s.offer(0, values, None) {
                    Offer::Queued => {}
                    other => panic!("expected Queued, got {other:?}"),
                }
            }
            plane.drain(&mut [&mut s0, &mut s1, &mut s2], 8, usize::MAX);
            assert_eq!(plane.drained().len(), 3, "three GEMM-batched decisions");
            assert!(plane
                .drained()
                .iter()
                .all(|d| matches!(d.drained.frame, Frame::Decision { .. })));
        });
    });
}

#[test]
fn checkpoint_ack_is_alloc_free() {
    with_threads(1, || {
        // Naive monitor, persistence 1, no release margin: readings that
        // alternate across 0.85 V assert and release on every sample, so
        // every drain ends on an alarm edge and makes a checkpoint due.
        let model = VoltageMapModel::from_parts(
            vec![0],
            1,
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            vec![0.0],
            0.001,
        )
        .unwrap();
        let monitor = EmergencyMonitor::new(model, 0.85, 1, 0.0).unwrap();
        let mut session = Session::new(
            SessionKey { tenant: 3, chip: 9 },
            Box::new(monitor) as Box<dyn ChipMonitor>,
            LadderConfig::default(),
        );
        let mut out: Vec<Drained> = Vec::with_capacity(4);
        let mut values = Some(vec![0.0]);
        let mut reading = 0.80;
        alloc_gate!("fleet.checkpoint_ack", 64, || {
            let mut batch = values.take().expect("spare from previous drain");
            batch.clear();
            batch.push(reading);
            reading = if reading < 0.85 { 0.90 } else { 0.80 };
            match session.offer(0, batch, None) {
                Offer::Queued => {}
                other => panic!("expected Queued, got {other:?}"),
            }
            session.drain_into(&mut out, 8, usize::MAX);
            assert!(matches!(out[0].frame, Frame::Decision { .. }));
            out.clear();
            assert!(session.checkpoint_due(), "every reading is an alarm edge");
            let _ = session.take_checkpoint();
            values = session.take_spare();
        });
    });
}
