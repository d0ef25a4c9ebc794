//! Bit-identity of the batched GEMM prediction plane.
//!
//! The whole point of [`BatchPlane`] is that it is an *optimization*, not
//! a semantic change: for any mix of sessions, models, readings (healthy,
//! NaN-bearing, wrong-length), budgets, occupancy floors, and thread
//! counts, draining through the plane must produce byte-for-byte the same
//! response frames, counters, ladder states, latched alarms, checkpoint
//! schedule, and checkpoint JSON as draining each session sequentially.
//!
//! The suite runs two identical fleets side by side — one drained by the
//! plane, one by `Session::drain_into` — and compares everything after
//! every pass. The shape mix deliberately includes sessions sharing a
//! multi-target model (these actually hit the GEMM), sessions sharing the
//! 1×1 identity model, a session with a unique model (singleton group),
//! and a session whose monitor opts out of batching entirely.

use voltsense_core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense_fleet::session::{ChipMonitor, Drained, LadderConfig, Session, SessionKey};
use voltsense_fleet::BatchPlane;
use voltsense_linalg::Matrix;
use voltsense_parallel::with_threads;
use voltsense_testkit::{choice, forall, u64_range, usize_range};

/// Deterministic xorshift64 so both fleets (and every case replay) see
/// exactly the same models and readings for a given seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.0 = s;
        s
    }

    fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    /// True with probability `num/den`.
    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// A random K-target, Q-sensor model whose coefficient rows sum to ~1, so
/// predictions from readings around 1.0 V straddle the 0.8 V threshold and
/// both alarm edges get exercised.
fn random_model(k: usize, q: usize, rng: &mut Rng) -> VoltageMapModel {
    let scale = 1.0 / q as f64;
    let rows: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..q).map(|_| rng.next_f64(0.5 * scale, 1.5 * scale)).collect())
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let intercept = (0..k).map(|_| rng.next_f64(-0.05, 0.05)).collect();
    VoltageMapModel::from_parts(
        (0..q).collect(),
        q,
        Matrix::from_rows(&refs).unwrap(),
        intercept,
        0.001,
    )
    .unwrap()
}

/// Wraps an `EmergencyMonitor` but keeps the trait's default
/// `batch_model() == None`: a monitor that opted out of GEMM batching.
/// The plane must route all its readings sequentially.
struct SequentialOnly(EmergencyMonitor);

impl ChipMonitor for SequentialOnly {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        self.0.observe(readings)
    }

    fn is_alarmed(&self) -> bool {
        self.0.is_alarmed()
    }

    fn checkpoint_json(&self, key: SessionKey) -> Option<String> {
        Some(voltsense_fleet::checkpoint::to_json(key, &self.0))
    }
}

/// Sensor counts per slot; slot i's readings are `SLOT_Q[i]` values long.
const SLOT_Q: [usize; 7] = [2, 2, 2, 1, 1, 3, 2];

/// One fleet: three sessions sharing a K=3/Q=2 model (the GEMM group),
/// two sharing the 1×1 identity model, one with a unique K=2/Q=3 model,
/// and one opted out of batching (same shared model, never grouped).
fn build_fleet(seed: u64, persistence: usize, capacity: usize) -> Vec<Session> {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let shared = random_model(3, 2, &mut rng);
    let identity = VoltageMapModel::from_parts(
        vec![0],
        1,
        Matrix::from_rows(&[&[1.0]]).unwrap(),
        vec![0.0],
        0.001,
    )
    .unwrap();
    let unique = random_model(2, 3, &mut rng);
    let ladder = LadderConfig { queue_capacity: capacity, shed_streak_threshold: 4, busy_retry_ms: 50 };
    let em = |model: &VoltageMapModel| {
        EmergencyMonitor::new(model.clone(), 0.8, persistence, 10.0).unwrap()
    };
    let monitors: Vec<Box<dyn ChipMonitor>> = vec![
        Box::new(em(&shared)),
        Box::new(em(&shared)),
        Box::new(em(&shared)),
        Box::new(em(&identity)),
        Box::new(em(&identity)),
        Box::new(em(&unique)),
        Box::new(SequentialOnly(em(&shared))),
    ];
    monitors
        .into_iter()
        .enumerate()
        .map(|(i, monitor)| {
            Session::new(SessionKey { tenant: i as u64, chip: i as u64 }, monitor, ladder)
        })
        .collect()
}

/// Readings for one round: per slot, a burst of batches. Most are healthy
/// voltages around the threshold; some carry a NaN (faulted sensor) and
/// some are the wrong length — both must fail identically on both paths.
fn gen_round(rng: &mut Rng, next_seq: &mut u64, max_burst: usize) -> Vec<Vec<(u64, Vec<f64>)>> {
    SLOT_Q
        .iter()
        .map(|&q| {
            let burst = (rng.next_u64() as usize) % (max_burst + 1);
            (0..burst)
                .map(|_| {
                    let len = if rng.chance(1, 16) { q + 1 } else { q };
                    let mut values: Vec<f64> =
                        (0..len).map(|_| rng.next_f64(0.6, 1.2)).collect();
                    if rng.chance(1, 8) {
                        let at = (rng.next_u64() as usize) % values.len();
                        values[at] = f64::NAN;
                    }
                    *next_seq += 1;
                    (*next_seq, values)
                })
                .collect()
        })
        .collect()
}

/// The identity property itself: batched and sequential drains of
/// identical fleets fed identical offers agree byte-for-byte, across
/// occupancy floors × budgets × thread counts × persistence settings.
#[test]
fn batched_drain_is_bit_identical_to_sequential() {
    forall!(cases = 24, (
        seed in u64_range(1, u64::MAX - 1),
        threads in choice(vec![1_usize, 2, 4, 8]),
        min_batch in choice(vec![1_usize, 2, 4, 8, usize::MAX]),
        budget in usize_range(1, 9),
        interval in usize_range(1, 6),
        persistence in usize_range(1, 4),
        rounds in usize_range(2, 6),
        max_burst in usize_range(1, 12)
    ) => {
        with_threads(threads, || {
            let capacity = 6;
            let mut batched = build_fleet(seed, persistence, capacity);
            let mut sequential = build_fleet(seed, persistence, capacity);
            let mut plane = BatchPlane::new(min_batch);
            let mut rng = Rng::new(seed);
            let mut next_seq = 0_u64;
            let mut seq_out: Vec<Drained> = Vec::new();
            for round in 0..rounds {
                // Identical offers into both fleets; the ladder must
                // answer identically at offer time too.
                for (slot, offers) in gen_round(&mut rng, &mut next_seq, max_burst)
                    .into_iter()
                    .enumerate()
                {
                    for (seq, values) in offers {
                        let a = batched[slot].offer(seq, values.clone(), None);
                        let b = sequential[slot].offer(seq, values, None);
                        assert_eq!(a, b, "round {round} slot {slot} offer diverged");
                    }
                }

                let mut refs: Vec<&mut Session> = batched.iter_mut().collect();
                plane.drain(&mut refs, budget, interval);
                assert!(plane.panics().is_empty(), "no monitor here panics");
                let mut plane_frames: Vec<Vec<Vec<u8>>> = vec![Vec::new(); SLOT_Q.len()];
                for d in plane.drained() {
                    plane_frames[d.slot].push(d.drained.frame.encode());
                }

                for (slot, session) in sequential.iter_mut().enumerate() {
                    seq_out.clear();
                    session.drain_into(&mut seq_out, budget, interval);
                    let frames: Vec<Vec<u8>> =
                        seq_out.iter().map(|d| d.frame.encode()).collect();
                    assert_eq!(
                        plane_frames[slot], frames,
                        "round {round} slot {slot} response frames diverged"
                    );
                }

                for (slot, (a, b)) in
                    batched.iter_mut().zip(sequential.iter_mut()).enumerate()
                {
                    assert_eq!(a.counters(), b.counters(), "slot {slot} counters");
                    assert_eq!(a.is_alarmed(), b.is_alarmed(), "slot {slot} alarm latch");
                    assert_eq!(a.state(), b.state(), "slot {slot} ladder state");
                    assert_eq!(
                        a.checkpoint_due(),
                        b.checkpoint_due(),
                        "slot {slot} checkpoint schedule"
                    );
                    if a.checkpoint_due() {
                        assert_eq!(
                            a.take_checkpoint().json(),
                            b.take_checkpoint().json(),
                            "slot {slot} checkpoint JSON"
                        );
                    }
                }
            }
        });
    });
}

/// The GEMM-row identity beneath the plane: every row of
/// `predict_batch_into` carries exactly the bits `predict_into` produces
/// for that reading, across shapes and thread counts (DESIGN.md §8.4).
#[test]
fn gemm_rows_bit_equal_single_predictions() {
    forall!(cases = 32, (
        seed in u64_range(1, u64::MAX - 1),
        k in usize_range(1, 13),
        q in usize_range(1, 13),
        b in usize_range(1, 40),
        threads in choice(vec![1_usize, 2, 4, 8])
    ) => {
        with_threads(threads, || {
            let mut rng = Rng::new(seed);
            let model = random_model(k, q, &mut rng);
            let mut readings = Matrix::zeros(b, q);
            for v in readings.as_mut_slice() {
                *v = rng.next_f64(0.4, 1.4);
            }
            let mut out = Matrix::zeros(b, k);
            model.predict_batch_into(&readings, &mut out).unwrap();
            let mut single = vec![0.0; k];
            for row in 0..b {
                model.predict_into(readings.row(row), &mut single).unwrap();
                for (t, (x, y)) in single.iter().zip(out.row(row)).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "row {row} target {t}: batched {y} != single {x}"
                    );
                }
            }
        });
    });
}
