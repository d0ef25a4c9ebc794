//! The serving path: one tenant with 64 chips, each session monitoring the
//! fitted paper model.
//!
//! The end-to-end run drives the fleet's layers in one thread
//! ([`Pipeline`]): frame encode and decode, `Session::offer`, the shard's
//! `BatchPlane` drain and the checkpoint policy, in the order the server
//! runs them, without sockets or thread hand-offs.
//!
//! The per-layer run starts an in-process `FleetServer` on loopback, with
//! one connection and a two-thread client, in two phases. The open loop
//! sends at a fixed rate regardless of replies and times every reading
//! from the moment it was due, so a stall is charged to every reading
//! queued behind it. The closed loop keeps at most one reading in flight
//! per session and counts decisions per second. Both phases span whole
//! checkpoint cycles (the server checkpoints a session every
//! `checkpoint_interval` decisions), so every run meets the same number of
//! checkpoints. Every decision of either run is checked against an
//! in-process `EmergencyMonitor` mirror fed the same readings.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltsense::core::{EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense::fleet::frame::{decision_flags, DEFAULT_MAX_FRAME};
use voltsense::fleet::session::Offer;
use voltsense::fleet::{
    BatchPlane, ChipMonitor, FleetConfig, FleetServer, FleetStats, Frame, FrameDecoder,
    LadderConfig, Session, SessionFactory, SessionKey,
};
use voltsense::linalg::Matrix;
use voltsense::telemetry::{self, trace, MemoryRecorder};

use crate::stats::{self, Budget, Stage};

/// Sessions (chips) the tenant opens.
pub const CHIPS: u64 = 64;
/// The tenant every session belongs to.
pub const TENANT: u64 = 1;
/// Emergency threshold of every session's monitor (V).
pub const THRESHOLD: f64 = 0.85;
/// Consecutive low predictions before an alarm asserts.
pub const PERSISTENCE: usize = 2;
/// Release hysteresis above the threshold (V).
pub const RELEASE_MARGIN: f64 = 0.01;
/// Open-loop rate, readings per second.
pub const OPEN_RATE: f64 = 4000.0;
/// Closed-loop decisions per second the phase is sized for; the phase
/// sends a fixed number of readings, so a slower host only runs longer.
const CLOSED_RATE: f64 = 16000.0;

/// What every session monitors and the readings the chips replay.
pub struct ServeInputs {
    /// The model each session's monitor wraps.
    pub model: VoltageMapModel,
    /// One readings vector per held-out map, in the model's sensor order.
    pub maps: Vec<Vec<f64>>,
}

impl ServeInputs {
    /// Builds the inputs in this process: simulates the paper dataset
    /// and runs the design path's fit (2 sensors per core, Eq. 17
    /// refit). Readings are the held-out maps at the model's sensors.
    pub fn generate(seed: u64) -> Result<ServeInputs, String> {
        let scene = crate::inputs::Scene::paper(seed)?;
        let data = scene.collect()?;
        let (train, test) = data.split(3);
        drop(data);
        let partition = voltsense::scenario::CorePartition::from_chip(&scene.chip);
        let model = voltsense::scenario::PerCoreModel::fit_with_sensor_count(
            &train,
            &partition,
            crate::design::SENSORS_PER_CORE,
            &voltsense::core::MethodologyConfig::default(),
        )
        .map_err(|e| e.to_string())?
        .global_model()
        .clone();
        let maps = (0..test.num_samples())
            .map(|s| {
                model
                    .sensor_indices()
                    .iter()
                    .map(|&r| test.x[(r, s)])
                    .collect()
            })
            .collect();
        Ok(ServeInputs { model, maps })
    }

    /// Builds the inputs in a child process of this binary at pool width
    /// 2, so the design path's memory and threads never enter the serving
    /// process. Waits for the child to end.
    pub fn in_child(seed: u64) -> Result<ServeInputs, String> {
        let exe = std::env::current_exe().map_err(io_err)?;
        let out = Command::new(exe)
            .args(["--emit-inputs", "--seed", &seed.to_string()])
            .env("VOLTSENSE_THREADS", "2")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(io_err)?;
        if !out.status.success() {
            return Err(format!("input generation failed: {}", out.status));
        }
        ServeInputs::from_bytes(&out.stdout)
    }

    /// Little-endian encoding: `q, k, candidates, maps` as u64, then the
    /// sensor indices, coefficients (row-major `K x Q`), intercept, RMS
    /// residual and the readings.
    pub fn to_bytes(&self) -> Vec<u8> {
        let fit = self.model.linear_fit();
        let (q, k) = (self.model.num_sensors(), self.model.num_targets());
        let header = [q, k, self.model.num_candidates(), self.maps.len()];
        let mut out = Vec::new();
        for v in header.iter().chain(self.model.sensor_indices()) {
            out.extend_from_slice(&(*v as u64).to_le_bytes());
        }
        let floats = fit
            .coefficients
            .as_slice()
            .iter()
            .chain(&fit.intercept)
            .chain(std::iter::once(&fit.rms_residual))
            .chain(self.maps.iter().flatten());
        for v in floats {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`ServeInputs::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ServeInputs, String> {
        let mut words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")));
        let mut count = || -> Result<usize, String> {
            let word = words.next().ok_or("truncated inputs")?;
            usize::try_from(word).map_err(|e| e.to_string())
        };
        let (q, k, candidates, n) = (count()?, count()?, count()?, count()?);
        let expected = (4 + q + k * q + k + 1 + n * q) * 8;
        if bytes.len() != expected {
            return Err(format!(
                "inputs are {} bytes, expected {expected}",
                bytes.len()
            ));
        }
        let sensors: Vec<usize> = (0..q).map(|_| count()).collect::<Result<_, _>>()?;
        let mut floats = words.map(f64::from_bits);
        let mut take = |len: usize| floats.by_ref().take(len).collect::<Vec<f64>>();
        let coeffs = Matrix::from_vec(k, q, take(k * q)).map_err(|e| e.to_string())?;
        let intercept = take(k);
        let rms = take(1)[0];
        let model = VoltageMapModel::from_parts(sensors, candidates, coeffs, intercept, rms)
            .map_err(|e| e.to_string())?;
        let maps = (0..n).map(|_| take(q)).collect();
        Ok(ServeInputs { model, maps })
    }

    /// The readings chip `chip` sends with sequence number `seq`: each
    /// chip replays the held-out maps from its own offset.
    pub fn reading(&self, chip: u64, seq: u64) -> &[f64] {
        let n = self.maps.len() as u64;
        let start = chip * n / CHIPS;
        &self.maps[((start + seq) % n) as usize]
    }

    /// A fresh monitor as every session gets it.
    pub fn monitor(&self) -> EmergencyMonitor {
        EmergencyMonitor::new(self.model.clone(), THRESHOLD, PERSISTENCE, RELEASE_MARGIN)
            .expect("monitor constants are valid")
    }
}

/// One decision as the client received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Chip it answers.
    pub chip: u64,
    /// Sequence number of the readings.
    pub seq: u64,
    /// `decision_flags` bits.
    pub flags: u8,
    /// Bits of `predicted_min`.
    pub predicted_min: u64,
}

/// The wire flags a monitor decision maps to (no load was shed).
pub fn expected_flags(d: &MonitorDecision) -> u8 {
    let mut flags = 0;
    if d.alarm {
        flags |= decision_flags::ALARM;
    }
    if d.rising_edge {
        flags |= decision_flags::RISING;
    }
    flags
}

/// Replays every chip's readings through a fresh in-process monitor and
/// compares each received decision with the mirror's, bit for bit.
/// `sent[chip]` is how many readings the chip sent (seq `0..sent`).
/// Returns `(mismatched, missing)`.
pub fn mirror_check(inputs: &ServeInputs, sent: &[u64], received: &[Decision]) -> (u64, u64) {
    let mut by_key: HashMap<(u64, u64), Decision> = HashMap::with_capacity(received.len());
    let mut mismatched = 0;
    for d in received {
        if by_key.insert((d.chip, d.seq), *d).is_some() {
            mismatched += 1; // answered twice
        }
    }
    let mut missing = 0;
    for (chip, &count) in sent.iter().enumerate() {
        let chip = chip as u64;
        let mut mirror = inputs.monitor();
        for seq in 0..count {
            let want = mirror
                .observe(inputs.reading(chip, seq))
                .expect("held-out readings are finite and of the model's arity");
            match by_key.get(&(chip, seq)) {
                None => missing += 1,
                Some(got) => {
                    if got.flags != expected_flags(&want)
                        || got.predicted_min != want.predicted_min.to_bits()
                    {
                        mismatched += 1;
                    }
                }
            }
        }
    }
    (mismatched, missing)
}

/// Asks the kernel to end this thread's sleeps on time: timer slack
/// 1 ns instead of the default 50 µs, which a bare sleep overshoots by.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and no
    // pointers; it changes only the calling thread's timer slack, and a
    // failure leaves the thread as it was (the sender then spins longer).
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_u64) };
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Sleeps until shortly before `due`, then spins the remainder, so the
/// sender is on time without spinning whole intervals on a core the
/// server needs.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(20);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

/// A started server with the tenant's 64 sessions open on one connection.
pub struct Fleet {
    /// The server.
    pub server: FleetServer,
    stream: TcpStream,
}

/// Server configuration of every serve run: the defaults, keeping every
/// sampled trace of a run rather than the newest 16.
fn config() -> FleetConfig {
    let mut cfg = FleetConfig::default();
    cfg.trace.sampled_capacity = 1 << 16;
    cfg
}

/// Starts a server and opens every session: the set-up the serve
/// workloads time.
pub fn start(inputs: &Arc<ServeInputs>) -> Result<Fleet, String> {
    let source = inputs.clone();
    let factory: SessionFactory =
        Arc::new(move |_key| Ok(Box::new(source.monitor()) as Box<dyn ChipMonitor>));
    let server = FleetServer::start(config(), factory).map_err(io_err)?;
    let mut stream = TcpStream::connect(server.addr()).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    let mut hello = Vec::new();
    for chip in 0..CHIPS {
        hello.extend_from_slice(
            &Frame::Hello {
                tenant: TENANT,
                chip,
            }
            .encode(),
        );
    }
    stream.write_all(&hello).map_err(io_err)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io_err)?;
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut acked = 0;
    let mut buf = [0u8; 4096];
    while acked < CHIPS {
        let n = stream.read(&mut buf).map_err(io_err)?;
        if n == 0 {
            return Err("server closed the connection during hello".into());
        }
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next().map_err(|e| e.to_string())? {
            match frame {
                Frame::HelloAck { .. } => acked += 1,
                other => return Err(format!("unexpected frame during hello: {other:?}")),
            }
        }
    }
    Ok(Fleet { server, stream })
}

/// Starts a fleet whose server threads report into `recorder`.
pub fn start_recorded(
    inputs: &Arc<ServeInputs>,
    recorder: Arc<MemoryRecorder>,
) -> Result<Fleet, String> {
    telemetry::with_scoped(recorder, || start(inputs))
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Decisions received.
    pub decisions: Vec<Decision>,
    /// Per-reading latency from its due time, ms (open loop only).
    pub latency_ms: Vec<f64>,
    /// Per-reading round trip from its actual send, µs (open loop only).
    pub rtt_us: Vec<f64>,
    /// How late the generator sent each reading, ms (open loop only).
    pub late_ms: Vec<f64>,
    /// `Busy` answers.
    pub busy: u64,
    /// `Error` answers.
    pub errors: u64,
    /// First send to last decision, s.
    pub elapsed_s: f64,
}

fn readings_frame(inputs: &ServeInputs, chip: u64, seq: u64) -> Vec<u8> {
    Frame::Readings {
        chip,
        seq,
        trace: Some(trace::trace_id(TENANT, chip, seq)),
        values: inputs.reading(chip, seq).to_vec(),
    }
    .encode()
}

/// Answers the client's receive loop counted.
#[derive(Debug, Default)]
struct Answers {
    total: u64,
    busy: u64,
    errors: u64,
}

/// The client's receive loop: decodes answers until `expected` arrived
/// or `deadline` passed.
fn receive(
    stream: &mut TcpStream,
    expected: u64,
    deadline: Instant,
    mut on_decision: impl FnMut(Decision, Instant),
) -> Result<Answers, String> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(io_err)?;
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut buf = [0u8; 16 * 1024];
    let mut answers = Answers::default();
    while answers.total < expected && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let at = Instant::now();
                decoder.push(&buf[..n]);
                while let Some(frame) = decoder.next().map_err(|e| e.to_string())? {
                    answers.total += 1;
                    match frame {
                        Frame::Decision {
                            chip,
                            seq,
                            flags,
                            predicted_min,
                        } => on_decision(
                            Decision {
                                chip,
                                seq,
                                flags,
                                predicted_min: predicted_min.to_bits(),
                            },
                            at,
                        ),
                        Frame::Busy { .. } => answers.busy += 1,
                        _ => answers.errors += 1,
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(answers)
}

/// Grace period for answers after the last send.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

impl Fleet {
    /// Open loop: `per_chip` readings for every chip at `rate` readings
    /// per second, round-robin over the chips, each timed from its due
    /// time. Sequence numbers start at `seq0`.
    fn open_loop(
        &mut self,
        inputs: &ServeInputs,
        seq0: u64,
        per_chip: u64,
        rate: f64,
    ) -> Result<PhaseOut, String> {
        let n = per_chip * CHIPS;
        let interval = 1.0 / rate;
        let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let mut rx_stream = self.stream.try_clone().map_err(io_err)?;
        let tx_stream = &mut self.stream;
        let start = Instant::now() + Duration::from_millis(5);
        let due = |i: u64| start + Duration::from_secs_f64(i as f64 * interval);
        let deadline = due(n) + DRAIN_GRACE;

        let (late, received) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| -> Result<Vec<f64>, String> {
                tight_timer_slack();
                let mut late = Vec::with_capacity(n as usize);
                for i in 0..n {
                    let frame = readings_frame(inputs, i % CHIPS, seq0 + i / CHIPS);
                    let due_at = due(i);
                    wait_until(due_at);
                    let now = Instant::now();
                    late.push((now - due_at).as_secs_f64() * 1e3);
                    sent_ns[i as usize].store((now - start).as_nanos() as u64, Ordering::Release);
                    tx_stream.write_all(&frame).map_err(io_err)?;
                }
                Ok(late)
            });
            let mut out = PhaseOut::default();
            let answers = receive(&mut rx_stream, n, deadline, |d, at| {
                let i = d
                    .seq
                    .wrapping_sub(seq0)
                    .wrapping_mul(CHIPS)
                    .wrapping_add(d.chip);
                if d.chip >= CHIPS || i >= n {
                    return; // not a reading of this phase; the mirror flags it
                }
                let since_start = (at - start).as_nanos() as f64;
                out.latency_ms
                    .push((since_start - i as f64 * interval * 1e9) / 1e6);
                let sent = sent_ns[i as usize].load(Ordering::Acquire) as f64;
                out.rtt_us.push((since_start - sent) / 1e3);
                out.decisions.push(d);
            });
            let late = sender.join().expect("sender thread panicked");
            (late, answers.map(|a| (a, out)))
        });
        let (answers, mut out) = received?;
        out.late_ms = late?;
        out.elapsed_s = (Instant::now() - start).as_secs_f64();
        out.busy = answers.busy;
        out.errors = answers.errors;
        Ok(out)
    }

    /// Closed loop: every chip keeps one reading in flight and sends its
    /// next as soon as the previous decision lands, until each chip sent
    /// `per_chip` readings. Sequence numbers start at `seq0`.
    fn closed_loop(
        &mut self,
        inputs: &ServeInputs,
        seq0: u64,
        per_chip: u64,
        deadline: Duration,
    ) -> Result<PhaseOut, String> {
        let mut rx_stream = self.stream.try_clone().map_err(io_err)?;
        let tx_stream = &mut self.stream;
        let (free_tx, free_rx) = mpsc::channel::<u64>();
        let start = Instant::now();
        let deadline = start + deadline;

        let (sent, received) = std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> Result<(), String> {
                let mut next = vec![seq0; CHIPS as usize];
                let mut send = |chip: u64| -> Result<(), String> {
                    let seq = &mut next[chip as usize];
                    if *seq < seq0 + per_chip {
                        tx_stream
                            .write_all(&readings_frame(inputs, chip, *seq))
                            .map_err(io_err)?;
                        *seq += 1;
                    }
                    Ok(())
                };
                for chip in 0..CHIPS {
                    send(chip)?;
                }
                // Ends when the receiver hangs up.
                while let Ok(chip) = free_rx.recv() {
                    send(chip)?;
                }
                Ok(())
            });
            let mut out = PhaseOut::default();
            let mut last = start;
            let answers = receive(&mut rx_stream, per_chip * CHIPS, deadline, |d, at| {
                let _ = free_tx.send(d.chip);
                last = at;
                out.decisions.push(d);
            });
            drop(free_tx);
            out.elapsed_s = (last - start).as_secs_f64();
            (
                sender.join().expect("sender thread panicked"),
                answers.map(|a| (a, out)),
            )
        });
        sent?;
        let (answers, mut out) = received?;
        out.busy = answers.busy;
        out.errors = answers.errors;
        Ok(out)
    }
}

/// Everything one serve measurement produced.
pub struct ServeRun {
    /// The open-loop phase.
    pub open: PhaseOut,
    /// The closed-loop phase.
    pub closed: PhaseOut,
    /// Readings sent per chip over both phases.
    pub sent: Vec<u64>,
    /// Server counters after the run.
    pub stats: FleetStats,
    /// The server's sampled per-reading traces of the open-loop phase.
    pub traces: Vec<trace::TraceRecord>,
}

impl ServeRun {
    /// Decisions per second in the closed loop.
    pub fn throughput(&self) -> f64 {
        self.closed.decisions.len() as f64 / self.closed.elapsed_s.max(1e-9)
    }

    /// Readings sent over both phases.
    pub fn attempted(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Decisions the mirror disagrees with, and readings never answered.
    pub fn check(&self, inputs: &ServeInputs) -> (u64, u64) {
        let all: Vec<Decision> = self
            .open
            .decisions
            .iter()
            .chain(&self.closed.decisions)
            .copied()
            .collect();
        mirror_check(inputs, &self.sent, &all)
    }
}

/// Readings per chip for a phase of about `seconds` at `rate` readings
/// per second: a whole number of checkpoint cycles, at least one.
fn whole_cycles(rate: f64, seconds: f64) -> u64 {
    let cycle = config().checkpoint_interval as u64;
    let cycles = (rate * seconds / (CHIPS * cycle) as f64).round().max(1.0);
    cycles as u64 * cycle
}

/// One measurement on a started fleet: the open loop, then the closed
/// loop, each sized for about half of `seconds`.
pub fn measure(mut fleet: Fleet, inputs: &ServeInputs, seconds: f64) -> Result<ServeRun, String> {
    let open_per_chip = whole_cycles(OPEN_RATE, seconds / 2.0);
    let closed_per_chip = whole_cycles(CLOSED_RATE, seconds / 2.0);
    let open = fleet.open_loop(inputs, 0, open_per_chip, OPEN_RATE)?;
    let closed = fleet.closed_loop(
        inputs,
        open_per_chip,
        closed_per_chip,
        Duration::from_secs_f64(4.0 * seconds) + DRAIN_GRACE,
    )?;
    let traces = fleet
        .server
        .traces()
        .sampled(TENANT)
        .into_iter()
        .filter(|r| r.ctx.seq < open_per_chip)
        .collect();
    let stats = fleet.server.stats();
    fleet.server.stop();
    Ok(ServeRun {
        open,
        closed,
        sent: vec![open_per_chip + closed_per_chip; CHIPS as usize],
        stats,
        traces,
    })
}

/// Rounds in one in-process pass, one reading per chip each: two
/// checkpoint cycles, so every pass meets the same checkpoints.
pub const PASS_ROUNDS: u64 = 512;

/// The serving work on the tenant's readings in one thread, without
/// sockets or thread hand-offs: the client's frame encode and decode, and
/// the server's frame decode, `Session::offer`, the shard's `BatchPlane`
/// drain, response encode and checkpoint policy, in the order
/// `FleetServer` runs them.
pub struct Pipeline {
    sessions: Vec<Session>,
    plane: BatchPlane,
    server_rx: FrameDecoder,
    client_rx: FrameDecoder,
    wire: Vec<u8>,
}

impl Pipeline {
    /// Opens the tenant's sessions, each with its own monitor: the set-up
    /// the in-process workload times.
    pub fn open(inputs: &ServeInputs) -> Pipeline {
        let sessions = (0..CHIPS)
            .map(|chip| {
                let key = SessionKey {
                    tenant: TENANT,
                    chip,
                };
                Session::new(key, Box::new(inputs.monitor()), LadderConfig::default())
            })
            .collect();
        Pipeline {
            sessions,
            plane: BatchPlane::new(config().gemm_min_batch),
            server_rx: FrameDecoder::new(DEFAULT_MAX_FRAME),
            client_rx: FrameDecoder::new(DEFAULT_MAX_FRAME),
            wire: Vec::new(),
        }
    }

    /// Runs [`PASS_ROUNDS`] rounds from sequence 0, appending every
    /// decision to `decisions`, and calls `between` after each round,
    /// outside the timed part. Returns the rounds' summed time (s).
    pub fn pass(
        &mut self,
        inputs: &ServeInputs,
        decisions: &mut Vec<Decision>,
        mut between: impl FnMut() -> Result<(), String>,
    ) -> Result<f64, String> {
        let cfg = config();
        let mut busy = Duration::ZERO;
        for seq in 0..PASS_ROUNDS {
            let t = Instant::now();
            self.wire.clear();
            for chip in 0..CHIPS {
                self.wire
                    .extend_from_slice(&readings_frame(inputs, chip, seq));
            }
            self.server_rx.push(&self.wire);
            while let Some(frame) = self.server_rx.next().map_err(|e| e.to_string())? {
                let Frame::Readings {
                    chip, seq, values, ..
                } = frame
                else {
                    return Err(format!("server decoded {frame:?}"));
                };
                match self.sessions[chip as usize].offer(seq, values, None) {
                    Offer::Queued => {}
                    other => return Err(format!("chip {chip} seq {seq}: {other:?}")),
                }
            }
            {
                let mut queued: Vec<&mut Session> = self
                    .sessions
                    .iter_mut()
                    .filter(|s| s.queued() > 0)
                    .collect();
                self.plane
                    .drain(&mut queued, cfg.drain_budget, cfg.checkpoint_interval);
            }
            if let Some(p) = self.plane.panics().first() {
                return Err(format!("monitor panicked: {}", p.message));
            }
            self.wire.clear();
            for d in self.plane.drained() {
                self.wire.extend_from_slice(&d.drained.frame.encode());
            }
            for session in &mut self.sessions {
                if session.checkpoint_due() {
                    let _ = session.take_checkpoint();
                }
            }
            self.client_rx.push(&self.wire);
            while let Some(frame) = self.client_rx.next().map_err(|e| e.to_string())? {
                let Frame::Decision {
                    chip,
                    seq,
                    flags,
                    predicted_min,
                } = frame
                else {
                    return Err(format!("client decoded {frame:?}"));
                };
                decisions.push(Decision {
                    chip,
                    seq,
                    flags,
                    predicted_min: predicted_min.to_bits(),
                });
            }
            busy += t.elapsed();
            between()?;
        }
        Ok(busy.as_secs_f64())
    }
}

/// Per-call costs of the fleet layers, from an in-process replay of the
/// readings the chips send.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// `Frame::encode` per readings frame, ns.
    pub encode_ns: f64,
    /// `FrameDecoder` push + decode per frame, ns.
    pub decode_ns: f64,
    /// `Session::offer` per reading, ns.
    pub offer_ns: f64,
    /// `Session::drain_into` per reading, ns.
    pub drain_ns: f64,
    /// `EmergencyMonitor::observe`, ns.
    pub observe_ns: f64,
    /// `VoltageMapModel::predict_into`, ns.
    pub predict_ns: f64,
    /// `predict_batch_into` per row at the observed occupancy, ns.
    pub predict_batch_row_ns: f64,
}

/// Median per-item ns of `rounds` timed passes over `items` items.
fn per_item_ns(rounds: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    stats::median(&samples)
}

/// Times each fleet layer on the same readings, one public call at a time.
pub fn replay(inputs: &ServeInputs, occupancy: f64) -> Result<Replay, String> {
    const ROUNDS: usize = 7;
    const N: u64 = 4096;
    const DRAIN: usize = 32;
    let frames: Vec<Frame> = (0..N)
        .map(|i| {
            let (chip, seq) = (i % CHIPS, i / CHIPS);
            Frame::Readings {
                chip,
                seq,
                trace: Some(trace::trace_id(TENANT, chip, seq)),
                values: inputs.reading(chip, seq).to_vec(),
            }
        })
        .collect();
    let mut r = Replay::default();
    let mut bytes = Vec::new();
    r.encode_ns = per_item_ns(ROUNDS, frames.len(), || {
        bytes.clear();
        for f in &frames {
            bytes.extend_from_slice(&std::hint::black_box(f.encode()));
        }
    });
    r.decode_ns = per_item_ns(ROUNDS, frames.len(), || {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        for chunk in bytes.chunks(4096) {
            decoder.push(chunk);
            while let Ok(Some(frame)) = decoder.next() {
                if let Frame::Readings { values, .. } = std::hint::black_box(frame) {
                    decoder.recycle(values);
                }
            }
        }
    });

    // One session, offered and drained in batches under its queue bound.
    let (mut offer, mut drain) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let key = SessionKey {
            tenant: TENANT,
            chip: 0,
        };
        let mut session = Session::new(key, Box::new(inputs.monitor()), LadderConfig::default());
        let mut out = Vec::with_capacity(DRAIN);
        let (mut offer_ns, mut drain_ns) = (0.0, 0.0);
        for first in (0..N).step_by(DRAIN) {
            let batch = first..(first + DRAIN as u64).min(N);
            let t = Instant::now();
            for seq in batch.clone() {
                let values = inputs.reading(0, seq).to_vec();
                std::hint::black_box(session.offer(seq, values, None));
            }
            offer_ns += t.elapsed().as_nanos() as f64;
            out.clear();
            let t = Instant::now();
            session.drain_into(&mut out, DRAIN, config().checkpoint_interval);
            drain_ns += t.elapsed().as_nanos() as f64;
            let offered = (batch.end - batch.start) as usize;
            if out.len() != offered {
                return Err(format!("replay drained {} of {offered}", out.len()));
            }
        }
        offer.push(offer_ns / N as f64);
        drain.push(drain_ns / N as f64);
    }
    r.offer_ns = stats::median(&offer);
    r.drain_ns = stats::median(&drain);

    let readings: Vec<&[f64]> = (0..N)
        .map(|i| inputs.reading(i % CHIPS, i / CHIPS))
        .collect();
    let mut monitor = inputs.monitor();
    r.observe_ns = per_item_ns(ROUNDS, readings.len(), || {
        monitor.reset();
        for v in &readings {
            std::hint::black_box(monitor.observe(v).expect("finite readings"));
        }
    });
    let model = &inputs.model;
    let mut predicted = vec![0.0; model.num_targets()];
    r.predict_ns = per_item_ns(ROUNDS, readings.len(), || {
        for v in &readings {
            model.predict_into(v, &mut predicted).expect("model arity");
            std::hint::black_box(&predicted);
        }
    });
    let b = (occupancy.round() as usize).clamp(1, CHIPS as usize);
    let q = model.num_sensors();
    let batches: Vec<Matrix> = readings
        .chunks_exact(b)
        .map(|rows| Matrix::from_vec(b, q, rows.concat()).expect("b x q readings"))
        .collect();
    let mut out = Matrix::zeros(b, model.num_targets());
    r.predict_batch_row_ns = per_item_ns(ROUNDS, batches.len() * b, || {
        for batch in &batches {
            model
                .predict_batch_into(batch, &mut out)
                .expect("batch shape");
            std::hint::black_box(&out);
        }
    });
    Ok(r)
}

/// Stage medians of the server's sampled traces plus the transport
/// residual against the client's round-trip median (all µs).
pub fn budget(traces: &[trace::TraceRecord], rtt_p50_us: f64) -> Budget {
    let stage = |i: usize| {
        stats::median(
            &traces
                .iter()
                .map(|r| r.stages.as_array()[i] as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    Budget::new(
        rtt_p50_us,
        vec![
            Stage {
                name: "server.decode_us",
                value: stage(0),
            },
            Stage {
                name: "server.shard_wait_us",
                value: stage(1),
            },
            Stage {
                name: "server.predict_us",
                value: stage(2),
            },
            Stage {
                name: "server.decide_us",
                value: stage(3),
            },
            Stage {
                name: "server.respond_us",
                value: stage(4),
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_inputs() -> ServeInputs {
        // Two sensors, three nodes; node 2 follows sensor 3 closely so
        // dips in the replayed readings raise real alarms.
        let coeffs = Matrix::from_rows(&[&[0.5, 0.5], &[0.2, 0.8], &[1.0, 0.0]]).unwrap();
        let model = VoltageMapModel::from_parts(vec![3, 7], 9, coeffs, vec![0.0, 0.01, 0.0], 0.001)
            .unwrap();
        let maps = (0..50)
            .map(|j| vec![0.95 - 0.15 * f64::from(j % 7 == 3 || j % 7 == 4), 0.93])
            .collect();
        ServeInputs { model, maps }
    }

    fn honest_answers(inputs: &ServeInputs, sent: &[u64]) -> Vec<Decision> {
        let mut out = Vec::new();
        for (chip, &count) in sent.iter().enumerate() {
            let mut monitor = inputs.monitor();
            for seq in 0..count {
                let d = monitor.observe(inputs.reading(chip as u64, seq)).unwrap();
                out.push(Decision {
                    chip: chip as u64,
                    seq,
                    flags: expected_flags(&d),
                    predicted_min: d.predicted_min.to_bits(),
                });
            }
        }
        out
    }

    #[test]
    fn mirror_accepts_honest_decisions() {
        let inputs = tiny_inputs();
        let sent = vec![12; CHIPS as usize];
        let answers = honest_answers(&inputs, &sent);
        assert!(
            answers.iter().any(|d| d.flags & decision_flags::ALARM != 0),
            "no alarms replayed"
        );
        assert_eq!(mirror_check(&inputs, &sent, &answers), (0, 0));
    }

    #[test]
    fn in_process_pass_answers_as_the_mirror_every_time() {
        let inputs = tiny_inputs();
        let mut first = Vec::new();
        let mut rounds = 0;
        Pipeline::open(&inputs)
            .pass(&inputs, &mut first, || {
                rounds += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(rounds, PASS_ROUNDS);
        let sent = vec![PASS_ROUNDS; CHIPS as usize];
        assert_eq!(mirror_check(&inputs, &sent, &first), (0, 0));
        assert!(first.iter().any(|d| d.flags & decision_flags::ALARM != 0));
        // Fresh sessions replay the same readings to the same decisions.
        let mut again = Vec::new();
        Pipeline::open(&inputs)
            .pass(&inputs, &mut again, || Ok(()))
            .unwrap();
        assert_eq!(again, first);
    }

    #[test]
    fn mirror_rejects_one_flipped_flag() {
        let inputs = tiny_inputs();
        let sent = vec![12; CHIPS as usize];
        let mut answers = honest_answers(&inputs, &sent);
        answers[100].flags ^= decision_flags::ALARM;
        assert_eq!(mirror_check(&inputs, &sent, &answers), (1, 0));
    }

    #[test]
    fn mirror_rejects_a_degraded_flag_and_counts_missing_answers() {
        let inputs = tiny_inputs();
        let sent = vec![12; CHIPS as usize];
        let mut answers = honest_answers(&inputs, &sent);
        answers[5].flags |= decision_flags::DEGRADED;
        answers.pop();
        assert_eq!(mirror_check(&inputs, &sent, &answers), (1, 1));
    }

    #[test]
    fn inputs_survive_the_child_encoding_bit_for_bit() {
        let inputs = tiny_inputs();
        let bytes = inputs.to_bytes();
        let back = ServeInputs::from_bytes(&bytes).unwrap();
        assert_eq!(back.maps, inputs.maps);
        assert_eq!(back.model.sensor_indices(), inputs.model.sensor_indices());
        assert_eq!(back.model.num_candidates(), inputs.model.num_candidates());
        assert_eq!(
            back.model.params_fingerprint(),
            inputs.model.params_fingerprint()
        );
        assert!(ServeInputs::from_bytes(&bytes[..bytes.len() - 8]).is_err());
    }

    #[test]
    fn phases_span_whole_checkpoint_cycles() {
        let cycle = config().checkpoint_interval as u64;
        assert_eq!(whole_cycles(4000.0, 12.0), 3 * cycle);
        assert_eq!(whole_cycles(4000.0, 0.01), cycle);
    }

    #[test]
    fn serve_budget_transport_is_the_residual() {
        let rec = |stages: [u64; 5]| trace::TraceRecord {
            ctx: trace::TraceContext::derive(TENANT, 0, 0),
            stages: trace::StageNs {
                decode: stages[0],
                shard: stages[1],
                predict: stages[2],
                decide: stages[3],
                respond: stages[4],
            },
            batched: false,
        };
        let traces = [
            rec([1_000, 10_000, 2_000, 500, 3_000]),
            rec([2_000, 30_000, 4_000, 700, 5_000]),
            rec([3_000, 20_000, 3_000, 600, 4_000]),
        ];
        let b = budget(&traces, 60.0);
        let medians: Vec<f64> = b.stages.iter().map(|s| s.value).collect();
        assert_eq!(medians, vec![2.0, 20.0, 3.0, 0.6, 4.0]);
        assert!((b.residual - (60.0 - 29.6)).abs() < 1e-12);
        assert!(b.reconciles());
    }
}
