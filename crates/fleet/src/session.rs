//! Per-chip monitor sessions and the ingestion degradation ladder.
//!
//! A session owns one [`ChipMonitor`] (in production an
//! [`EmergencyMonitor`]) plus a bounded queue of readings awaiting
//! processing. Ingestion degrades in explicit, counted steps instead of
//! growing without bound:
//!
//! 1. **Accepting** — readings are queued; the shard drains them.
//! 2. **Shedding** — the queue is full: the *oldest* queued batch is
//!    dropped to admit the new one (`fleet.shed_total`). Newest-wins,
//!    because an emergency monitor cares about the current voltage, not
//!    history; decisions made after a shed carry the `DEGRADED` flag.
//! 3. **Rejecting** — sustained overload (a shed streak reaching the
//!    configured threshold): readings are refused outright with a
//!    [`Frame::Busy`] backoff hint (`fleet.rejected_total`) until the
//!    drain catches up to the low watermark (`fleet.recoveries_total`).
//! 4. **Quarantined** — the monitor panicked. The session is terminal,
//!    answers every frame with an error, and never touches its neighbors
//!    (`fleet.quarantined_total`); the panic payload went to
//!    `telemetry::incident`.
//!
//! Sessions are keyed by `(tenant, chip)`: two tenants naming the same
//! chip id get disjoint sessions by construction, which is the
//! cross-tenant isolation property the chaos suite pins.

use std::collections::VecDeque;
use std::time::Instant;

use voltsense_core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense_telemetry::trace::TraceContext;

use crate::frame::{decision_flags, Frame};

/// Session identity: tenant first, so tenant isolation is structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionKey {
    /// Owning tenant.
    pub tenant: u64,
    /// Chip within that tenant's fleet.
    pub chip: u64,
}

/// What a session needs from its monitor. `EmergencyMonitor` is the real
/// implementation; tests substitute panicking or recording monitors to
/// pin quarantine behavior without a real model.
pub trait ChipMonitor: Send {
    /// Feed one batch of sensor readings; returns the alarm decision.
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError>;
    /// Current latched-alarm state.
    fn is_alarmed(&self) -> bool;
    /// Serialized checkpoint document, or `None` when this monitor kind
    /// does not persist (a restarted server then starts it fresh).
    fn checkpoint_json(&self, key: SessionKey) -> Option<String>;
    /// The model a batched predictor may evaluate on this monitor's
    /// behalf, or `None` (the default) to opt out of GEMM batching —
    /// monitors returning `Some` must also implement
    /// [`observe_prepared`](Self::observe_prepared).
    fn batch_model(&self) -> Option<&VoltageMapModel> {
        None
    }
    /// Feed `K` already-predicted node voltages (computed with
    /// [`batch_model`](Self::batch_model)) through the decision state
    /// machine. Must be decision-for-decision identical to
    /// [`observe`](Self::observe) on the readings that produced them.
    fn observe_prepared(&mut self, predicted: &[f64]) -> Result<MonitorDecision, CoreError> {
        let _ = predicted;
        Err(CoreError::ShapeMismatch {
            what: "monitor does not support prepared observation".into(),
        })
    }
}

impl ChipMonitor for EmergencyMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        EmergencyMonitor::observe(self, readings)
    }

    fn is_alarmed(&self) -> bool {
        EmergencyMonitor::is_alarmed(self)
    }

    /// `None` for a fault-tolerant monitor: the v1 document has no place
    /// for its strikes, failed set or fallback family, and restoring it
    /// as a naive monitor would answer every dead sensor's NaN with an
    /// error and never decide again.
    fn checkpoint_json(&self, key: SessionKey) -> Option<String> {
        (!self.is_fault_tolerant()).then(|| crate::checkpoint::to_json(key, self))
    }

    fn batch_model(&self) -> Option<&VoltageMapModel> {
        EmergencyMonitor::batch_model(self)
    }

    fn observe_prepared(&mut self, predicted: &[f64]) -> Result<MonitorDecision, CoreError> {
        EmergencyMonitor::observe_prepared(self, predicted)
    }
}

/// Ladder position. See the module docs for the transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Queueing normally.
    Accepting,
    /// Dropping oldest to admit newest.
    Shedding,
    /// Refusing readings with a backoff hint.
    Rejecting,
    /// Terminal: the monitor panicked.
    Quarantined,
}

/// Knobs for one session's queue and ladder.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Most readings batches queued before shedding starts.
    pub queue_capacity: usize,
    /// Consecutive sheds that escalate Shedding → Rejecting.
    pub shed_streak_threshold: usize,
    /// Backoff hint sent with [`Frame::Busy`] while Rejecting.
    pub busy_retry_ms: u32,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self { queue_capacity: 64, shed_streak_threshold: 8, busy_retry_ms: 50 }
    }
}

/// Counters one session accumulates (also mirrored into global telemetry
/// by the server; these per-session copies feed tests and checkpoints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Readings batches accepted into the queue.
    pub accepted: u64,
    /// Batches dropped oldest-first under overload.
    pub shed: u64,
    /// Batches refused while Rejecting.
    pub rejected: u64,
    /// Rejecting → Accepting recoveries.
    pub recoveries: u64,
    /// Decisions produced by the monitor.
    pub decisions: u64,
}

/// Trace state a reading carries from the moment it was decoded until the
/// shard drain picks it up: identity, the already-measured decode time,
/// and the enqueue instant (whose distance to the drain pass is the
/// `shard` stage — the queue wait).
#[derive(Debug, Clone, Copy)]
pub struct PendingTrace {
    /// Reading identity plus trace ID.
    pub ctx: TraceContext,
    /// Nanoseconds the server spent decoding the wire frame.
    pub decode_ns: u64,
    /// When the reading entered the session queue.
    pub enqueued: Instant,
}

/// Stage timings of one drained reading, short of the final `respond`
/// stage (only the caller writing the response frame can measure that;
/// it completes the record into the trace buffer).
#[derive(Debug, Clone, Copy)]
pub struct TraceDraft {
    /// Reading identity plus trace ID.
    pub ctx: TraceContext,
    /// Wire bytes → decoded frame.
    pub decode_ns: u64,
    /// Queue wait between enqueue and the drain pass.
    pub shard_ns: u64,
    /// Monitor observe (prediction) time.
    pub predict_ns: u64,
    /// Decision assembly time after the prediction.
    pub decide_ns: u64,
    /// Whether the prediction ran through the batched GEMM plane.
    pub batched: bool,
}

/// One response frame produced by [`Session::drain`], with the stage
/// timings of the reading that produced it when tracing is on.
#[derive(Debug)]
pub struct Drained {
    /// The frame to relay to the client.
    pub frame: Frame,
    /// Stage timings (decisions only; error frames carry `None`).
    pub trace: Option<TraceDraft>,
}

/// How the session answered one offered readings batch.
#[derive(Debug, PartialEq)]
pub enum Offer {
    /// Queued; a decision will follow from the shard drain.
    Queued,
    /// Queued, but an older batch was dropped to make room.
    QueuedAfterShed,
    /// Refused; the caller should relay the contained `Busy` frame.
    Rejected(Frame),
    /// The session is quarantined; relay the contained error frame.
    Quarantined(Frame),
}

/// One queued readings batch awaiting the shard drain.
pub(crate) struct QueuedBatch {
    pub(crate) seq: u64,
    pub(crate) values: Vec<f64>,
    pub(crate) trace: Option<PendingTrace>,
}

/// An acknowledged checkpoint ([`Session::take_checkpoint`]): the
/// session's key and a borrow of its monitor, serialized on demand.
pub struct CheckpointHandle<'a> {
    key: SessionKey,
    monitor: &'a dyn ChipMonitor,
}

impl CheckpointHandle<'_> {
    /// The session's v1 checkpoint document, or `None` when its monitor
    /// does not persist ([`ChipMonitor::checkpoint_json`]).
    pub fn json(&self) -> Option<String> {
        self.monitor.checkpoint_json(self.key)
    }
}

/// Inputs to [`Session::apply_decision`] — one popped batch, the monitor's
/// verdict on it, and the measurements the trace draft needs.
pub(crate) struct ApplyArgs {
    pub(crate) seq: u64,
    pub(crate) values: Vec<f64>,
    pub(crate) observed: Result<MonitorDecision, CoreError>,
    /// Latched-alarm state sampled immediately before the observe.
    pub(crate) was_alarmed: bool,
    pub(crate) checkpoint_interval: usize,
    pub(crate) trace: Option<PendingTrace>,
    /// When the batch was popped from the queue (ends the `shard` stage);
    /// read only for traced batches, its one consumer.
    pub(crate) popped: Option<Instant>,
    /// Prediction time to report for the `predict` stage (amortized GEMM
    /// share on the batched path).
    pub(crate) predict_ns: u64,
    /// Whether the prediction ran through the batched GEMM plane.
    pub(crate) batched: bool,
}

/// One `(tenant, chip)` monitor session.
pub struct Session {
    key: SessionKey,
    monitor: Box<dyn ChipMonitor>,
    queue: VecDeque<QueuedBatch>,
    ladder: LadderConfig,
    state: SessionState,
    shed_streak: usize,
    /// Set when load was shed since the last decision; the next decision
    /// carries `DEGRADED` so the client knows its view has gaps.
    degraded: bool,
    counters: SessionCounters,
    last_activity: Instant,
    samples_since_checkpoint: usize,
    /// Set when the alarm edge or sample count makes a checkpoint due;
    /// cleared by [`take_checkpoint`](Self::take_checkpoint).
    checkpoint_due: bool,
    /// Readings buffers spent by [`drain_into`](Self::drain_into), held
    /// for the caller to reclaim ([`take_spare`](Self::take_spare)) and
    /// hand back to its [`crate::frame::FrameDecoder`] — the loop that
    /// keeps the per-reading path allocation-free.
    spare: Vec<Vec<f64>>,
    /// `(plane id, group index)` of the batch-plane model group this
    /// instance's model was verified bitwise against. It lives in the
    /// session, so a session recreated for the same key (restore,
    /// re-hello after eviction) starts unverified and the cache never
    /// outlives the monitor it vouched for.
    pub(crate) batch_group: Option<(u64, usize)>,
}

/// Most spent readings buffers a session retains for recycling.
const MAX_SPARE_BUFFERS: usize = 8;

impl Session {
    /// New session around `monitor`.
    pub fn new(key: SessionKey, monitor: Box<dyn ChipMonitor>, ladder: LadderConfig) -> Self {
        Self {
            key,
            monitor,
            queue: VecDeque::new(),
            ladder,
            state: SessionState::Accepting,
            shed_streak: 0,
            degraded: false,
            counters: SessionCounters::default(),
            last_activity: Instant::now(),
            samples_since_checkpoint: 0,
            checkpoint_due: false,
            spare: Vec::new(),
            batch_group: None,
        }
    }

    /// The monitor's batchable model, if any.
    pub fn batch_model(&self) -> Option<&VoltageMapModel> {
        self.monitor.batch_model()
    }

    /// Reclaim one readings buffer spent by a previous drain, if any —
    /// recycle it into the connection's `FrameDecoder` to close the
    /// allocation-free loop.
    pub fn take_spare(&mut self) -> Option<Vec<f64>> {
        self.spare.pop()
    }

    /// Session identity.
    pub fn key(&self) -> SessionKey {
        self.key
    }

    /// Current ladder position.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Per-session counters so far.
    pub fn counters(&self) -> SessionCounters {
        self.counters
    }

    /// Latched-alarm state of the underlying monitor.
    pub fn is_alarmed(&self) -> bool {
        self.monitor.is_alarmed()
    }

    /// Instant of the last offer or drain touching this session.
    pub fn last_activity(&self) -> Instant {
        self.last_activity
    }

    /// Whether the checkpoint policy wants this session persisted now.
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_due
    }

    /// Acknowledge a checkpoint: reset the due flag and sample counter,
    /// and return a handle that serializes the session only if asked
    /// ([`CheckpointHandle::json`]). A server without a checkpoint
    /// directory drops the handle, so it never builds the document.
    pub fn take_checkpoint(&mut self) -> CheckpointHandle<'_> {
        self.checkpoint_due = false;
        self.samples_since_checkpoint = 0;
        CheckpointHandle { key: self.key, monitor: &*self.monitor }
    }

    /// Batches currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Offer one readings batch to the ladder. `trace` rides along into
    /// the queue so the drain can attribute the queue wait to the reading.
    pub fn offer(&mut self, seq: u64, values: Vec<f64>, trace: Option<PendingTrace>) -> Offer {
        self.last_activity = Instant::now();
        match self.state {
            SessionState::Quarantined => Offer::Quarantined(self.quarantine_frame()),
            SessionState::Rejecting => {
                self.counters.rejected += 1;
                Offer::Rejected(Frame::Busy {
                    chip: self.key.chip,
                    retry_after_ms: self.ladder.busy_retry_ms,
                })
            }
            SessionState::Accepting | SessionState::Shedding => {
                if self.queue.len() < self.ladder.queue_capacity {
                    self.queue.push_back(QueuedBatch { seq, values, trace });
                    self.counters.accepted += 1;
                    return Offer::Queued;
                }
                // Full: drop oldest, admit newest, count the shed.
                self.queue.pop_front();
                self.queue.push_back(QueuedBatch { seq, values, trace });
                self.counters.accepted += 1;
                self.counters.shed += 1;
                self.shed_streak += 1;
                self.degraded = true;
                if self.shed_streak >= self.ladder.shed_streak_threshold {
                    self.state = SessionState::Rejecting;
                } else {
                    self.state = SessionState::Shedding;
                }
                Offer::QueuedAfterShed
            }
        }
    }

    /// Drain up to `budget` queued batches through the monitor, returning
    /// the response frames to relay (decisions, or one error frame if the
    /// monitor rejects its input), each paired with its stage timings
    /// when the batch carried a [`PendingTrace`].
    ///
    /// The *caller* is responsible for panic containment: run this inside
    /// `catch_unwind` and call [`quarantine`](Self::quarantine) if it
    /// unwinds. (The session cannot catch its own panic — the unwind
    /// leaves `self` mid-mutation, which is exactly what quarantine is
    /// for.)
    pub fn drain(&mut self, budget: usize, checkpoint_interval: usize) -> Vec<Drained> {
        let mut out = Vec::new();
        self.drain_into(&mut out, budget, checkpoint_interval);
        out
    }

    /// [`drain`](Self::drain) into a caller-reused output vector (which is
    /// *appended to*, not cleared). With a warm `out` and the spent
    /// readings buffers recycled back through
    /// [`take_spare`](Self::take_spare) → `FrameDecoder::recycle`, the
    /// per-reading decode→predict→decide path allocates nothing at steady
    /// state (pinned by the fleet `alloc_gate` test; error frames and
    /// checkpoint serialization still allocate, as befits cold paths).
    pub fn drain_into(&mut self, out: &mut Vec<Drained>, budget: usize, checkpoint_interval: usize) {
        // One clock read per pass for the activity clock; per-reading
        // instants only for traced readings, whose stages need them.
        let now = Instant::now();
        for _ in 0..budget {
            let Some(batch) = self.pop_batch(now) else { break };
            let QueuedBatch { seq, values, trace } = batch;
            let popped = trace.is_some().then(Instant::now);
            let was_alarmed = self.monitor.is_alarmed();
            let observed = self.monitor.observe(&values);
            // Stage boundary: everything between `popped` and here is the
            // prediction; the decision assembly below is `decide`.
            let predict_ns = popped.map_or(0, |t| t.elapsed().as_nanos() as u64);
            out.push(self.apply_decision(ApplyArgs {
                seq,
                values,
                observed,
                was_alarmed,
                checkpoint_interval,
                trace,
                popped,
                predict_ns,
                batched: false,
            }));
        }
        self.finish_drain_pass();
    }

    /// Pop the oldest queued batch (the gather half of a drain), setting
    /// the activity clock to the pass's `now` exactly as
    /// [`drain_into`](Self::drain_into) does.
    pub(crate) fn pop_batch(&mut self, now: Instant) -> Option<QueuedBatch> {
        let batch = self.queue.pop_front()?;
        self.last_activity = now;
        Some(batch)
    }

    /// Run one readings batch through the monitor (the sequential predict
    /// path of the batch plane).
    pub(crate) fn monitor_observe(&mut self, values: &[f64]) -> Result<MonitorDecision, CoreError> {
        self.monitor.observe(values)
    }

    /// Run already-predicted node voltages through the monitor's decision
    /// state machine (the scatter half of the batch plane).
    pub(crate) fn monitor_observe_prepared(
        &mut self,
        predicted: &[f64],
    ) -> Result<MonitorDecision, CoreError> {
        self.monitor.observe_prepared(predicted)
    }

    /// The decide stage shared by the sequential drain and the batch
    /// plane: turn one monitor result into a response frame, advancing
    /// the degraded flag, checkpoint policy, counters, trace draft, and
    /// spare-buffer recycling exactly once per reading. Keeping this in
    /// one place is what makes the two paths decision-for-decision (and
    /// byte-for-byte) identical.
    pub(crate) fn apply_decision(&mut self, args: ApplyArgs) -> Drained {
        let ApplyArgs {
            seq,
            values,
            observed,
            was_alarmed,
            checkpoint_interval,
            trace,
            popped,
            predict_ns,
            batched,
        } = args;
        let decide_started = trace.as_ref().map(|_| Instant::now());
        let drained = match observed {
            Ok(decision) => {
                self.counters.decisions += 1;
                self.samples_since_checkpoint += 1;
                let mut flags = 0u8;
                if decision.alarm {
                    flags |= decision_flags::ALARM;
                }
                if decision.rising_edge {
                    flags |= decision_flags::RISING;
                }
                if self.degraded {
                    flags |= decision_flags::DEGRADED;
                    self.degraded = false;
                }
                // Alarm edges are the durability-critical moments: a
                // kill -9 after this decision must not forget them.
                if decision.alarm != was_alarmed
                    || decision.rising_edge
                    || self.samples_since_checkpoint >= checkpoint_interval
                {
                    self.checkpoint_due = true;
                }
                let frame = Frame::Decision {
                    chip: self.key.chip,
                    seq,
                    flags,
                    predicted_min: decision.predicted_min,
                };
                let draft = trace.map(|p| TraceDraft {
                    ctx: p.ctx,
                    decode_ns: p.decode_ns,
                    shard_ns: popped
                        .map_or(0, |t| t.saturating_duration_since(p.enqueued).as_nanos() as u64),
                    predict_ns,
                    decide_ns: decide_started
                        .map(|t| t.elapsed().as_nanos() as u64)
                        .unwrap_or(0),
                    batched,
                });
                Drained { frame, trace: draft }
            }
            Err(e) => Drained {
                frame: Frame::Error {
                    code: crate::frame::error_code::REJECTED,
                    chip: self.key.chip,
                    message: e.to_string(),
                },
                trace: None,
            },
        };
        if self.spare.len() < MAX_SPARE_BUFFERS {
            self.spare.push(values);
        }
        drained
    }

    /// Ladder de-escalation run once at the end of every drain pass:
    /// draining below the low watermark recovers the session.
    pub(crate) fn finish_drain_pass(&mut self) {
        if self.state != SessionState::Quarantined
            && self.queue.len() <= self.ladder.queue_capacity / 2
        {
            if self.state == SessionState::Rejecting {
                self.counters.recoveries += 1;
            }
            if self.state != SessionState::Accepting {
                self.state = SessionState::Accepting;
                self.shed_streak = 0;
            }
        }
    }

    /// Mark the session terminally quarantined (the monitor panicked).
    pub fn quarantine(&mut self) {
        self.state = SessionState::Quarantined;
        self.queue.clear();
    }

    /// The error frame a quarantined session answers everything with.
    pub fn quarantine_frame(&self) -> Frame {
        Frame::Error {
            code: crate::frame::error_code::QUARANTINED,
            chip: self.key.chip,
            message: "session quarantined after a monitor panic".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Monitor double: records inputs, alarms when told, never panics.
    struct ScriptedMonitor {
        alarmed: bool,
        seen: usize,
    }

    impl ChipMonitor for ScriptedMonitor {
        fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
            self.seen += 1;
            if readings.first().copied().unwrap_or(1.0) < 0.8 {
                self.alarmed = true;
            }
            Ok(MonitorDecision {
                predicted_min: readings.first().copied().unwrap_or(1.0),
                worst_block: 0,
                alarm: self.alarmed,
                rising_edge: false,
                health: None,
            })
        }

        fn is_alarmed(&self) -> bool {
            self.alarmed
        }

        fn checkpoint_json(&self, _key: SessionKey) -> Option<String> {
            None
        }
    }

    fn session(capacity: usize, streak: usize) -> Session {
        Session::new(
            SessionKey { tenant: 1, chip: 1 },
            Box::new(ScriptedMonitor { alarmed: false, seen: 0 }),
            LadderConfig {
                queue_capacity: capacity,
                shed_streak_threshold: streak,
                busy_retry_ms: 25,
            },
        )
    }

    #[test]
    fn ladder_escalates_shed_then_reject_then_recovers() {
        let mut s = session(2, 3);
        assert_eq!(s.offer(0, vec![0.9], None), Offer::Queued);
        assert_eq!(s.offer(1, vec![0.9], None), Offer::Queued);
        // Queue full: three consecutive sheds escalate to Rejecting.
        assert_eq!(s.offer(2, vec![0.9], None), Offer::QueuedAfterShed);
        assert_eq!(s.state(), SessionState::Shedding);
        assert_eq!(s.offer(3, vec![0.9], None), Offer::QueuedAfterShed);
        assert_eq!(s.offer(4, vec![0.9], None), Offer::QueuedAfterShed);
        assert_eq!(s.state(), SessionState::Rejecting);
        match s.offer(5, vec![0.9], None) {
            Offer::Rejected(Frame::Busy { retry_after_ms, .. }) => assert_eq!(retry_after_ms, 25),
            other => panic!("unexpected: {other:?}"),
        }
        let c = s.counters();
        assert_eq!((c.shed, c.rejected), (3, 1));
        // Shed kept the *newest* batches: seqs 3 and 4.
        let frames = s.drain(16, usize::MAX);
        let seqs: Vec<u64> = frames
            .iter()
            .map(|d| match &d.frame {
                Frame::Decision { seq, flags, .. } => {
                    assert!(flags & decision_flags::DEGRADED != 0 || *seq == 4);
                    *seq
                }
                other => panic!("unexpected: {other:?}"),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4]);
        // Drained below the watermark: recovered, accepts again.
        assert_eq!(s.state(), SessionState::Accepting);
        assert_eq!(s.counters().recoveries, 1);
        assert_eq!(s.offer(6, vec![0.9], None), Offer::Queued);
    }

    #[test]
    fn first_decision_after_a_shed_is_flagged_degraded() {
        let mut s = session(1, 10);
        s.offer(0, vec![0.9], None);
        s.offer(1, vec![0.9], None); // sheds seq 0
        let frames = s.drain(16, usize::MAX);
        match frames.as_slice() {
            [Drained { frame: Frame::Decision { seq: 1, flags, .. }, .. }] => {
                assert_ne!(flags & decision_flags::DEGRADED, 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Degraded is edge-triggered, not sticky.
        s.offer(2, vec![0.9], None);
        match s.drain(16, usize::MAX).as_slice() {
            [Drained { frame: Frame::Decision { flags, .. }, .. }] => {
                assert_eq!(flags & decision_flags::DEGRADED, 0)
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn quarantined_session_is_terminal() {
        let mut s = session(4, 2);
        s.quarantine();
        assert_eq!(s.state(), SessionState::Quarantined);
        match s.offer(0, vec![0.9], None) {
            Offer::Quarantined(Frame::Error { code, .. }) => {
                assert_eq!(code, crate::frame::error_code::QUARANTINED);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(s.drain(16, usize::MAX).is_empty());
    }

    #[test]
    fn checkpoint_due_on_sample_interval() {
        let mut s = session(8, 4);
        for seq in 0..3 {
            s.offer(seq, vec![0.9], None);
        }
        s.drain(16, 3);
        assert!(s.checkpoint_due());
        s.take_checkpoint();
        assert!(!s.checkpoint_due());
    }

    #[test]
    fn only_naive_monitors_are_checkpointed() {
        use voltsense_core::{FaultPolicy, FaultTolerantModel};
        let x = voltsense_linalg::Matrix::from_rows(&[
            &[0.90, 0.92, 0.88, 0.95, 0.91, 0.87, 0.93, 0.89],
            &[0.91, 0.89, 0.93, 0.90, 0.86, 0.94, 0.92, 0.88],
            &[0.94, 0.90, 0.91, 0.87, 0.93, 0.89, 0.86, 0.92],
        ])
        .unwrap();
        let model = FaultTolerantModel::fit(&x, &x, &[0, 1, 2]).unwrap();
        let key = SessionKey { tenant: 1, chip: 1 };
        let naive = EmergencyMonitor::new(model.primary().clone(), 0.85, 2, 0.02).unwrap();
        assert!(naive.checkpoint_json(key).is_some());
        let tolerant =
            EmergencyMonitor::fault_tolerant(model, 0.85, 2, 0.02, FaultPolicy::default()).unwrap();
        assert!(tolerant.checkpoint_json(key).is_none());
    }

    #[test]
    fn traced_batches_come_back_with_stage_timings() {
        let mut s = session(8, 4);
        let ctx = TraceContext::derive(1, 1, 7);
        let pending = PendingTrace { ctx, decode_ns: 1234, enqueued: Instant::now() };
        assert_eq!(s.offer(7, vec![0.9], Some(pending)), Offer::Queued);
        s.offer(8, vec![0.9], None);
        let drained = s.drain(16, usize::MAX);
        assert_eq!(drained.len(), 2);
        let draft = drained[0].trace.expect("traced batch has a draft");
        assert_eq!(draft.ctx, ctx);
        assert_eq!(draft.decode_ns, 1234);
        // Queue wait and prediction both happened after `enqueued`, so
        // the measured stages are self-consistent (non-negative by type;
        // shard includes the real wait between offer and drain).
        assert!(drained[1].trace.is_none());
        match (&drained[0].frame, &drained[1].frame) {
            (Frame::Decision { seq: 7, .. }, Frame::Decision { seq: 8, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
