//! The multi-tenant fleet monitor server.
//!
//! One TCP accept loop, one reader thread per connection, and one
//! dispatcher thread that fans session drains out across the
//! `voltsense-parallel` pool, one task per dirty shard. Sessions live in
//! `shards` hash-partitioned by `(tenant, chip)`; a connection is pinned
//! to the tenant named by its first `Hello`, so frames can never reach
//! another tenant's sessions no matter what bytes chaos injects.
//!
//! Failure containment, layer by layer:
//!
//! * **Framing errors** (corrupt prefix, bad checksum, oversized length)
//!   close that one connection with a typed error; the decoder never
//!   allocates from an attacker-controlled length.
//! * **Slow-loris** readers (partial frame, then silence) are closed when
//!   the partial frame outlives the read deadline.
//! * **Monitor panics** unwind into a per-session `catch_unwind` inside
//!   the shard task: the session is quarantined, the panic becomes a
//!   `telemetry::incident` snapshot, and the shard (and pool) never see
//!   the unwind.
//! * **Overload** degrades through the session ladder (see
//!   [`crate::session`]) instead of growing queues without bound.
//! * **Crashes**: sessions checkpoint on alarm edges and every
//!   `checkpoint_interval` samples; [`FleetServer::abort`] drops
//!   everything *without* the graceful flush, deliberately simulating
//!   `kill -9`, and a restarted server resumes sessions from disk
//!   without refitting.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use voltsense_parallel as parallel;
use voltsense_telemetry::slo::{SloConfig, SloTracker};
use voltsense_telemetry::trace::{self, StageNs, TraceBuffer, TraceConfig, TraceContext, TraceRecord};
use voltsense_telemetry::{self as telemetry, incident::Incident};

use crate::batch::BatchPlane;
use crate::frame::{error_code, Frame, FrameDecoder};
use crate::metrics;
use crate::session::{
    ChipMonitor, LadderConfig, Offer, PendingTrace, Session, SessionKey, SessionState, TraceDraft,
};

/// Builds the monitor for a session seen for the first time (no memory,
/// no checkpoint). Errors become an `Error` frame for the client.
pub type SessionFactory =
    Arc<dyn Fn(SessionKey) -> Result<Box<dyn ChipMonitor>, String> + Send + Sync>;

/// Server tuning. `Default` suits tests; production raises the caps.
#[derive(Clone)]
pub struct FleetConfig {
    /// Bind address (`host:port`; port 0 for OS-assigned).
    pub addr: String,
    /// Largest accepted frame body, bytes.
    pub max_frame: usize,
    /// A connection whose partial frame sees no new bytes for this long
    /// is treated as slow-loris and closed.
    pub read_deadline: Duration,
    /// A connection with no traffic at all for this long is closed.
    pub conn_idle_timeout: Duration,
    /// Bound on any single response write.
    pub write_timeout: Duration,
    /// Per-session queue/ladder knobs.
    pub ladder: LadderConfig,
    /// Sessions idle this long are checkpointed and evicted.
    pub idle_timeout: Duration,
    /// Directory for crash-safe checkpoints; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N monitor samples (alarm edges always checkpoint).
    pub checkpoint_interval: usize,
    /// Session shards; defaults to the configured pool width.
    pub shards: usize,
    /// Most batches drained per session per dispatcher pass.
    pub drain_budget: usize,
    /// Fewest readings sharing one model a drain pass must gather before
    /// they are predicted by one cross-session GEMM instead of
    /// per-reading matvecs (see [`crate::batch`]). `usize::MAX` disables
    /// batching; the default of 2 batches whenever amortization is
    /// possible at all.
    pub gemm_min_batch: usize,
    /// Dispatcher tick (drain latency floor when idle; wakeups are
    /// signalled immediately on ingest).
    pub tick: Duration,
    /// Tail-sampling policy for the per-reading trace buffer.
    pub trace: TraceConfig,
    /// Per-tenant SLO definition (latency threshold, objectives, burn
    /// thresholds).
    pub slo: SloConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_frame: crate::frame::DEFAULT_MAX_FRAME,
            read_deadline: Duration::from_secs(2),
            conn_idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
            ladder: LadderConfig::default(),
            idle_timeout: Duration::from_secs(300),
            checkpoint_dir: None,
            checkpoint_interval: 256,
            shards: parallel::configured_threads(),
            drain_budget: 32,
            gemm_min_batch: 2,
            tick: Duration::from_millis(5),
            trace: TraceConfig::default(),
            slo: SloConfig::default(),
        }
    }
}

/// Point-in-time server counters (per-server atomics, not the global
/// telemetry registry, so tests running several servers stay disjoint).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frames decoded across all connections.
    pub frames: u64,
    /// Readings batches shed (drop-oldest).
    pub shed: u64,
    /// Readings batches rejected with `Busy`.
    pub rejected: u64,
    /// Rejecting → Accepting recoveries.
    pub recoveries: u64,
    /// Sessions quarantined after a panic.
    pub quarantined: u64,
    /// Idle sessions evicted.
    pub evicted: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint writes that failed.
    pub checkpoint_failures: u64,
    /// Sessions restored from disk.
    pub restores: u64,
    /// Connections closed on framing errors.
    pub decode_errors: u64,
    /// Readings decodes that allocated a values buffer because the
    /// connection had no recycled one (see [`FrameDecoder::fresh_buffers`]).
    pub decode_buffer_allocs: u64,
    /// Responses dropped on dead connections.
    pub responses_dropped: u64,
    /// Live sessions right now.
    pub sessions: u64,
}

#[derive(Default)]
struct Counters {
    frames: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    recoveries: AtomicU64,
    quarantined: AtomicU64,
    evicted: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    restores: AtomicU64,
    decode_errors: AtomicU64,
    decode_buffer_allocs: AtomicU64,
    responses_dropped: AtomicU64,
}

/// Write half of one client connection, shared by reader and dispatcher.
struct ConnTx {
    tx: Mutex<TxHalf>,
    dead: AtomicBool,
}

/// The socket's write half and the frame buffer every response on it is
/// encoded into (reused, so steady-state responses allocate nothing).
struct TxHalf {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ConnTx {
    fn send(&self, counters: &Counters, frame: &Frame) {
        if self.dead.load(Ordering::Relaxed) {
            counters.responses_dropped.fetch_add(1, Ordering::Relaxed);
            telemetry::counter(metrics::RESPONSES_DROPPED_TOTAL, 1);
            return;
        }
        let mut tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let TxHalf { stream, buf } = &mut *tx;
        buf.clear();
        frame.encode_into(buf);
        if stream.write_all(buf).and_then(|()| stream.flush()).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            counters.responses_dropped.fetch_add(1, Ordering::Relaxed);
            telemetry::counter(metrics::RESPONSES_DROPPED_TOTAL, 1);
        }
    }

    fn shutdown(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let _ = tx.stream.shutdown(Shutdown::Both);
    }
}

struct SessionEntry {
    session: Session,
    conn: Option<Arc<ConnTx>>,
}

struct Shard {
    sessions: Mutex<HashMap<SessionKey, Arc<Mutex<SessionEntry>>>>,
    dirty: AtomicBool,
    /// The shard's batched prediction plane with its recycled scratch.
    /// Uncontended in steady state: the dispatcher barrier guarantees at
    /// most one drain pass per shard at a time.
    plane: Mutex<BatchPlane>,
}

struct Shared {
    cfg: FleetConfig,
    factory: SessionFactory,
    shards: Vec<Shard>,
    counters: Counters,
    stop: AtomicBool,
    wake: Mutex<bool>,
    wake_cond: Condvar,
    conns: Mutex<Vec<std::sync::Weak<ConnTx>>>,
    /// Tail-sampling trace buffer for every traced reading this server
    /// answers; also the dedupe authority for chaos-duplicate deliveries.
    traces: Arc<TraceBuffer>,
    /// Per-tenant SLO burn-rate tracker.
    slo: Arc<SloTracker>,
    /// The scoped recorder active on the thread that called
    /// [`FleetServer::start`], re-installed on every server thread so
    /// test-scoped telemetry capture sees server internals (the same
    /// propagation contract the parallel pool honours).
    scope: Option<Arc<dyn telemetry::Recorder>>,
    /// When the most recent checkpoint was written (any session).
    last_checkpoint: Mutex<Option<Instant>>,
}

impl Shared {
    fn shard_of(&self, key: SessionKey) -> &Shard {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&key.tenant.to_le_bytes());
        bytes[8..].copy_from_slice(&key.chip.to_le_bytes());
        let h = crate::frame::fnv1a32(&bytes) as usize;
        &self.shards[h % self.shards.len()]
    }

    fn notify(&self) {
        let mut flag = self.wake.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.wake_cond.notify_one();
    }

    fn session_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sessions.lock().unwrap_or_else(|e| e.into_inner()).len() as u64)
            .sum()
    }

    /// Live sessions per degradation tier: `(total, degraded, quarantined)`,
    /// where degraded means the ladder is in Shedding or Rejecting.
    fn ladder_census(&self) -> (u64, u64, u64) {
        let (mut total, mut degraded, mut quarantined) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let entries: Vec<_> = {
                let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.values().cloned().collect()
            };
            for entry in entries {
                let guard = entry.lock().unwrap_or_else(|e| e.into_inner());
                total += 1;
                match guard.session.state() {
                    SessionState::Shedding | SessionState::Rejecting => degraded += 1,
                    SessionState::Quarantined => quarantined += 1,
                    _ => {}
                }
            }
        }
        (total, degraded, quarantined)
    }

    /// The `/healthz` answer: 503 as soon as any session is quarantined —
    /// a panicked monitor means some chip is no longer being watched,
    /// which is exactly what an external prober must see.
    fn health(&self) -> telemetry::serve::Health {
        let (sessions, degraded, quarantined) = self.ladder_census();
        let healthy = quarantined == 0;
        let status = if healthy { "ok" } else { "quarantined" };
        let age = match *self.last_checkpoint.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(at) => (at.elapsed().as_millis() as u64).to_string(),
            None => "null".into(),
        };
        let body = format!(
            "{{\n  \"status\": \"{status}\",\n  \"sessions\": {sessions},\n  \
             \"degraded\": {degraded},\n  \"quarantined\": {quarantined},\n  \
             \"last_checkpoint_age_ms\": {age}\n}}\n"
        );
        telemetry::serve::Health { healthy, body }
    }
}

/// A running fleet monitor server.
pub struct FleetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    dispatch_thread: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stopped: bool,
}

impl FleetServer {
    /// Bind and start serving. `factory` builds monitors for sessions
    /// with no in-memory state and no checkpoint.
    pub fn start(cfg: FleetConfig, factory: SessionFactory) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shards = (0..cfg.shards.max(1))
            .map(|_| Shard {
                sessions: Mutex::new(HashMap::new()),
                dirty: AtomicBool::new(false),
                plane: Mutex::new(BatchPlane::new(cfg.gemm_min_batch)),
            })
            .collect();
        let traces = Arc::new(TraceBuffer::new(cfg.trace));
        let slo = Arc::new(SloTracker::new(cfg.slo));
        let shared = Arc::new(Shared {
            cfg,
            factory,
            shards,
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            wake: Mutex::new(false),
            wake_cond: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            traces,
            slo,
            scope: telemetry::scoped_recorder(),
            last_checkpoint: Mutex::new(None),
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shared = shared.clone();
        let accept_readers = readers.clone();
        let accept_thread = std::thread::Builder::new()
            .name("fleet-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_shared = accept_shared.clone();
                    if let Ok(handle) = std::thread::Builder::new()
                        .name("fleet-conn".into())
                        .spawn(move || match conn_shared.scope.clone() {
                            Some(scope) => telemetry::with_scoped(scope, || {
                                reader_loop(conn_shared, stream)
                            }),
                            None => reader_loop(conn_shared, stream),
                        })
                    {
                        let mut guard =
                            accept_readers.lock().unwrap_or_else(|e| e.into_inner());
                        // Reap finished readers so the list stays bounded.
                        guard.retain(|h| !h.is_finished());
                        guard.push(handle);
                    }
                }
            })?;

        let dispatch_shared = shared.clone();
        let dispatch_thread = std::thread::Builder::new()
            .name("fleet-dispatch".into())
            .spawn(move || match dispatch_shared.scope.clone() {
                Some(scope) => {
                    telemetry::with_scoped(scope, || dispatch_loop(&dispatch_shared))
                }
                None => dispatch_loop(&dispatch_shared),
            })?;

        Ok(Self {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            dispatch_thread: Some(dispatch_thread),
            readers,
            stopped: false,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> FleetStats {
        let c = &self.shared.counters;
        FleetStats {
            frames: c.frames.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            recoveries: c.recoveries.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            evicted: c.evicted.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: c.checkpoint_failures.load(Ordering::Relaxed),
            restores: c.restores.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            decode_buffer_allocs: c.decode_buffer_allocs.load(Ordering::Relaxed),
            responses_dropped: c.responses_dropped.load(Ordering::Relaxed),
            sessions: self.shared.session_count(),
        }
    }

    /// The latched-alarm state of one session, if it is live in memory.
    pub fn session_alarmed(&self, key: SessionKey) -> Option<bool> {
        let shard = self.shared.shard_of(key);
        let entry = {
            let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
            sessions.get(&key).cloned()
        }?;
        let guard = entry.lock().unwrap_or_else(|e| e.into_inner());
        Some(guard.session.is_alarmed())
    }

    /// The tail-sampling trace buffer behind this server's `GET /trace`.
    pub fn traces(&self) -> Arc<TraceBuffer> {
        self.shared.traces.clone()
    }

    /// The per-tenant SLO tracker behind this server's `GET /slo`.
    pub fn slo(&self) -> Arc<SloTracker> {
        self.shared.slo.clone()
    }

    /// Wire this server into the process-global observability endpoint:
    /// `GET /trace` and `GET /slo` serve this server's buffers, and
    /// `GET /healthz` turns 503 (with a JSON body naming quarantined and
    /// degraded session counts and the last-checkpoint age) as soon as a
    /// monitor is quarantined. One server per process owns the endpoint;
    /// the last caller wins, and a stopped server answers unhealthy
    /// rather than dangling.
    pub fn install_observability(&self) {
        trace::install(self.shared.traces.clone());
        telemetry::slo::install(self.shared.slo.clone());
        let weak = Arc::downgrade(&self.shared);
        telemetry::serve::install_health(Arc::new(move || match weak.upgrade() {
            Some(shared) => shared.health(),
            None => telemetry::serve::Health {
                healthy: false,
                body: "{\"status\": \"stopped\"}\n".into(),
            },
        }));
    }

    /// Graceful shutdown: stop ingest, drain nothing further, checkpoint
    /// every session, join all threads.
    pub fn stop(&mut self) {
        self.shutdown(true);
    }

    /// Crash-style shutdown: like [`stop`](Self::stop) but **without**
    /// the final checkpoint flush — only checkpoints already written by
    /// the periodic/edge policy survive, which is exactly the state a
    /// `kill -9` leaves behind. The recovery tests restart from this.
    pub fn abort(&mut self) {
        self.shutdown(false);
    }

    fn shutdown(&mut self, checkpoint_all: bool) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.notify();
        // Unblock accept with a throwaway connection, then join it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Kill live connections so reader threads observe EOF promptly.
        for conn in self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            if let Some(conn) = conn.upgrade() {
                conn.shutdown();
            }
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.readers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
        if checkpoint_all {
            if let Some(dir) = self.shared.cfg.checkpoint_dir.clone() {
                for shard in &self.shared.shards {
                    let entries: Vec<_> = {
                        let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
                        sessions.values().cloned().collect()
                    };
                    for entry in entries {
                        let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
                        write_checkpoint(&self.shared, &dir, &mut guard.session);
                    }
                }
            }
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Persist one session if its monitor supports it; failures degrade to
/// counters (a monitor must keep monitoring when the disk is gone).
fn write_checkpoint(shared: &Shared, dir: &std::path::Path, session: &mut Session) {
    let key = session.key();
    let Some(json) = session.take_checkpoint().json() else { return };
    match crate::checkpoint::write(dir, key, &json) {
        Ok(_) => {
            shared.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            metrics::count(key.tenant, metrics::CHECKPOINTS_TOTAL, "checkpoints", 1);
            *shared.last_checkpoint.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(Instant::now());
        }
        // The detail is in the counters; stderr would flood under chaos.
        Err(_) => {
            shared.counters.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            telemetry::counter(metrics::CHECKPOINT_FAILURES_TOTAL, 1);
            telemetry::event(
                "fleet.checkpoint_failed",
                &[("tenant", key.tenant as f64), ("chip", key.chip as f64)],
            );
        }
    }
}

fn dispatch_loop(shared: &Arc<Shared>) {
    let mut last_sweep = Instant::now();
    let sweep_every = shared.cfg.tick.max(Duration::from_millis(1)) * 10;
    loop {
        {
            let guard = shared.wake.lock().unwrap_or_else(|e| e.into_inner());
            let (mut guard, _) = shared
                .wake_cond
                .wait_timeout_while(guard, shared.cfg.tick, |woken| !*woken)
                .unwrap_or_else(|e| e.into_inner());
            *guard = false;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let sweep = last_sweep.elapsed() >= sweep_every;
        if sweep {
            last_sweep = Instant::now();
            shared.slo.publish_gauges();
        }
        let targets: Vec<usize> = shared
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dirty.swap(false, Ordering::AcqRel) || sweep)
            .map(|(i, _)| i)
            .collect();
        if targets.is_empty() {
            continue;
        }
        // One pool task per dirty shard; panics never cross this boundary
        // (each session drain is individually caught below).
        parallel::pool().run(targets.len(), &|ti| {
            drain_shard(shared, &shared.shards[targets[ti]], sweep);
        });
        telemetry::gauge(metrics::SESSIONS_GAUGE, shared.session_count() as f64);
    }
}

fn drain_shard(shared: &Shared, shard: &Shard, sweep: bool) {
    let entries: Vec<(SessionKey, Arc<Mutex<SessionEntry>>)> = {
        let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.iter().map(|(k, v)| (*k, v.clone())).collect()
    };
    let mut more_work = false;

    // Phase 1: run the shard's batch plane over every session with queued
    // work. All active sessions are locked for the gather→GEMM→scatter
    // pass (the cross-session amortization needs them together), but the
    // locks are released before any response write can block on a slow
    // client. Monitor panics are caught inside the plane per reading;
    // quarantine bookkeeping happens below, after the locks drop.
    let mut plane = shard.plane.lock().unwrap_or_else(|e| e.into_inner());
    let mut meta: Vec<(SessionKey, Option<Arc<ConnTx>>, u64)> = Vec::new();
    let mut guards = Vec::new();
    for (key, entry) in &entries {
        let guard = entry.lock().unwrap_or_else(|e| e.into_inner());
        if guard.session.queued() > 0 {
            meta.push((*key, guard.conn.clone(), guard.session.counters().recoveries));
            guards.push(guard);
        }
    }
    {
        let mut sessions: Vec<&mut Session> =
            guards.iter_mut().map(|g| &mut g.session).collect();
        plane.drain(&mut sessions, shared.cfg.drain_budget, shared.cfg.checkpoint_interval);
    }
    for ((key, _, recoveries_before), guard) in meta.iter().zip(&guards) {
        // The drain side owns de-escalation; mirror any Rejecting →
        // Accepting recovery into server counters (the offer side can't
        // see the drain).
        let recovered = guard.session.counters().recoveries - recoveries_before;
        if recovered > 0 {
            shared.counters.recoveries.fetch_add(recovered, Ordering::Relaxed);
            metrics::count(key.tenant, metrics::RECOVERIES_TOTAL, "recoveries", recovered);
        }
        more_work |= guard.session.queued() > 0;
    }
    drop(guards);

    // Phase 2: relay responses and seal traces, lock-free. Per-session
    // frame order is the gather order (FIFO), so each client still sees
    // its decisions in sequence.
    for d in plane.drained() {
        let (key, conn, _) = &meta[d.slot];
        match conn.as_ref() {
            Some(conn) => {
                let sent_at = d.drained.trace.map(|_| Instant::now());
                conn.send(&shared.counters, &d.drained.frame);
                if let (Some(draft), Some(at)) = (d.drained.trace, sent_at) {
                    let respond = at.elapsed().as_nanos() as u64;
                    finish_trace(shared, key.tenant, draft, respond);
                }
            }
            None => {
                shared.counters.responses_dropped.fetch_add(1, Ordering::Relaxed);
                telemetry::counter(metrics::RESPONSES_DROPPED_TOTAL, 1);
                // The decision was still made; close its trace with a
                // zero respond stage so SLO latency and availability keep
                // counting dead-client traffic.
                if let Some(draft) = d.drained.trace {
                    finish_trace(shared, key.tenant, draft, 0);
                }
            }
        }
    }
    for p in plane.panics() {
        // The monitor panicked mid-observe; the plane already quarantined
        // the session. Snapshot the flight recorder, tell the client —
        // and return normally so the pool and the shard's other sessions
        // never notice.
        let (key, conn, _) = &meta[p.slot];
        shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        metrics::count(key.tenant, metrics::QUARANTINED_TOTAL, "quarantined", 1);
        eprintln!(
            "[fleet] quarantined tenant {} chip {} after panic: {}",
            key.tenant, key.chip, p.message
        );
        let fields = [("tenant", key.tenant as f64), ("chip", key.chip as f64)];
        telemetry::incident::report(&Incident {
            fields: &fields,
            ..Incident::new("fleet_session_panic")
        });
        if let Some(conn) = conn.as_ref() {
            conn.send(&shared.counters, &p.frame);
        }
    }
    drop(plane);

    // Phase 3: checkpoint policy and idle eviction for every session,
    // re-locking each briefly.
    let mut evict: Vec<SessionKey> = Vec::new();
    for (key, entry) in entries {
        let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
        let session = &mut guard.session;
        if session.checkpoint_due() {
            if let Some(dir) = shared.cfg.checkpoint_dir.as_deref() {
                write_checkpoint(shared, dir, session);
            } else {
                // No persistence configured: acknowledge the policy so
                // the due flag doesn't pin the session dirty forever, and
                // drop the handle unserialized.
                let _ = session.take_checkpoint();
            }
        }
        if sweep
            && session.queued() == 0
            && session.last_activity().elapsed() >= shared.cfg.idle_timeout
        {
            if let Some(dir) = shared.cfg.checkpoint_dir.as_deref() {
                // Evicted sessions must be resumable: force a final
                // checkpoint even if the interval policy wasn't due.
                if session.state() != SessionState::Quarantined {
                    write_checkpoint(shared, dir, session);
                }
            }
            evict.push(key);
        }
    }
    if !evict.is_empty() {
        let mut sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        for key in evict {
            // Re-check activity under the map lock: a Hello may have
            // raced the sweep and revived the session.
            let still_idle = sessions
                .get(&key)
                .map(|e| {
                    let g = e.lock().unwrap_or_else(|er| er.into_inner());
                    g.session.queued() == 0
                        && g.session.last_activity().elapsed() >= shared.cfg.idle_timeout
                })
                .unwrap_or(false);
            if still_idle {
                sessions.remove(&key);
                shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
                metrics::count(key.tenant, metrics::EVICTED_TOTAL, "evicted", 1);
            }
        }
    }
    if more_work {
        shard.dirty.store(true, Ordering::Release);
        shared.notify();
    }
}

/// Seal a per-reading trace: attach the respond stage, offer it to the
/// tail-sampling buffer, and — only if it was not a chaos duplicate —
/// feed the SLO engine and the stage histograms. The buffer's dedupe
/// window is the single authority on "seen before", so replayed frames
/// can never double-count an error budget.
fn finish_trace(shared: &Shared, tenant: u64, draft: TraceDraft, respond_ns: u64) {
    let rec = TraceRecord {
        ctx: draft.ctx,
        stages: StageNs {
            decode: draft.decode_ns,
            shard: draft.shard_ns,
            predict: draft.predict_ns,
            decide: draft.decide_ns,
            respond: respond_ns,
        },
        batched: draft.batched,
    };
    let total = rec.total_ns();
    if shared.traces.record(rec) {
        shared.slo.record_decision(tenant, total);
        // Per-stage histograms ride the deterministic 1-in-k sample (the
        // same seqs the sampled ring keeps): five extra recorder hits on
        // every reading is most of the always-on tracing overhead, and
        // the stage-level distribution doesn't need per-reading counts —
        // unlike the totals below, which the p99 cross-check and the SLO
        // engine consume exhaustively.
        let k = shared.traces.config().sample_every;
        if k > 0 && rec.ctx.seq.is_multiple_of(k) {
            for (name, ns) in metrics::STAGE_NS.iter().zip(rec.stages.as_array()) {
                telemetry::histogram(name, ns as f64, "ns");
            }
        }
        telemetry::histogram(metrics::READING_TOTAL_NS, total as f64, "ns");
        telemetry::histogram(
            metrics::tenant_metric(tenant, metrics::TENANT_READING_TOTAL_NS),
            total as f64,
            "ns",
        );
    } else {
        telemetry::counter(metrics::TRACE_DEDUPED_TOTAL, 1);
    }
}

fn reader_loop(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let Ok(write_half) = stream.try_clone() else { return };
    let conn = Arc::new(ConnTx {
        tx: Mutex::new(TxHalf { stream: write_half, buf: Vec::new() }),
        dead: AtomicBool::new(false),
    });
    {
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.retain(|w| w.strong_count() > 0);
        conns.push(Arc::downgrade(&conn));
    }
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100).min(shared.cfg.read_deadline)));
    let mut decoder = FrameDecoder::new(shared.cfg.max_frame);
    let mut fresh_counted = 0;
    let mut buf = [0u8; 4096];
    let mut tenant: Option<u64> = None;
    let mut last_byte = Instant::now();
    loop {
        if shared.stop.load(Ordering::SeqCst) || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                last_byte = Instant::now();
                decoder.push(&buf[..n]);
                loop {
                    let decode_started = trace::enabled().then(Instant::now);
                    match decoder.next() {
                        Ok(Some(frame)) => {
                            let decode_ns = decode_started
                                .map(|t| t.elapsed().as_nanos() as u64)
                                .unwrap_or(0);
                            shared.counters.frames.fetch_add(1, Ordering::Relaxed);
                            telemetry::counter(metrics::FRAMES_TOTAL, 1);
                            let fresh = decoder.fresh_buffers();
                            if fresh != fresh_counted {
                                shared
                                    .counters
                                    .decode_buffer_allocs
                                    .fetch_add(fresh - fresh_counted, Ordering::Relaxed);
                                fresh_counted = fresh;
                            }
                            if !handle_frame(&shared, &conn, &mut decoder, &mut tenant, frame, decode_ns)
                            {
                                conn.shutdown();
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Framing is broken: typed error, close, let
                            // the client's retry policy reconnect.
                            shared.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                            telemetry::counter(metrics::DECODE_ERRORS_TOTAL, 1);
                            conn.send(
                                &shared.counters,
                                &Frame::Error { code: error_code::PROTOCOL, chip: 0, message: e.to_string() },
                            );
                            conn.shutdown();
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let stalled = last_byte.elapsed();
                let limit = if decoder.buffered() > 0 {
                    shared.cfg.read_deadline // slow-loris: partial frame
                } else {
                    shared.cfg.conn_idle_timeout
                };
                if stalled >= limit {
                    conn.shutdown();
                    return;
                }
            }
            Err(_) => break,
        }
    }
}

/// Process one decoded frame. Returns `false` when the connection must
/// close (protocol violation). `decoder` is the connection's: a readings
/// offer hands it one of the session's spent buffers for its next decode.
fn handle_frame(
    shared: &Arc<Shared>,
    conn: &Arc<ConnTx>,
    decoder: &mut FrameDecoder,
    conn_tenant: &mut Option<u64>,
    frame: Frame,
    decode_ns: u64,
) -> bool {
    match frame {
        Frame::Hello { tenant, chip } => {
            match conn_tenant {
                None => *conn_tenant = Some(tenant),
                Some(bound) if *bound != tenant => {
                    // One connection, one tenant — the structural wall the
                    // cross-tenant property test leans on.
                    conn.send(
                        &shared.counters,
                        &Frame::Error {
                            code: error_code::PROTOCOL,
                            chip,
                            message: format!("connection is bound to tenant {bound}"),
                        },
                    );
                    return false;
                }
                Some(_) => {}
            }
            let key = SessionKey { tenant, chip };
            open_session(shared, conn, key)
        }
        Frame::Readings { chip, seq, trace, values } => {
            let Some(tenant) = *conn_tenant else {
                conn.send(
                    &shared.counters,
                    &Frame::Error {
                        code: error_code::PROTOCOL,
                        chip,
                        message: "readings before hello".into(),
                    },
                );
                return false;
            };
            let key = SessionKey { tenant, chip };
            telemetry::counter(metrics::tenant_metric(tenant, "frames"), 1);
            let shard = shared.shard_of(key);
            let entry = {
                let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
                sessions.get(&key).cloned()
            };
            let Some(entry) = entry else {
                conn.send(
                    &shared.counters,
                    &Frame::Error {
                        code: error_code::UNKNOWN_SESSION,
                        chip,
                        message: "no session for this chip; send hello".into(),
                    },
                );
                return true;
            };
            // Resume the client's trace when the frame carries an ID;
            // derive the canonical one otherwise so untraced (v1)
            // clients still show up in the tail sampler. Either way the
            // ID is a pure function of (tenant, chip, seq), so chaos
            // replays reproduce it bit-for-bit.
            let pending = trace::enabled().then(|| {
                let trace_id = trace.unwrap_or_else(|| trace::trace_id(tenant, chip, seq));
                PendingTrace {
                    ctx: TraceContext { trace_id, tenant, chip, seq },
                    decode_ns,
                    enqueued: Instant::now(),
                }
            });
            let offer = {
                let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
                guard.conn = Some(conn.clone());
                // The lock is held anyway: take back one buffer a drain
                // spent, so the next decode on this connection reuses it
                // instead of allocating.
                if let Some(spare) = guard.session.take_spare() {
                    decoder.recycle(spare);
                }
                guard.session.offer(seq, values, pending)
            };
            match offer {
                Offer::Queued => {
                    shard.dirty.store(true, Ordering::Release);
                    shared.notify();
                }
                Offer::QueuedAfterShed => {
                    shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                    metrics::count(tenant, metrics::SHED_TOTAL, "shed", 1);
                    shard.dirty.store(true, Ordering::Release);
                    shared.notify();
                }
                Offer::Rejected(busy) => {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    metrics::count(tenant, metrics::REJECTED_TOTAL, "rejected", 1);
                    // A Busy response is an availability SLI miss — but
                    // only once per trace ID: a duplicated frame that is
                    // rejected twice still burnt exactly one budget unit.
                    if let Some(p) = pending {
                        if shared.traces.admit(tenant, p.ctx.trace_id) {
                            shared.slo.record_busy(tenant);
                        }
                    } else {
                        shared.slo.record_busy(tenant);
                    }
                    conn.send(&shared.counters, &busy);
                    // Still drain: recovery needs the queue to move.
                    shard.dirty.store(true, Ordering::Release);
                    shared.notify();
                }
                Offer::Quarantined(err) => {
                    conn.send(&shared.counters, &err);
                }
            }
            true
        }
        // Server-to-client kinds arriving at the server are violations.
        Frame::HelloAck { chip, .. }
        | Frame::Decision { chip, .. }
        | Frame::Busy { chip, .. }
        | Frame::Error { chip, .. } => {
            conn.send(
                &shared.counters,
                &Frame::Error {
                    code: error_code::PROTOCOL,
                    chip,
                    message: "server-bound connection received a server frame".into(),
                },
            );
            false
        }
    }
}

/// Resolve a `Hello`: in-memory session, else checkpoint, else factory.
fn open_session(shared: &Arc<Shared>, conn: &Arc<ConnTx>, key: SessionKey) -> bool {
    let shard = shared.shard_of(key);
    {
        let sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = sessions.get(&key) {
            let mut guard = entry.lock().unwrap_or_else(|e| e.into_inner());
            guard.conn = Some(conn.clone());
            let alarmed = guard.session.is_alarmed();
            drop(guard);
            drop(sessions);
            conn.send(
                &shared.counters,
                &Frame::HelloAck { chip: key.chip, resumed: true, alarmed },
            );
            return true;
        }
    }
    // Not in memory. Try the checkpoint dir (outside the map lock — disk
    // IO and model validation don't belong under it).
    let mut resumed = false;
    let monitor: Box<dyn ChipMonitor> = match shared
        .cfg
        .checkpoint_dir
        .as_deref()
        .map(|dir| crate::checkpoint::load(dir, key))
    {
        Some(Ok(Some(monitor))) => {
            resumed = true;
            shared.counters.restores.fetch_add(1, Ordering::Relaxed);
            metrics::count(key.tenant, metrics::RESTORES_TOTAL, "restores", 1);
            Box::new(monitor)
        }
        Some(Err(e)) => {
            // A present-but-bad checkpoint is an incident, not a crash;
            // fall through to a fresh session.
            eprintln!(
                "[fleet] discarding corrupt checkpoint for tenant {} chip {}: {e}",
                key.tenant, key.chip
            );
            let fields = [("tenant", key.tenant as f64), ("chip", key.chip as f64)];
            telemetry::incident::report(&Incident {
                fields: &fields,
                ..Incident::new("fleet_checkpoint_corrupt")
            });
            shared.counters.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            telemetry::counter(metrics::CHECKPOINT_FAILURES_TOTAL, 1);
            match (shared.factory)(key) {
                Ok(m) => m,
                Err(msg) => return refuse_session(shared, conn, key, msg),
            }
        }
        Some(Ok(None)) | None => match (shared.factory)(key) {
            Ok(m) => m,
            Err(msg) => return refuse_session(shared, conn, key, msg),
        },
    };
    let alarmed = monitor.is_alarmed();
    let entry = Arc::new(Mutex::new(SessionEntry {
        session: Session::new(key, monitor, shared.cfg.ladder),
        conn: Some(conn.clone()),
    }));
    {
        let mut sessions = shard.sessions.lock().unwrap_or_else(|e| e.into_inner());
        // A concurrent Hello for the same key may have won the race;
        // keep the existing entry in that case.
        sessions.entry(key).or_insert(entry);
    }
    conn.send(&shared.counters, &Frame::HelloAck { chip: key.chip, resumed, alarmed });
    true
}

fn refuse_session(shared: &Arc<Shared>, conn: &Arc<ConnTx>, key: SessionKey, msg: String) -> bool {
    conn.send(
        &shared.counters,
        &Frame::Error { code: error_code::REJECTED, chip: key.chip, message: msg },
    );
    true
}
