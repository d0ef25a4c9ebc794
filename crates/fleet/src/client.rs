//! Fleet client / load generator with seeded retry-backoff and optional
//! chaos injection.
//!
//! [`FleetClient`] speaks the frame protocol for one tenant. All sends
//! pass through a [`FaultyTransport`], so the same code path serves both
//! the well-behaved control client (a [`ChaosConfig::quiet`] schedule)
//! and the chaos load generator. Transport failures — real or injected —
//! trigger reconnect with exponential backoff and jittered delays (the
//! jitter comes from the same seeded RNG family, so runs replay), and
//! every registered chip is re-`Hello`ed after a reconnect, recording
//! whether the server resumed it and whether its alarm survived.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use voltsense_telemetry::trace;
use voltsense_workload::GaussianRng;

use crate::chaos::{ChaosConfig, ChaosStats, FaultyTransport, Injected};
use crate::frame::{encode_readings_into, Frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME};

/// Reconnect/backoff tuning.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First backoff delay.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub max_ms: u64,
    /// Connection attempts before giving up.
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { base_ms: 10, max_ms: 500, max_retries: 20 }
    }
}

impl RetryPolicy {
    /// Exponential backoff with jitter in `[0.5, 1.0]` of the raw delay.
    fn delay(&self, attempt: usize, rng: &mut GaussianRng) -> Duration {
        let raw = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16) as u32)
            .min(self.max_ms);
        Duration::from_millis((raw as f64 * (0.5 + 0.5 * rng.uniform())).round() as u64)
    }
}

/// Why a client operation failed for good (retries exhausted or the
/// server refused in a way retrying cannot fix).
#[derive(Debug)]
pub enum ClientError {
    /// Could not (re)connect within the retry budget.
    ConnectFailed(std::io::Error),
    /// The server answered with a terminal error frame.
    Refused {
        /// [`crate::frame::error_code`] discriminant.
        code: u8,
        /// Server-provided detail.
        message: String,
    },
    /// Waited past the deadline for an expected response.
    TimedOut,
    /// The *server's* bytes failed to decode — a real protocol bug, not
    /// injected chaos (chaos only touches the outbound path).
    BadFrame(FrameError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConnectFailed(e) => write!(f, "connect failed after retries: {e}"),
            Self::Refused { code, message } => write!(f, "server refused (code {code}): {message}"),
            Self::TimedOut => write!(f, "timed out waiting for a response"),
            Self::BadFrame(e) => write!(f, "undecodable server frame: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Result of a `Hello` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloStatus {
    /// Server resumed existing state (memory or checkpoint) vs built fresh.
    pub resumed: bool,
    /// Alarm latched at handshake time.
    pub alarmed: bool,
}

/// Client-side counters for soak reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Reconnects performed (after injected or real transport failures).
    pub reconnects: u64,
    /// Readings frames offered to the transport.
    pub sends: u64,
    /// Decision frames received.
    pub decisions: u64,
    /// Busy frames received (server shedding).
    pub busys: u64,
    /// Error frames received.
    pub errors: u64,
}

/// One tenant's connection to the fleet server.
pub struct FleetClient {
    addr: SocketAddr,
    tenant: u64,
    retry: RetryPolicy,
    transport: FaultyTransport,
    rng: GaussianRng,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    inbox: VecDeque<Frame>,
    registered: BTreeSet<u64>,
    /// Bumped on every connection drop; lets waiters notice that a
    /// response they expect can no longer arrive.
    generation: u64,
    /// Last handshake result per chip (tests read latch survival here).
    pub last_hello: BTreeMap<u64, HelloStatus>,
    stats: ClientStats,
}

impl FleetClient {
    /// Client for `tenant` against `addr`, with chaos per `chaos`.
    pub fn new(addr: SocketAddr, tenant: u64, retry: RetryPolicy, chaos: ChaosConfig) -> Self {
        Self {
            addr,
            tenant,
            retry,
            transport: FaultyTransport::new(chaos),
            rng: GaussianRng::seed_from_u64(chaos.seed ^ tenant.rotate_left(17)),
            stream: None,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            inbox: VecDeque::new(),
            registered: BTreeSet::new(),
            generation: 0,
            last_hello: BTreeMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The tenant this client authenticates as.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Chaos-injection counters.
    pub fn chaos_stats(&self) -> ChaosStats {
        self.transport.stats()
    }

    /// Open (or reuse) the connection, with backoff on failure.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut last_err = None;
        for attempt in 0..self.retry.max_retries {
            match TcpStream::connect_timeout(&self.addr, Duration::from_secs(2)) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(5)));
                    self.stream = Some(stream);
                    self.decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
                    return Ok(());
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(self.retry.delay(attempt, &mut self.rng));
                }
            }
        }
        Err(ClientError::ConnectFailed(last_err.unwrap_or_else(|| {
            std::io::Error::other("no attempt made")
        })))
    }

    fn drop_connection(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        self.decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        self.generation += 1;
        self.stats.reconnects += 1;
    }

    /// Push one encoded frame through the chaos transport. `Ok(false)`
    /// means the (possibly injected) connection dropped — the caller
    /// retries after `recover`.
    fn transmit(&mut self, encoded: Vec<u8>) -> Result<bool, ClientError> {
        self.ensure_connected()?;
        let action = self.transport.inject(encoded);
        let (chunks, disconnect_after, stall) = match action {
            Injected::Write(chunks) => (chunks, false, 0),
            Injected::WriteThenDisconnect(chunks) => (chunks, true, 0),
            Injected::StallThenWrite(ms, chunks) => (chunks, false, ms),
        };
        if stall > 0 {
            std::thread::sleep(Duration::from_millis(stall));
        }
        let stream = self.stream.as_mut().expect("ensure_connected sets the stream");
        for chunk in &chunks {
            if stream.write_all(chunk).and_then(|()| stream.flush()).is_err() {
                self.drop_connection();
                return Ok(false);
            }
        }
        if disconnect_after {
            self.drop_connection();
            return Ok(false);
        }
        Ok(true)
    }

    /// Drop the connection on purpose (chaos tests use this to pin latch
    /// survival across a mid-stream disconnect + reconnect). The next
    /// operation reconnects and re-handshakes.
    pub fn disconnect(&mut self) {
        if self.stream.is_some() {
            self.drop_connection();
        }
    }

    /// Re-`Hello` every registered chip (after a reconnect).
    fn recover(&mut self) -> Result<(), ClientError> {
        let chips: Vec<u64> = self.registered.iter().copied().collect();
        for chip in chips {
            self.hello(chip)?;
        }
        Ok(())
    }

    /// Handshake one chip, retrying through injected failures. Records
    /// the ack in [`last_hello`](Self::last_hello).
    pub fn hello(&mut self, chip: u64) -> Result<HelloStatus, ClientError> {
        for _ in 0..self.retry.max_retries {
            let sent =
                self.transmit(Frame::Hello { tenant: self.tenant, chip }.encode())?;
            if !sent {
                continue;
            }
            // Short ack wait: chaos can strand a Hello (e.g. pocketed by
            // a reorder), and the retry loop resends far cheaper than a
            // long timeout waits.
            match self.wait_for(Duration::from_millis(500), |f| {
                matches!(f, Frame::HelloAck { chip: c, .. } if *c == chip)
                    || matches!(f, Frame::Error { chip: c, .. } if *c == chip)
            }) {
                Ok(Frame::HelloAck { resumed, alarmed, .. }) => {
                    let status = HelloStatus { resumed, alarmed };
                    self.registered.insert(chip);
                    self.last_hello.insert(chip, status);
                    return Ok(status);
                }
                Ok(Frame::Error { code, message, .. }) => {
                    return Err(ClientError::Refused { code, message });
                }
                Ok(_) => unreachable!("wait_for predicate"),
                Err(ClientError::TimedOut) => continue, // ack lost to chaos; retry
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::TimedOut)
    }

    /// Send one readings batch, fire-and-forget: decisions arrive later
    /// via [`drain_responses`](Self::drain_responses). Reconnects (and
    /// re-hellos every registered chip) when the transport drops.
    pub fn send_readings(
        &mut self,
        chip: u64,
        seq: u64,
        values: &[f64],
    ) -> Result<(), ClientError> {
        self.stats.sends += 1;
        // Stamp the deterministic trace ID at the edge, so the span the
        // server records is attributable to this exact (tenant, chip,
        // seq) — and so a chaos-duplicated frame carries the *same* ID
        // and dedupes server-side instead of double-counting.
        let trace = trace::enabled().then(|| trace::trace_id(self.tenant, chip, seq));
        let mut frame = Vec::new();
        encode_readings_into(chip, seq, trace, values, &mut frame);
        let sent = self.transmit(frame)?;
        if !sent {
            self.recover()?;
        }
        Ok(())
    }

    /// Read whatever responses are available within `wait`, tallying them
    /// into [`stats`](Self::stats); returns them oldest-first.
    pub fn drain_responses(&mut self, wait: Duration) -> Vec<Frame> {
        let deadline = Instant::now() + wait;
        // Pump until a response lands or the deadline passes; a pump
        // error means the connection is gone (sends will reconnect).
        while self.pump().is_ok() {
            if !self.inbox.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
        let frames: Vec<Frame> = self.inbox.drain(..).collect();
        for f in &frames {
            match f {
                Frame::Decision { .. } => self.stats.decisions += 1,
                Frame::Busy { .. } => self.stats.busys += 1,
                Frame::Error { .. } => self.stats.errors += 1,
                _ => {}
            }
        }
        frames
    }

    /// Block until a frame matching `pred` arrives (other frames queue in
    /// the inbox) or `timeout` passes. Gives up early if the connection
    /// drops mid-wait: a response to a request sent on the old connection
    /// can never arrive on the new one, so waiting the timeout out would
    /// only slow the caller's retry loop down.
    pub fn wait_for(
        &mut self,
        timeout: Duration,
        pred: impl Fn(&Frame) -> bool,
    ) -> Result<Frame, ClientError> {
        let deadline = Instant::now() + timeout;
        let generation = self.generation;
        loop {
            if let Some(at) = self.inbox.iter().position(&pred) {
                return Ok(self.inbox.remove(at).expect("position just found"));
            }
            if Instant::now() >= deadline || self.generation != generation {
                return Err(ClientError::TimedOut);
            }
            self.pump()?;
        }
    }

    /// One bounded read into the decoder, moving frames to the inbox.
    fn pump(&mut self) -> Result<(), ClientError> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("ensure_connected sets the stream");
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => {
                self.drop_connection();
            }
            Ok(n) => {
                self.decoder.push(&buf[..n]);
                loop {
                    match self.decoder.next() {
                        Ok(Some(frame)) => self.inbox.push_back(frame),
                        Ok(None) => break,
                        // Server bytes never carry injected chaos: a
                        // decode failure here is a genuine protocol bug.
                        Err(e) => return Err(ClientError::BadFrame(e)),
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => {
                self.drop_connection();
            }
        }
        Ok(())
    }
}
