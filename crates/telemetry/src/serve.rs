//! Zero-dependency live scrape endpoint.
//!
//! [`serve`] binds a `std::net::TcpListener` and answers its routes from
//! a caller-supplied snapshot source, one short-lived connection at a time
//! (scrapers are the only intended clients):
//!
//! * `GET /` — JSON index of every endpoint below, so a browser hit on
//!   the bare port is self-documenting;
//! * `GET /metrics` — Prometheus text exposition ([`crate::prom::encode`]);
//! * `GET /snapshot` — the `voltsense-metrics-v1` JSON snapshot;
//! * `GET /trace` — the `voltsense-trace-v1` tail-sampled trace buffer
//!   ([`crate::trace::current`]; an empty document when none is installed);
//! * `GET /slo` — the `voltsense-slo-v1` per-tenant burn-rate view
//!   ([`crate::slo::current`]; an empty document when none is installed);
//! * `GET /profile` — the `voltsense-profile-v2` exact span profile of the
//!   same snapshot ([`Snapshot::to_profile_json`]);
//!   `GET /profile?format=collapsed` serves flamegraph-compatible
//!   collapsed-stack text instead ([`Snapshot::to_collapsed`]);
//! * `GET /healthz` — readiness. With no [`install_health`] source this is
//!   the legacy unconditional `200 ok`; with one installed it answers
//!   `200`/`503` with a JSON body (quarantined/degraded session counts,
//!   last-checkpoint age) so orchestrators can actually gate on it.
//!
//! **Security posture**: the server speaks unauthenticated plaintext HTTP
//! and must not face untrusted networks. A bare port (`VOLTSENSE_TELEMETRY_ADDR=9184`)
//! therefore binds `127.0.0.1`; exposing it wider requires spelling out an
//! explicit bind address.
//!
//! **Robustness posture**: the accept loop handles one connection at a
//! time, so a hostile or broken client must never wedge it. Each request
//! head is read under a hard wall-clock deadline
//! (`VOLTSENSE_TELEMETRY_READ_DEADLINE_MS`, default 5000) and a bounded
//! buffer (`MAX_HEAD`): a slow-loris client trickling bytes gets `408
//! Request Timeout` when the deadline expires, and an oversized request
//! head gets `413 Content Too Large` the moment the bound is exceeded —
//! in both cases the connection is answered and closed instead of hanging.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::export::Snapshot;
use crate::prom;

/// Produces the snapshot a scrape observes. Called once per request.
pub type SnapshotSource = Arc<dyn Fn() -> Snapshot + Send + Sync>;

/// Readiness answer produced by an [`install_health`] source.
pub struct Health {
    /// `true` → `200 OK`, `false` → `503 Service Unavailable`.
    pub healthy: bool,
    /// JSON body served either way (session counts, checkpoint age, …).
    pub body: String,
}

/// Produces the `/healthz` answer. Called once per request.
pub type HealthSource = Arc<dyn Fn() -> Health + Send + Sync>;

/// Process-global readiness source, replaceable like
/// [`crate::flight::install`] so each fleet server (and each test) can
/// wire its own. With none installed `/healthz` stays the legacy
/// unconditional `200 ok` liveness probe.
static HEALTH: Mutex<Option<HealthSource>> = Mutex::new(None);

/// Register `source` as the process `/healthz` answerer (replacing any
/// previous one) and return the one installed before.
pub fn install_health(source: HealthSource) -> Option<HealthSource> {
    HEALTH.lock().unwrap_or_else(|e| e.into_inner()).replace(source)
}

/// Remove the registered readiness source, restoring the legacy probe.
pub fn clear_health() -> Option<HealthSource> {
    HEALTH.lock().unwrap_or_else(|e| e.into_inner()).take()
}

fn health_source() -> Option<HealthSource> {
    HEALTH.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Handle to a running endpoint; the server stops when this is dropped.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// The actual bound address (resolves port 0 to the assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the serve thread and wait for it to exit.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Start serving `source` on `addr`.
///
/// `addr` is `host:port` or a bare port (which binds `127.0.0.1`); port 0
/// picks a free port — read the result from [`Server::addr`]. If
/// `VOLTSENSE_TELEMETRY_ADDR_FILE` is set, the bound address is also
/// written there so an out-of-process scraper can discover an
/// OS-assigned port; a failed address-file write is reported (stderr +
/// `telemetry.addr_file_failures` counter) but does not stop the server —
/// the endpoint itself is healthy.
pub fn serve(addr: &str, source: SnapshotSource) -> std::io::Result<Server> {
    let addr = if addr.contains(':') {
        addr.to_string()
    } else {
        format!("127.0.0.1:{addr}")
    };
    let listener = TcpListener::bind(&addr)?;
    let addr = listener.local_addr()?;
    if let Some(path) = crate::env::value("VOLTSENSE_TELEMETRY_ADDR_FILE") {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("[telemetry] cannot write address file {path}: {e}");
            crate::counter("telemetry.addr_file_failures", 1);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread = std::thread::Builder::new()
        .name("voltsense-telemetry-serve".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = conn {
                    // One scraper at a time; errors only affect that client.
                    let _ = handle(stream, &source);
                }
            }
        })?;
    Ok(Server {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Largest request head (request line + headers) we will buffer.
const MAX_HEAD: usize = 8 * 1024;

/// Default wall-clock budget for receiving a complete request head.
const DEFAULT_READ_DEADLINE_MS: u64 = 5_000;

/// How the head-read phase of a request ended.
enum HeadRead {
    /// Complete head (terminated by a blank line) or clean EOF.
    Complete(Vec<u8>),
    /// The deadline expired before the head terminator arrived.
    TimedOut,
    /// The head exceeded [`MAX_HEAD`] without a terminator.
    TooLarge,
}

/// Read the request head under the deadline/size bounds. Transport errors
/// other than timeouts end the read as if the peer closed (whatever was
/// buffered is processed; an empty head falls out as a 405/404).
fn read_head(stream: &mut TcpStream, deadline: Instant) -> HeadRead {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            return HeadRead::Complete(head);
        }
        if head.len() >= MAX_HEAD {
            return HeadRead::TooLarge;
        }
        let now = Instant::now();
        if now >= deadline {
            return HeadRead::TimedOut;
        }
        // Bound each read() by the remaining budget so a byte-at-a-time
        // client cannot extend its welcome by resetting a per-read timer.
        let remaining = (deadline - now).min(Duration::from_secs(2));
        if stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1)))).is_err() {
            return HeadRead::Complete(head);
        }
        match stream.read(&mut buf) {
            Ok(0) => return HeadRead::Complete(head),
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Loop re-checks the deadline; a timeout mid-budget (spurious
                // wakeup shorter than `remaining`) just retries.
            }
            Err(_) => return HeadRead::Complete(head),
        }
    }
}

/// The `GET /` body: a machine- and human-readable endpoint index.
fn endpoint_index() -> String {
    concat!(
        "{\n  \"service\": \"voltsense-telemetry\",\n  \"endpoints\": [\n",
        "    {\"path\": \"/metrics\", \"description\": \"Prometheus text exposition\"},\n",
        "    {\"path\": \"/snapshot\", \"description\": \"voltsense-metrics-v1 JSON snapshot\"},\n",
        "    {\"path\": \"/trace\", \"description\": \"voltsense-trace-v1 tail-sampled traces\"},\n",
        "    {\"path\": \"/slo\", \"description\": \"voltsense-slo-v1 per-tenant burn rates\"},\n",
        "    {\"path\": \"/profile\", \"description\": \"voltsense-profile-v2 exact span profile\"},\n",
        "    {\"path\": \"/profile?format=collapsed\", \"description\": \"flamegraph collapsed-stack text\"},\n",
        "    {\"path\": \"/healthz\", \"description\": \"readiness probe\"}\n",
        "  ]\n}\n"
    )
    .to_string()
}

fn handle(mut stream: TcpStream, source: &SnapshotSource) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let budget_ms = crate::env::parse::<u64>("VOLTSENSE_TELEMETRY_READ_DEADLINE_MS")
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_READ_DEADLINE_MS);
    let deadline = Instant::now() + Duration::from_millis(budget_ms);

    let (status, content_type, body) = match read_head(&mut stream, deadline) {
        HeadRead::TimedOut => {
            crate::counter("telemetry.serve_timeouts", 1);
            (
                "408 Request Timeout",
                "text/plain",
                "request head not received within the read deadline\n".to_string(),
            )
        }
        HeadRead::TooLarge => {
            crate::counter("telemetry.serve_oversized", 1);
            (
                "413 Content Too Large",
                "text/plain",
                format!("request head exceeds {MAX_HEAD} bytes\n"),
            )
        }
        HeadRead::Complete(head) => {
            let head = String::from_utf8_lossy(&head);
            let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
            let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if method != "GET" {
                ("405 Method Not Allowed", "text/plain", "only GET is supported\n".to_string())
            } else {
                // `/profile?format=collapsed` is the only query we accept;
                // split it off so exact-path matching stays exact.
                let (path, query) = match path.split_once('?') {
                    Some((p, q)) => (p, q),
                    None => (path, ""),
                };
                match path {
                    "/" => ("200 OK", "application/json", endpoint_index()),
                    "/metrics" => (
                        "200 OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        prom::encode(&source()),
                    ),
                    "/snapshot" => ("200 OK", "application/json", source().to_json()),
                    "/trace" => (
                        "200 OK",
                        "application/json",
                        crate::trace::current()
                            .map(|t| t.to_json())
                            .unwrap_or_else(crate::trace::empty_json),
                    ),
                    "/slo" => (
                        "200 OK",
                        "application/json",
                        crate::slo::current()
                            .map(|s| s.to_json())
                            .unwrap_or_else(crate::slo::empty_json),
                    ),
                    "/profile" if query == "format=collapsed" => {
                        ("200 OK", "text/plain; charset=utf-8", source().to_collapsed())
                    }
                    // Bare `/profile` only: an unrecognized format query
                    // falls through to 404 rather than silently serving
                    // JSON to a client that asked for something else.
                    "/profile" if query.is_empty() => {
                        ("200 OK", "application/json", source().to_profile_json())
                    }
                    "/healthz" => match health_source() {
                        None => ("200 OK", "text/plain", "ok\n".to_string()),
                        Some(health) => {
                            let answer = health();
                            (
                                if answer.healthy {
                                    "200 OK"
                                } else {
                                    "503 Service Unavailable"
                                },
                                "application/json",
                                answer.body,
                            )
                        }
                    },
                    _ => (
                        "404 Not Found",
                        "text/plain",
                        "routes: / /metrics /snapshot /trace /slo /profile /healthz\n".to_string(),
                    ),
                }
            }
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
