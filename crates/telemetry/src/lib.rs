//! # voltsense-telemetry
//!
//! Zero-external-dependency observability for the voltsense workspace:
//! a [`Recorder`] trait that costs nothing when no recorder is active, one
//! thread-safe implementation, [`MemoryRecorder`] (RAII hierarchical spans,
//! counters, gauges, log-scale histograms with percentile queries, and an
//! event ring whose capacity sets retention), and exporters for a JSON
//! snapshot, a Chrome trace-event file, and a plain-text summary table.
//!
//! Instrumented code calls the free functions in this module
//! ([`span`], [`counter`], [`gauge`], [`histogram`], [`event`]). When no
//! recorder is active they cost one relaxed atomic load plus one
//! thread-local read — nothing is allocated, formatted, or locked — so
//! instrumentation can stay in hot paths permanently (DESIGN.md §7).
//!
//! Two activation paths:
//! - **Process-global**: set `VOLTSENSE_TELEMETRY` and call
//!   [`init_from_env`] once near the top of `main`. A truthy value
//!   (`1`/`true`/`on`/`yes`) exports to `results/telemetry_<suite>.*`;
//!   any other non-empty value is used as the output path prefix.
//!   The returned [`TelemetryGuard`] writes `<prefix>.json` and
//!   `<prefix>.trace.json` when dropped.
//! - **Thread-scoped**: [`with_scoped`] routes signals from the current
//!   thread to a caller-owned recorder for the duration of a closure.
//!   Tests use this to capture without touching process globals, so
//!   parallel test threads never observe each other's telemetry.

#![deny(unsafe_code)]

pub mod env;
pub mod export;
pub mod flight;
mod histogram;
pub mod incident;
pub mod json;
pub mod profile;
pub mod prom;
mod recorder;
pub mod serve;
pub mod slo;
pub mod trace;

pub use export::{Snapshot, StackSummary};
pub use flight::{RingEvent, SamplerStat};
pub use histogram::Histogram;
pub use recorder::{Detail, MemoryRecorder, Recorder, SpanId};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static GLOBAL: OnceLock<Arc<dyn Recorder>> = OnceLock::new();
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static SCOPED: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    static SCOPED_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Is any recorder active for the current thread? Instrumentation sites can
/// use this to skip computing expensive signal values (e.g. a full objective
/// evaluation) when nobody is listening.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed) || SCOPED_DEPTH.with(|d| d.get() > 0)
}

/// Does the active recorder (if any) want *expensive* diagnostic signals?
///
/// Instrumentation sites whose signal values cost real compute (a full
/// objective evaluation per solver iteration) must guard on this instead
/// of [`enabled`]: an unbounded [`MemoryRecorder`] answers `true`, a
/// bounded (always-on) one answers `false`, so production processes never
/// pay for diagnostics nobody asked for.
#[inline]
pub fn detailed() -> bool {
    current_recorder().is_some_and(|r| r.detail() == Detail::Full)
}

/// The recorder signals from the current thread should go to, if any.
/// Scoped recorders shadow the process-global one.
fn current_recorder() -> Option<Arc<dyn Recorder>> {
    if SCOPED_DEPTH.with(|d| d.get() > 0) {
        if let Some(r) = SCOPED.with(|s| s.borrow().last().cloned()) {
            return Some(r);
        }
    }
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        return GLOBAL.get().cloned();
    }
    None
}

/// The innermost [`with_scoped`] recorder active on the current thread,
/// if any. The process-global recorder is *not* returned: it is already
/// visible from every thread. Exists so thread-pool runtimes can
/// re-install the submitting thread's scope on their workers — scoped
/// capture is a thread-local, so without propagation signals emitted from
/// worker threads inside a parallel region would silently bypass it.
pub fn scoped_recorder() -> Option<Arc<dyn Recorder>> {
    if SCOPED_DEPTH.with(|d| d.get() > 0) {
        SCOPED.with(|s| s.borrow().last().cloned())
    } else {
        None
    }
}

/// Install `recorder` as the process-global sink. Fails (returning the
/// recorder back) if one was already installed; the global can be set once
/// per process because instrumented code may cache nothing but the helpers
/// here never cache the pointer, so "set once" is purely a simplicity rule.
pub fn install_global(recorder: Arc<dyn Recorder>) -> Result<(), Arc<dyn Recorder>> {
    GLOBAL.set(recorder)?;
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Route telemetry from the current thread to `recorder` while `f` runs.
/// Nested scopes shadow outer ones; the scope is popped even if `f` panics.
pub fn with_scoped<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
            SCOPED_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SCOPED.with(|s| s.borrow_mut().push(recorder));
    SCOPED_DEPTH.with(|d| d.set(d.get() + 1));
    let _pop = Pop;
    f()
}

/// RAII wall-clock span. Created by [`span`]; when dropped, the recorder
/// records the interval, feeds the span-duration histogram and folds it
/// into its call path's exact profile ([`profile`]).
pub struct Span {
    active: Option<(Arc<dyn Recorder>, SpanId)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((recorder, id)) = self.active.take() {
            recorder.span_end(id);
        }
    }
}

/// Open a span named `name`. Free when telemetry is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        active: current_recorder().map(|recorder| {
            let id = recorder.span_begin(name);
            (recorder, id)
        }),
    }
}

/// Add `delta` to the counter `name`. Free when telemetry is disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if let Some(recorder) = current_recorder() {
        recorder.counter_add(name, delta);
    }
}

/// Set the gauge `name`. Free when telemetry is disabled.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if let Some(recorder) = current_recorder() {
        recorder.gauge_set(name, value);
    }
}

/// The interned `<prefix>.<tenant>.<metric>` name of a per-tenant metric.
///
/// Metric names are `&'static str` but tenant ids are dynamic. The set of
/// (prefix, tenant, metric) triples is small and long-lived, so each name
/// is leaked once, on first use, and every later call is a map hit.
pub fn tenant_metric(prefix: &'static str, tenant: u64, metric: &'static str) -> &'static str {
    type Key = (&'static str, u64, &'static str);
    static NAMES: Mutex<BTreeMap<Key, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    names
        .entry((prefix, tenant, metric))
        .or_insert_with(|| Box::leak(format!("{prefix}.{tenant}.{metric}").into_boxed_str()))
}

/// Record `value` into the histogram `name`. Free when telemetry is disabled.
#[inline]
pub fn histogram(name: &'static str, value: f64, unit: &'static str) {
    if let Some(recorder) = current_recorder() {
        recorder.histogram_record(name, value, unit);
    }
}

/// Record a timestamped event with numeric fields. Free when telemetry is
/// disabled; compute expensive field values behind an [`enabled`] check.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, f64)]) {
    if let Some(recorder) = current_recorder() {
        recorder.event(name, fields);
    }
}

/// Handle returned by [`init_from_env`]. Exports the capture when dropped:
/// writes `<prefix>.json` (snapshot) and `<prefix>.trace.json` (Chrome
/// trace) and prints the text summary to stderr.
pub struct TelemetryGuard {
    recorder: Arc<MemoryRecorder>,
    suite: String,
    prefix: PathBuf,
}

impl TelemetryGuard {
    /// Path the JSON snapshot will be written to.
    pub fn snapshot_path(&self) -> PathBuf {
        with_extension(&self.prefix, ".json")
    }

    /// Path the Chrome trace will be written to.
    pub fn trace_path(&self) -> PathBuf {
        with_extension(&self.prefix, ".trace.json")
    }
}

fn with_extension(prefix: &Path, suffix: &str) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        // Stop accepting signals before exporting so the files are final.
        GLOBAL_ENABLED.store(false, Ordering::Relaxed);
        let snapshot = self.recorder.snapshot(&self.suite);
        if let Some(parent) = self.prefix.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        let snapshot_path = self.snapshot_path();
        let trace_path = self.trace_path();
        if let Err(e) = std::fs::write(&snapshot_path, snapshot.to_json()) {
            eprintln!("[telemetry] failed to write {}: {e}", snapshot_path.display());
        }
        if let Err(e) = std::fs::write(&trace_path, snapshot.to_chrome_trace()) {
            eprintln!("[telemetry] failed to write {}: {e}", trace_path.display());
        }
        eprintln!(
            "[telemetry] wrote {} and {}",
            snapshot_path.display(),
            trace_path.display()
        );
        eprint!("{}", snapshot.to_summary_table());
    }
}

/// Activate telemetry for this process if `VOLTSENSE_TELEMETRY` is set.
///
/// - unset / falsy (`0`/`false`/`off`/`no`): returns `None`, telemetry
///   stays a no-op;
/// - truthy (`1`/`true`/`on`/`yes`): exports to
///   `<results dir>/telemetry_<suite>.{json,trace.json}`;
/// - anything else: treated as an output path prefix.
///
/// Call once near the top of `main` and keep the guard alive until the
/// instrumented work is done:
///
/// ```no_run
/// let _telemetry = voltsense_telemetry::init_from_env("my_bench");
/// ```
pub fn init_from_env(suite: &str) -> Option<TelemetryGuard> {
    let guard = export_guard_from_env(suite)?;
    if install_global(guard.recorder.clone()).is_err() {
        eprintln!("[telemetry] a global recorder is already installed; VOLTSENSE_TELEMETRY ignored");
        return None;
    }
    Some(guard)
}

/// The `VOLTSENSE_TELEMETRY` contract of [`init_from_env`] minus the
/// global installation: an unbounded recorder plus its export guard.
fn export_guard_from_env(suite: &str) -> Option<TelemetryGuard> {
    let raw = env::value("VOLTSENSE_TELEMETRY")?;
    if env::is_falsy(&raw) {
        return None;
    }
    let prefix = if env::is_truthy(&raw) {
        env::results_dir().join(format!("telemetry_{suite}"))
    } else {
        PathBuf::from(raw)
    };
    Some(TelemetryGuard {
        recorder: Arc::new(MemoryRecorder::new()),
        suite: suite.to_string(),
        prefix,
    })
}

/// Handle returned by [`init_always_on`]: owns the process recorder, the
/// optional export of it, and the optional live endpoint.
pub struct ObservabilityGuard {
    flight: Arc<MemoryRecorder>,
    /// Declared before `_export` so the endpoint stops before the export
    /// capture is finalized on drop.
    _server: Option<serve::Server>,
    _export: Option<TelemetryGuard>,
}

impl ObservabilityGuard {
    /// The process recorder, also registered as the flight recorder.
    pub fn flight(&self) -> &Arc<MemoryRecorder> {
        &self.flight
    }
}

/// Always-on observability for long-running processes (DESIGN.md §7):
///
/// 1. installs one [`MemoryRecorder`] as both the global sink and the
///    process flight recorder ([`flight::install`]) — incident snapshots
///    ([`incident::report`]) freeze it on demand. It is bounded
///    (capacity `VOLTSENSE_FLIGHT_CAPACITY`, default 4096 entries,
///    [`Detail::Sampled`]) unless `VOLTSENSE_TELEMETRY` is set;
/// 2. honours `VOLTSENSE_TELEMETRY` exactly like [`init_from_env`]; when
///    set, the recorder is unbounded ([`Detail::Full`]) and its export
///    lands on guard drop;
/// 3. honours `VOLTSENSE_TELEMETRY_ADDR` (`host:port` or bare port, port 0
///    for OS-assigned): starts [`serve::serve`] with `GET /metrics`
///    (Prometheus) and `GET /snapshot` (JSON) rendered live from the
///    recorder's newest `VOLTSENSE_FLIGHT_CAPACITY` ring entries;
/// 4. the recorder folds every span into an exact per-call-path profile
///    ([`profile`]), served at `GET /profile` from the same snapshots and
///    embedded in incident snapshots. It needs no knob and no thread.
///
/// Unlike diagnostic capture, this needs no environment variable: with
/// nothing set you still get the bounded-memory recorder and incident
/// files, at [`Detail::Sampled`] cost.
pub fn init_always_on(suite: &str) -> ObservabilityGuard {
    let window = flight::capacity_from_env();
    let export = export_guard_from_env(suite);
    let flight = match &export {
        Some(guard) => guard.recorder.clone(),
        None => Arc::new(MemoryRecorder::bounded(window)),
    };
    flight::install(flight.clone());
    if install_global(flight.clone()).is_err() {
        eprintln!(
            "[telemetry] a global recorder is already installed; \
             the always-on flight recorder will receive no signals"
        );
    }
    let server = env::value("VOLTSENSE_TELEMETRY_ADDR").and_then(|addr| {
        let suite = suite.to_string();
        let source_flight = flight.clone();
        let source: serve::SnapshotSource =
            Arc::new(move || source_flight.snapshot_newest(&suite, window));
        match serve::serve(&addr, source) {
            Ok(server) => {
                eprintln!("[telemetry] serving /metrics and /snapshot on http://{}", server.addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("[telemetry] cannot serve on {addr}: {e}");
                None
            }
        }
    });
    ObservabilityGuard {
        flight,
        _server: server,
        _export: export,
    }
}
