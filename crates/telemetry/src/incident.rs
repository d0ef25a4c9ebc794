//! Incident snapshots: freeze the flight recorder the moment something
//! goes wrong.
//!
//! When an [`EmergencyMonitor`](../../voltsense_core/monitor/index.html)
//! asserts an alarm, trips a plausibility gate, hot-swaps a fallback
//! model, or degrades beyond recovery, it calls [`report`]. If a
//! [`FlightRecorder`] is registered
//! ([`crate::flight::install`] / [`crate::init_always_on`]), the last-N
//! window of ring events plus a full exact-metrics snapshot is written as
//! one timestamped `voltsense-incident-v1` JSON file — so every emergency
//! is explainable after the fact *without* tracing having been
//! pre-enabled. With no flight recorder registered, `report` is a no-op.
//!
//! Files land in `VOLTSENSE_INCIDENT_DIR` (default
//! `<results dir>/incidents/`), named
//! `incident_<unix_ms>_<seq>_<kind>.json`. A per-kind cap
//! (`VOLTSENSE_INCIDENT_MAX`, default 16 per process) bounds disk use
//! even if an incident kind fires on every sample.
//!
//! Schema `voltsense-incident-v1`:
//!
//! ```json
//! {
//!   "schema": "voltsense-incident-v1",
//!   "kind": "alarm",
//!   "seq": 0,
//!   "at_unix_ms": 1754550000000,
//!   "fields": {"predicted_min": 0.83, "threshold": 0.85},
//!   "failed_sensors": [2],
//!   "gated_sensors": [],
//!   "sampling": [{"name": "bcd.sweep", "seen": 9000, "kept": 5120, "stride": 4}],
//!   "ring": [{"seq": 0, "name": "...", "at_ns": 1, "fields": {...}}, ...],
//!   "metrics": { "schema": "voltsense-metrics-v1", ... },
//!   "traces": { "schema": "voltsense-trace-v1", ... }
//! }
//! ```
//!
//! `traces` is the registered trace buffer ([`crate::trace::current`]) at
//! the moment of the incident, or `null` when none is installed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::export::{fmt_f64, push_json_string};
use crate::flight::{self, FlightRecorder};

/// Default per-kind cap on incident files written by one process.
pub const DEFAULT_MAX_PER_KIND: u64 = 16;

/// Everything the reporting site knows about the moment of the incident.
/// All fields but `kind` may be empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct Incident<'a> {
    /// Short machine-readable cause: `alarm`, `plausibility_gate`,
    /// `hot_swap`, `degraded_beyond_recovery`, …
    pub kind: &'static str,
    /// Numeric context (predicted minimum, threshold, sample index, …).
    pub fields: &'a [(&'static str, f64)],
    /// Sensors attributed as permanently failed at this moment.
    pub failed_sensors: &'a [usize],
    /// Sensors gated out of the triggering sample.
    pub gated_sensors: &'a [usize],
}

impl<'a> Incident<'a> {
    pub fn new(kind: &'static str) -> Self {
        Incident {
            kind,
            ..Incident::default()
        }
    }
}

static SEQ: AtomicU64 = AtomicU64::new(0);
static PER_KIND: Mutex<Option<BTreeMap<&'static str, u64>>> = Mutex::new(None);

/// Snapshot the registered flight recorder into an incident file.
///
/// Returns the written path, or `None` when no flight recorder is
/// registered, the per-kind cap is exhausted, or the write fails (a
/// monitor must keep monitoring even when the disk does not cooperate;
/// the failure is logged to stderr).
pub fn report(incident: &Incident) -> Option<PathBuf> {
    let recorder = flight::current()?;
    {
        let mut guard = PER_KIND.lock().unwrap_or_else(|e| e.into_inner());
        let counts = guard.get_or_insert_with(BTreeMap::new);
        let n = counts.entry(incident.kind).or_insert(0);
        let max = crate::env::parse::<u64>("VOLTSENSE_INCIDENT_MAX").unwrap_or(DEFAULT_MAX_PER_KIND);
        if *n >= max {
            return None;
        }
        *n += 1;
    }
    let dir = crate::env::value("VOLTSENSE_INCIDENT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| crate::env::results_dir().join("incidents"));
    match write(incident, &recorder, &dir) {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!("[telemetry] failed to write {} incident: {e}", incident.kind);
            crate::counter("incident.write_failures", 1);
            None
        }
    }
}

/// Serialize and write one incident file into `dir` (created if missing).
/// Applies no cap — [`report`] is the rate-limited entry point.
pub fn write(
    incident: &Incident,
    recorder: &FlightRecorder,
    dir: &Path,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let path = dir.join(format!("incident_{unix_ms}_{seq:04}_{}.json", incident.kind));
    std::fs::write(&path, render(incident, recorder, seq, unix_ms))?;
    Ok(path)
}

/// The `voltsense-incident-v1` document for one incident.
fn render(incident: &Incident, recorder: &FlightRecorder, seq: u64, unix_ms: u64) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n  \"schema\": \"voltsense-incident-v1\",\n  \"kind\": ");
    push_json_string(&mut out, incident.kind);
    out.push_str(&format!(",\n  \"seq\": {seq},\n  \"at_unix_ms\": {unix_ms},\n  \"fields\": {{"));
    for (i, (k, v)) in incident.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(&mut out, k);
        out.push_str(": ");
        out.push_str(&fmt_f64(*v));
    }
    out.push_str("},\n  \"failed_sensors\": ");
    push_usize_array(&mut out, incident.failed_sensors);
    out.push_str(",\n  \"gated_sensors\": ");
    push_usize_array(&mut out, incident.gated_sensors);

    out.push_str(",\n  \"sampling\": [");
    for (i, (name, stat)) in recorder.sampler_stats().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"name\": ");
        push_json_string(&mut out, name);
        out.push_str(&format!(
            ", \"seen\": {}, \"kept\": {}, \"stride\": {}}}",
            stat.seen, stat.kept, stat.stride
        ));
    }
    out.push_str("\n  ],\n  \"ring\": [");
    for (i, e) in recorder.ring_events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"seq\": ");
        out.push_str(&e.seq.to_string());
        out.push_str(", \"name\": ");
        push_json_string(&mut out, e.name);
        out.push_str(&format!(", \"at_ns\": {}, \"fields\": {{", e.at_ns));
        for (j, (k, v)) in e.fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_string(&mut out, k);
            out.push_str(": ");
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("}}");
    }
    // The metrics snapshot is itself a complete `voltsense-metrics-v1`
    // document; embed it verbatim as a nested object.
    out.push_str("\n  ],\n  \"metrics\": ");
    out.push_str(recorder.snapshot(incident.kind).to_json().trim_end());
    // Likewise the trace buffer (`voltsense-trace-v1`), when one is
    // registered: the slowest traces at the moment of the incident are
    // exactly the request-level evidence a burn-rate page needs.
    out.push_str(",\n  \"traces\": ");
    match crate::trace::current() {
        Some(traces) => out.push_str(traces.to_json().trim_end()),
        None => out.push_str("null"),
    }
    // And the continuous profile (`voltsense-profile-v1`) when a sampler
    // is running: where the cycles and allocations were going when the
    // incident fired, without re-running anything.
    out.push_str(",\n  \"profile\": ");
    match crate::profile::current() {
        Some(profile) => out.push_str(profile.to_json().trim_end()),
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    out
}

fn push_usize_array(out: &mut String, values: &[usize]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Reset the per-kind caps and (test-only) make subsequent reports write
/// again. Exposed for integration tests that exercise `report` repeatedly
/// in one process.
pub fn reset_caps() {
    *PER_KIND.lock().unwrap_or_else(|e| e.into_inner()) = None;
}
