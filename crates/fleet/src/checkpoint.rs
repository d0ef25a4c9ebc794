//! Crash-safe session persistence.
//!
//! A checkpoint is one JSON document (`voltsense-fleet-checkpoint-v1`)
//! per `(tenant, chip)` session holding the full OLS model *and* the
//! monitor's alarm state machine, so a restarted server resumes alarms
//! without refitting — including a latched alarm, which must survive
//! `kill -9`.
//!
//! Numbers that must round-trip bit-exactly are written carefully:
//! `f64`s use Rust's shortest round-trip `Display` (the same contract as
//! `telemetry`'s metric export), and `u64`s (ids, counters) are written
//! as JSON *strings* because the in-tree parser reads numbers as `f64`,
//! which silently rounds above 2^53.
//!
//! Writes are atomic and durable: the `.tmp` file is synced before it is
//! renamed over the final path, and the directory is synced after, so
//! neither a process crash nor an OS crash leaves a torn file or a rename
//! that landed before its data. No test covers the OS-crash half (torn
//! writes, ENOSPC, rename-before-data need a fault-injecting filesystem
//! shim); the kill -9 half is covered by the restart tests.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use voltsense_core::{EmergencyMonitor, MonitorCheckpoint, MonitorStats, VoltageMapModel};
use voltsense_linalg::Matrix;
use voltsense_telemetry::json::{self, Value};

use crate::session::SessionKey;

/// Schema tag carried by every checkpoint document.
pub const SCHEMA: &str = "voltsense-fleet-checkpoint-v1";

/// Why a checkpoint could not be loaded or stored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (write, rename, read).
    Io(std::io::Error),
    /// The file is not valid JSON.
    Parse(json::ParseError),
    /// The document is JSON but not a valid v1 checkpoint.
    Schema(String),
    /// The checkpointed model or monitor failed re-validation.
    Invalid(voltsense_core::CoreError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io: {e}"),
            Self::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            Self::Schema(what) => write!(f, "checkpoint schema violation: {what}"),
            Self::Invalid(e) => write!(f, "checkpoint failed re-validation: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// File name for one session's checkpoint inside the checkpoint dir.
pub fn file_name(key: SessionKey) -> String {
    format!("tenant_{}_chip_{}.json", key.tenant, key.chip)
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Serialize a session (model + monitor state) to the v1 JSON document.
pub fn to_json(key: SessionKey, monitor: &EmergencyMonitor) -> String {
    let model = monitor.model();
    let fit = model.linear_fit();
    let cp = monitor.checkpoint();
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"tenant\":\"{}\",\"chip\":\"{}\",",
        key.tenant, key.chip
    );
    let _ = write!(
        out,
        "\"threshold\":{},\"persistence\":{},\"release_margin\":{},\"consecutive\":{},\"asserted\":{},",
        fmt_f64(cp.threshold),
        cp.persistence,
        fmt_f64(cp.release_margin),
        cp.consecutive,
        cp.asserted
    );
    let s = cp.stats;
    let _ = write!(
        out,
        "\"stats\":{{\"samples\":\"{}\",\"alarmed_samples\":\"{}\",\"alarm_events\":\"{}\",\"gated_readings\":\"{}\",\"sensors_failed\":\"{}\",\"health_strikes\":\"{}\",\"hot_swaps\":\"{}\"}},",
        s.samples,
        s.alarmed_samples,
        s.alarm_events,
        s.gated_readings,
        s.sensors_failed,
        s.health_strikes,
        s.hot_swaps
    );
    out.push_str("\"model\":{\"sensors\":[");
    for (i, s) in model.sensor_indices().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    let _ = write!(
        out,
        "],\"num_candidates\":{},\"rows\":{},\"cols\":{},\"coefficients\":[",
        model.num_candidates(),
        fit.coefficients.rows(),
        fit.coefficients.cols()
    );
    let mut first = true;
    for i in 0..fit.coefficients.rows() {
        for j in 0..fit.coefficients.cols() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&fmt_f64(fit.coefficients[(i, j)]));
        }
    }
    out.push_str("],\"intercept\":[");
    for (i, v) in fit.intercept.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*v));
    }
    let _ = write!(out, "],\"rms_residual\":{}}}}}", fmt_f64(fit.rms_residual));
    out
}

fn need<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, CheckpointError> {
    doc.get(key).ok_or_else(|| CheckpointError::Schema(format!("missing field `{key}`")))
}

fn need_f64(doc: &Value, key: &str) -> Result<f64, CheckpointError> {
    need(doc, key)?
        .as_f64()
        .ok_or_else(|| CheckpointError::Schema(format!("field `{key}` is not a number")))
}

fn need_usize(doc: &Value, key: &str) -> Result<usize, CheckpointError> {
    let v = need_f64(doc, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(CheckpointError::Schema(format!("field `{key}` is not a non-negative integer")));
    }
    Ok(v as usize)
}

/// `u64`s are stored as strings (see module docs); parse one back.
fn need_u64_str(doc: &Value, key: &str) -> Result<u64, CheckpointError> {
    need(doc, key)?
        .as_str()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CheckpointError::Schema(format!("field `{key}` is not a u64 string")))
}

fn need_bool(doc: &Value, key: &str) -> Result<bool, CheckpointError> {
    match need(doc, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(CheckpointError::Schema(format!("field `{key}` is not a bool"))),
    }
}

fn f64_array(doc: &Value, key: &str) -> Result<Vec<f64>, CheckpointError> {
    need(doc, key)?
        .as_array()
        .ok_or_else(|| CheckpointError::Schema(format!("field `{key}` is not an array")))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| CheckpointError::Schema(format!("`{key}` holds a non-number")))
        })
        .collect()
}

/// Parse a v1 document back into its session key and a live monitor.
///
/// The model and state machine are re-validated on the way in (via
/// [`VoltageMapModel::from_parts`] and [`EmergencyMonitor::restore`]), so
/// a hand-edited or torn checkpoint yields a typed error, never a
/// nonsense monitor.
pub fn from_json(text: &str) -> Result<(SessionKey, EmergencyMonitor), CheckpointError> {
    let doc = json::parse(text).map_err(CheckpointError::Parse)?;
    match need(&doc, "schema")?.as_str() {
        Some(SCHEMA) => {}
        other => {
            return Err(CheckpointError::Schema(format!(
                "expected schema {SCHEMA:?}, got {other:?}"
            )))
        }
    }
    let key = SessionKey {
        tenant: need_u64_str(&doc, "tenant")?,
        chip: need_u64_str(&doc, "chip")?,
    };
    let model_doc = need(&doc, "model")?;
    let sensors = need(model_doc, "sensors")?
        .as_array()
        .ok_or_else(|| CheckpointError::Schema("`sensors` is not an array".into()))?
        .iter()
        .map(|v| match v.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as usize),
            _ => Err(CheckpointError::Schema("`sensors` holds a non-index".into())),
        })
        .collect::<Result<Vec<usize>, _>>()?;
    let rows = need_usize(model_doc, "rows")?;
    let cols = need_usize(model_doc, "cols")?;
    let flat = f64_array(model_doc, "coefficients")?;
    if flat.len() != rows.saturating_mul(cols) {
        return Err(CheckpointError::Schema(format!(
            "coefficients array holds {} values for a {rows}x{cols} matrix",
            flat.len()
        )));
    }
    let coefficients =
        Matrix::from_vec(rows, cols, flat).map_err(|e| CheckpointError::Schema(e.to_string()))?;
    let model = VoltageMapModel::from_parts(
        sensors,
        need_usize(model_doc, "num_candidates")?,
        coefficients,
        f64_array(model_doc, "intercept")?,
        need_f64(model_doc, "rms_residual")?,
    )
    .map_err(CheckpointError::Invalid)?;
    let stats_doc = need(&doc, "stats")?;
    let checkpoint = MonitorCheckpoint {
        threshold: need_f64(&doc, "threshold")?,
        persistence: need_usize(&doc, "persistence")?,
        release_margin: need_f64(&doc, "release_margin")?,
        consecutive: need_usize(&doc, "consecutive")?,
        asserted: need_bool(&doc, "asserted")?,
        stats: MonitorStats {
            samples: need_u64_str(stats_doc, "samples")?,
            alarmed_samples: need_u64_str(stats_doc, "alarmed_samples")?,
            alarm_events: need_u64_str(stats_doc, "alarm_events")?,
            gated_readings: need_u64_str(stats_doc, "gated_readings")?,
            sensors_failed: need_u64_str(stats_doc, "sensors_failed")?,
            health_strikes: need_u64_str(stats_doc, "health_strikes")?,
            hot_swaps: need_u64_str(stats_doc, "hot_swaps")?,
        },
    };
    let monitor =
        EmergencyMonitor::restore(model, &checkpoint).map_err(CheckpointError::Invalid)?;
    Ok((key, monitor))
}

/// Atomically and durably write one session's already-serialized
/// checkpoint ([`to_json`]) into `dir` (created if missing): write
/// `<name>.tmp` and sync it, rename it over the final path, then sync
/// `dir` so the rename itself is on disk. Any error is returned; the
/// server degrades it to a `checkpoint_failures` count.
pub fn write(dir: &Path, key: SessionKey, json: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(key));
    let tmp = dir.join(format!("{}.tmp", file_name(key)));
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(json.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(path)
}

/// Load the checkpoint for `key` from `dir`, if one exists.
///
/// `Ok(None)` means "no checkpoint on disk" (a fresh session); a present
/// but unreadable/invalid file is an error the caller must surface.
pub fn load(dir: &Path, key: SessionKey) -> Result<Option<EmergencyMonitor>, CheckpointError> {
    let path = dir.join(file_name(key));
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let (stored_key, monitor) = from_json(&text)?;
    if stored_key != key {
        return Err(CheckpointError::Schema(format!(
            "checkpoint {path:?} is for tenant {} chip {}, expected tenant {} chip {}",
            stored_key.tenant, stored_key.chip, key.tenant, key.chip
        )));
    }
    Ok(Some(monitor))
}
