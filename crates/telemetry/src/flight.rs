//! The process flight recorder: the one [`MemoryRecorder`] that incident
//! snapshots ([`crate::incident::report`]) and the live endpoint freeze,
//! plus the ring's public view ([`RingEvent`], [`SamplerStat`]).
//!
//! [`crate::init_always_on`] installs the process recorder here. It is
//! bounded ([`MemoryRecorder::bounded`], capacity
//! `VOLTSENSE_FLIGHT_CAPACITY`, default [`DEFAULT_CAPACITY`]) unless
//! `VOLTSENSE_TELEMETRY` asks for a full capture, in which case the
//! unbounded export recorder is installed instead. Either way incidents
//! embed at most that many of the newest ring entries.

use std::sync::{Arc, Mutex};

use crate::recorder::MemoryRecorder;

/// Default ring capacity when none is configured (`VOLTSENSE_FLIGHT_CAPACITY`).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One entry retained in a [`MemoryRecorder`]'s ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RingEvent {
    /// Global admission sequence number (0 = first event ever admitted).
    pub seq: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    pub fields: Vec<(&'static str, f64)>,
}

/// Per-name decimation bookkeeping, exposed for incident files so a reader
/// can tell how much of a stream the retained window represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerStat {
    /// Occurrences offered to the ring.
    pub seen: u64,
    /// Occurrences admitted (before eviction).
    pub kept: u64,
    /// Stride in force for the *next* occurrence (1 = keep all).
    pub stride: u64,
}

/// `VOLTSENSE_FLIGHT_CAPACITY`, defaulting to [`DEFAULT_CAPACITY`]: the
/// bounded process recorder's capacity and the most ring entries an
/// incident or a live snapshot embeds.
pub(crate) fn capacity_from_env() -> usize {
    crate::env::parse::<usize>("VOLTSENSE_FLIGHT_CAPACITY")
        .filter(|&c| c > 0)
        .unwrap_or(DEFAULT_CAPACITY)
}

/// Process-global flight recorder registry, read by
/// [`crate::incident::report`] and by the `/metrics` endpoint source
/// installed by [`crate::init_always_on`]. Unlike the signal-routing
/// global this slot is *replaceable* so tests can install their own.
static FLIGHT: Mutex<Option<Arc<MemoryRecorder>>> = Mutex::new(None);

/// Register `recorder` as the process flight recorder (replacing any
/// previous one) and return the one that was installed before.
pub fn install(recorder: Arc<MemoryRecorder>) -> Option<Arc<MemoryRecorder>> {
    FLIGHT
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .replace(recorder)
}

/// The registered flight recorder, if any.
pub fn current() -> Option<Arc<MemoryRecorder>> {
    FLIGHT.lock().unwrap_or_else(|e| e.into_inner()).clone()
}
