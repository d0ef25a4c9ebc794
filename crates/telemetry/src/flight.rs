//! Always-on flight recorder: a fixed-capacity, lock-light [`Recorder`]
//! meant to run for the whole life of a production process.
//!
//! [`MemoryRecorder`](crate::MemoryRecorder) keeps *everything* (every
//! event, every span, full parentage) behind one mutex — right for a
//! bounded diagnostic run, wrong for a monitor that observes millions of
//! samples. [`FlightRecorder`] inverts the trade:
//!
//! * **constant memory** — events live in a ring of fixed capacity; the
//!   oldest entry is evicted when a new one arrives;
//! * **exact aggregates** — counters, gauges, and log-scale histograms are
//!   aggregated exactly (never sampled), so `/metrics` scrapes and
//!   incident files report true totals and true quantiles;
//! * **decimated events** — high-rate event streams (per-solver-sweep,
//!   per-`observe()` call) are admitted through a deterministic per-name
//!   stride that doubles as a name's volume grows, so a chatty signal
//!   cannot flush rarer, more interesting events out of the ring;
//! * **lock-light** — each signal kind has its own mutex (counters,
//!   gauges, histograms, ring, open spans), so a counter bump never
//!   contends with a ring push, and no lock is held while formatting or
//!   allocating anything beyond the stored fields.
//!
//! Spans are recorded without parentage: a closed span feeds the exact
//! duration histogram named after it and is offered to the ring as an
//! event carrying `dur_ns`. The recorder reports
//! [`Detail::Sampled`](crate::Detail), so instrumentation sites guarding
//! *expensive* signal computation with [`crate::detailed`] stay free on
//! the always-on path.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::export::{EventSummary, HistogramSummary, Snapshot};
use crate::histogram::Histogram;
use crate::recorder::{Detail, Recorder, SpanId};

/// Default ring capacity when none is configured (`VOLTSENSE_FLIGHT_CAPACITY`).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One event retained in the ring.
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

#[derive(Default)]
struct RingState {
    events: VecDeque<RingEvent>,
    samplers: BTreeMap<&'static str, (u64, u64)>, // name -> (seen, kept)
    next_seq: u64,
}

/// Fixed-capacity, always-on recorder. See the module docs.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, (Histogram, &'static str)>>,
    ring: Mutex<RingState>,
    open_spans: Mutex<BTreeMap<u64, (&'static str, u64)>>,
    next_span: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            ring: Mutex::new(RingState::default()),
            open_spans: Mutex::new(BTreeMap::new()),
            next_span: AtomicU64::new(1),
        }
    }

    /// Capacity from `VOLTSENSE_FLIGHT_CAPACITY`, defaulting to
    /// [`DEFAULT_CAPACITY`].
    pub fn from_env() -> Self {
        let capacity = crate::env::parse::<usize>("VOLTSENSE_FLIGHT_CAPACITY")
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        Self::new(capacity)
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deterministic decimation stride for an event name that has been
    /// offered `seen` times already: every name keeps its first `capacity`
    /// occurrences, then the stride doubles each time its volume crosses
    /// another multiple of the capacity (1-in-2, then 1-in-4, …).
    fn stride(&self, seen: u64) -> u64 {
        (seen / self.capacity as u64 + 1).next_power_of_two()
    }

    /// Offer one event to the ring, applying decimation then eviction.
    fn offer(&self, name: &'static str, at_ns: u64, fields: &[(&'static str, f64)]) {
        let mut guard = Self::lock(&self.ring);
        let ring = &mut *guard;
        let entry = ring.samplers.entry(name).or_insert((0, 0));
        let seen = entry.0;
        entry.0 += 1;
        if !seen.is_multiple_of(self.stride(seen)) {
            return;
        }
        entry.1 += 1;
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(RingEvent {
            seq,
            name,
            at_ns,
            fields: fields.to_vec(),
        });
    }

    /// The retained event window, oldest first.
    pub fn ring_events(&self) -> Vec<RingEvent> {
        Self::lock(&self.ring).events.iter().cloned().collect()
    }

    /// Per-name decimation statistics, sorted by name.
    pub fn sampler_stats(&self) -> Vec<(&'static str, SamplerStat)> {
        let ring = Self::lock(&self.ring);
        ring.samplers
            .iter()
            .map(|(&name, &(seen, kept))| {
                (
                    name,
                    SamplerStat {
                        seen,
                        kept,
                        stride: self.stride(seen),
                    },
                )
            })
            .collect()
    }

    /// Exact aggregates plus the retained event window as a [`Snapshot`].
    /// Span records are not tracked individually (only their duration
    /// histograms), so `snapshot.spans` is empty.
    pub fn snapshot(&self, suite: &str) -> Snapshot {
        let counters: Vec<(String, u64)> = Self::lock(&self.counters)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let gauges: Vec<(String, f64)> = Self::lock(&self.gauges)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let histograms: Vec<HistogramSummary> = Self::lock(&self.histograms)
            .iter()
            .map(|(&name, (h, unit))| HistogramSummary {
                name: name.to_string(),
                unit: unit.to_string(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                mean: h.mean(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            })
            .collect();
        let events: Vec<EventSummary> = self
            .ring_events()
            .into_iter()
            .map(|e| EventSummary {
                name: e.name.to_string(),
                at_ns: e.at_ns,
                thread: 0,
                fields: e.fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            })
            .collect();
        Snapshot {
            suite: suite.to_string(),
            counters,
            gauges,
            histograms,
            spans: Vec::new(),
            events,
        }
    }
}

impl Recorder for FlightRecorder {
    fn span_begin(&self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        Self::lock(&self.open_spans).insert(id, (name, start_ns));
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let Some((name, start_ns)) = Self::lock(&self.open_spans).remove(&id.0) else {
            return;
        };
        let duration = end_ns.saturating_sub(start_ns);
        Self::lock(&self.histograms)
            .entry(name)
            .or_insert_with(|| (Histogram::new(), "ns"))
            .0
            .record(duration as f64);
        self.offer(name, end_ns, &[("dur_ns", duration as f64)]);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *Self::lock(&self.counters).entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        Self::lock(&self.gauges).insert(name, value);
    }

    fn histogram_record(&self, name: &'static str, value: f64, unit: &'static str) {
        Self::lock(&self.histograms)
            .entry(name)
            .or_insert_with(|| (Histogram::new(), unit))
            .0
            .record(value);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, f64)]) {
        let at_ns = self.now_ns();
        self.offer(name, at_ns, fields);
    }

    fn detail(&self) -> Detail {
        Detail::Sampled
    }
}

/// Process-global flight recorder registry, read by
/// [`crate::incident::report`] and by the `/metrics` endpoint source
/// installed by [`crate::init_always_on`]. Unlike the signal-routing
/// global this slot is *replaceable* so tests can install their own.
static FLIGHT: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

/// Register `recorder` as the process flight recorder (replacing any
/// previous one) and return the one that was installed before.
pub fn install(recorder: Arc<FlightRecorder>) -> Option<Arc<FlightRecorder>> {
    FLIGHT
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .replace(recorder)
}

/// The registered flight recorder, if any.
pub fn current() -> Option<Arc<FlightRecorder>> {
    FLIGHT.lock().unwrap_or_else(|e| e.into_inner()).clone()
}
