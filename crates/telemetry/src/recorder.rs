//! The `Recorder` trait and its one implementation, [`MemoryRecorder`]:
//! exact aggregates plus a deterministic, optionally bounded ring of
//! events and closed spans.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::export::{EventSummary, HistogramSummary, Snapshot, SpanSummary, StackSummary};
use crate::flight::{RingEvent, SamplerStat};
use crate::histogram::Histogram;
use crate::profile::thread_alloc_totals;

/// Opaque handle returned by [`Recorder::span_begin`] and consumed by
/// [`Recorder::span_end`]. `SpanId(0)` is the reserved "no span" handle that
/// every recorder must ignore on `span_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// How much signal a recorder wants from instrumentation sites.
///
/// Some diagnostics are *expensive to compute* (a full objective
/// evaluation per solver iteration costs more than the iteration).
/// Call sites guard those behind [`crate::detailed`], which is only true
/// for `Full`-detail recorders — a bounded (always-on)
/// [`MemoryRecorder`] reports `Sampled` and never pays for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detail {
    /// Bounded-memory, always-on recording: cheap signals only.
    Sampled,
    /// Diagnostic capture: compute everything, keep everything.
    Full,
}

/// Sink for telemetry signals. Implementations must be cheap to call and
/// safe to share across threads; instrumented code never checks which
/// recorder is installed.
///
/// All names are `&'static str` by design: instrumentation sites name their
/// signals with literals, which keeps the hot path free of allocation.
pub trait Recorder: Send + Sync {
    /// Open a wall-clock span. The returned id must be passed to
    /// [`Recorder::span_end`] on the same thread to close it.
    fn span_begin(&self, name: &'static str) -> SpanId;
    /// Close a span opened by [`Recorder::span_begin`]. Ignores
    /// [`SpanId::NONE`] and unknown ids.
    fn span_end(&self, id: SpanId);
    /// Add `delta` to a monotonically increasing counter.
    fn counter_add(&self, name: &'static str, delta: u64);
    /// Set a point-in-time gauge.
    fn gauge_set(&self, name: &'static str, value: f64);
    /// Record one observation into a log-scale histogram.
    fn histogram_record(&self, name: &'static str, value: f64, unit: &'static str);
    /// Record a timestamped event with numeric fields (e.g. one solver
    /// iteration with its objective and residual).
    fn event(&self, name: &'static str, fields: &[(&'static str, f64)]);
    /// How much signal this recorder wants (default: everything).
    fn detail(&self) -> Detail {
        Detail::Full
    }
}

/// Process-wide tag of the calling thread, assigned on first use.
/// Snapshots renumber the tags they hold densely.
fn thread_tag() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TAG: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// One retained ring entry: an event, or one closed span.
struct Entry {
    /// Global admission sequence number.
    seq: u64,
    name: &'static str,
    /// The event's time, or the span's close time.
    at_ns: u64,
    thread: u32,
    body: Body,
}

enum Body {
    Event(Vec<(&'static str, f64)>),
    /// `id` is the span's handle, issued in begin order; it started at
    /// `at_ns - dur_ns`.
    Span { id: u64, dur_ns: u64 },
}

impl Entry {
    fn to_ring_event(&self) -> RingEvent {
        RingEvent {
            seq: self.seq,
            name: self.name,
            at_ns: self.at_ns,
            fields: match &self.body {
                Body::Event(fields) => fields.clone(),
                Body::Span { dur_ns, .. } => vec![("dur_ns", *dur_ns as f64)],
            },
        }
    }
}

#[derive(Default)]
struct Ring {
    entries: VecDeque<Entry>,
    samplers: BTreeMap<&'static str, (u64, u64)>, // name -> (seen, kept)
    next_seq: u64,
}

struct OpenSpan {
    start_ns: u64,
    thread: u32,
    /// Its call path's index in [`SpanTable::paths`], which names it.
    path: usize,
    /// The thread's `(alloc_bytes, alloc_calls)` when it began.
    alloc_at_begin: (u64, u64),
}

/// One interned call path and its exact aggregate over closed spans.
#[derive(Clone, Copy, Default)]
struct PathStat {
    parent: Option<usize>,
    name: &'static str,
    calls: u64,
    total_ns: u64,
    alloc_bytes: u64,
    alloc_calls: u64,
}

/// The open spans and the per-path fold of the closed ones, under one lock.
#[derive(Default)]
struct SpanTable {
    open: BTreeMap<u64, OpenSpan>,
    /// Interned call paths; a path's id is its index.
    paths: Vec<PathStat>,
    /// `(parent path, name)` → path id.
    path_ids: BTreeMap<(Option<usize>, &'static str), usize>,
}

/// Render the fold of closed spans: every path with at least one call, its
/// names outermost first and its self time, heaviest first.
fn fold_stacks(paths: &[PathStat]) -> Vec<StackSummary> {
    let mut children_ns = vec![0u64; paths.len()];
    for p in paths {
        if let Some(parent) = p.parent {
            children_ns[parent] += p.total_ns;
        }
    }
    let mut stacks: Vec<StackSummary> = paths
        .iter()
        .zip(&children_ns)
        .filter(|(p, _)| p.calls > 0)
        .map(|(p, &children)| {
            let mut stack = vec![p.name.to_string()];
            let mut up = p.parent;
            while let Some(i) = up {
                stack.push(paths[i].name.to_string());
                up = paths[i].parent;
            }
            stack.reverse();
            StackSummary {
                stack,
                calls: p.calls,
                total_ns: p.total_ns,
                self_ns: p.total_ns.saturating_sub(children),
                alloc_bytes: p.alloc_bytes,
                alloc_calls: p.alloc_calls,
            }
        })
        .collect();
    stacks.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.stack.cmp(&b.stack)));
    stacks
}

/// A span as the snapshot builder sees it before parentage is derived.
struct RawSpan {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    thread: usize,
    /// Close order: ring sequence for closed spans; open spans rank after
    /// every closed one, innermost (latest begun) first.
    close: u64,
}

/// Thread-safe in-memory recorder, for diagnostic captures and for the
/// always-on process recorder alike. Its capacity sets retention:
///
/// * **exact aggregates** — counters, gauges and log-scale histograms are
///   aggregated exactly (never sampled), so `/metrics` scrapes and
///   incident files report true totals and true quantiles. Span
///   durations feed a histogram named after the span (unit `ns`);
/// * **one ring** — every event and every closed span (its start, an
///   inline duration and a thread tag) becomes one ring entry. Entries are
///   admitted through a deterministic per-name stride
///   `(seen / capacity + 1).next_power_of_two()`, so a chatty name is
///   thinned 1-in-2, 1-in-4, … once it has offered a ring's worth and
///   cannot flush rarer events out; the oldest entry is evicted when the
///   ring is full;
/// * **capacity** — [`MemoryRecorder::new`] is unbounded: the stride stays
///   1, nothing is evicted, and the recorder reports [`Detail::Full`].
///   [`MemoryRecorder::bounded`] keeps constant memory and reports
///   [`Detail::Sampled`];
/// * **exact span profile** — each span is folded into its call path's
///   `calls`, `total_ns` and allocation delta when it closes
///   ([`crate::profile`]); like the histograms, never decimated;
/// * **lock-light** — each signal kind has its own mutex, so a counter
///   bump never contends with a ring push.
///
/// The ring stores no parent links: [`MemoryRecorder::snapshot`] derives
/// each retained span's parent as the innermost enclosing retained span
/// on the same thread.
pub struct MemoryRecorder {
    epoch: Instant,
    capacity: usize,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    histograms: Mutex<BTreeMap<&'static str, (Histogram, &'static str)>>,
    ring: Mutex<Ring>,
    spans: Mutex<SpanTable>,
    next_span: AtomicU64,
}

impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding a lock can only come from allocation failure;
    // recovering the data beats poisoning the whole capture.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl MemoryRecorder {
    /// An unbounded recorder: keeps every event and span, reports
    /// [`Detail::Full`].
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// A recorder retaining at most `capacity` ring entries (min 1),
    /// reporting [`Detail::Sampled`].
    pub fn bounded(capacity: usize) -> Self {
        Self::with_capacity(capacity.clamp(1, usize::MAX - 1))
    }

    fn with_capacity(capacity: usize) -> Self {
        MemoryRecorder {
            epoch: Instant::now(),
            capacity,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            ring: Mutex::new(Ring::default()),
            spans: Mutex::new(SpanTable::default()),
            next_span: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Deterministic decimation stride for a name offered `seen` times
    /// already: every name keeps its first `capacity` occurrences, then
    /// the stride doubles each time its volume crosses another multiple
    /// of the capacity. Always 1 when unbounded.
    fn stride(&self, seen: u64) -> u64 {
        (seen / self.capacity as u64 + 1).next_power_of_two()
    }

    /// Offer one entry to the ring, applying decimation then eviction.
    fn offer(&self, name: &'static str, at_ns: u64, thread: u32, body: Body) {
        let mut guard = lock(&self.ring);
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
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
        }
        ring.entries.push_back(Entry {
            seq,
            name,
            at_ns,
            thread,
            body,
        });
    }

    /// The retained ring, oldest first. A closed span appears as an entry
    /// named after it with one field, `dur_ns`.
    pub fn ring_events(&self) -> Vec<RingEvent> {
        self.newest_ring_events(usize::MAX)
    }

    /// The newest `limit` ring entries, oldest first.
    pub(crate) fn newest_ring_events(&self, limit: usize) -> Vec<RingEvent> {
        let ring = lock(&self.ring);
        let skip = ring.entries.len().saturating_sub(limit);
        ring.entries.iter().skip(skip).map(Entry::to_ring_event).collect()
    }

    /// Per-name decimation statistics, sorted by name.
    pub fn sampler_stats(&self) -> Vec<(&'static str, SamplerStat)> {
        lock(&self.ring)
            .samplers
            .iter()
            .map(|(&name, &(seen, kept))| {
                let stride = self.stride(seen);
                (name, SamplerStat { seen, kept, stride })
            })
            .collect()
    }

    /// Copy the current state into an immutable [`Snapshot`]: exact
    /// aggregates and span profile, every retained event and span, and the
    /// spans still open at snapshot time, which end at the snapshot instant.
    pub fn snapshot(&self, suite: &str) -> Snapshot {
        self.snapshot_newest(suite, usize::MAX)
    }

    /// [`MemoryRecorder::snapshot`] over only the newest `limit` ring
    /// entries (open spans are always included).
    pub(crate) fn snapshot_newest(&self, suite: &str, limit: usize) -> Snapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect();
        let histograms = lock(&self.histograms)
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

        // A closing span leaves the open map and enters the ring and the
        // fold under the span-table lock, so holding it here sees each span
        // exactly once.
        let mut raw = Vec::new();
        let mut events = Vec::new();
        let paths = {
            let table = lock(&self.spans);
            let now = self.now_ns();
            raw.extend(table.open.iter().map(|(&id, s)| RawSpan {
                id,
                name: table.paths[s.path].name,
                start_ns: s.start_ns,
                end_ns: now,
                thread: s.thread as usize,
                close: u64::MAX - id,
            }));
            let ring = lock(&self.ring);
            let skip = ring.entries.len().saturating_sub(limit);
            for e in ring.entries.iter().skip(skip) {
                match &e.body {
                    Body::Event(fields) => events.push(EventSummary {
                        name: e.name.to_string(),
                        at_ns: e.at_ns,
                        thread: e.thread as usize,
                        fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                    }),
                    Body::Span { id, dur_ns } => raw.push(RawSpan {
                        id: *id,
                        name: e.name,
                        start_ns: e.at_ns - dur_ns,
                        end_ns: e.at_ns,
                        thread: e.thread as usize,
                        close: e.seq,
                    }),
                }
            }
            table.paths.clone()
        };

        // Dense thread indices, in the order threads first recorded
        // anything in this process.
        let mut tags: Vec<usize> = raw.iter().map(|s| s.thread).collect();
        tags.extend(events.iter().map(|e| e.thread));
        tags.sort_unstable();
        tags.dedup();
        let dense = |tag: usize| tags.binary_search(&tag).unwrap_or_default();
        for e in &mut events {
            e.thread = dense(e.thread);
        }

        // Begin order, then a per-thread stack walk: a span's parent is the
        // latest-begun span on its thread that closes after it does.
        raw.sort_unstable_by_key(|s| s.id);
        let mut stacks: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut spans = Vec::with_capacity(raw.len());
        for (i, s) in raw.iter().enumerate() {
            let stack = stacks.entry(s.thread).or_default();
            while stack.last().is_some_and(|&top| raw[top].close < s.close) {
                stack.pop();
            }
            spans.push(SpanSummary {
                name: s.name.to_string(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                parent: stack.last().copied(),
                thread: dense(s.thread),
            });
            stack.push(i);
        }

        Snapshot {
            suite: suite.to_string(),
            counters,
            gauges,
            histograms,
            spans,
            events,
            stacks: fold_stacks(&paths),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn span_begin(&self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let id = self.next_span.fetch_add(1, Ordering::Relaxed);
        let thread = thread_tag();
        let (alloc_bytes, alloc_calls, ..) = thread_alloc_totals();
        let mut table = lock(&self.spans);
        // The parent is the latest-begun span on this thread still open.
        let parent = table.open.values().rev().find(|s| s.thread == thread).map(|s| s.path);
        let next = table.paths.len();
        let path = *table.path_ids.entry((parent, name)).or_insert(next);
        if path == next {
            table.paths.push(PathStat { parent, name, ..PathStat::default() });
        }
        let alloc_at_begin = (alloc_bytes, alloc_calls);
        table.open.insert(id, OpenSpan { start_ns, thread, path, alloc_at_begin });
        SpanId(id)
    }

    fn span_end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        let (alloc_bytes, alloc_calls, ..) = thread_alloc_totals();
        let (name, dur_ns) = {
            let mut table = lock(&self.spans);
            let Some(span) = table.open.remove(&id.0) else {
                return;
            };
            let dur_ns = end_ns.saturating_sub(span.start_ns);
            let path = &mut table.paths[span.path];
            let name = path.name;
            path.calls += 1;
            path.total_ns += dur_ns;
            // Saturating: a span closed on another thread than it began on
            // reads that thread's totals.
            path.alloc_bytes += alloc_bytes.saturating_sub(span.alloc_at_begin.0);
            path.alloc_calls += alloc_calls.saturating_sub(span.alloc_at_begin.1);
            let body = Body::Span { id: id.0, dur_ns };
            self.offer(name, span.start_ns + dur_ns, span.thread, body);
            (name, dur_ns)
        };
        lock(&self.histograms)
            .entry(name)
            .or_insert_with(|| (Histogram::new(), "ns"))
            .0
            .record(dur_ns as f64);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += delta;
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        lock(&self.gauges).insert(name, value);
    }

    fn histogram_record(&self, name: &'static str, value: f64, unit: &'static str) {
        lock(&self.histograms)
            .entry(name)
            .or_insert_with(|| (Histogram::new(), unit))
            .0
            .record(value);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, f64)]) {
        let at_ns = self.now_ns();
        self.offer(name, at_ns, thread_tag(), Body::Event(fields.to_vec()));
    }

    fn detail(&self) -> Detail {
        if self.capacity == usize::MAX {
            Detail::Full
        } else {
            Detail::Sampled
        }
    }
}
