//! Continuous in-process profiling: a wall-clock span-stack sampler and an
//! allocation accountant, both zero-dependency and cheap enough to leave on
//! in production (DESIGN.md §7).
//!
//! ## Span-stack sampler
//!
//! Every [`crate::span`] pushes its `&'static str` name onto a per-thread
//! *published* stack (a fixed-capacity seqlock-protected array) and pops it
//! on drop. A background sampler thread ([`start`] /
//! `VOLTSENSE_PROFILE=1`) walks the thread registry at
//! `VOLTSENSE_PROFILE_HZ` (default 99 Hz — deliberately co-prime with
//! common periodic work so samples don't alias), snapshotting each stack
//! with a lock-free seqlock read and folding the result into
//! collapsed-stack counts. The fold is exported two ways:
//!
//! * `GET /profile` — the `voltsense-profile-v1` JSON document;
//! * `GET /profile?format=collapsed` — flamegraph-compatible text, one
//!   `frame;frame;leaf count` line per distinct stack (feed it straight
//!   into `flamegraph.pl` / speedscope / inferno).
//!
//! The writer side (push/pop) is two relaxed stores around a release
//! fence; when no profiler is running, `push_frame` is a single relaxed
//! atomic load. Threads register lazily on their first span; pool workers
//! register eagerly so they show up even while idle.
//!
//! ## Allocation accountant
//!
//! [`CountingAlloc`] wraps the system allocator and, when enabled, counts
//! alloc/dealloc bytes and calls per thread, attributing each allocation
//! to the innermost active span of the allocating thread. Binaries opt in
//! with [`crate::install_counting_allocator!`]; the disabled path costs
//! one relaxed atomic load per allocator call. On top of it,
//! [`assert_zero_alloc`] (and the [`crate::alloc_gate!`] macro) pins
//! *zero steady-state allocations* on hot kernels: warm up once, then
//! assert that N further iterations perform no allocator calls at all.
//!
//! ## Safety model
//!
//! The sampler reads other threads' stacks concurrently with pushes and
//! pops. Each slot uses the standard seqlock protocol: the writer bumps a
//! version counter to odd, publishes frames with relaxed stores behind a
//! release fence, then bumps the version to even with a release store;
//! the reader copies raw `(ptr, len)` words under an acquire/validate
//! pair and only *reinterprets* them as `&'static str` after the version
//! check proves the copy was not torn. Frame names come exclusively from
//! `&'static str` span names, so a validated `(ptr, len)` pair is always
//! a live, immutable string.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export::{fmt_f64, push_json_string};

/// Frames beyond this depth are still *counted* (so pops stay symmetric)
/// but not published; the sampler renders such stacks with a
/// `(truncated)` leaf. 32 comfortably covers the deepest span nesting in
/// the workspace (fit → solver → sweep → kernel is depth 4–6).
pub const MAX_DEPTH: usize = 32;

/// Open-addressing slots in the per-thread allocation-site table. Distinct
/// span names per thread rarely exceed a dozen; overflow lands in the
/// thread's `(other)` bucket rather than being dropped.
const ALLOC_SITES: usize = 64;

/// Linear-probe window before an allocation falls into `(other)`.
const SITE_PROBES: usize = 8;

/// One published stack frame: the raw parts of a `&'static str` span name,
/// stored as two machine words so the seqlock writer needs no wide atomic.
struct Frame {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
}

impl Frame {
    const fn empty() -> Self {
        Frame {
            ptr: AtomicPtr::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }
}

/// Per-span-name allocation attribution entry (keyed by name pointer —
/// `&'static str` literals are stable for the process lifetime).
struct AllocSite {
    name_ptr: AtomicPtr<u8>,
    name_len: AtomicUsize,
    bytes: AtomicU64,
    calls: AtomicU64,
}

impl AllocSite {
    const fn empty() -> Self {
        AllocSite {
            name_ptr: AtomicPtr::new(ptr::null_mut()),
            name_len: AtomicUsize::new(0),
            bytes: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }
}

/// The shared per-thread slot: published span stack (seqlock) plus
/// allocation counters. Owned jointly by the thread (via TLS) and the
/// global registry; the sampler only ever reads.
struct ThreadSlot {
    /// Seqlock version: odd while the owning thread is mutating.
    version: AtomicU64,
    /// Logical stack depth (may exceed [`MAX_DEPTH`]).
    depth: AtomicUsize,
    frames: [Frame; MAX_DEPTH],
    /// Thread name, fixed before the slot is shared.
    name: String,
    /// Set by the TLS destructor; the sampler skips and prunes such slots.
    retired: AtomicBool,
    // -- allocation accounting (written by owner, read by reporters) --
    alloc_bytes: AtomicU64,
    alloc_calls: AtomicU64,
    dealloc_bytes: AtomicU64,
    dealloc_calls: AtomicU64,
    /// Bytes/calls that missed the site table (depth 0, overflow, ...).
    other_bytes: AtomicU64,
    other_calls: AtomicU64,
    sites: [AllocSite; ALLOC_SITES],
}

impl ThreadSlot {
    fn new(name: String) -> Self {
        ThreadSlot {
            version: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: [const { Frame::empty() }; MAX_DEPTH],
            name,
            retired: AtomicBool::new(false),
            alloc_bytes: AtomicU64::new(0),
            alloc_calls: AtomicU64::new(0),
            dealloc_bytes: AtomicU64::new(0),
            dealloc_calls: AtomicU64::new(0),
            other_bytes: AtomicU64::new(0),
            other_calls: AtomicU64::new(0),
            sites: [const { AllocSite::empty() }; ALLOC_SITES],
        }
    }

    /// Attribute one allocation of `size` bytes to the innermost active
    /// span. Called only from the owning thread (plain reads of own
    /// depth/frames are race-free); must not allocate.
    fn attribute_alloc(&self, size: usize) {
        self.alloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.alloc_calls.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.load(Ordering::Relaxed);
        if depth == 0 || depth > MAX_DEPTH {
            self.other_bytes.fetch_add(size as u64, Ordering::Relaxed);
            self.other_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let name_ptr = self.frames[depth - 1].ptr.load(Ordering::Relaxed);
        let name_len = self.frames[depth - 1].len.load(Ordering::Relaxed);
        if name_ptr.is_null() {
            self.other_bytes.fetch_add(size as u64, Ordering::Relaxed);
            self.other_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Open addressing keyed by name pointer; claim empty entries with
        // a CAS so a torn claim can never mix two names.
        let hash = (name_ptr as usize >> 3).wrapping_mul(0x9E37_79B9);
        for probe in 0..SITE_PROBES {
            let site = &self.sites[(hash + probe) % ALLOC_SITES];
            let cur = site.name_ptr.load(Ordering::Relaxed);
            if cur == name_ptr {
                site.bytes.fetch_add(size as u64, Ordering::Relaxed);
                site.calls.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if cur.is_null() {
                match site.name_ptr.compare_exchange(
                    ptr::null_mut(),
                    name_ptr,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        site.name_len.store(name_len, Ordering::Relaxed);
                        site.bytes.fetch_add(size as u64, Ordering::Relaxed);
                        site.calls.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(raced) if raced == name_ptr => {
                        site.bytes.fetch_add(size as u64, Ordering::Relaxed);
                        site.calls.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => continue,
                }
            }
        }
        self.other_bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.other_calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Global registry of live (and recently-retired) thread slots.
static SLOTS: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());

/// Refcount of consumers that need span stacks *published* (the sampler,
/// plus each enabled counting window). Zero → [`push_frame`] is one
/// relaxed load and no slot is touched.
static FRAMES_ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Refcount of enabled allocation-counting windows.
static ALLOC_ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Latched to `true` by the first call through [`CountingAlloc`]; lets
/// [`allocator_installed`] distinguish "wrapper not installed" from
/// "counting disabled".
static ALLOC_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Totals folded in from retired (exited) threads so their allocation
/// history survives slot pruning.
static RETIRED_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static RETIRED_ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static RETIRED_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static RETIRED_DEALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Raw pointer to this thread's slot for the allocator fast path.
    /// Const-initialised `Cell` with no destructor: safe to touch from
    /// inside the global allocator (no lazy init, no registration, no
    /// recursion). Nulled before the owning holder drops its `Arc`.
    static SLOT_PTR: Cell<*const ThreadSlot> = const { Cell::new(ptr::null()) };
    /// Owning handle; registers on first use, retires on thread exit.
    static SLOT: SlotHolder = SlotHolder::register();
}

struct SlotHolder {
    slot: Arc<ThreadSlot>,
}

impl SlotHolder {
    fn register() -> Self {
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
        let slot = Arc::new(ThreadSlot::new(name));
        SLOTS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(slot.clone());
        SLOT_PTR.with(|p| p.set(Arc::as_ptr(&slot)));
        SlotHolder { slot }
    }
}

impl Drop for SlotHolder {
    fn drop(&mut self) {
        // Disable the allocator fast path first: after this store no
        // allocation on this thread can reach the slot, so folding its
        // totals below observes final values.
        let _ = SLOT_PTR.try_with(|p| p.set(ptr::null()));
        RETIRED_ALLOC_BYTES.fetch_add(self.slot.alloc_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        RETIRED_ALLOC_CALLS.fetch_add(self.slot.alloc_calls.load(Ordering::Relaxed), Ordering::Relaxed);
        RETIRED_DEALLOC_BYTES
            .fetch_add(self.slot.dealloc_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        RETIRED_DEALLOC_CALLS
            .fetch_add(self.slot.dealloc_calls.load(Ordering::Relaxed), Ordering::Relaxed);
        self.slot.retired.store(true, Ordering::Release);
    }
}

/// Force-register the current thread with the profiler so it appears in
/// samples (as `(idle)`) even before its first span. Pool workers call
/// this on startup; ordinary threads register lazily on their first span.
pub fn register_current_thread() {
    let _ = SLOT.try_with(|_| ());
}

/// Publish `name` as a new innermost frame on this thread's span stack.
/// Returns `true` iff a frame was pushed (the caller must then call
/// [`pop_frame`] exactly once). One relaxed load when no profiler or
/// counting window is active.
#[inline]
pub(crate) fn push_frame(name: &'static str) -> bool {
    if FRAMES_ENABLED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    push_frame_slow(name)
}

#[cold]
fn push_frame_slow(name: &'static str) -> bool {
    // `try_with`: spans may fire during TLS teardown, after this thread's
    // holder was destroyed — such spans simply go unprofiled.
    SLOT.try_with(|holder| {
        let slot = &*holder.slot;
        let v = slot.version.load(Ordering::Relaxed);
        slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let depth = slot.depth.load(Ordering::Relaxed);
        if depth < MAX_DEPTH {
            slot.frames[depth]
                .ptr
                .store(name.as_ptr() as *mut u8, Ordering::Relaxed);
            slot.frames[depth].len.store(name.len(), Ordering::Relaxed);
        }
        slot.depth.store(depth + 1, Ordering::Relaxed);
        slot.version.store(v.wrapping_add(2), Ordering::Release);
    })
    .is_ok()
}

/// Pop the innermost frame pushed by [`push_frame`]. Must be called
/// exactly once per `true` return from `push_frame`, on the same thread.
pub(crate) fn pop_frame() {
    // The fast-path pointer survives until the holder's destructor nulls
    // it, and a successful push proves the holder existed; after teardown
    // the pop degrades to a no-op, keeping drop paths panic-free.
    let slot_ptr = SLOT_PTR.try_with(Cell::get).unwrap_or(ptr::null());
    if slot_ptr.is_null() {
        return;
    }
    // SAFETY: non-null ⇒ the holder (which owns an Arc) is still alive on
    // this very thread, so the slot outlives this call.
    let slot = unsafe { &*slot_ptr };
    let v = slot.version.load(Ordering::Relaxed);
    slot.version.store(v.wrapping_add(1), Ordering::Relaxed);
    fence(Ordering::Release);
    let depth = slot.depth.load(Ordering::Relaxed);
    slot.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
    slot.version.store(v.wrapping_add(2), Ordering::Release);
}

// ---------------------------------------------------------------------------
// Allocation accountant
// ---------------------------------------------------------------------------

/// A `#[global_allocator]` wrapper that counts allocations per thread when
/// a counting window ([`enable_counting`]) is open. Install it in a binary
/// or test crate with [`crate::install_counting_allocator!`]; while no
/// window is open every call costs one extra relaxed atomic load.
pub struct CountingAlloc<A = System> {
    inner: A,
}

impl CountingAlloc<System> {
    /// The system allocator wrapped for counting.
    pub const fn system() -> Self {
        CountingAlloc { inner: System }
    }
}

impl<A> CountingAlloc<A> {
    /// Wrap an arbitrary inner allocator.
    pub const fn new(inner: A) -> Self {
        CountingAlloc { inner }
    }
}

/// Record one allocation on the current thread. Never allocates.
#[cold]
fn record_alloc(size: usize) {
    let slot_ptr = SLOT_PTR.try_with(Cell::get).unwrap_or(ptr::null());
    if slot_ptr.is_null() {
        // Unregistered thread: keep process-level totals at least.
        RETIRED_ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        RETIRED_ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // SAFETY: see `pop_frame` — non-null means the owning holder is alive.
    unsafe { &*slot_ptr }.attribute_alloc(size);
}

/// Record one deallocation on the current thread. Never allocates.
#[cold]
fn record_dealloc(size: usize) {
    let slot_ptr = SLOT_PTR.try_with(Cell::get).unwrap_or(ptr::null());
    if slot_ptr.is_null() {
        RETIRED_DEALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        RETIRED_DEALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let slot = unsafe { &*slot_ptr };
    slot.dealloc_bytes.fetch_add(size as u64, Ordering::Relaxed);
    slot.dealloc_calls.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn note_installed() {
    // A load-then-rare-store keeps the disabled path read-only.
    if !ALLOC_INSTALLED.load(Ordering::Relaxed) {
        ALLOC_INSTALLED.store(true, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to the inner allocator; the
// bookkeeping around it never allocates and never observes the returned
// memory.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_installed();
        let p = unsafe { self.inner.alloc(layout) };
        if ALLOC_ENABLED.load(Ordering::Relaxed) != 0 && !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        note_installed();
        if ALLOC_ENABLED.load(Ordering::Relaxed) != 0 {
            record_dealloc(layout.size());
        }
        unsafe { self.inner.dealloc(p, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_installed();
        let p = unsafe { self.inner.alloc_zeroed(layout) };
        if ALLOC_ENABLED.load(Ordering::Relaxed) != 0 && !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_installed();
        let q = unsafe { self.inner.realloc(p, layout, new_size) };
        if ALLOC_ENABLED.load(Ordering::Relaxed) != 0 && !q.is_null() {
            // A successful realloc is one dealloc of the old block plus one
            // alloc of the new one — a grow-in-place still churns the
            // allocator, which is exactly what the gates police.
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        q
    }
}

/// Install [`CountingAlloc`] as the global allocator of the current crate
/// (binary or integration-test target). Required before
/// [`crate::profile::assert_zero_alloc`] / [`crate::alloc_gate!`] can run.
#[macro_export]
macro_rules! install_counting_allocator {
    () => {
        #[global_allocator]
        static VOLTSENSE_COUNTING_ALLOCATOR: $crate::profile::CountingAlloc =
            $crate::profile::CountingAlloc::system();
    };
}

/// Is a [`CountingAlloc`] actually routing this process's allocations?
/// Performs (at most) one probe allocation to find out.
pub fn allocator_installed() -> bool {
    if ALLOC_INSTALLED.load(Ordering::Relaxed) {
        return true;
    }
    // Force one allocator round trip the optimiser cannot elide.
    let probe: Vec<u64> = Vec::with_capacity(std::hint::black_box(8));
    drop(std::hint::black_box(probe));
    ALLOC_INSTALLED.load(Ordering::Relaxed)
}

/// Open counting window: while any [`CountingGuard`] is alive, allocator
/// calls are counted and attributed. Windows are refcounted, so
/// concurrent gates (cargo's parallel test threads) compose.
pub struct CountingGuard(());

/// Open an allocation-counting window (frames are published too, so
/// attribution by innermost span works while the window is open).
pub fn enable_counting() -> CountingGuard {
    FRAMES_ENABLED.fetch_add(1, Ordering::SeqCst);
    ALLOC_ENABLED.fetch_add(1, Ordering::SeqCst);
    CountingGuard(())
}

impl Drop for CountingGuard {
    fn drop(&mut self) {
        ALLOC_ENABLED.fetch_sub(1, Ordering::SeqCst);
        FRAMES_ENABLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Alloc/dealloc totals of the current thread since it registered.
/// Returns `(alloc_bytes, alloc_calls, dealloc_bytes, dealloc_calls)`.
pub fn thread_alloc_totals() -> (u64, u64, u64, u64) {
    SLOT.try_with(|holder| {
        let s = &holder.slot;
        (
            s.alloc_bytes.load(Ordering::Relaxed),
            s.alloc_calls.load(Ordering::Relaxed),
            s.dealloc_bytes.load(Ordering::Relaxed),
            s.dealloc_calls.load(Ordering::Relaxed),
        )
    })
    .unwrap_or((0, 0, 0, 0))
}

/// Assert that `f` performs **zero** allocator calls (alloc, dealloc, or
/// realloc) on this thread at steady state.
///
/// Protocol: `f` is called once *outside* the measured window to warm any
/// lazily-grown buffers, then `iters` times inside it. Panics with a
/// per-iteration breakdown if any allocator traffic is observed, and
/// panics up front if no [`CountingAlloc`] is installed (the gate would
/// otherwise pass vacuously).
pub fn assert_zero_alloc<F: FnMut()>(label: &str, iters: usize, mut f: F) {
    assert!(
        allocator_installed(),
        "alloc_gate '{label}': no CountingAlloc installed — add \
         `voltsense_telemetry::install_counting_allocator!();` at the \
         crate root of this test target"
    );
    register_current_thread();
    let _window = enable_counting();
    // Warmup: first call may legitimately size scratch buffers.
    f();
    let (ab0, ac0, db0, dc0) = thread_alloc_totals();
    for _ in 0..iters.max(1) {
        f();
    }
    let (ab1, ac1, db1, dc1) = thread_alloc_totals();
    let (allocs, bytes) = (ac1 - ac0, ab1 - ab0);
    let (deallocs, dbytes) = (dc1 - dc0, db1 - db0);
    assert!(
        allocs == 0 && deallocs == 0,
        "alloc_gate '{label}': expected zero steady-state allocations over \
         {iters} iterations, observed {allocs} allocations ({bytes} bytes) \
         and {deallocs} deallocations ({dbytes} bytes) — \
         {per_alloc:.2} allocs/iter",
        per_alloc = allocs as f64 / iters.max(1) as f64,
    );
}

/// Zero-allocation tripwire for hot paths; sugar over
/// [`profile::assert_zero_alloc`](assert_zero_alloc):
///
/// ```ignore
/// voltsense_telemetry::install_counting_allocator!();
/// voltsense_telemetry::alloc_gate!("bcd.sweep", 16, || sweep(&mut state));
/// ```
#[macro_export]
macro_rules! alloc_gate {
    ($label:expr, $iters:expr, $body:expr) => {
        $crate::profile::assert_zero_alloc($label, $iters, $body)
    };
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Default sampling rate. 99 Hz is the classic profiler choice: co-prime
/// with 100 Hz/1 kHz timers so periodic work is not systematically hit
/// (or missed) at the same phase.
pub const DEFAULT_HZ: f64 = 99.0;

/// Folded profile state, filled by the sampler thread and rendered by
/// [`Profiler::to_json`] / [`Profiler::to_collapsed`].
#[derive(Default)]
struct ProfileStore {
    /// Collapsed stack → sample count.
    stacks: HashMap<Vec<&'static str>, u64>,
    /// Thread name → samples observed on that thread (any depth).
    threads: HashMap<String, u64>,
}

/// The profile accumulator: sample counts folded by collapsed stack.
/// Create via [`start`] (which also spawns the sampler thread) or
/// [`Profiler::new`] + [`Profiler::sample_once`] in tests.
pub struct Profiler {
    hz: f64,
    /// Total sampling passes over the registry.
    passes: AtomicU64,
    /// Thread-samples observed with an empty span stack.
    idle: AtomicU64,
    /// Seqlock reads abandoned after retries (stack mutating too fast).
    unstable: AtomicU64,
    store: Mutex<ProfileStore>,
}

impl Profiler {
    /// An empty profile that would sample at `hz`.
    pub fn new(hz: f64) -> Self {
        Profiler {
            hz,
            passes: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            unstable: AtomicU64::new(0),
            store: Mutex::new(ProfileStore::default()),
        }
    }

    /// Snapshot every registered thread's span stack once and fold the
    /// results. Also prunes slots of exited threads. Public so tests can
    /// drive the sampler deterministically without the background thread.
    pub fn sample_once(&self) {
        self.passes.fetch_add(1, Ordering::Relaxed);
        // Copy the registry out so stacks are read without holding its
        // lock (thread registration must never wait on a sampling pass).
        let slots: Vec<Arc<ThreadSlot>> = {
            let mut reg = SLOTS.lock().unwrap_or_else(|e| e.into_inner());
            reg.retain(|s| !s.retired.load(Ordering::Acquire));
            reg.clone()
        };
        let mut raw = [(ptr::null::<u8>(), 0usize); MAX_DEPTH];
        for slot in &slots {
            match read_stack_raw(slot, &mut raw) {
                StackRead::Unstable => {
                    self.unstable.fetch_add(1, Ordering::Relaxed);
                }
                StackRead::Stable { depth, truncated } => {
                    let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
                    *store.threads.entry(slot.name.clone()).or_insert(0) += 1;
                    if depth == 0 {
                        self.idle.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let mut stack: Vec<&'static str> = Vec::with_capacity(depth + 1);
                    for &(p, len) in &raw[..depth] {
                        // SAFETY: the seqlock validated this (ptr, len)
                        // pair as a consistently-published span name, and
                        // span names are `&'static str`.
                        stack.push(unsafe {
                            std::str::from_utf8_unchecked(std::slice::from_raw_parts(p, len))
                        });
                    }
                    if truncated {
                        stack.push("(truncated)");
                    }
                    *store.stacks.entry(stack).or_insert(0) += 1;
                }
            }
        }
    }

    /// Total thread-samples folded so far (including idle ones).
    pub fn samples(&self) -> u64 {
        let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.threads.values().sum()
    }

    /// Flamegraph-compatible collapsed-stack text: one
    /// `frame;frame;leaf count` line per distinct stack, ordered by
    /// descending count then lexicographically (deterministic output).
    /// Idle thread-samples fold into a single `(idle)` pseudo-frame.
    pub fn to_collapsed(&self) -> String {
        let mut lines: Vec<(u64, String)> = {
            let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
            store
                .stacks
                .iter()
                .map(|(stack, &count)| (count, stack.join(";")))
                .collect()
        };
        let idle = self.idle.load(Ordering::Relaxed);
        if idle > 0 {
            lines.push((idle, "(idle)".to_string()));
        }
        lines.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut out = String::with_capacity(lines.len() * 48);
        for (count, folded) in lines {
            out.push_str(&folded);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// The `voltsense-profile-v1` JSON document: sampler metadata, folded
    /// stacks (same order as [`to_collapsed`](Self::to_collapsed)), per-thread sample counts,
    /// and the allocation-accountant state.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"voltsense-profile-v1\",\n");
        out.push_str(&format!("  \"hz\": {},\n", fmt_f64(self.hz)));
        out.push_str(&format!("  \"passes\": {},\n", self.passes.load(Ordering::Relaxed)));
        out.push_str(&format!("  \"samples\": {},\n", self.samples()));
        out.push_str(&format!("  \"idle_samples\": {},\n", self.idle.load(Ordering::Relaxed)));
        out.push_str(&format!(
            "  \"unstable_reads\": {},\n",
            self.unstable.load(Ordering::Relaxed)
        ));

        let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let mut threads: Vec<(&String, &u64)> = store.threads.iter().collect();
        threads.sort_by(|a, b| a.0.cmp(b.0));
        out.push_str("  \"threads\": [");
        for (i, (name, samples)) in threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_json_string(&mut out, name);
            out.push_str(&format!(", \"samples\": {samples}}}"));
        }
        out.push_str("\n  ],\n");

        let mut stacks: Vec<(u64, &Vec<&'static str>)> =
            store.stacks.iter().map(|(s, &c)| (c, s)).collect();
        stacks.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        out.push_str("  \"stacks\": [");
        for (i, (count, stack)) in stacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"stack\": [");
            for (j, frame) in stack.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, frame);
            }
            out.push_str(&format!("], \"count\": {count}}}"));
        }
        out.push_str("\n  ],\n");
        drop(store);

        out.push_str(&alloc_json());
        out.push_str("\n}\n");
        out
    }
}

/// Outcome of one seqlock stack read.
enum StackRead {
    Stable { depth: usize, truncated: bool },
    Unstable,
}

/// Copy a slot's published stack into `raw` under the seqlock protocol.
/// The `(ptr, len)` words are only reinterpreted as strings by the caller
/// *after* a stable read is confirmed.
fn read_stack_raw(slot: &ThreadSlot, raw: &mut [(*const u8, usize); MAX_DEPTH]) -> StackRead {
    for _ in 0..4 {
        let v1 = slot.version.load(Ordering::Acquire);
        if v1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let logical_depth = slot.depth.load(Ordering::Relaxed);
        let depth = logical_depth.min(MAX_DEPTH);
        for (i, entry) in raw.iter_mut().enumerate().take(depth) {
            entry.0 = slot.frames[i].ptr.load(Ordering::Relaxed);
            entry.1 = slot.frames[i].len.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        let v2 = slot.version.load(Ordering::Relaxed);
        if v1 == v2 {
            // A torn pre-validation read can leave garbage words, but a
            // *validated* read cannot: every (ptr, len) was published
            // complete before the even version became visible. Null
            // frames (never-written padding) only occur past `depth`.
            return StackRead::Stable {
                depth,
                truncated: logical_depth > MAX_DEPTH,
            };
        }
    }
    StackRead::Unstable
}

/// Render the allocation-accountant section of the profile document.
fn alloc_json() -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("  \"alloc\": {\n");
    out.push_str(&format!(
        "    \"counting\": {},\n    \"allocator_installed\": {},\n",
        ALLOC_ENABLED.load(Ordering::Relaxed) != 0,
        ALLOC_INSTALLED.load(Ordering::Relaxed)
    ));
    out.push_str(&format!(
        "    \"retired\": {{\"alloc_bytes\": {}, \"alloc_calls\": {}, \"dealloc_bytes\": {}, \"dealloc_calls\": {}}},\n",
        RETIRED_ALLOC_BYTES.load(Ordering::Relaxed),
        RETIRED_ALLOC_CALLS.load(Ordering::Relaxed),
        RETIRED_DEALLOC_BYTES.load(Ordering::Relaxed),
        RETIRED_DEALLOC_CALLS.load(Ordering::Relaxed)
    ));
    let slots: Vec<Arc<ThreadSlot>> = SLOTS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    out.push_str("    \"threads\": [");
    let mut first = true;
    for slot in &slots {
        let calls = slot.alloc_calls.load(Ordering::Relaxed);
        let dcalls = slot.dealloc_calls.load(Ordering::Relaxed);
        if calls == 0 && dcalls == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n      {\"name\": ");
        push_json_string(&mut out, &slot.name);
        out.push_str(&format!(
            ", \"alloc_bytes\": {}, \"alloc_calls\": {calls}, \"dealloc_bytes\": {}, \"dealloc_calls\": {dcalls}, \"sites\": [",
            slot.alloc_bytes.load(Ordering::Relaxed),
            slot.dealloc_bytes.load(Ordering::Relaxed)
        ));
        let mut sites: Vec<(String, u64, u64)> = Vec::new();
        for site in &slot.sites {
            let p = site.name_ptr.load(Ordering::Relaxed);
            if p.is_null() {
                continue;
            }
            let len = site.name_len.load(Ordering::Relaxed);
            if len == 0 {
                // The claiming thread has CASed the pointer but not yet
                // stored the length; skip this in-flight entry.
                continue;
            }
            // SAFETY: (ptr, len) is a fully-published `&'static str` span
            // name — the length store follows the successful claim and we
            // only read entries whose length is visible.
            let name =
                unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(p, len)) };
            sites.push((
                name.to_string(),
                site.bytes.load(Ordering::Relaxed),
                site.calls.load(Ordering::Relaxed),
            ));
        }
        let other_calls = slot.other_calls.load(Ordering::Relaxed);
        if other_calls > 0 {
            sites.push(("(other)".to_string(), slot.other_bytes.load(Ordering::Relaxed), other_calls));
        }
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (j, (name, bytes, calls)) in sites.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"span\": ");
            push_json_string(&mut out, name);
            out.push_str(&format!(", \"bytes\": {bytes}, \"calls\": {calls}}}"));
        }
        out.push_str("]}");
    }
    out.push_str("\n    ]\n  }");
    out
}

/// The `voltsense-profile-v1` document of an idle profiler; what
/// `GET /profile` serves before [`install`] / [`start`].
pub fn empty_json() -> String {
    Profiler::new(DEFAULT_HZ).to_json()
}

/// Process-global profiler registry, read by the `/profile` route and by
/// incident snapshots. Replaceable like [`crate::flight::install`].
static PROFILER: Mutex<Option<Arc<Profiler>>> = Mutex::new(None);

/// Register `profiler` as the process profiler (replacing any previous
/// one) and return the one installed before.
pub fn install(profiler: Arc<Profiler>) -> Option<Arc<Profiler>> {
    PROFILER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .replace(profiler)
}

/// The registered profiler, if any.
pub fn current() -> Option<Arc<Profiler>> {
    PROFILER.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Handle to a running sampler thread; sampling stops (and the frame
/// refcount drops) when this is dropped. The profiler itself stays
/// [`install`]ed so late scrapes and incident snapshots still see the
/// final profile.
pub struct SamplerGuard {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    profiler: Arc<Profiler>,
}

impl SamplerGuard {
    /// The profiler being filled by this sampler.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }
}

impl Drop for SamplerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        FRAMES_ENABLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Start the continuous sampler at `hz`: installs a fresh [`Profiler`] as
/// the process profiler, enables frame publishing, registers the current
/// thread, and spawns the background sampling thread.
pub fn start(hz: f64) -> SamplerGuard {
    let hz = if hz.is_finite() && hz > 0.0 { hz } else { DEFAULT_HZ };
    let profiler = Arc::new(Profiler::new(hz));
    install(profiler.clone());
    register_current_thread();
    FRAMES_ENABLED.fetch_add(1, Ordering::SeqCst);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let sampler = profiler.clone();
    let period = Duration::from_secs_f64(1.0 / hz);
    let thread = std::thread::Builder::new()
        .name("voltsense-profile-sampler".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::SeqCst) {
                sampler.sample_once();
                std::thread::sleep(period);
            }
        })
        .ok();
    SamplerGuard {
        stop,
        thread,
        profiler,
    }
}

/// Start the sampler if `VOLTSENSE_PROFILE` is truthy, at
/// `VOLTSENSE_PROFILE_HZ` (default 99). Called by
/// [`crate::init_always_on`]; binaries can also call it directly.
pub fn start_from_env() -> Option<SamplerGuard> {
    let raw = crate::env::value("VOLTSENSE_PROFILE")?;
    if !crate::env::is_truthy(&raw) {
        return None;
    }
    let hz = crate::env::parse::<f64>("VOLTSENSE_PROFILE_HZ").unwrap_or(DEFAULT_HZ);
    eprintln!("[telemetry] span-stack sampler on at {hz} Hz (GET /profile)");
    Some(start(hz))
}
