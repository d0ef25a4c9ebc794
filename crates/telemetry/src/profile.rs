//! Exact span profiles and the allocation accountant (DESIGN.md §7.8).
//!
//! ## Span profile
//!
//! A [`MemoryRecorder`](crate::MemoryRecorder) folds each span into its
//! call path when the span closes, as it feeds the span-duration
//! histograms: the path is the parent's path plus the span's name, the
//! parent being the latest-begun span on the same thread still open when
//! it began. Each path keeps `calls`, `total_ns` and the thread's
//! allocation delta over its spans, never decimated, so a bounded recorder
//! reports the same paths and counts as an unbounded one. A [`Snapshot`]
//! carries the fold as [`Snapshot::stacks`] with each path's self time:
//! total minus the direct children's totals, floored at 0 (a child that
//! outlives its parent cannot make it negative). Spans open at snapshot
//! time are not in the fold. [`Snapshot::to_profile_json`] renders the
//! `voltsense-profile-v2` document served at `GET /profile`, and
//! [`Snapshot::to_collapsed`] the flamegraph-compatible
//! `frame;frame;leaf self_ns` lines of `GET /profile?format=collapsed`.
//!
//! ## Allocation accountant
//!
//! [`CountingAlloc`] wraps the system allocator and, while a counting
//! window ([`enable_counting`]) is open, counts alloc/dealloc bytes and
//! calls in plain thread-locals, which the recorder reads at span begin and
//! end. Binaries opt in with [`crate::install_counting_allocator!`]; the
//! disabled path costs one relaxed atomic load per allocator call. On top
//! of it, [`assert_zero_alloc`] (and the [`crate::alloc_gate!`] macro) pins
//! *zero steady-state allocations* on hot kernels: warm up once, then
//! assert that N further iterations perform no allocator calls at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::export::{push_json_string, Snapshot};

thread_local! {
    /// This thread's `(alloc_bytes, alloc_calls, dealloc_bytes,
    /// dealloc_calls)`. Const-initialised with no destructor, so the
    /// allocator can update it with no lazy init and no recursion.
    static TOTALS: Cell<(u64, u64, u64, u64)> = const { Cell::new((0, 0, 0, 0)) };
}

/// Refcount of enabled allocation-counting windows.
static ALLOC_ENABLED: AtomicUsize = AtomicUsize::new(0);

/// Latched to `true` by the first call through [`CountingAlloc`]; lets
/// [`allocator_installed`] distinguish "wrapper not installed" from
/// "counting disabled".
static ALLOC_INSTALLED: AtomicBool = AtomicBool::new(false);

impl Snapshot {
    /// The `voltsense-profile-v2` JSON document: every folded call path
    /// (same order as [`to_collapsed`](Self::to_collapsed)) with its
    /// `calls`, `total_ns`, `self_ns`, `alloc_bytes` and `alloc_calls`, and
    /// the allocation accountant's state.
    pub fn to_profile_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.stacks.len() * 160);
        out.push_str("{\n  \"schema\": \"voltsense-profile-v2\",\n  \"stacks\": [");
        for (i, s) in self.stacks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"stack\": [");
            for (j, frame) in s.stack.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, frame);
            }
            out.push_str(&format!(
                "], \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}, \"alloc_bytes\": {}, \"alloc_calls\": {}}}",
                s.calls, s.total_ns, s.self_ns, s.alloc_bytes, s.alloc_calls
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"alloc\": {{\"allocator_installed\": {}, \"counting\": {}}}\n}}\n",
            ALLOC_INSTALLED.load(Ordering::Relaxed),
            ALLOC_ENABLED.load(Ordering::Relaxed) != 0
        ));
        out
    }

    /// Flamegraph-compatible collapsed-stack text: one
    /// `frame;frame;leaf self_ns` line per folded call path, by descending
    /// self time, then by path.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::with_capacity(self.stacks.len() * 48);
        for s in &self.stacks {
            out.push_str(&s.stack.join(";"));
            out.push(' ');
            out.push_str(&s.self_ns.to_string());
            out.push('\n');
        }
        out
    }
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
    let _ = TOTALS.try_with(|t| {
        let (bytes, calls, dealloc_bytes, dealloc_calls) = t.get();
        t.set((bytes + size as u64, calls + 1, dealloc_bytes, dealloc_calls));
    });
}

/// Record one deallocation on the current thread. Never allocates.
#[cold]
fn record_dealloc(size: usize) {
    let _ = TOTALS.try_with(|t| {
        let (bytes, calls, dealloc_bytes, dealloc_calls) = t.get();
        t.set((bytes, calls, dealloc_bytes + size as u64, dealloc_calls + 1));
    });
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
#[allow(unsafe_code)]
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
/// calls are counted. Windows are refcounted, so concurrent gates (cargo's
/// parallel test threads) compose.
pub struct CountingGuard(());

/// Open an allocation-counting window.
pub fn enable_counting() -> CountingGuard {
    ALLOC_ENABLED.fetch_add(1, Ordering::SeqCst);
    CountingGuard(())
}

impl Drop for CountingGuard {
    fn drop(&mut self) {
        ALLOC_ENABLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Alloc/dealloc totals counted on the current thread so far.
/// Returns `(alloc_bytes, alloc_calls, dealloc_bytes, dealloc_calls)`.
pub fn thread_alloc_totals() -> (u64, u64, u64, u64) {
    TOTALS.try_with(Cell::get).unwrap_or_default()
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
