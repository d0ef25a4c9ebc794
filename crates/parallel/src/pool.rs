//! The scoped thread pool: persistent workers, one batch at a time,
//! panic propagation, inline short-circuit.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use voltsense_telemetry as telemetry;

use crate::{chunk_ranges, in_worker, set_in_worker, MAX_THREADS};

/// One claimable row block handed to [`ThreadPool::for_each_row_block`]
/// workers: `(first_row, rows)` behind a `Mutex` so each disjoint `&mut`
/// partition is claimed exactly once without unsafe.
type RowBlock<'a, T> = Mutex<Option<(usize, &'a mut [T])>>;


/// One parallel batch: an indexed task run over `0..chunks`, executed
/// cooperatively by the submitting thread and the pool workers.
///
/// The task reference is lifetime-erased to `'static`; this is sound
/// because [`ThreadPool::run`] does not return until every chunk has
/// completed, and a worker never touches the task after its last
/// `fetch_add` returned an out-of-range index.
struct Batch {
    task: &'static (dyn Fn(usize) + Sync),
    /// Thread-scoped telemetry recorder of the submitting thread, if any —
    /// installed around each worker-executed chunk so captures see the
    /// whole parallel region.
    scoped: Option<Arc<dyn telemetry::Recorder>>,
    chunks: usize,
    next: AtomicUsize,
    done: Mutex<BatchDone>,
    done_cv: Condvar,
}

struct BatchDone {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Claims and executes chunks until the index space is exhausted;
    /// returns how many chunks this thread ran. Panics are recorded, not
    /// propagated — the submitting thread re-raises the first one.
    fn execute(&self, install_scope: bool) -> usize {
        let mut ran = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            let result = match (&self.scoped, install_scope) {
                (Some(r), true) => catch_unwind(AssertUnwindSafe(|| {
                    telemetry::with_scoped(r.clone(), || (self.task)(i))
                })),
                _ => catch_unwind(AssertUnwindSafe(|| (self.task)(i))),
            };
            ran += 1;
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(payload) = result {
                done.panic.get_or_insert(payload);
            }
            done.completed += 1;
            if done.completed == self.chunks {
                self.done_cv.notify_all();
            }
        }
        ran
    }
}

struct PoolState {
    batch: Option<Arc<Batch>>,
    /// Bumped on every publish; workers sleep until it moves so an
    /// exhausted batch is never re-entered.
    generation: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

/// A pool of persistent `std::thread` workers executing statically
/// chunked batches. All batch primitives block until completion, so task
/// closures may freely borrow from the caller's stack.
///
/// Most code uses the process-global pool through the crate-level free
/// functions; constructing a private pool is for tests.
pub struct ThreadPool {
    default_threads: usize,
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Serializes batches: the single-slot publish protocol supports one
    /// batch in flight at a time.
    submit: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool targeting `threads` parallelism (clamped to
    /// `1..=`[`MAX_THREADS`]). No worker is spawned until a batch first
    /// needs one, so `threads == 1` costs nothing.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            default_threads: threads.clamp(1, MAX_THREADS),
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    batch: None,
                    generation: 0,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            submit: Mutex::new(()),
        }
    }

    /// The parallelism this pool targets by default (the
    /// [`crate::with_threads`] override can exceed it).
    pub fn default_threads(&self) -> usize {
        self.default_threads
    }

    /// Worker threads currently alive.
    pub fn spawned_workers(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The parallelism a batch submitted right now would use: the
    /// thread-local override or this pool's default, and always 1 from
    /// inside a worker.
    fn effective_threads(&self) -> usize {
        if in_worker() {
            return 1;
        }
        crate::override_or(self.default_threads)
    }

    fn ensure_workers(&self, wanted: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < wanted.min(MAX_THREADS - 1) {
            let shared = Arc::clone(&self.shared);
            let name = format!("voltsense-par-{}", workers.len());
            match std::thread::Builder::new().name(name).spawn(move || worker_loop(shared)) {
                Ok(handle) => workers.push(handle),
                // Spawn failure degrades to less parallelism: the caller
                // executes every chunk itself, so the batch still finishes.
                Err(_) => break,
            }
        }
    }

    /// Runs `task(i)` for every `i in 0..chunks`, blocking until all
    /// complete. Chunk indices are claimed atomically but the *work* behind
    /// each index must be a pure function of the index for determinism
    /// (every caller in this workspace partitions disjoint output by
    /// index). Inline (no synchronization) when `chunks <= 1`, effective
    /// parallelism is 1, or the caller is itself a pool worker. If any
    /// chunk panics the first payload is re-raised here after the batch
    /// drains.
    pub fn run(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        let want = self.effective_threads().min(chunks);
        if chunks == 1 || want <= 1 {
            telemetry::counter("parallel.inline_batches", 1);
            for i in 0..chunks {
                task(i);
            }
            return;
        }
        self.ensure_workers(want - 1);

        let _submit = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the batch is dropped from the publish slot and fully
        // completed (`completed == chunks`) before `run` returns, so the
        // erased reference never outlives the real borrow.
        let task_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task) };
        let batch = Arc::new(Batch {
            task: task_static,
            scoped: telemetry::scoped_recorder(),
            chunks,
            next: AtomicUsize::new(0),
            done: Mutex::new(BatchDone {
                completed: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.batch = Some(Arc::clone(&batch));
            st.generation = st.generation.wrapping_add(1);
        }
        self.shared.work_ready.notify_all();

        // The submitting thread works the same batch (its telemetry scope
        // is already installed). While it executes chunks it is flagged as
        // a worker so a nested parallel region inside a chunk runs inline
        // instead of re-entering the (non-reentrant) submit lock.
        let caller_ran = {
            struct Unflag(bool);
            impl Drop for Unflag {
                fn drop(&mut self) {
                    set_in_worker(self.0);
                }
            }
            let _unflag = Unflag(in_worker());
            set_in_worker(true);
            batch.execute(false)
        };

        let panic_payload = {
            let mut done = batch.done.lock().unwrap_or_else(|e| e.into_inner());
            while done.completed < chunks {
                done = batch
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(|e| e.into_inner());
            }
            done.panic.take()
        };
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.batch = None;
        }
        telemetry::counter("parallel.batches", 1);
        telemetry::counter("parallel.tasks", chunks as u64);
        telemetry::counter("parallel.caller_tasks", caller_ran as u64);
        telemetry::counter("parallel.worker_tasks", (chunks - caller_ran) as u64);
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Partitions `0..len` into at most `effective_threads` contiguous
    /// chunks of at least `min_chunk` indices each ([`chunk_ranges`]
    /// boundaries) and runs `f(range)` for each. `min_chunk` is the
    /// work-granularity knob: chunks are never smaller, so tiny inputs run
    /// inline instead of paying dispatch overhead.
    pub fn for_each_chunk(&self, len: usize, min_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
        if len == 0 {
            return;
        }
        let max_parts = len.div_ceil(min_chunk.max(1));
        let parts = self.effective_threads().min(max_parts);
        if parts <= 1 {
            f(0..len);
            return;
        }
        let ranges = chunk_ranges(len, parts);
        self.run(ranges.len(), &|i| f(ranges[i].clone()));
    }

    /// Maps `f` over `items`, returning outputs in input order. Items are
    /// statically chunked; each chunk's outputs are produced in item order
    /// and stitched back by chunk index, so the result equals the serial
    /// `items.iter().map(f).collect()` exactly.
    pub fn par_map<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        let parts = self.effective_threads().min(items.len());
        if parts <= 1 {
            return items.iter().map(f).collect();
        }
        let ranges = chunk_ranges(items.len(), parts);
        let slots: Vec<Mutex<Vec<U>>> = ranges.iter().map(|_| Mutex::new(Vec::new())).collect();
        self.run(ranges.len(), &|ci| {
            let part: Vec<U> = items[ranges[ci].clone()].iter().map(&f).collect();
            *slots[ci].lock().unwrap_or_else(|e| e.into_inner()) = part;
        });
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            out.append(&mut slot.into_inner().unwrap_or_else(|e| e.into_inner()));
        }
        out
    }

    /// Splits a row-major buffer (`data.len() / width` rows of `width`
    /// items) into contiguous row blocks of at least `min_rows` rows and
    /// runs `f(first_row, block)` for each. Blocks are disjoint `&mut`
    /// sub-slices, so kernels write their partition directly — no
    /// `unsafe` needed at call sites.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` (with non-empty data) or `data.len()` is not
    /// a multiple of `width`.
    pub fn for_each_row_block<T: Send>(
        &self,
        data: &mut [T],
        width: usize,
        min_rows: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        assert!(
            width > 0 && data.len().is_multiple_of(width),
            "row width {width} does not divide buffer length {}",
            data.len()
        );
        let rows = data.len() / width;
        let max_parts = rows.div_ceil(min_rows.max(1));
        let parts = self.effective_threads().min(max_parts);
        if parts <= 1 {
            f(0, data);
            return;
        }
        let ranges = chunk_ranges(rows, parts);
        let mut blocks: Vec<RowBlock<'_, T>> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len() * width);
            blocks.push(Mutex::new(Some((r.start, head))));
            rest = tail;
        }
        self.run(blocks.len(), &|i| {
            let (first_row, block) = blocks[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("each block is claimed exactly once");
            f(first_row, block);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    set_in_worker(true);
    let mut last_generation = 0u64;
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != last_generation {
                    if let Some(batch) = &st.batch {
                        last_generation = st.generation;
                        break Arc::clone(batch);
                    }
                    // Generation moved but the batch is already cleared:
                    // remember we saw it so we don't spin.
                    last_generation = st.generation;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        batch.execute(true);
    }
}
