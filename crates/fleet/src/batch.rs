//! The batched cross-session prediction plane (ROADMAP item 1's "one
//! blocked matmul instead of per-chip matvecs").
//!
//! Each shard owns one [`BatchPlane`]. Per dispatcher pass the plane runs
//! three phases over the shard's active sessions:
//!
//! 1. **Gather** — pop up to the drain budget from every session (FIFO
//!    per session, exactly like the sequential drain) and stage each
//!    reading as one row of a per-model-group scratch matrix. Groups are
//!    keyed by [`VoltageMapModel::params_fingerprint`]; the first session
//!    to create a group donates a canonical model clone, and every other
//!    session instance is verified *bitwise* against it once before its
//!    readings may share the group's GEMM — a 64-bit fingerprint
//!    collision therefore degrades that session to the sequential path
//!    instead of ever producing wrong predictions. Readings that cannot
//!    batch (wrong length, non-finite values, a monitor that opted out)
//!    are routed sequentially so they produce the identical per-reading
//!    errors the sequential drain would.
//! 2. **GEMM** — every group that gathered at least
//!    [`FleetConfig::gemm_min_batch`](crate::FleetConfig) rows runs one
//!    blocked `B×Q · Q×K` product through `voltsense-linalg`
//!    ([`VoltageMapModel::predict_batch_into`]). Row `b` of the output
//!    holds exactly the bits `predict_into` would have produced for
//!    reading `b` (the linalg lane identity, DESIGN.md §8.4). Groups
//!    below the floor fall back to per-reading observes.
//! 3. **Scatter** — walk the gathered items in order and feed each
//!    session its decision inputs: the GEMM row through
//!    `observe_prepared`, or the raw readings through `observe` for
//!    sequential items. The decide stage (flags, checkpoint policy,
//!    counters, trace drafts, spare-buffer recycling) is the *same code*
//!    as the sequential drain (`Session::apply_decision`), which is
//!    what keeps the two paths byte-identical. A monitor panic
//!    quarantines its session mid-scatter; the session's remaining items
//!    this pass are abandoned, mirroring how a panic aborts the rest of a
//!    sequential drain.
//!
//! All scratch (staging matrices, GEMM outputs, the work-item list) is
//! retained and recycled across passes, so the steady-state
//! gather→GEMM→scatter path allocates nothing (pinned by the fleet
//! `alloc_gate` test).
//!
//! [`VoltageMapModel::params_fingerprint`]: voltsense_core::VoltageMapModel::params_fingerprint
//! [`VoltageMapModel::predict_batch_into`]: voltsense_core::VoltageMapModel::predict_batch_into

use std::collections::{HashMap, HashSet};
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use voltsense_core::{CoreError, MonitorDecision, VoltageMapModel};
use voltsense_linalg::Matrix;
use voltsense_telemetry as telemetry;

use crate::frame::Frame;
use crate::metrics;
use crate::session::{ApplyArgs, Drained, QueuedBatch, Session, SessionState};

/// One response produced by a plane pass, tagged with the index of the
/// session (in the slice passed to [`BatchPlane::drain`]) it belongs to.
/// Per-session order is FIFO; responses for different sessions interleave.
#[derive(Debug)]
pub struct PlaneDrained {
    /// Index into the drained sessions slice.
    pub slot: usize,
    /// The response frame plus its trace draft.
    pub drained: Drained,
}

/// A monitor panic caught mid-scatter: the session at `slot` is already
/// quarantined; the caller owns incident reporting and client notification.
#[derive(Debug)]
pub struct PlanePanic {
    /// Index into the drained sessions slice.
    pub slot: usize,
    /// Rendered panic payload.
    pub message: String,
    /// The quarantine error frame to relay to the client.
    pub frame: Frame,
}

/// Where one gathered reading gets its prediction from.
enum Route {
    /// Row `row` of the group keyed by `fp`, if that group's GEMM runs.
    Gemm { fp: u64, row: usize },
    /// Per-reading observe through the monitor.
    Sequential,
}

/// One reading popped during gather, awaiting scatter.
struct WorkItem {
    slot: usize,
    seq: u64,
    values: Vec<f64>,
    trace: Option<crate::session::PendingTrace>,
    popped: Instant,
    route: Route,
}

/// Per-model staging: the canonical model, which session instances were
/// verified against it, and the recycled GEMM scratch.
struct Group {
    /// Canonical clone donated by the first session that formed the group.
    /// The GEMM always evaluates *this* model; members are bit-verified
    /// against it, so substituting it for their own is exact.
    model: VoltageMapModel,
    /// Session instance ids whose parameters matched `model` bitwise.
    verified: HashSet<u64>,
    /// `rows × Q` staged readings (row-major, recycled).
    staged: Vec<f64>,
    /// `rows × K` GEMM output (recycled).
    out: Vec<f64>,
    /// Rows staged this pass.
    rows: usize,
    /// Whether this pass's GEMM ran (occupancy floor met).
    executed: bool,
    /// This pass's GEMM time amortized per row, for trace drafts.
    predict_ns_per_row: u64,
}

impl Group {
    fn new(model: VoltageMapModel) -> Self {
        Group {
            model,
            verified: HashSet::new(),
            staged: Vec::new(),
            out: Vec::new(),
            rows: 0,
            executed: false,
            predict_ns_per_row: 0,
        }
    }

    fn begin_pass(&mut self) {
        self.staged.clear();
        self.rows = 0;
        self.executed = false;
        self.predict_ns_per_row = 0;
    }

    /// One blocked `B×Q · Q×K` product over the staged rows. The matrix
    /// wrappers round-trip the recycled storage by value (`from_vec` /
    /// `into_vec` move the allocation, they never copy it).
    fn run_gemm(&mut self) {
        let b = self.rows;
        let q = self.model.num_sensors();
        let k = self.model.num_targets();
        self.out.resize(b * k, 0.0);
        let staged = Matrix::from_vec(b, q, mem::take(&mut self.staged))
            .expect("gather stages exactly Q values per row");
        let mut out = Matrix::from_vec(b, k, mem::take(&mut self.out))
            .expect("output resized to B*K above");
        self.model
            .predict_batch_into(&staged, &mut out)
            .expect("shapes were validated at gather");
        self.staged = staged.into_vec();
        self.out = out.into_vec();
    }
}

/// The per-shard batched prediction plane. See the module docs for the
/// three phases and the identity argument.
pub struct BatchPlane {
    /// Fewest same-model rows a pass must gather before their GEMM runs;
    /// below it readings take the per-reading path. `usize::MAX` disables
    /// batching outright.
    min_batch: usize,
    groups: HashMap<u64, Group>,
    items: Vec<WorkItem>,
    out: Vec<PlaneDrained>,
    panics: Vec<PlanePanic>,
}

impl BatchPlane {
    /// New plane with the given GEMM occupancy floor
    /// ([`FleetConfig::gemm_min_batch`](crate::FleetConfig)).
    pub fn new(min_batch: usize) -> Self {
        BatchPlane {
            min_batch,
            groups: HashMap::new(),
            items: Vec::new(),
            out: Vec::new(),
            panics: Vec::new(),
        }
    }

    /// Responses produced by the last [`drain`](Self::drain) pass.
    pub fn drained(&self) -> &[PlaneDrained] {
        &self.out
    }

    /// Monitor panics caught during the last [`drain`](Self::drain) pass.
    pub fn panics(&self) -> &[PlanePanic] {
        &self.panics
    }

    /// Drain up to `budget` queued readings from every session through
    /// the gather→GEMM→scatter pipeline. Results land in
    /// [`drained`](Self::drained) / [`panics`](Self::panics) (cleared at
    /// entry). Decision semantics are byte-identical to calling
    /// `Session::drain` on each session in turn; see the module docs.
    pub fn drain(
        &mut self,
        sessions: &mut [&mut Session],
        budget: usize,
        checkpoint_interval: usize,
    ) {
        self.out.clear();
        self.panics.clear();
        debug_assert!(self.items.is_empty(), "scatter consumes every item");
        for group in self.groups.values_mut() {
            group.begin_pass();
        }

        // Phase 1: gather.
        for (slot, session) in sessions.iter_mut().enumerate() {
            for _ in 0..budget {
                let Some(batch) = session.pop_batch() else { break };
                let popped = Instant::now();
                let route = route_reading(&mut self.groups, self.min_batch, session, &batch);
                let QueuedBatch { seq, values, trace } = batch;
                self.items.push(WorkItem { slot, seq, values, trace, popped, route });
            }
        }

        // Phase 2: one GEMM per group that met the occupancy floor.
        let mut executed_batches = 0u64;
        let mut batched_rows = 0u64;
        for group in self.groups.values_mut() {
            if group.rows == 0 || group.rows < self.min_batch {
                continue;
            }
            let started = Instant::now();
            group.run_gemm();
            let ns = started.elapsed().as_nanos() as u64;
            group.predict_ns_per_row = ns / group.rows as u64;
            group.executed = true;
            executed_batches += 1;
            batched_rows += group.rows as u64;
            telemetry::histogram(metrics::GEMM_BATCH_OCCUPANCY, group.rows as f64, "rows");
        }
        if executed_batches > 0 {
            telemetry::counter(metrics::GEMM_BATCHES_TOTAL, executed_batches);
            telemetry::counter(metrics::GEMM_ROWS_TOTAL, batched_rows);
            telemetry::counter(metrics::PREDICT_BATCHED_TOTAL, batched_rows);
        }

        // Phase 3: scatter, in gather order (FIFO per session).
        let mut sequential_rows = 0u64;
        for item in self.items.drain(..) {
            let session = &mut *sessions[item.slot];
            if session.state() == SessionState::Quarantined {
                // An earlier reading this pass panicked the monitor; the
                // rest of this session's gathered readings are abandoned,
                // exactly as a panic aborts the rest of a sequential
                // drain. (Their buffers drop; the cold path may allocate.)
                continue;
            }
            let was_alarmed = session.is_alarmed();
            let (observed, predict_ns, batched) = match item.route {
                Route::Gemm { fp, row } => {
                    let group = self.groups.get(&fp).expect("items only route to live groups");
                    if group.executed {
                        let k = group.model.num_targets();
                        let predicted = &group.out[row * k..(row + 1) * k];
                        let observed = catch_unwind(AssertUnwindSafe(|| {
                            session.monitor_observe_prepared(predicted)
                        }));
                        (observed, group.predict_ns_per_row, true)
                    } else {
                        sequential_rows += 1;
                        observe_sequential(session, &item.values, item.trace.is_some())
                    }
                }
                Route::Sequential => {
                    sequential_rows += 1;
                    observe_sequential(session, &item.values, item.trace.is_some())
                }
            };
            match observed {
                Ok(observed) => {
                    let drained = session.apply_decision(ApplyArgs {
                        seq: item.seq,
                        values: item.values,
                        observed,
                        was_alarmed,
                        checkpoint_interval,
                        trace: item.trace,
                        popped: item.popped,
                        predict_ns,
                        batched,
                    });
                    self.out.push(PlaneDrained { slot: item.slot, drained });
                }
                Err(payload) => {
                    session.quarantine();
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    self.panics.push(PlanePanic {
                        slot: item.slot,
                        message,
                        frame: session.quarantine_frame(),
                    });
                }
            }
        }
        if sequential_rows > 0 {
            telemetry::counter(metrics::PREDICT_SEQUENTIAL_TOTAL, sequential_rows);
        }

        // Ladder de-escalation, once per session per pass — the same
        // point the sequential drain runs it.
        for session in sessions.iter_mut() {
            session.finish_drain_pass();
        }
    }
}

/// Decide where one popped reading gets its prediction: staged into a
/// model group, or through the per-reading sequential path.
fn route_reading(
    groups: &mut HashMap<u64, Group>,
    min_batch: usize,
    session: &mut Session,
    batch: &QueuedBatch,
) -> Route {
    if min_batch == usize::MAX {
        return Route::Sequential;
    }
    let Some(fp) = session.batch_fingerprint() else {
        return Route::Sequential;
    };
    let model = session.batch_model().expect("a fingerprint implies a batchable model");
    // Wrong-length or non-finite readings take the sequential path so
    // they raise the identical per-reading errors `observe` raises
    // (ShapeMismatch / NonFiniteReading before any state change).
    if batch.values.len() != model.num_sensors()
        || batch.values.iter().any(|v| !v.is_finite())
    {
        return Route::Sequential;
    }
    let group = groups.entry(fp).or_insert_with(|| Group::new(model.clone()));
    let instance = session.instance_id();
    if !group.verified.contains(&instance) {
        if !same_params(&group.model, model) {
            // A 64-bit fingerprint collision between genuinely different
            // models: never batch this session into the group.
            return Route::Sequential;
        }
        group.verified.insert(instance);
    }
    let row = group.rows;
    group.rows += 1;
    group.staged.extend_from_slice(&batch.values);
    Route::Gemm { fp, row }
}

/// Per-reading observe for items that bypass the GEMM, with the same
/// panic containment and predict-stage timing the sequential drain has.
#[allow(clippy::type_complexity)]
fn observe_sequential(
    session: &mut Session,
    values: &[f64],
    traced: bool,
) -> (
    Result<Result<MonitorDecision, CoreError>, Box<dyn std::any::Any + Send>>,
    u64,
    bool,
) {
    let started = traced.then(Instant::now);
    let observed = catch_unwind(AssertUnwindSafe(|| session.monitor_observe(values)));
    let predict_ns = started.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
    (observed, predict_ns, false)
}

/// Bitwise equality of the prediction parameters — the collision guard
/// behind fingerprint grouping. Compares raw f64 bits: two models must
/// produce identical predictions, not merely approximately equal ones.
fn same_params(a: &VoltageMapModel, b: &VoltageMapModel) -> bool {
    let (fa, fb) = (a.linear_fit(), b.linear_fit());
    fa.coefficients.shape() == fb.coefficients.shape()
        && fa.intercept.len() == fb.intercept.len()
        && fa
            .coefficients
            .as_slice()
            .iter()
            .zip(fb.coefficients.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && fa
            .intercept
            .iter()
            .zip(&fb.intercept)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
