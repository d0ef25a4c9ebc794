//! Fleet counters flowing into the existing telemetry `/metrics` endpoint.
//!
//! Telemetry metric names are `&'static str`. Global fleet counters use
//! literals; per-tenant names are interned once per `(tenant, metric)`
//! via `Box::leak` behind telemetry's registry, so the leak is bounded
//! by the number of distinct tenants actually seen — a deliberate,
//! documented trade for zero-dependency static-name metrics.

use voltsense_telemetry as telemetry;

/// Total frames decoded by the server (all kinds).
pub const FRAMES_TOTAL: &str = "fleet.frames_total";
/// Readings batches dropped oldest-first under overload.
pub const SHED_TOTAL: &str = "fleet.shed_total";
/// Readings batches refused with a `Busy` backoff hint.
pub const REJECTED_TOTAL: &str = "fleet.rejected_total";
/// Rejecting → Accepting recoveries.
pub const RECOVERIES_TOTAL: &str = "fleet.recoveries_total";
/// Sessions quarantined after a monitor panic.
pub const QUARANTINED_TOTAL: &str = "fleet.quarantined_total";
/// Idle sessions evicted (checkpointed and dropped).
pub const EVICTED_TOTAL: &str = "fleet.evicted_total";
/// Checkpoint documents written.
pub const CHECKPOINTS_TOTAL: &str = "fleet.checkpoints_total";
/// Sessions resumed from an on-disk checkpoint.
pub const RESTORES_TOTAL: &str = "fleet.restores_total";
/// Connections closed on a framing error.
pub const DECODE_ERRORS_TOTAL: &str = "fleet.decode_errors_total";
/// Response frames dropped because the client connection was dead.
pub const RESPONSES_DROPPED_TOTAL: &str = "fleet.responses_dropped_total";
/// Checkpoint writes that failed (degraded to this counter, never fatal).
pub const CHECKPOINT_FAILURES_TOTAL: &str = "fleet.checkpoint_failures_total";
/// Live sessions gauge.
pub const SESSIONS_GAUGE: &str = "fleet.sessions";
/// Readings suppressed as chaos duplicates by the trace dedupe window.
pub const TRACE_DEDUPED_TOTAL: &str = "fleet.trace.deduped_total";
/// Cross-session GEMMs executed by the batch plane (one per model group
/// per drain pass that met the occupancy floor).
pub const GEMM_BATCHES_TOTAL: &str = "fleet.gemm_batches_total";
/// Readings predicted through those GEMMs (rows across all batches).
pub const GEMM_ROWS_TOTAL: &str = "fleet.gemm_rows_total";
/// Occupancy histogram of executed GEMM batches (rows per batch).
pub const GEMM_BATCH_OCCUPANCY: &str = "fleet.gemm.batch_occupancy";
/// Readings whose prediction ran through the batched GEMM plane.
pub const PREDICT_BATCHED_TOTAL: &str = "fleet.predict.batched_total";
/// Readings predicted per-session (no group, under the occupancy floor,
/// non-finite values, or a monitor that opted out of batching).
pub const PREDICT_SEQUENTIAL_TOTAL: &str = "fleet.predict.sequential_total";
/// Per-stage duration histograms for traced readings, in
/// [`voltsense_telemetry::trace::STAGES`] order.
pub const STAGE_NS: [&str; 5] = [
    "fleet.stage.decode_ns",
    "fleet.stage.shard_ns",
    "fleet.stage.predict_ns",
    "fleet.stage.decide_ns",
    "fleet.stage.respond_ns",
];
/// End-to-end traced reading duration histogram (sum of all stages).
pub const READING_TOTAL_NS: &str = "fleet.reading_total_ns";
/// Per-tenant twin of [`READING_TOTAL_NS`], interned via
/// [`tenant_metric`] as `fleet.tenant.<id>.reading_total_ns`.
pub const TENANT_READING_TOTAL_NS: &str = "reading_total_ns";

/// The interned `fleet.tenant.<id>.<metric>` name for a per-tenant
/// counter ([`telemetry::tenant_metric`]).
pub fn tenant_metric(tenant: u64, metric: &'static str) -> &'static str {
    telemetry::tenant_metric("fleet.tenant", tenant, metric)
}

/// Bump a global counter and its per-tenant twin.
pub fn count(tenant: u64, global: &'static str, metric: &'static str, delta: u64) {
    telemetry::counter(global, delta);
    telemetry::counter(tenant_metric(tenant, metric), delta);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_interned_not_regrown() {
        let a = tenant_metric(7, "frames");
        let b = tenant_metric(7, "frames");
        assert!(std::ptr::eq(a, b), "same (tenant, metric) must intern to one leak");
        assert_eq!(a, "fleet.tenant.7.frames");
        assert_ne!(tenant_metric(8, "frames"), a);
    }
}
