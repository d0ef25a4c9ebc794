//! Per-tenant SLO definitions and multi-window error-budget burn rates.
//!
//! Two SLIs per tenant, both fed by the fleet server (DESIGN.md §7.7):
//!
//! * **latency** — a decision responded within
//!   [`SloConfig::latency_threshold_ns`] end-to-end (decode → respond,
//!   the exact total the trace buffer records);
//! * **availability** — a reading answered with a decision rather than
//!   shed with `Busy`.
//!
//! Each SLI feeds two sliding windows (5 minutes of 15-second buckets and
//! 1 hour of 1-minute buckets). The burn rate of a window is
//! `bad_fraction / (1 − objective)`: 1.0 means the error budget is being
//! consumed exactly at the sustainable rate, 14.4 (the classic fast-burn
//! threshold) means a 30-day budget would be gone in ~2 days. A tenant
//! **pages** when *both* windows of either SLI burn above
//! [`SloConfig::fast_burn`] — the short window proves it is happening now,
//! the long window proves it is not a blip — and un-pages with hysteresis
//! only once both fall below `fast_burn × hysteresis`. The rising edge
//! fires a `slo_fast_burn` incident snapshot ([`crate::incident::report`]).
//!
//! Time is injectable (`*_at` methods take nanoseconds since the tracker's
//! epoch) so burn-rate math is exactly testable; production call sites use
//! the `Instant`-based wrappers. A process-global replaceable registry
//! ([`install`] / [`current`]) connects the fleet server's tracker to the
//! `GET /slo` route, mirroring [`crate::flight`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::fmt_f64;
use crate::incident::{self, Incident};

/// Schema identifier of the `GET /slo` document.
pub const SCHEMA: &str = "voltsense-slo-v1";

/// The short (fast-burn) window: 5 minutes of 15-second buckets.
const SHORT_BUCKET_NS: u64 = 15_000_000_000;
const SHORT_BUCKETS: usize = 20;
/// The long (confirmation) window: 1 hour of 1-minute buckets.
const LONG_BUCKET_NS: u64 = 60_000_000_000;
const LONG_BUCKETS: usize = 60;

/// Per-tenant SLO definition plus paging policy.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// A decision slower than this end-to-end is a latency SLI miss.
    pub latency_threshold_ns: u64,
    /// Fraction of decisions that must meet the latency threshold.
    pub latency_objective: f64,
    /// Fraction of readings that must be answered with a decision
    /// (not shed with `Busy`).
    pub availability_objective: f64,
    /// Page when both windows of either SLI burn above this rate.
    pub fast_burn: f64,
    /// Un-page only once both windows fall below `fast_burn × hysteresis`.
    pub hysteresis: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_threshold_ns: 5_000_000, // 5 ms
            latency_objective: 0.999,
            availability_objective: 0.999,
            fast_burn: 14.4,
            hysteresis: 0.5,
        }
    }
}

/// One bucket of a sliding window. `epoch` is the absolute bucket index
/// (`now / bucket_ns`); a stale bucket is reset in place when its ring
/// slot is reused, so expiry needs no background sweeper.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    epoch: u64,
    good: u64,
    bad: u64,
}

/// A fixed-bucket sliding window over (good, bad) event counts.
#[derive(Debug, Clone)]
struct Window {
    bucket_ns: u64,
    buckets: Vec<Bucket>,
}

impl Window {
    fn new(bucket_ns: u64, len: usize) -> Self {
        Window {
            bucket_ns,
            buckets: vec![Bucket::default(); len],
        }
    }

    fn record(&mut self, now_ns: u64, good: bool) {
        let epoch = now_ns / self.bucket_ns;
        let len = self.buckets.len() as u64;
        let slot = &mut self.buckets[(epoch % len) as usize];
        if slot.epoch != epoch {
            *slot = Bucket {
                epoch,
                good: 0,
                bad: 0,
            };
        }
        if good {
            slot.good += 1;
        } else {
            slot.bad += 1;
        }
    }

    /// Total (good, bad) over the live span of the window at `now_ns`.
    fn totals(&self, now_ns: u64) -> (u64, u64) {
        let epoch = now_ns / self.bucket_ns;
        let oldest = epoch.saturating_sub(self.buckets.len() as u64 - 1);
        let mut good = 0;
        let mut bad = 0;
        for b in &self.buckets {
            if b.epoch >= oldest && b.epoch <= epoch {
                good += b.good;
                bad += b.bad;
            }
        }
        (good, bad)
    }
}

/// Short/long window pair for one SLI.
#[derive(Debug, Clone)]
struct Sli {
    short: Window,
    long: Window,
}

impl Sli {
    fn new() -> Self {
        Sli {
            short: Window::new(SHORT_BUCKET_NS, SHORT_BUCKETS),
            long: Window::new(LONG_BUCKET_NS, LONG_BUCKETS),
        }
    }

    fn record(&mut self, now_ns: u64, good: bool) {
        self.short.record(now_ns, good);
        self.long.record(now_ns, good);
    }

    fn burns(&self, now_ns: u64, objective: f64) -> (f64, f64) {
        (
            burn_rate(self.short.totals(now_ns), objective),
            burn_rate(self.long.totals(now_ns), objective),
        )
    }
}

/// `bad_fraction / (1 − objective)`; 0 with no events or a ≥1 objective
/// (a 100% objective has no budget to burn — any failure is an incident,
/// not a rate).
fn burn_rate((good, bad): (u64, u64), objective: f64) -> f64 {
    let total = good + bad;
    let budget = 1.0 - objective;
    if total == 0 || budget <= 0.0 || budget.is_nan() {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

struct TenantSlo {
    latency: Sli,
    availability: Sli,
    paging: bool,
    pages: u64,
    /// Second-resolution memo of the last fast-burn evaluation, so the
    /// hot path sums window buckets at most once a second per tenant.
    last_eval_s: u64,
}

impl TenantSlo {
    fn new() -> Self {
        TenantSlo {
            latency: Sli::new(),
            availability: Sli::new(),
            paging: false,
            pages: 0,
            last_eval_s: u64::MAX,
        }
    }
}

/// Burn-rate summary for one tenant at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloBurn {
    /// Latency SLI burn over the 5-minute window.
    pub latency_short: f64,
    /// Latency SLI burn over the 1-hour window.
    pub latency_long: f64,
    /// Availability SLI burn over the 5-minute window.
    pub availability_short: f64,
    /// Availability SLI burn over the 1-hour window.
    pub availability_long: f64,
    /// Whether the tenant is currently paging.
    pub paging: bool,
}

impl SloBurn {
    /// Is either SLI fast-burning (both of its windows above `threshold`)?
    pub fn fast_burn(&self, threshold: f64) -> bool {
        (self.latency_short >= threshold && self.latency_long >= threshold)
            || (self.availability_short >= threshold && self.availability_long >= threshold)
    }

    /// Are all windows below `threshold` (used for hysteresis de-assert)?
    fn all_below(&self, threshold: f64) -> bool {
        self.latency_short < threshold
            && self.latency_long < threshold
            && self.availability_short < threshold
            && self.availability_long < threshold
    }
}

/// Per-tenant SLO tracker (see module docs).
pub struct SloTracker {
    cfg: SloConfig,
    epoch: Instant,
    tenants: Mutex<BTreeMap<u64, TenantSlo>>,
}

impl SloTracker {
    /// An empty tracker with the given SLO definition.
    pub fn new(cfg: SloConfig) -> Self {
        SloTracker {
            cfg,
            epoch: Instant::now(),
            tenants: Mutex::new(BTreeMap::new()),
        }
    }

    /// The SLO definition this tracker enforces.
    pub fn config(&self) -> SloConfig {
        self.cfg
    }

    /// Nanoseconds since this tracker's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a decision answered for `tenant` in `latency_ns` end-to-end.
    pub fn record_decision(&self, tenant: u64, latency_ns: u64) {
        self.record_decision_at(self.now_ns(), tenant, latency_ns);
    }

    /// Record a reading shed with `Busy` for `tenant`.
    pub fn record_busy(&self, tenant: u64) {
        self.record_busy_at(self.now_ns(), tenant);
    }

    /// [`Self::record_decision`] at an explicit instant (tests).
    pub fn record_decision_at(&self, now_ns: u64, tenant: u64, latency_ns: u64) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let t = tenants.entry(tenant).or_insert_with(TenantSlo::new);
        t.latency
            .record(now_ns, latency_ns <= self.cfg.latency_threshold_ns);
        t.availability.record(now_ns, true);
        self.evaluate(tenant, t, now_ns);
    }

    /// [`Self::record_busy`] at an explicit instant (tests).
    pub fn record_busy_at(&self, now_ns: u64, tenant: u64) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let t = tenants.entry(tenant).or_insert_with(TenantSlo::new);
        t.availability.record(now_ns, false);
        self.evaluate(tenant, t, now_ns);
    }

    /// Re-evaluate paging state, memoised to once per second per tenant.
    fn evaluate(&self, tenant: u64, t: &mut TenantSlo, now_ns: u64) {
        let now_s = now_ns / 1_000_000_000;
        if t.last_eval_s == now_s {
            return;
        }
        t.last_eval_s = now_s;
        let burn = burn_of(t, now_ns, &self.cfg);
        if !t.paging && burn.fast_burn(self.cfg.fast_burn) {
            t.paging = true;
            t.pages += 1;
            crate::counter("fleet.slo.pages_total", 1);
            incident::report(&Incident {
                kind: "slo_fast_burn",
                fields: &[
                    ("tenant", tenant as f64),
                    ("latency_burn_5m", burn.latency_short),
                    ("latency_burn_1h", burn.latency_long),
                    ("availability_burn_5m", burn.availability_short),
                    ("availability_burn_1h", burn.availability_long),
                    ("fast_burn_threshold", self.cfg.fast_burn),
                ],
                ..Incident::default()
            });
        } else if t.paging && burn.all_below(self.cfg.fast_burn * self.cfg.hysteresis) {
            t.paging = false;
        }
    }

    /// Burn rates for `tenant` right now, if it has any events.
    pub fn burn(&self, tenant: u64) -> Option<SloBurn> {
        self.burn_at(self.now_ns(), tenant)
    }

    /// [`Self::burn`] at an explicit instant (tests).
    pub fn burn_at(&self, now_ns: u64, tenant: u64) -> Option<SloBurn> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.get(&tenant).map(|t| burn_of(t, now_ns, &self.cfg))
    }

    /// (good, bad) availability totals over the 1-hour window — lets
    /// chaos-replay tests assert events were not double-counted.
    pub fn availability_counts(&self, tenant: u64) -> (u64, u64) {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants
            .get(&tenant)
            .map(|t| t.availability.long.totals(self.now_ns()))
            .unwrap_or_default()
    }

    /// (good, bad) latency totals over the 1-hour window.
    pub fn latency_counts(&self, tenant: u64) -> (u64, u64) {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants
            .get(&tenant)
            .map(|t| t.latency.long.totals(self.now_ns()))
            .unwrap_or_default()
    }

    /// Total fast-burn pages fired across all tenants.
    pub fn pages(&self) -> u64 {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.values().map(|t| t.pages).sum()
    }

    /// Tenant IDs with any recorded events.
    pub fn tenants(&self) -> Vec<u64> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        tenants.keys().copied().collect()
    }

    /// Publish `fleet.slo.tenant.<id>.*` burn-rate gauges (sanitised to
    /// `fleet_slo_tenant_<id>_*` on `/metrics`) plus paging state.
    pub fn publish_gauges(&self) {
        if !crate::enabled() {
            return;
        }
        let now_ns = self.now_ns();
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        for (tenant, t) in tenants.iter() {
            let burn = burn_of(t, now_ns, &self.cfg);
            let name = |metric| crate::tenant_metric("fleet.slo.tenant", *tenant, metric);
            crate::gauge(name("latency_burn_5m"), burn.latency_short);
            crate::gauge(name("latency_burn_1h"), burn.latency_long);
            crate::gauge(name("availability_burn_5m"), burn.availability_short);
            crate::gauge(name("availability_burn_1h"), burn.availability_long);
            crate::gauge(name("paging"), if t.paging { 1.0 } else { 0.0 });
        }
    }

    /// Render the tracker as a `voltsense-slo-v1` JSON document.
    pub fn to_json(&self) -> String {
        let now_ns = self.now_ns();
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"config\": {");
        out.push_str(&format!(
            "\"latency_threshold_ns\": {}, \"latency_objective\": {}, \"availability_objective\": {}, \"fast_burn\": {}, \"hysteresis\": {}",
            self.cfg.latency_threshold_ns,
            fmt_f64(self.cfg.latency_objective),
            fmt_f64(self.cfg.availability_objective),
            fmt_f64(self.cfg.fast_burn),
            fmt_f64(self.cfg.hysteresis),
        ));
        out.push_str("},\n  \"tenants\": [");
        for (i, (tenant, t)) in tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let burn = burn_of(t, now_ns, &self.cfg);
            let (lat_good, lat_bad) = t.latency.long.totals(now_ns);
            let (av_good, av_bad) = t.availability.long.totals(now_ns);
            out.push_str(&format!(
                "\n    {{\"tenant\": {tenant}, \"paging\": {}, \"pages\": {},\n     \
                 \"latency\": {{\"burn_5m\": {}, \"burn_1h\": {}, \"good_1h\": {lat_good}, \"bad_1h\": {lat_bad}}},\n     \
                 \"availability\": {{\"burn_5m\": {}, \"burn_1h\": {}, \"good_1h\": {av_good}, \"bad_1h\": {av_bad}}}}}",
                t.paging,
                t.pages,
                fmt_f64(burn.latency_short),
                fmt_f64(burn.latency_long),
                fmt_f64(burn.availability_short),
                fmt_f64(burn.availability_long),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn burn_of(t: &TenantSlo, now_ns: u64, cfg: &SloConfig) -> SloBurn {
    let (latency_short, latency_long) = t.latency.burns(now_ns, cfg.latency_objective);
    let (availability_short, availability_long) =
        t.availability.burns(now_ns, cfg.availability_objective);
    SloBurn {
        latency_short,
        latency_long,
        availability_short,
        availability_long,
        paging: t.paging,
    }
}

/// The `voltsense-slo-v1` document of an empty tracker; what `/slo`
/// serves before any tracker is [`install`]ed.
pub fn empty_json() -> String {
    SloTracker::new(SloConfig::default()).to_json()
}

/// Process-global SLO tracker registry, read by the `GET /slo` route.
/// Replaceable like [`crate::flight::install`].
static SLO: Mutex<Option<Arc<SloTracker>>> = Mutex::new(None);

/// Register `tracker` as the process SLO tracker (replacing any previous
/// one) and return the one installed before.
pub fn install(tracker: Arc<SloTracker>) -> Option<Arc<SloTracker>> {
    SLO.lock().unwrap_or_else(|e| e.into_inner()).replace(tracker)
}

/// The registered SLO tracker, if any.
pub fn current() -> Option<Arc<SloTracker>> {
    SLO.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn cfg() -> SloConfig {
        SloConfig {
            latency_threshold_ns: 1_000_000,
            latency_objective: 0.9,
            availability_objective: 0.9,
            fast_burn: 2.0,
            hysteresis: 0.5,
        }
    }

    #[test]
    fn burn_rate_math_is_exact() {
        let slo = SloTracker::new(cfg());
        // 8 fast + 2 slow decisions at t=1s: bad fraction 0.2, budget 0.1.
        for i in 0..10u64 {
            let latency = if i < 8 { 500_000 } else { 5_000_000 };
            slo.record_decision_at(S, 1, latency);
        }
        let burn = slo.burn_at(S, 1).unwrap();
        assert!((burn.latency_short - 2.0).abs() < 1e-12, "{burn:?}");
        assert!((burn.latency_long - 2.0).abs() < 1e-12);
        assert_eq!(burn.availability_short, 0.0);
        assert_eq!(slo.latency_counts(1), (8, 2));
    }

    #[test]
    fn busy_burns_availability_only() {
        let slo = SloTracker::new(cfg());
        slo.record_decision_at(S, 7, 100);
        slo.record_busy_at(S, 7);
        let burn = slo.burn_at(S, 7).unwrap();
        assert!((burn.availability_short - 5.0).abs() < 1e-12);
        assert_eq!(burn.latency_short, 0.0);
        assert_eq!(slo.availability_counts(7), (1, 1));
    }

    #[test]
    fn short_window_rolls_off() {
        let slo = SloTracker::new(cfg());
        for _ in 0..10 {
            slo.record_busy_at(S, 3);
        }
        // 10 minutes later the 5m window is clean but the 1h window burns.
        let burn = slo.burn_at(600 * S, 3).unwrap();
        assert_eq!(burn.availability_short, 0.0);
        assert!(burn.availability_long > 0.0);
        // Two hours later everything has rolled off.
        let burn = slo.burn_at(7200 * S, 3).unwrap();
        assert_eq!(burn.availability_long, 0.0);
    }

    #[test]
    fn fast_burn_pages_once_with_hysteresis() {
        let slo = SloTracker::new(cfg());
        // All-bad traffic: availability burn = 1.0/0.1 = 10 > 2.0 on both
        // windows → page exactly once despite repeated evaluations.
        for i in 0..30u64 {
            slo.record_busy_at(S + i * S, 9);
        }
        assert_eq!(slo.pages(), 1);
        assert!(slo.burn_at(31 * S, 9).unwrap().paging);
        // Heavy good traffic much later: burns decay below the
        // de-assert threshold and paging clears, without a second page.
        for i in 0..2000u64 {
            slo.record_decision_at(400 * S + i * 1_000_000, 9, 100);
        }
        let burn = slo.burn_at(402 * S, 9).unwrap();
        // The 1h window still remembers the busies but the fraction is
        // tiny now: 30/2030 / 0.1 ≈ 0.148 < 1.0 (= 2.0 × 0.5).
        assert!(!burn.paging, "{burn:?}");
        assert_eq!(slo.pages(), 1);
    }

    #[test]
    fn perfect_traffic_never_burns() {
        let slo = SloTracker::new(SloConfig::default());
        for i in 0..100u64 {
            slo.record_decision_at(S + i, 4, 1000);
        }
        let burn = slo.burn_at(S + 100, 4).unwrap();
        assert_eq!(burn.latency_short, 0.0);
        assert_eq!(burn.availability_long, 0.0);
        assert!(!burn.paging);
        assert_eq!(slo.pages(), 0);
    }

    #[test]
    fn json_document_parses() {
        let slo = SloTracker::new(cfg());
        slo.record_decision_at(S, 1, 100);
        slo.record_busy_at(S, 2);
        let doc = crate::json::parse(&slo.to_json()).expect("valid json");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let tenants = doc.get("tenants").and_then(|v| v.as_array()).unwrap();
        assert_eq!(tenants.len(), 2);
        assert!(tenants[0].get("latency").and_then(|l| l.get("burn_5m")).is_some());
        assert!(tenants[1]
            .get("availability")
            .and_then(|a| a.get("burn_1h"))
            .and_then(|v| v.as_f64())
            .is_some());
        let empty = crate::json::parse(&empty_json()).expect("valid empty json");
        assert_eq!(
            empty.get("tenants").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(0)
        );
    }
}
