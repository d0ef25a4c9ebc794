//! Host-speed gauge: what a pass would have taken on an uncontended host.
//!
//! A transient step is the same sparse solve every time, yet on a shared
//! 2-vCPU host its duration is bimodal: ~64 µs when the host leaves the
//! core alone and ~100–110 µs when a neighbour contends for it, in phases
//! that last from a fraction of a second to over a minute. A design pass
//! (~85% transient steps) therefore reads 4.7 s or 9.3 s for identical
//! work. Almost every 45 s of steps still holds a few uncontended ones:
//! the 1% quantile of step time read 64.3 µs ± 0.6% across 45 s windows
//! of a 6-minute probe, while the mean moved by 24%.
//!
//! [`StepClock`] is a telemetry recorder that keeps the duration of every
//! `transient.step` span, the span `powergrid` already opens around each
//! step, and ignores every other signal. A pass's contention factor is
//! its mean step time over the run's uncontended step time; dividing the
//! pass's wall time by it gives the pass's time on an uncontended host.
//! [`clock_ghz`] reads the core clock, which moves with the host's load,
//! to turn that time into cycles.
//!
//! Work that runs no steps of its own (the in-process serving pass) is
//! gauged by a [`StepGauge`]: one step of the paper grid timed after each
//! round of that work, on the same thread, so it meets the same
//! contention.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use voltsense::powergrid::{GridModel, TransientSimulator};
use voltsense::telemetry::{Detail, Recorder, SpanId};
use voltsense::workload::WorkloadTrace;

/// The span `TransientSimulator::step` opens.
const STEP_SPAN: &str = "transient.step";
/// Histogram resolution.
const BUCKET_NS: u64 = 100;
/// Steps slower than this share the last bucket.
const BUCKETS: usize = 20_000;
/// Quantile of step time taken as the uncontended step. The 0.1%
/// quantile caught rare steps 15% faster than the uncontended mode in
/// one design run of five.
pub const UNCONTENDED_Q: f64 = 0.01;

/// Steps per [`StepGauge::tick`].
const TICK_STEPS: usize = 4;

const STEP_ID: SpanId = SpanId(1);

thread_local! {
    static STEP_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Records the duration of every transient step; see the module docs.
pub struct StepClock {
    buckets: Vec<AtomicU64>,
    steps: AtomicU64,
    sum_ns: AtomicU64,
}

/// Steps recorded so far and their summed duration (ns).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTotals {
    /// Steps recorded.
    pub steps: u64,
    /// Their summed duration, ns.
    pub sum_ns: u64,
}

impl StepTotals {
    /// Mean step time (ns) of the steps recorded between `earlier` and
    /// `self`.
    pub fn mean_ns_since(&self, earlier: StepTotals) -> f64 {
        let steps = self.steps - earlier.steps;
        (self.sum_ns - earlier.sum_ns) as f64 / steps.max(1) as f64
    }
}

impl Default for StepClock {
    fn default() -> Self {
        StepClock {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            steps: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl StepClock {
    fn record(&self, ns: u64) {
        let bucket = ((ns / BUCKET_NS) as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Steps and summed step time so far.
    pub fn totals(&self) -> StepTotals {
        StepTotals {
            steps: self.steps.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// The `q` quantile of every step recorded so far (ns, to the
    /// bucket's upper edge); `NaN` before the first step.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i as u64 + 1) * BUCKET_NS) as f64;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// A transient simulation stepped only to be timed; see the module docs.
pub struct StepGauge<'g> {
    sim: TransientSimulator<'g>,
    currents: Vec<f64>,
}

impl<'g> StepGauge<'g> {
    /// A simulation of `grid` held at the first currents of `trace`.
    pub fn new(grid: &'g GridModel, trace: &WorkloadTrace) -> Result<StepGauge<'g>, String> {
        let currents: Vec<f64> = (0..trace.num_blocks())
            .map(|b| trace.current(b, 0))
            .collect();
        let sim = TransientSimulator::new(grid, trace.dt_ns(), &currents)
            .map_err(|e| format!("gauge: {e}"))?;
        Ok(StepGauge { sim, currents })
    }

    /// Runs [`TICK_STEPS`] steps and times all but the first into
    /// `clock`: the first brings the grid's factor back into cache after
    /// the gauged work evicted it.
    pub fn tick(&mut self, clock: &StepClock) -> Result<(), String> {
        for timed in [false].into_iter().chain([true; TICK_STEPS - 1]) {
            let t = Instant::now();
            self.sim
                .step(&self.currents)
                .map_err(|e| format!("gauge: {e}"))?;
            if timed {
                clock.record(t.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }
}

/// Dependent adds in one timed chain of [`clock_ghz`].
const CHAIN_ADDS: u64 = 100_000;

/// The core clock (GHz): the fastest of `chains` timed chains of
/// dependent register adds, one add per cycle. The host's clock follows
/// its load: the uncontended step read 55.9 µs with this at 3.3 GHz and
/// 72.9 µs an hour earlier.
#[cfg(target_arch = "x86_64")]
pub fn clock_ghz(chains: usize) -> f64 {
    let mut best = u128::MAX;
    for _ in 0..chains {
        let t = Instant::now();
        let mut x: u64 = 0;
        // SAFETY: register arithmetic only: no memory, stack or flags
        // the compiler relies on.
        unsafe {
            std::arch::asm!(
                "2:",
                ".rept 100",
                "add {x}, {one}",
                ".endr",
                "dec {n}",
                "jnz 2b",
                x = inout(reg) x,
                one = in(reg) 1u64,
                n = inout(reg) CHAIN_ADDS / 100 => _,
                options(nomem, nostack),
            );
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_nanos());
    }
    CHAIN_ADDS as f64 / best.max(1) as f64
}

/// Without the probe the clock is unknown.
#[cfg(not(target_arch = "x86_64"))]
pub fn clock_ghz(_chains: usize) -> f64 {
    f64::NAN
}

/// A pass's wall time on an uncontended host: `wall` scaled by the
/// uncontended step time over the pass's mean step time.
pub fn uncontended(wall: f64, uncontended_step_ns: f64, mean_step_ns: f64) -> f64 {
    wall * uncontended_step_ns / mean_step_ns
}

impl Recorder for StepClock {
    fn span_begin(&self, name: &'static str) -> SpanId {
        if name != STEP_SPAN {
            return SpanId::NONE;
        }
        STEP_START.with(|s| s.set(Some(Instant::now())));
        STEP_ID
    }

    fn span_end(&self, id: SpanId) {
        if id != STEP_ID {
            return;
        }
        if let Some(start) = STEP_START.with(Cell::take) {
            self.record(start.elapsed().as_nanos() as u64);
        }
    }

    fn counter_add(&self, _name: &'static str, _delta: u64) {}
    fn gauge_set(&self, _name: &'static str, _value: f64) {}
    fn histogram_record(&self, _name: &'static str, _value: f64, _unit: &'static str) {}
    fn event(&self, _name: &'static str, _fields: &[(&'static str, f64)]) {}

    /// Cheap signals only: no instrumentation site computes a diagnostic
    /// for this recorder.
    fn detail(&self) -> Detail {
        Detail::Sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use voltsense::telemetry;

    #[test]
    fn keeps_step_spans_only_and_reads_their_quantiles() {
        let clock = Arc::new(StepClock::default());
        telemetry::with_scoped(clock.clone(), || {
            for _ in 0..3 {
                let _step = telemetry::span(STEP_SPAN);
            }
            let _other = telemetry::span("transient.other");
        });
        assert_eq!(clock.totals().steps, 3);
        for ns in [64_000, 64_050, 105_000, 110_000] {
            clock.record(ns);
        }
        // Seven steps: three near zero, then 64.0, 64.05, 105 and 110 µs.
        assert_eq!(clock.quantile_ns(4.0 / 7.0), 64_100.0);
        assert_eq!(clock.quantile_ns(1.0), 110_100.0);
        let before = StepTotals::default();
        let mean = clock.totals().mean_ns_since(before);
        assert!(mean > 0.0 && mean < 110_000.0);
    }

    #[test]
    fn a_contended_pass_scales_back_to_the_uncontended_step() {
        // A pass whose steps ran 1.6x slow took 1.6x the wall time.
        assert_eq!(uncontended(8_000.0, 64_000.0, 102_400.0), 5_000.0);
        // A pass already at the uncontended speed is unchanged.
        assert_eq!(uncontended(5_000.0, 64_000.0, 64_000.0), 5_000.0);
    }
}
