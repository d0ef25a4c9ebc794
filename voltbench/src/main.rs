//! voltbench — one command that runs a workload of the voltsense design or
//! serving path, checks its outputs, and prints the result as one JSON
//! line.
//!
//! ```text
//! cargo run --release --manifest-path voltbench/Cargo.toml -- \
//!     --workload design-paper --seed 0 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload again with every layer timed from outside and prints the
//! per-layer metrics. See `voltbench/README.md`.

mod design;
mod gauge;
mod inputs;
mod report;
mod serve;
mod stats;

use std::sync::Arc;
use std::time::Instant;

use voltsense::telemetry::{self, MemoryRecorder};

use crate::inputs::{Scene, DEFAULT_SEED};
use crate::report::Report;

/// Benchmarks in the suite.
pub const NUM_BENCHMARKS: usize = 19;

/// Set-up repetitions before every operation; `setup_s` is the median
/// over all of a run's, each scaled like the operation it precedes. Building the scene or opening the sessions takes
/// milliseconds or less, so many repetitions cost little, and repeating
/// them before every operation spreads the samples over the whole run
/// rather than its first few milliseconds.
const SETUP_REPS_SCENE: usize = 31;
const SETUP_REPS_PIPELINE: usize = 5;

/// Every per-layer metric, in print order, with its unit. A layer the
/// workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("tracing.overhead_pct", "%"),
    ("design.op_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("workload.generate_share_ms", "ms"),
    ("powergrid.sample_ms", "ms"),
    ("powergrid.step_us", "us"),
    ("powergrid.sample_share_ms", "ms"),
    ("parallel.imbalance_ms", "ms"),
    ("scenario.assemble_ms", "ms"),
    ("core.covariance_ms", "ms"),
    ("grouplasso.select_ms", "ms"),
    ("grouplasso.solves", "count"),
    ("core.ols_fit_ms", "ms"),
    ("eagleeye.place_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("design.unattributed_ms", "ms"),
    ("serve.rtt_p50_us", "us"),
    ("server.decode_us", "us"),
    ("server.shard_wait_us", "us"),
    ("server.predict_us", "us"),
    ("server.decide_us", "us"),
    ("server.respond_us", "us"),
    ("serve.transport_us", "us"),
    ("fleet.frame.encode_ns", "ns"),
    ("fleet.frame.decode_ns", "ns"),
    ("fleet.session.offer_ns", "ns"),
    ("fleet.session.drain_ns", "ns"),
    ("core.observe_ns", "ns"),
    ("core.predict_ns", "ns"),
    ("core.predict_batch_row_ns", "ns"),
    ("fleet.batch.occupancy", "rows/batch"),
    ("fleet.batch.share", "ratio"),
    ("fleet.shed", "count"),
    ("fleet.rejected", "count"),
    ("fleet.decode_errors", "count"),
    ("fleet.responses_dropped", "count"),
];
/// Per-layer metrics of the client side, appended after [`PER_LAYER`].
const PER_LAYER_CLIENT: [(&str, &str); 5] = [
    ("fleet.decisions_missing", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.throughput_per_s", "1/s"),
];

/// The per-layer values of one traced run, keyed by metric name.
struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Layers {
    fn new() -> Layers {
        Layers(
            PER_LAYER
                .iter()
                .chain(&PER_LAYER_CLIENT)
                .map(|&(name, unit)| (name, unit, 0.0))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.2 = value;
    }

    fn into_report(self, report: &mut Report) {
        for (name, unit, value) in self.0 {
            report.metric(name, value, unit);
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// `--emit-inputs --seed <n>`: writes the serve inputs to stdout for the
/// parent run (see `ServeInputs::in_child`).
fn emit_inputs(raw: &[String]) -> Result<(), String> {
    let [flag, seed] = raw else {
        return Err("usage: --emit-inputs --seed <n>".into());
    };
    let seed: u64 = match flag.as_str() {
        "--seed" => seed
            .parse()
            .map_err(|e| format!("bad seed {seed:?}: {e}"))?,
        _ => return Err(format!("unknown flag {flag}")),
    };
    let bytes = serve::ServeInputs::generate(seed)?.to_bytes();
    std::io::Write::write_all(&mut std::io::stdout().lock(), &bytes).map_err(|e| e.to_string())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--emit-inputs") {
        if let Err(e) = emit_inputs(&raw[1..]) {
            eprintln!("voltbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("voltbench: {e}");
            eprintln!(
                "usage: voltbench --workload <design-paper|serve-paper> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Pin the pool width before anything touches the global pool.
    let threads = match args.workload.as_str() {
        "design-paper" => 2,
        "serve-paper" => 1,
        other => {
            eprintln!("voltbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    std::env::set_var("VOLTSENSE_THREADS", threads.to_string());
    println!(
        "voltbench workload={} seed={} seconds={} trace={} VOLTSENSE_THREADS={threads} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let result = match args.workload.as_str() {
        "design-paper" => design_paper(&args, threads),
        _ => serve_paper(&args),
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("voltbench: {e}");
            std::process::exit(1);
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeats a set-up `reps` times, appending each repetition's seconds to
/// `times`, and keeps the last result.
fn timed_setup<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(secs(t));
    }
    Ok(last.expect("at least one repetition"))
}

/// Compares an operation's output with the run's first one (every seed)
/// and with a known answer (`known`, the default seed only).
fn same_as_first<T: PartialEq + std::fmt::Debug>(
    out: T,
    first: &mut Option<T>,
    known: impl FnOnce(&T) -> Result<(), String>,
) -> Result<(), String> {
    match first {
        None => {
            known(&out)?;
            *first = Some(out);
            Ok(())
        }
        Some(f) if *f == out => Ok(()),
        Some(f) => Err(format!("output {out:?} differs from the run's first {f:?}")),
    }
}

/// Timed chains per clock reading, taken before every pass; each
/// reading takes ~2 ms.
const CLOCK_CHAINS: usize = 64;

/// Reports the end-to-end metrics of a run that did `work` items in
/// passes of `walls_s` seconds with mean step times `mean_step_ns`, each
/// pass preceded by the same number of set-ups, timed in `setup_s`
/// (seconds). Every
/// time is scaled by the run's uncontended step time over its pass's mean
/// step time; throughput is per billion cycles at the run's median clock
/// reading. See `gauge`.
fn end_to_end(
    report: &mut Report,
    clock: &gauge::StepClock,
    ghz: &[f64],
    walls_s: &[f64],
    mean_step_ns: &[f64],
    setup_s: &[f64],
    work: f64,
) {
    let reps = setup_s.len() / walls_s.len();
    let step_ns = clock.quantile_ns(gauge::UNCONTENDED_Q);
    let ghz = stats::median(ghz);
    let uncontended = |s: f64, pass: usize| gauge::uncontended(s, step_ns, mean_step_ns[pass]);
    let passes_s: Vec<f64> = (0..walls_s.len())
        .map(|i| uncontended(walls_s[i], i))
        .collect();
    let setups_s: Vec<f64> = (0..setup_s.len())
        .map(|i| uncontended(setup_s[i], i / reps))
        .collect();
    let gcycles = passes_s.iter().sum::<f64>() * ghz;
    eprintln!(
        "[voltbench] step quantiles us: {:.1?}",
        [0.001, 0.005, 0.01, 0.02, 0.05, 0.5].map(|q| clock.quantile_ns(q) / 1e3)
    );
    eprintln!(
        "[voltbench] clock {ghz:.3} GHz; uncontended step {:.1} us = {:.1} kcycles; \
         wall s {walls_s:.3?}; mean step us {:.1?}; uncontended s {passes_s:.3?}; \
         Gcycles {gcycles:.3}; set-up s median {:.6} as measured, {:.6} uncontended, over {}",
        step_ns / 1e3,
        step_ns * ghz / 1e3,
        mean_step_ns.iter().map(|ns| ns / 1e3).collect::<Vec<_>>(),
        stats::median(setup_s),
        stats::median(&setups_s),
        setup_s.len(),
    );
    report.metric("setup_s", stats::median(&setups_s), "s");
    report.metric("throughput_per_gcycle", work / gcycles, "1/Gcycle");
    report.metric(
        "peak_rss_mb",
        stats::proc_status_mib("VmHWM:").unwrap_or(f64::NAN),
        "MiB",
    );
}

/// Untraced operation times (ms), and every traced operation's time (ms)
/// with its result.
type Timings<T> = (Vec<f64>, Vec<(f64, T)>);

/// Runs untraced and (when tracing) traced operations alternately until
/// `seconds` have passed and each kind ran at least once. Every operation
/// gets its own input from `setup`, which is not part of its time.
/// Returns the untraced latencies (ms) and every traced result.
fn alternate<S, T>(
    seconds: f64,
    trace: bool,
    mut setup: impl FnMut() -> Result<S, String>,
    mut untraced: impl FnMut(&S) -> Result<(), String>,
    mut traced: impl FnMut(&S) -> Result<T, String>,
    report: &mut Report,
) -> Result<Timings<T>, String> {
    let start = Instant::now();
    let (mut plain, mut with_trace) = (Vec::new(), Vec::new());
    loop {
        let input = setup()?;
        let t = Instant::now();
        report.op(untraced(&input));
        plain.push(secs(t) * 1e3);
        if trace && (with_trace.is_empty() || secs(start) < seconds) {
            let input = setup()?;
            let t = Instant::now();
            match traced(&input) {
                Ok(out) => {
                    with_trace.push((secs(t) * 1e3, out));
                    report.op(Ok(()));
                }
                Err(e) => report.op(Err(e)),
            }
        }
        if secs(start) >= seconds && (!trace || !with_trace.is_empty()) {
            let traced_ms: Vec<f64> = with_trace.iter().map(|(ms, _)| *ms).collect();
            eprintln!("[voltbench] op ms untraced {plain:.0?} traced {traced_ms:.0?}");
            return Ok((plain, with_trace));
        }
    }
}

fn overhead_pct(traced_ms: &[f64], plain_ms: &[f64]) -> f64 {
    (stats::median(traced_ms) / stats::median(plain_ms) - 1.0) * 100.0
}

/// Sets the design per-layer metrics from the traced operation with the
/// median wall time; a budget that does not reconcile fails the run.
fn design_layers(
    report: &mut Report,
    layers: &mut Layers,
    traced: &[(f64, design::DesignLayers)],
    plain_ms: &[f64],
    threads: usize,
) {
    let walls: Vec<f64> = traced.iter().map(|(_, l)| l.total_ms).collect();
    let pick = stats::median(&walls);
    let Some(l) = traced.iter().map(|(_, l)| l).find(|l| l.total_ms == pick) else {
        return;
    };
    let budget = l.budget(threads);
    if !budget.reconciles() {
        report.op(Err(format!("design budget does not reconcile: {budget:?}")));
    }
    eprintln!("[voltbench] design budget: {budget:?}");
    let value = |name: &str| {
        budget
            .stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.value)
    };
    let has_sims = !l.sims.is_empty();
    layers.set("design.op_ms", budget.total);
    layers.set("design.unattributed_ms", budget.residual);
    if has_sims {
        layers.set("workload.generate_ms", l.generate_ms());
        layers.set("powergrid.sample_ms", l.sample_ms());
        layers.set("powergrid.step_us", l.step_us());
    }
    layers.set("workload.generate_share_ms", value("workload.generate"));
    layers.set("powergrid.sample_share_ms", value("powergrid.sample"));
    layers.set("parallel.imbalance_ms", value("parallel.imbalance"));
    layers.set("scenario.assemble_ms", l.assemble_ms);
    layers.set("core.covariance_ms", l.covariance_ms);
    layers.set("grouplasso.select_ms", l.select_ms);
    layers.set("grouplasso.solves", l.solves as f64);
    layers.set("core.ols_fit_ms", l.ols_ms);
    layers.set("eagleeye.place_ms", l.eagle_ms);
    layers.set("core.detect_ms", l.detect_ms);
    // The traced operation is the unrolled twin of the untraced one, with
    // a clock read around every layer call; the two alternate in one run.
    let traced_ms: Vec<f64> = traced.iter().map(|(ms, _)| *ms).collect();
    layers.set("tracing.overhead_pct", overhead_pct(&traced_ms, plain_ms));
}

fn design_paper(args: &Args, threads: usize) -> Result<Report, String> {
    let default_seed = args.seed == DEFAULT_SEED;
    let mut setup_times = Vec::new();
    let mut report = Report::new();
    let mut first = None;
    let mut maps = 0usize;
    let check = |out: Result<design::Table2, String>, first: &mut Option<design::Table2>| {
        same_as_first(out?, first, |t| {
            if default_seed {
                t.check_default()
            } else if t.proposed.is_empty() || t.rows.is_empty() {
                Err("empty placement or Table 2".into())
            } else {
                Ok(())
            }
        })
    };
    let first_cell = std::cell::RefCell::new(&mut first);
    // Every untraced pass runs with the step clock installed; see `gauge`.
    let clock = Arc::new(gauge::StepClock::default());
    let (mut mean_step_ns, mut ghz) = (Vec::new(), Vec::new());
    let (plain_ms, traced) = alternate(
        args.seconds,
        args.trace,
        || {
            ghz.push(gauge::clock_ghz(CLOCK_CHAINS));
            timed_setup(SETUP_REPS_SCENE, &mut setup_times, || {
                Scene::paper(args.seed)
            })
        },
        |scene| {
            let before = clock.totals();
            let out = telemetry::with_scoped(clock.clone(), || design::paper_op(scene));
            mean_step_ns.push(clock.totals().mean_ns_since(before));
            if let Ok(t) = &out {
                maps += t.maps;
            }
            check(out, &mut first_cell.borrow_mut())
        },
        |scene| {
            let (table, layers) = design::paper_op_traced(scene)?;
            check(Ok(table), &mut first_cell.borrow_mut())?;
            Ok(layers)
        },
        &mut report,
    )?;
    if args.trace {
        let mut layers = Layers::new();
        design_layers(&mut report, &mut layers, &traced, &plain_ms, threads);
        layers.into_report(&mut report);
    } else {
        let walls_s: Vec<f64> = plain_ms.iter().map(|ms| ms / 1e3).collect();
        end_to_end(
            &mut report,
            &clock,
            &ghz,
            &walls_s,
            &mean_step_ns,
            &setup_times,
            maps as f64,
        );
    }
    Ok(report)
}

/// Counts every reading of a serve run as one operation; a reading
/// whose decision is missing or differs from the mirror failed.
fn serve_ops(report: &mut Report, run: &serve::ServeRun, inputs: &serve::ServeInputs) -> u64 {
    let (mismatched, missing) = run.check(inputs);
    let attempted = run.attempted();
    report.attempted += attempted;
    report.failed += mismatched + missing;
    if mismatched + missing > 0 {
        eprintln!(
            "[voltbench] serve: {mismatched} decisions differ from the mirror, {missing} missing \
             (busy {}, errors {}, stats {:?})",
            run.open.busy + run.closed.busy,
            run.open.errors + run.closed.errors,
            run.stats
        );
        report.correct = false;
    }
    missing
}

/// The end-to-end serve run: in-process passes over the tenant's
/// readings (see `serve::Pipeline`), gauged like the design passes.
/// Every pass opens fresh sessions, so each must answer exactly as the
/// first; the first is checked against the `EmergencyMonitor` mirror.
fn serve_in_process(args: &Args, inputs: &serve::ServeInputs) -> Result<Report, String> {
    let scene = Scene::paper(args.seed)?;
    let trace = scene.generate(0)?;
    let mut gauge = gauge::StepGauge::new(&scene.grid, &trace)?;
    let clock = gauge::StepClock::default();
    let mut report = Report::new();
    let mut setup_times = Vec::new();
    let mut first: Option<Vec<serve::Decision>> = None;
    let mut decisions = Vec::new();
    let mut passes: Vec<(f64, f64)> = Vec::new();
    let mut ghz = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || secs(start) < args.seconds {
        ghz.push(gauge::clock_ghz(CLOCK_CHAINS));
        let mut pipeline = timed_setup(SETUP_REPS_PIPELINE, &mut setup_times, || {
            Ok(serve::Pipeline::open(inputs))
        })?;
        let before = clock.totals();
        decisions.clear();
        let busy_s = pipeline.pass(inputs, &mut decisions, || gauge.tick(&clock))?;
        passes.push((busy_s, clock.totals().mean_ns_since(before)));
        let attempted = serve::PASS_ROUNDS * serve::CHIPS;
        report.attempted += attempted;
        let failed = match &first {
            Some(f) if *f == decisions => 0,
            Some(f) => {
                f.iter().zip(&decisions).filter(|(a, b)| a != b).count() as u64
                    + attempted.abs_diff(decisions.len() as u64)
            }
            None => {
                let sent = vec![serve::PASS_ROUNDS; serve::CHIPS as usize];
                let (mismatched, missing) = serve::mirror_check(inputs, &sent, &decisions);
                first = Some(decisions.clone());
                mismatched + missing
            }
        };
        if failed > 0 {
            eprintln!(
                "[voltbench] serve pass {}: {failed} decisions wrong",
                passes.len()
            );
            report.failed += failed;
            report.correct = false;
        }
    }
    let (busy_s, mean_step_ns): (Vec<f64>, Vec<f64>) = passes.into_iter().unzip();
    let decisions = report.attempted as f64;
    end_to_end(
        &mut report,
        &clock,
        &ghz,
        &busy_s,
        &mean_step_ns,
        &setup_times,
        decisions,
    );
    Ok(report)
}

fn serve_paper(args: &Args) -> Result<Report, String> {
    // Inputs are generated once per seed, in a child process; they are
    // not part of set-up.
    let t = Instant::now();
    let inputs = Arc::new(serve::ServeInputs::in_child(args.seed)?);
    eprintln!(
        "[voltbench] serve inputs: Q={} K={} maps={} in {:.1}s",
        inputs.model.num_sensors(),
        inputs.model.num_targets(),
        inputs.maps.len(),
        secs(t)
    );
    if !args.trace {
        return serve_in_process(args, &inputs);
    }

    let mut report = Report::new();
    // Two socket measurements of half the run each: untraced, then with
    // the recorder scoped onto the server.
    let plain = serve::measure(serve::start(&inputs)?, &inputs, args.seconds / 2.0)?;
    serve_ops(&mut report, &plain, &inputs);
    let recorder = Arc::new(MemoryRecorder::new());
    let fleet = serve::start_recorded(&inputs, recorder.clone())?;
    let traced = serve::measure(fleet, &inputs, args.seconds / 2.0)?;
    let missing = serve_ops(&mut report, &traced, &inputs);
    let snapshot = recorder.snapshot("voltbench");
    let rows = snapshot.counter("fleet.gemm_rows_total").unwrap_or(0) as f64;
    let batches = snapshot.counter("fleet.gemm_batches_total").unwrap_or(0) as f64;
    let decisions = (traced.open.decisions.len() + traced.closed.decisions.len()) as f64;
    let occupancy = if batches > 0.0 { rows / batches } else { 0.0 };
    let replay = serve::replay(&inputs, occupancy.max(1.0))?;
    let budget = serve::budget(&traced.traces, stats::median(&traced.open.rtt_us));
    eprintln!(
        "[voltbench] serve budget over {} sampled traces: {budget:?}",
        traced.traces.len()
    );
    if traced.traces.is_empty() || !budget.reconciles() {
        report.op(Err(format!("serve budget does not reconcile: {budget:?}")));
    }

    let mut layers = Layers::new();
    // The two measurements differ only by the recorder scoped onto the
    // server's threads; the server samples `TraceRecord`s in both, as it
    // does by default.
    layers.set(
        "tracing.overhead_pct",
        (plain.throughput() / traced.throughput() - 1.0) * 100.0,
    );
    layers.set("serve.rtt_p50_us", budget.total);
    for stage in &budget.stages {
        layers.set(stage.name, stage.value);
    }
    layers.set("serve.transport_us", budget.residual);
    layers.set("fleet.frame.encode_ns", replay.encode_ns);
    layers.set("fleet.frame.decode_ns", replay.decode_ns);
    layers.set("fleet.session.offer_ns", replay.offer_ns);
    layers.set("fleet.session.drain_ns", replay.drain_ns);
    layers.set("core.observe_ns", replay.observe_ns);
    layers.set("core.predict_ns", replay.predict_ns);
    layers.set("core.predict_batch_row_ns", replay.predict_batch_row_ns);
    layers.set("fleet.batch.occupancy", occupancy);
    layers.set("fleet.batch.share", rows / decisions.max(1.0));
    layers.set("fleet.shed", traced.stats.shed as f64);
    layers.set("fleet.rejected", traced.stats.rejected as f64);
    layers.set("fleet.decode_errors", traced.stats.decode_errors as f64);
    layers.set(
        "fleet.responses_dropped",
        traced.stats.responses_dropped as f64,
    );
    layers.set("fleet.decisions_missing", missing as f64);
    layers.set(
        "loadgen.late_p99_ms",
        stats::quantile(&traced.open.late_ms, 0.99),
    );
    layers.set(
        "serve.latency_p50_ms",
        stats::median(&plain.open.latency_ms),
    );
    layers.set(
        "serve.latency_p99_ms",
        stats::quantile(&plain.open.latency_ms, 0.99),
    );
    layers.set("serve.throughput_per_s", plain.throughput());
    layers.into_report(&mut report);
    Ok(report)
}
