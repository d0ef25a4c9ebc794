//! Fleet soak bench: sustained readings/sec, p99 decision latency, and
//! shed/recovery counts under a seeded chaos schedule, plus the kill-9
//! restart drill (every session resumes from its checkpoint, zero refits).
//!
//! Three phases:
//!
//! 1. **Microbenches** — frame encode, frame decode, checkpoint
//!    round-trip, monitor observe. These are the entries inside the
//!    `benchmarks` array: stable per-op costs the ±30% `bench_compare`
//!    gate can hold across commits.
//! 2. **Chaos soak** — ≥ 64 sessions across 8 tenants ingest ≥ 10k frames
//!    through `FaultyTransport` (moderate profile: disconnects, corrupt
//!    prefixes, truncations, duplicates, reorders, stalls) while a quiet
//!    control tenant measures round-trip decision latency on the same
//!    server. A droop window then latches chip 0 of every chaos tenant;
//!    each latch must survive a disconnect + reconnect.
//! 3. **Restart drill** — `abort()` (the kill -9 simulation: no flush,
//!    no goodbye) + restart on the same checkpoint directory. Every
//!    session must greet back `resumed` with its alarm intact and the
//!    session factory must never run (zero refits).
//!
//! Soak numbers are load- and machine-dependent, so they are reported
//! *outside* the `benchmarks` array (the `parallel_scaling` convention);
//! the robustness properties are hard-asserted and the binary exits
//! non-zero if any fails.
//!
//! Env: `VOLTSENSE_FLEET_SESSIONS` (default 64), `VOLTSENSE_FLEET_FRAMES`
//! (default 10000), `VOLTSENSE_FLEET_SEED` (default 7),
//! `VOLTSENSE_BENCH_REPS` (samples per microbench min, default 5).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use voltsense::core::{CoreError, EmergencyMonitor, MonitorDecision, VoltageMapModel};
use voltsense::fleet::chaos::ChaosConfig;
use voltsense::fleet::checkpoint;
use voltsense::fleet::client::{FleetClient, RetryPolicy};
use voltsense::fleet::frame::{Frame, FrameDecoder, DEFAULT_MAX_FRAME};
use voltsense::fleet::server::{FleetConfig, FleetServer, SessionFactory};
use voltsense::fleet::session::{ChipMonitor, SessionKey};
use voltsense::linalg::Matrix;
use voltsense::telemetry::profile;
use voltsense::telemetry::slo::SloConfig;
use voltsense::telemetry::trace::{self, TraceConfig};
use voltsense::telemetry::{self, env};
use voltsense::workload::GaussianRng;
use voltsense_bench::{results_dir, rule};

// Route this binary's heap traffic through the counting allocator so the
// profiling overhead probe below measures the full production cost of
// the instrumentation: the disabled path (one relaxed load per alloc)
// is what every un-profiled run pays, and the probe gates it.
voltsense::telemetry::install_counting_allocator!();

const CONTROL_TENANT: u64 = 1000;
const LAGGY_TENANT: u64 = 9999;
const DROOP_CHIP: u64 = 0;

/// Identity monitor (prediction == reading): persistence 2, a 10 V
/// release margin so a latched alarm is effectively permanent.
fn identity_monitor() -> EmergencyMonitor {
    let model = VoltageMapModel::from_parts(
        vec![0],
        1,
        Matrix::from_rows(&[&[1.0]]).unwrap(),
        vec![0.0],
        0.001,
    )
    .unwrap();
    EmergencyMonitor::new(model, 0.8, 2, 10.0).unwrap()
}

/// Monitor with a deliberate 2 ms stall per observe. Every decision for
/// the laggy tenant overshoots the soak's 1 ms latency SLO, so both burn
/// windows read ~1000x budget and the fast-burn page is deterministic.
struct LaggyMonitor(EmergencyMonitor);

impl ChipMonitor for LaggyMonitor {
    fn observe(&mut self, readings: &[f64]) -> Result<MonitorDecision, CoreError> {
        std::thread::sleep(Duration::from_millis(2));
        self.0.observe(readings)
    }
    fn is_alarmed(&self) -> bool {
        self.0.is_alarmed()
    }
    fn checkpoint_json(&self, _key: SessionKey) -> Option<String> {
        None
    }
}

/// Factory that counts invocations — the restart drill's refit detector.
fn counting_factory(count: Arc<AtomicU64>) -> SessionFactory {
    Arc::new(move |key| {
        count.fetch_add(1, Ordering::SeqCst);
        if key.tenant == LAGGY_TENANT {
            return Ok(Box::new(LaggyMonitor(identity_monitor())) as Box<dyn ChipMonitor>);
        }
        Ok(Box::new(identity_monitor()) as Box<dyn ChipMonitor>)
    })
}

/// Paper-runtime SKU for the GEMM drain probe: a full-chip map with
/// K = 2048 blocks read from Q = 56 sensors, so prediction (not framing)
/// dominates per-reading cost and the batched-vs-per-chip comparison
/// measures the kernel, not the socket. Deterministic coefficients keep
/// every session's model bit-identical — the batch plane's `same_params`
/// guard admits them all into one GEMM group.
const SKU_Q: usize = 56;
const SKU_K: usize = 2048;

fn sku_monitor() -> EmergencyMonitor {
    let mut rng = GaussianRng::seed_from_u64(41);
    let mut coeffs = Matrix::zeros(SKU_K, SKU_Q);
    for v in coeffs.as_mut_slice() {
        *v = (1.0 + 0.05 * rng.sample()) / SKU_Q as f64;
    }
    let model = VoltageMapModel::from_parts(
        (0..SKU_Q).collect(),
        SKU_Q,
        coeffs,
        vec![0.0; SKU_K],
        0.001,
    )
    .unwrap();
    EmergencyMonitor::new(model, 0.8, 2, 10.0).unwrap()
}

fn sku_factory() -> SessionFactory {
    Arc::new(|_key| Ok(Box::new(sku_monitor()) as Box<dyn ChipMonitor>))
}

/// One timed sample: per-op cost in ns over `iters` inner iterations.
fn sample_ns(iters: usize, body: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        body();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

struct MicroBench {
    name: &'static str,
    min_ns: f64,
}

/// Phase 1: the stable, gated per-op costs.
///
/// Noise model: this runs on shared hardware where multi-hundred-ms CPU
/// steal bursts are routine, so a per-benchmark median can land entirely
/// inside one burst and read 1.5–2× slow. Instead the four bodies are
/// sampled **interleaved round-robin** (a burst is spread across all of
/// them, not concentrated on whichever ran during it) and each reports
/// its **minimum** sample — contention only ever adds time, so the min
/// is the reproducible uncontended cost the ±30% gate can hold.
fn microbenches(reps: usize) -> Vec<MicroBench> {
    let readings: Vec<f64> = (0..16).map(|i| 0.9 + 0.001 * i as f64).collect();
    // Traced v2 frame: the production encode path stamps a trace ID at
    // the edge, so the gated per-op cost must include the 8-byte field.
    let frame = Frame::Readings {
        chip: 3,
        seq: 42,
        trace: Some(trace::trace_id(7, 3, 42)),
        values: readings.clone(),
    };
    let bytes = frame.encode();

    // A fleet-shaped model (32 blocks x 8 sensors) warmed mid-stream, so
    // the checkpoint carries a realistic debounce/alarm state.
    let mut rng = GaussianRng::seed_from_u64(0xF1EE7);
    let coeffs = Matrix::from_vec(
        32,
        8,
        (0..32 * 8).map(|_| 0.125 * (0.5 + 0.5 * rng.uniform())).collect(),
    )
    .unwrap();
    let intercept: Vec<f64> = (0..32).map(|_| 0.05 * rng.uniform()).collect();
    let model = VoltageMapModel::from_parts((0..8).collect(), 12, coeffs, intercept, 0.004).unwrap();
    let mut monitor = EmergencyMonitor::new(model, 0.8, 2, 0.02).unwrap();
    let healthy: Vec<f64> = (0..8).map(|i| 0.95 + 0.002 * i as f64).collect();
    for _ in 0..24 {
        monitor.observe(&healthy).expect("arity matches");
    }
    let key = SessionKey { tenant: 7, chip: 11 };

    let mut encode = || {
        std::hint::black_box(frame.encode());
    };
    let mut decode = || {
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
        decoder.push(&bytes);
        std::hint::black_box(decoder.next().expect("valid frame").expect("complete"));
    };
    // Checkpoint and observe share the monitor, so they run inside one
    // round-robin pass rather than as separate closures.
    const ENC_ITERS: usize = 16384;
    const DEC_ITERS: usize = 16384;
    const CKPT_ITERS: usize = 256;
    const OBS_ITERS: usize = 16384;

    // Warmup pass (first allocator touches, cache fill), then the rounds.
    sample_ns(ENC_ITERS, &mut encode);
    sample_ns(DEC_ITERS, &mut decode);
    let mut best = [f64::INFINITY; 4];
    for round in 0..=reps.max(1) {
        let enc = sample_ns(ENC_ITERS, &mut encode);
        let dec = sample_ns(DEC_ITERS, &mut decode);
        let ckpt = sample_ns(CKPT_ITERS, &mut || {
            let json = checkpoint::to_json(key, &monitor);
            std::hint::black_box(checkpoint::from_json(&json).expect("own output parses"));
        });
        let obs = sample_ns(OBS_ITERS, &mut || {
            std::hint::black_box(monitor.observe(&healthy).expect("arity matches"));
        });
        if round == 0 {
            continue; // warmup round for the monitor-backed bodies
        }
        for (slot, ns) in best.iter_mut().zip([enc, dec, ckpt, obs]) {
            if ns < *slot {
                *slot = ns;
            }
        }
    }

    let out = vec![
        MicroBench { name: "frame_encode", min_ns: best[0] },
        MicroBench { name: "frame_decode", min_ns: best[1] },
        MicroBench { name: "checkpoint_roundtrip", min_ns: best[2] },
        MicroBench { name: "monitor_observe", min_ns: best[3] },
    ];
    for b in &out {
        println!("bench fleet/{}: min {:.1} ns/op", b.name, b.min_ns);
    }
    out
}

struct SoakReport {
    seed: u64,
    tenants: usize,
    chips_per_tenant: usize,
    sessions: usize,
    frames_sent: u64,
    elapsed_s: f64,
    readings_per_sec: f64,
    lat_p50_ms: f64,
    lat_p99_ms: f64,
    lat_samples: usize,
    reconnects: u64,
    busys: u64,
    injected_faults: u64,
    shed: u64,
    rejected: u64,
    recoveries: u64,
    quarantined: u64,
    decode_errors: u64,
    checkpoints: u64,
    restart_resumed: usize,
    restart_refits: u64,
    restart_restores: u64,
    restart_alarms_held: usize,
    trace_recorded: u64,
    trace_deduped: u64,
    p99_exact_ns: f64,
    p99_hist_ns: f64,
    slo_pages: u64,
    slo_latency_burn_5m: f64,
    slo_availability_burn_5m: f64,
    traced_rps: f64,
    untraced_rps: f64,
    trace_overhead_pct: f64,
    profiled_rps: f64,
    unprofiled_rps: f64,
    profile_overhead_pct: f64,
    gemm_batched_rps: f64,
    gemm_sequential_rps: f64,
    gemm_speedup: f64,
}

/// Pipelined round-trip throughput against a quiet server: one
/// connection fans across `chips` sessions and keeps up to `window`
/// readings in flight (well under the session queue, so no shedding),
/// counting decisions until `total` have landed. Ingest wakeups make this
/// work-bound, not tick-bound, so per-reading serving cost — including
/// the instrumentation under test — is what it measures. Per-chip
/// sequence numbers stay strictly increasing (`sent / chips`) so trace
/// dedupe never swallows a decision.
fn probe_rps(
    addr: std::net::SocketAddr,
    tenant: u64,
    chips: u64,
    window: u64,
    total: u64,
    values: &[f64],
) -> f64 {
    let mut client =
        FleetClient::new(addr, tenant, RetryPolicy::default(), ChaosConfig::quiet(tenant));
    for chip in 0..chips {
        client.hello(chip).expect("probe handshake");
    }
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut decided = 0u64;
    while decided < total {
        while sent < total && sent - decided < window {
            client
                .send_readings(sent % chips, sent / chips, values)
                .expect("probe send");
            sent += 1;
        }
        for f in client.drain_responses(Duration::from_millis(1)) {
            if matches!(f, Frame::Decision { .. }) {
                decided += 1;
            }
        }
    }
    total as f64 / t0.elapsed().as_secs_f64()
}

/// The A/B protocol every overhead probe shares: alternate three `a` and
/// three `b` rounds (each closure gets the round index, for a fresh
/// tenant per round so dedupe never interferes) and keep the best
/// throughput of each mode — contention only subtracts, so the max is
/// the reproducible uncontended rate.
fn best_of_3(mut a: impl FnMut(u64) -> f64, mut b: impl FnMut(u64) -> f64) -> (f64, f64) {
    let (mut best_a, mut best_b) = (0.0f64, 0.0f64);
    for round in 0..3 {
        best_a = best_a.max(a(round));
        best_b = best_b.max(b(round));
    }
    (best_a, best_b)
}

/// The overhead probes' hard gate: on vs off throughput must agree
/// within ±30%, the shared-runner noise floor. The ≤1% target is reported
/// in the JSON so regressions show up in review, not flaps.
fn outside_noise_floor(what: &str, on_rps: f64, off_rps: f64) -> Option<String> {
    (on_rps < off_rps * 0.70 || off_rps < on_rps * 0.70).then(|| {
        format!("{what} overhead outside ±30%: on {on_rps:.0} rps vs off {off_rps:.0} rps")
    })
}

#[allow(clippy::too_many_lines)]
fn main() {
    let reps = env::parse::<usize>("VOLTSENSE_BENCH_REPS").filter(|&r| r > 0).unwrap_or(5);
    let seed = env::parse::<u64>("VOLTSENSE_FLEET_SEED").unwrap_or(7);
    let sessions_req = env::parse::<usize>("VOLTSENSE_FLEET_SESSIONS").filter(|&s| s > 0).unwrap_or(64);
    let frames_req = env::parse::<u64>("VOLTSENSE_FLEET_FRAMES").filter(|&f| f > 0).unwrap_or(10_000);

    let tenants = sessions_req.clamp(1, 8);
    let chips_per_tenant = (sessions_req / tenants).max(1);
    let sessions = tenants * chips_per_tenant;
    let rounds = (frames_req as usize).div_ceil(sessions).max(1);

    rule(72);
    println!("fleet_soak: {tenants} tenants x {chips_per_tenant} chips = {sessions} sessions");
    println!("  target {frames_req} frames ({rounds} rounds), seed {seed}, reps {reps}");
    rule(72);

    // The microbenches run un-instrumented (no recorder installed), so
    // their gated per-op costs stay comparable across commits.
    let benches = microbenches(reps);

    // Always-on observability from here on: flight recorder plus (under
    // VOLTSENSE_TELEMETRY_ADDR) the live /metrics, /trace, /slo, and
    // /healthz endpoint while the soak runs.
    let obs = telemetry::init_always_on("fleet");

    // --- phase 2: the chaos soak --------------------------------------
    let ckpt_dir = std::env::temp_dir().join(format!("fleet_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let cfg = FleetConfig {
        tick: Duration::from_millis(2),
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_interval: 32,
        // Deep slowest-N tail so the p99 cross-check below can index ~1%
        // from the top of the control tenant's exact trace durations.
        trace: TraceConfig { slowest_per_tenant: 256, ..TraceConfig::default() },
        // A 1 ms decision-latency SLO: queue waits under chaos load sit
        // in the milliseconds, so the latency SLI burns far above the
        // 14.4 fast-burn line and the page fires deterministically.
        slo: SloConfig { latency_threshold_ns: 1_000_000, ..SloConfig::default() },
        ..FleetConfig::default()
    };
    let refits = Arc::new(AtomicU64::new(0));
    let mut server =
        FleetServer::start(cfg.clone(), counting_factory(refits.clone())).expect("bind soak server");
    // Route /trace, /slo, and /healthz to this server's buffers for the
    // lifetime of the process.
    server.install_observability();
    let addr = server.addr();

    let mut failures: Vec<String> = Vec::new();
    let soak_start = Instant::now();
    let finished = Arc::new(AtomicUsize::new(0));
    let handles: Vec<std::thread::JoinHandle<FleetClient>> = (0..tenants)
        .map(|t| {
            let tenant = t as u64 + 1;
            let finished = finished.clone();
            let chips = chips_per_tenant as u64;
            std::thread::spawn(move || {
                let mut client = FleetClient::new(
                    addr,
                    tenant,
                    RetryPolicy::default(),
                    ChaosConfig::moderate(seed ^ (tenant << 8)),
                );
                for chip in 0..chips {
                    client.hello(chip).expect("handshake retries through chaos");
                }
                let mut rng = GaussianRng::seed_from_u64(seed ^ tenant);
                for round in 0..rounds as u64 {
                    for chip in 0..chips {
                        // Healthy band: dips toward, never below, 0.8.
                        let v = 0.9 + 0.08 * rng.uniform();
                        client.send_readings(chip, round, &[v]).expect("send survives chaos");
                    }
                    let _ = client.drain_responses(Duration::ZERO);
                }
                finished.fetch_add(1, Ordering::SeqCst);
                client
            })
        })
        .collect();

    // Control tenant: quiet transport, synchronous round trips on the
    // same server — its decision latency is the serving-path p99 under
    // full chaos load. Keeps measuring until the chaos threads finish.
    let mut control = FleetClient::new(
        addr,
        CONTROL_TENANT,
        RetryPolicy::default(),
        ChaosConfig::quiet(seed),
    );
    control.hello(0).expect("control handshake");
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut control_rng = GaussianRng::seed_from_u64(seed ^ 0xC0117501);
    let mut seq = 0u64;
    loop {
        let v = 0.85 + 0.1 * control_rng.uniform();
        control.send_readings(0, seq, &[v]).expect("control send");
        let t0 = Instant::now();
        match control.wait_for(Duration::from_secs(10), |f| {
            matches!(f, Frame::Decision { seq: s, .. } if *s == seq)
        }) {
            Ok(_) => latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            Err(e) => failures.push(format!("control decision for seq {seq} lost: {e:?}")),
        }
        seq += 1;
        let done = finished.load(Ordering::SeqCst) == tenants;
        if (seq >= 300 && done) || seq >= 20_000 {
            break;
        }
    }
    let mut clients: Vec<FleetClient> = handles
        .into_iter()
        .map(|h| h.join().expect("chaos sender thread must not panic"))
        .collect();
    let elapsed = soak_start.elapsed().as_secs_f64();

    // --- droop windows: latch chip 0 of every chaos tenant ------------
    for client in &mut clients {
        let tenant = client.tenant();
        let key = SessionKey { tenant, chip: DROOP_CHIP };
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut droop_seq = 1_000_000u64;
        while server.session_alarmed(key) != Some(true) {
            if Instant::now() >= deadline {
                failures.push(format!("tenant {tenant} droop chip never latched"));
                break;
            }
            client.send_readings(DROOP_CHIP, droop_seq, &[0.70]).expect("droop send");
            droop_seq += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Latched alarms must survive a disconnect + reconnect.
    for client in &mut clients {
        let tenant = client.tenant();
        client.disconnect();
        match client.hello(DROOP_CHIP) {
            Ok(hello) => {
                if !hello.resumed {
                    failures.push(format!("tenant {tenant} reconnect refit instead of resuming"));
                }
                if !hello.alarmed {
                    failures.push(format!("tenant {tenant} latched alarm lost across reconnect"));
                }
            }
            Err(e) => failures.push(format!("tenant {tenant} reconnect failed: {e:?}")),
        }
    }

    let frames_sent: u64 =
        clients.iter().map(|c| c.stats().sends).sum::<u64>() + control.stats().sends;
    let reconnects: u64 = clients.iter().map(|c| c.stats().reconnects).sum();
    let busys: u64 = clients.iter().map(|c| c.stats().busys).sum();
    let injected_faults: u64 = clients
        .iter()
        .map(|c| {
            let s = c.chaos_stats();
            s.disconnects + s.corruptions + s.truncations + s.duplicates + s.reorders + s.stalls
        })
        .sum();
    let stats = server.stats();
    if stats.quarantined != 0 {
        failures.push(format!("{} sessions quarantined under chaos (must be 0)", stats.quarantined));
    }
    if stats.sessions != sessions as u64 + 1 {
        failures.push(format!("expected {} live sessions, saw {}", sessions + 1, stats.sessions));
    }
    if injected_faults == 0 {
        failures.push("chaos schedule injected nothing — the soak was vacuous".into());
    }

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let lat_p50 = percentile(&latencies_ms, 0.50);
    let lat_p99 = percentile(&latencies_ms, 0.99);
    println!(
        "soak: {frames_sent} frames in {elapsed:.2}s ({:.0} readings/s), \
         latency p50 {lat_p50:.2} ms p99 {lat_p99:.2} ms",
        frames_sent as f64 / elapsed
    );
    println!(
        "      shed {} rejected {} recoveries {} reconnects {reconnects} \
         busys {busys} faults {injected_faults} decode_errors {}",
        stats.shed, stats.rejected, stats.recoveries, stats.decode_errors
    );

    // --- injected latency: drive a deterministic fast-burn page -------
    let mut laggy = FleetClient::new(
        addr,
        LAGGY_TENANT,
        RetryPolicy::default(),
        ChaosConfig::quiet(seed ^ 0x1A6),
    );
    laggy.hello(0).expect("laggy handshake");
    for s in 0..8u64 {
        laggy.send_readings(0, s, &[0.9]).expect("laggy send");
        if let Err(e) = laggy.wait_for(Duration::from_secs(10), |f| {
            matches!(f, Frame::Decision { seq, .. } if *seq == s)
        }) {
            failures.push(format!("laggy decision for seq {s} lost: {e:?}"));
        }
    }

    // --- tracing / SLO acceptance -------------------------------------
    // The dispatch thread closes each trace after the response write, so
    // wait until the control tenant's flight histogram agrees with the
    // trace buffer's admitted count before comparing percentiles: both
    // views are then describing exactly the same population.
    let traces = server.traces();
    let slo = server.slo();
    let hist_name = format!("fleet.tenant.{CONTROL_TENANT}.reading_total_ns");
    let settle_deadline = Instant::now() + Duration::from_secs(2);
    let mut control_hist = None;
    loop {
        let snap = obs.flight().snapshot("fleet");
        let recorded = traces.stats(CONTROL_TENANT).recorded;
        match snap.histogram(&hist_name) {
            Some(h) if h.count == recorded && recorded > 0 => {
                control_hist = Some(h.clone());
                break;
            }
            _ if Instant::now() >= settle_deadline => break,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let trace_stats = traces.stats(CONTROL_TENANT);
    let slowest = traces.slowest(CONTROL_TENANT);
    match slowest.first() {
        Some(top) if top.total_ns() > 0 && top.stages.total() == top.total_ns() => {}
        Some(_) => failures.push("slowest control trace lacks a full stage breakdown".into()),
        None => failures.push("control tenant has no tail-sampled traces".into()),
    }
    if traces.sampled(CONTROL_TENANT).is_empty() {
        failures.push("control tenant's deterministic 1-in-k sample ring is empty".into());
    }

    // Satellite bugfix check: the histogram-derived p99 must agree with
    // the *exact* tail-sampled durations at the same rank. `slowest()` is
    // slowest-first, so rank r from the top lives at index r-1; allow ±1
    // rank for the two quantile conventions' off-by-one and ×1.05 for the
    // half-octave bucket-center resolution (8 sub-buckets per octave).
    let mut p99_exact_ns = 0.0;
    let mut p99_hist_ns = 0.0;
    match control_hist {
        Some(h) if !slowest.is_empty() => {
            let count = h.count;
            let target = ((0.99 * count as f64).ceil() as u64).clamp(1, count);
            let from_top = ((count - target + 1) as usize).min(slowest.len());
            let lo = from_top.saturating_sub(1).max(1);
            let hi = (from_top + 1).min(slowest.len());
            let agree = (lo..=hi).any(|rank| {
                let exact = slowest[rank - 1].total_ns() as f64;
                h.p99 <= exact * 1.05 && h.p99 >= exact / 1.05
            });
            p99_exact_ns = slowest[from_top - 1].total_ns() as f64;
            p99_hist_ns = h.p99;
            if !agree {
                failures.push(format!(
                    "histogram p99 {:.0} ns disagrees with exact tail ranks \
                     {lo}..={hi} (~{:.0} ns) beyond bucket resolution",
                    h.p99, p99_exact_ns
                ));
            }
        }
        _ => failures.push(format!(
            "control histogram never settled against the trace buffer \
             (histogram {:?}, recorded {})",
            control_hist.as_ref().map(|h| h.count),
            trace_stats.recorded
        )),
    }

    // Burn rates: the laggy tenant overshoots the 1 ms latency SLO on
    // every decision, so its burn must clear the fast-burn line and the
    // page must have fired.
    let slo_pages = slo.pages();
    if slo_pages == 0 {
        failures.push("no fast-burn page fired despite the laggy tenant's 2 ms stalls".into());
    }
    let laggy_burn = slo.burn(LAGGY_TENANT).unwrap_or_default();
    if !laggy_burn.fast_burn(slo.config().fast_burn) {
        failures.push(format!(
            "laggy tenant is not fast-burning: latency 5m {:.1} / 1h {:.1} \
             (threshold {:.1})",
            laggy_burn.latency_short,
            laggy_burn.latency_long,
            slo.config().fast_burn
        ));
    }
    let control_burn = slo.burn(CONTROL_TENANT).unwrap_or_default();
    let burning = slo.tenants().iter().any(|&t| {
        slo.burn(t)
            .is_some_and(|b| b.latency_short > 0.0 || b.availability_short > 0.0)
    });
    if !burning {
        failures.push("no tenant shows a non-zero burn rate under chaos".into());
    }
    println!(
        "slo: {slo_pages} fast-burn pages, control latency burn 5m {:.1} \
         (availability {:.1}); trace recorded {} deduped {}",
        control_burn.latency_short,
        control_burn.availability_short,
        trace_stats.recorded,
        trace_stats.deduped
    );

    // --- phase 3: kill -9 + restart from checkpoints ------------------
    // Give in-flight checkpoints a beat, then abort: no flush, no stop().
    std::thread::sleep(Duration::from_millis(50));
    server.abort();
    drop(clients);
    drop(control);

    let refits_after = Arc::new(AtomicU64::new(0));
    let mut server2 = FleetServer::start(cfg, counting_factory(refits_after.clone()))
        .expect("restarted server binds");
    let mut resumed = 0usize;
    let mut alarms_held = 0usize;
    for t in 0..tenants {
        let tenant = t as u64 + 1;
        let mut client = FleetClient::new(
            server2.addr(),
            tenant,
            RetryPolicy::default(),
            ChaosConfig::quiet(seed ^ tenant),
        );
        for chip in 0..chips_per_tenant as u64 {
            match client.hello(chip) {
                Ok(hello) => {
                    if hello.resumed {
                        resumed += 1;
                    } else {
                        failures
                            .push(format!("tenant {tenant} chip {chip} refit after restart"));
                    }
                    if chip == DROOP_CHIP {
                        if hello.alarmed {
                            alarms_held += 1;
                        } else {
                            failures.push(format!(
                                "tenant {tenant} droop alarm lost across kill -9 restart"
                            ));
                        }
                    }
                }
                Err(e) => failures.push(format!(
                    "tenant {tenant} chip {chip} hello after restart failed: {e:?}"
                )),
            }
        }
    }
    let restart_refits = refits_after.load(Ordering::SeqCst);
    if restart_refits != 0 {
        failures.push(format!("restart ran the factory {restart_refits} times (refit!)"));
    }
    let restart_restores = server2.stats().restores;
    println!(
        "restart: {resumed}/{sessions} sessions resumed from checkpoint, \
         {restart_refits} refits, {alarms_held}/{tenants} alarms held"
    );
    server2.stop();
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // --- tracing overhead probe ---------------------------------------
    // Traced vs untraced rounds against a quiet dedicated server.
    // `set_enabled` is the in-process equivalent of VOLTSENSE_TRACE=0 — it
    // gates the client's trace stamp and the server's span clocks at once.
    const PROBE_READINGS: u64 = 2_000;
    let probe_cfg = FleetConfig { tick: Duration::from_millis(1), ..FleetConfig::default() };
    let mut probe_server =
        FleetServer::start(probe_cfg.clone(), counting_factory(Arc::new(AtomicU64::new(0))))
            .expect("bind probe server");
    let probe_addr = probe_server.addr();
    let (traced_rps, untraced_rps) = best_of_3(
        |round| {
            trace::set_enabled(true);
            probe_rps(probe_addr, 2000 + round, 1, 16, PROBE_READINGS, &[0.9])
        },
        |round| {
            trace::set_enabled(false);
            probe_rps(probe_addr, 2100 + round, 1, 16, PROBE_READINGS, &[0.9])
        },
    );
    trace::set_enabled(true);
    probe_server.stop();
    let trace_overhead_pct = (untraced_rps - traced_rps) / untraced_rps * 100.0;
    println!(
        "tracing overhead: traced {traced_rps:.0} rps vs untraced {untraced_rps:.0} rps \
         ({trace_overhead_pct:+.2}%, target <= 1%)"
    );
    failures.extend(outside_noise_floor("tracing", traced_rps, untraced_rps));

    // --- profiling overhead probe --------------------------------------
    // Profiled (99 Hz span-stack sampler + allocation accounting live) vs
    // unprofiled rounds on a fresh quiet server. The unprofiled rounds
    // still run with the counting allocator installed and span hooks
    // compiled in — that disabled path (one relaxed load per alloc / per
    // span) is the always-on cost the ≤1% budget covers.
    let mut probe_server =
        FleetServer::start(probe_cfg, counting_factory(Arc::new(AtomicU64::new(0))))
            .expect("bind profile probe server");
    let probe_addr = probe_server.addr();
    let (profiled_rps, unprofiled_rps) = best_of_3(
        |round| {
            let _sampler = profile::start(profile::DEFAULT_HZ);
            let _counting = profile::enable_counting();
            probe_rps(probe_addr, 2200 + round, 1, 16, PROBE_READINGS, &[0.9])
        },
        |round| probe_rps(probe_addr, 2300 + round, 1, 16, PROBE_READINGS, &[0.9]),
    );
    probe_server.stop();
    let profile_overhead_pct = (unprofiled_rps - profiled_rps) / unprofiled_rps * 100.0;
    println!(
        "profiling overhead: profiled {profiled_rps:.0} rps vs unprofiled {unprofiled_rps:.0} \
         rps ({profile_overhead_pct:+.2}%, target <= 1%)"
    );
    failures.extend(outside_noise_floor("profiling", profiled_rps, unprofiled_rps));

    // --- batched GEMM drain probe --------------------------------------
    // The model is the compute-heavy SKU (Q = 56 -> K = 2048) and one
    // connection fans across 64 chips with a deep in-flight window so the
    // dispatcher can gather cross-session batches. The control server
    // runs with batching disabled (`gemm_min_batch: usize::MAX`), forcing
    // the per-chip matvec path the batch plane replaces; both serve
    // bit-identical decisions (pinned by fleet/tests/batch_identity.rs),
    // so the ratio is pure throughput.
    const GEMM_CHIPS: u64 = 64;
    const GEMM_WINDOW: u64 = 512;
    const GEMM_READINGS: u64 = 4_096;
    let sku_values = vec![0.9; SKU_Q];
    let gemm_cfg = FleetConfig { tick: Duration::from_millis(1), ..FleetConfig::default() };
    let seq_cfg = FleetConfig { gemm_min_batch: usize::MAX, ..gemm_cfg.clone() };
    let mut gemm_server = FleetServer::start(gemm_cfg, sku_factory()).expect("bind gemm server");
    let mut seq_server = FleetServer::start(seq_cfg, sku_factory()).expect("bind seq server");
    let (gemm_addr, seq_addr) = (gemm_server.addr(), seq_server.addr());
    let (gemm_batched_rps, gemm_sequential_rps) = best_of_3(
        |round| probe_rps(gemm_addr, 2400 + round, GEMM_CHIPS, GEMM_WINDOW, GEMM_READINGS, &sku_values),
        |round| probe_rps(seq_addr, 2500 + round, GEMM_CHIPS, GEMM_WINDOW, GEMM_READINGS, &sku_values),
    );
    gemm_server.stop();
    seq_server.stop();
    let gemm_speedup = gemm_batched_rps / gemm_sequential_rps;
    // Machine-aware floor, the parallel_scaling convention: a real
    // multi-core runner must show the batching win; a 1-core shared
    // runner only has to stay out of pathological-regression territory.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let min_gemm_speedup = env::parse::<f64>("VOLTSENSE_MIN_GEMM_SPEEDUP")
        .unwrap_or(if cores >= 4 { 1.3 } else { 0.7 });
    println!(
        "gemm batching: batched {gemm_batched_rps:.0} rps vs per-chip matvec \
         {gemm_sequential_rps:.0} rps ({gemm_speedup:.2}x, floor {min_gemm_speedup:.2}x, \
         {GEMM_CHIPS} sessions, Q={SKU_Q} K={SKU_K})"
    );
    if gemm_speedup < min_gemm_speedup {
        failures.push(format!(
            "batched GEMM drain speedup {gemm_speedup:.2}x below floor \
             {min_gemm_speedup:.2}x (batched {gemm_batched_rps:.0} rps vs \
             sequential {gemm_sequential_rps:.0} rps)"
        ));
    }

    let report = SoakReport {
        seed,
        tenants,
        chips_per_tenant,
        sessions,
        frames_sent,
        elapsed_s: elapsed,
        readings_per_sec: frames_sent as f64 / elapsed,
        lat_p50_ms: lat_p50,
        lat_p99_ms: lat_p99,
        lat_samples: latencies_ms.len(),
        reconnects,
        busys,
        injected_faults,
        shed: stats.shed,
        rejected: stats.rejected,
        recoveries: stats.recoveries,
        quarantined: stats.quarantined,
        decode_errors: stats.decode_errors,
        checkpoints: stats.checkpoints,
        restart_resumed: resumed,
        restart_refits,
        restart_restores,
        restart_alarms_held: alarms_held,
        trace_recorded: trace_stats.recorded,
        trace_deduped: trace_stats.deduped,
        p99_exact_ns,
        p99_hist_ns,
        slo_pages,
        slo_latency_burn_5m: control_burn.latency_short,
        slo_availability_burn_5m: control_burn.availability_short,
        traced_rps,
        untraced_rps,
        trace_overhead_pct,
        profiled_rps,
        unprofiled_rps,
        profile_overhead_pct,
        gemm_batched_rps,
        gemm_sequential_rps,
        gemm_speedup,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("bench_fleet.json");
    std::fs::write(&path, to_json(&benches, &report)).expect("write report");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        eprintln!("fleet_soak FAILED {} robustness properties:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all robustness properties held (seed {seed} replays this schedule)");
}

fn to_json(benches: &[MicroBench], r: &SoakReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"voltsense-metrics-v1\",\n");
    s.push_str("  \"suite\": \"fleet\",\n");
    // Soak numbers live OUTSIDE the benchmarks array on purpose: they
    // scale with machine load and chaos schedule, and would flap the
    // ±30% bench_compare gate without measuring a regression.
    s.push_str("  \"soak\": {\n");
    s.push_str(&format!("    \"seed\": {},\n", r.seed));
    s.push_str(&format!("    \"tenants\": {},\n", r.tenants));
    s.push_str(&format!("    \"chips_per_tenant\": {},\n", r.chips_per_tenant));
    s.push_str(&format!("    \"sessions\": {},\n", r.sessions));
    s.push_str(&format!("    \"frames_sent\": {},\n", r.frames_sent));
    s.push_str(&format!("    \"elapsed_s\": {:.3},\n", r.elapsed_s));
    s.push_str(&format!("    \"readings_per_sec\": {:.1},\n", r.readings_per_sec));
    s.push_str(&format!(
        "    \"latency_ms\": {{\"p50\": {:.3}, \"p99\": {:.3}, \"samples\": {}}},\n",
        r.lat_p50_ms, r.lat_p99_ms, r.lat_samples
    ));
    s.push_str(&format!(
        "    \"server\": {{\"shed\": {}, \"rejected\": {}, \"recoveries\": {}, \
         \"quarantined\": {}, \"decode_errors\": {}, \"checkpoints\": {}}},\n",
        r.shed, r.rejected, r.recoveries, r.quarantined, r.decode_errors, r.checkpoints
    ));
    s.push_str(&format!(
        "    \"clients\": {{\"reconnects\": {}, \"busys\": {}, \"injected_faults\": {}}},\n",
        r.reconnects, r.busys, r.injected_faults
    ));
    s.push_str(&format!(
        "    \"restart\": {{\"resumed\": {}, \"refits\": {}, \"restores\": {}, \
         \"alarms_held\": {}}},\n",
        r.restart_resumed, r.restart_refits, r.restart_restores, r.restart_alarms_held
    ));
    // Tracing/SLO numbers stay outside `benchmarks` for the same reason
    // as the soak stats: rps and burn rates scale with machine load.
    s.push_str(&format!(
        "    \"tracing\": {{\"recorded\": {}, \"deduped\": {}, \"p99_exact_ns\": {:.0}, \
         \"p99_hist_ns\": {:.0}, \"traced_rps\": {:.1}, \"untraced_rps\": {:.1}, \
         \"overhead_pct\": {:.2}}},\n",
        r.trace_recorded,
        r.trace_deduped,
        r.p99_exact_ns,
        r.p99_hist_ns,
        r.traced_rps,
        r.untraced_rps,
        r.trace_overhead_pct
    ));
    s.push_str(&format!(
        "    \"profiling\": {{\"profiled_rps\": {:.1}, \"unprofiled_rps\": {:.1}, \
         \"overhead_pct\": {:.2}}},\n",
        r.profiled_rps, r.unprofiled_rps, r.profile_overhead_pct
    ));
    s.push_str(&format!(
        "    \"gemm\": {{\"batched_rps\": {:.1}, \"sequential_rps\": {:.1}, \
         \"speedup\": {:.2}}},\n",
        r.gemm_batched_rps, r.gemm_sequential_rps, r.gemm_speedup
    ));
    s.push_str(&format!(
        "    \"slo\": {{\"pages\": {}, \"latency_burn_5m\": {:.3}, \
         \"availability_burn_5m\": {:.3}}}\n",
        r.slo_pages, r.slo_latency_burn_5m, r.slo_availability_burn_5m
    ));
    s.push_str("  },\n");
    s.push_str("  \"benchmarks\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {:.1}, \"unit\": \"ns\", \"min_ns\": {:.1}}}",
            b.name, b.min_ns, b.min_ns
        ));
        s.push_str(if i + 1 < benches.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
