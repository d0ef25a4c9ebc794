//! Parallel-scaling bench: wall-clock speedup versus thread count for the
//! four workloads the data-parallel runtime targets —
//!
//! * **matmul** — the blocked row-partitioned dense kernel;
//! * **gram** — the triangle-partitioned `Z Zᵀ` reduction (the
//!   group-lasso covariance form);
//! * **matmul_t** — the tiled `G Zᵀ` cross-covariance, checked once
//!   against `G · Zᵀ` on an explicit transpose before it is timed;
//! * **scenario_collect** — the training-data generation path: one
//!   independent power-grid transient per benchmark, collected
//!   concurrently (the small 2-core chip, all 19 benchmarks, so the bench
//!   stays runnable everywhere).
//!
//! Each workload runs at 1/2/4/N threads (`N` = the configured pool
//! size). Before any timing is trusted, the output at every thread count
//! is checked **bit-identical** to the single-threaded run — the
//! determinism contract of DESIGN.md §8 — and the binary aborts if not.
//!
//! The speedup gate is machine-aware: at least `VOLTSENSE_MIN_SPEEDUP`
//! (default 1.0 with ≥ 4 cores, 0.6 below — a 1-core runner cannot speed
//! up, only pay overhead) must be reached by each workload's best thread
//! count. Speedups are reported in the JSON beside, not inside, the
//! `benchmarks` array of per-thread-count medians.
//!
//! Run with: `cargo run --release -p voltsense-bench --bin parallel_scaling`
//! (env: `VOLTSENSE_BENCH_REPS` to change the reps-per-median, default 3).

use std::time::Instant;

use voltsense::linalg::Matrix;
use voltsense::parallel;
use voltsense::scenario::Scenario;
use voltsense::telemetry::env;
use voltsense::workload::GaussianRng;
use voltsense_bench::{results_dir, rule, NUM_BENCHMARKS};

/// One timed point: a workload at a thread count.
struct Point {
    workload: &'static str,
    threads: usize,
    median_ns: u128,
    speedup: f64,
}

/// Median wall time of `reps` runs, plus the last run's output.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (u128, T) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    (times[times.len() / 2], out.expect("reps >= 1"))
}

/// Exact bit equality — `==` on f64 would let `-0.0 == 0.0` slip through.
fn bits_equal(a: &[Matrix], b: &[Matrix]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = GaussianRng::seed_from_u64(seed);
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.sample();
    }
    m
}

fn main() {
    let _telemetry = voltsense::telemetry::init_from_env("parallel_scaling");
    let reps = env::parse::<usize>("VOLTSENSE_BENCH_REPS")
        .filter(|&r| r > 0)
        .unwrap_or(3);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let min_speedup = env::parse::<f64>("VOLTSENSE_MIN_SPEEDUP")
        .unwrap_or(if cores >= 4 { 1.0 } else { 0.6 });

    let mut counts = vec![1usize, 2, 4, parallel::configured_threads()];
    counts.sort_unstable();
    counts.dedup();

    // Workload inputs, built once; every timed closure is a pure function
    // of them.
    let a = random_matrix(400, 300, 11);
    let b = random_matrix(300, 350, 13);
    let z = random_matrix(300, 800, 17);
    let g = random_matrix(64, 800, 19);
    assert!(
        bits_equal(
            &[g.matmul_t(&z).expect("shapes agree")],
            &[g.matmul(&z.transpose()).expect("shapes agree")]
        ),
        "matmul_t is NOT bit-identical to matmul on the explicit transpose"
    );
    let scen = Scenario::small().expect("small scenario");
    let benchmarks: Vec<usize> = (0..NUM_BENCHMARKS).collect();

    type Workload<'a> = (&'static str, Box<dyn Fn() -> Vec<Matrix> + 'a>);
    let workloads: Vec<Workload> = vec![
        ("matmul", Box::new(|| vec![a.matmul(&b).expect("shapes agree")])),
        ("gram", Box::new(|| vec![z.gram()])),
        ("matmul_t", Box::new(|| vec![g.matmul_t(&z).expect("shapes agree")])),
        ("scenario_collect", Box::new(|| {
            let d = scen.collect(&benchmarks).expect("simulation");
            vec![d.x, d.f]
        })),
    ];

    println!(
        "parallel scaling: {cores} core(s), thread counts {counts:?}, {reps} rep(s)/median, \
         min-speedup gate {min_speedup}"
    );
    println!("{:<18} {:>7} {:>14} {:>9}  bit-identical", "workload", "threads", "median ns", "speedup");
    rule(64);

    let mut points: Vec<Point> = Vec::new();
    let mut gate_failures = Vec::new();
    for (name, run) in &workloads {
        let (base_ns, base_out) = parallel::with_threads(1, || time_median(reps, run));
        let mut best = 1.0f64;
        for &t in &counts {
            let (ns, out) = if t == 1 {
                (base_ns, base_out.clone())
            } else {
                parallel::with_threads(t, || time_median(reps, run))
            };
            let identical = bits_equal(&out, &base_out);
            assert!(
                identical,
                "{name} at {t} threads is NOT bit-identical to the serial run — \
                 the determinism contract is broken"
            );
            let speedup = base_ns as f64 / ns.max(1) as f64;
            best = best.max(speedup);
            println!("{name:<18} {t:>7} {ns:>14} {speedup:>8.2}x  yes");
            points.push(Point {
                workload: name,
                threads: t,
                median_ns: ns,
                speedup,
            });
        }
        if best < min_speedup {
            gate_failures.push(format!("{name}: best speedup {best:.2} < {min_speedup}"));
        }
    }
    rule(64);

    let json = to_json(cores, reps, min_speedup, &counts, &points);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join("bench_parallel_scaling.json");
    std::fs::write(&path, json).expect("write results");
    println!("wrote {}", path.display());

    if !gate_failures.is_empty() {
        eprintln!("parallel_scaling FAILED the speedup gate:");
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all workloads bit-identical across thread counts; speedup gate ≥ {min_speedup} met");
}

fn to_json(
    cores: usize,
    reps: usize,
    min_speedup: f64,
    counts: &[usize],
    points: &[Point],
) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"voltsense-metrics-v1\",\n");
    s.push_str("  \"suite\": \"parallel_scaling\",\n");
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!("  \"min_speedup_gate\": {min_speedup},\n"));
    s.push_str(&format!(
        "  \"thread_counts\": [{}],\n",
        counts.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    ));
    s.push_str("  \"bit_identical\": true,\n");
    // Speedups live OUTSIDE the benchmarks array: they are ratios, not
    // the timed medians every `benchmarks` entry holds.
    s.push_str("  \"speedups\": {\n");
    let names: Vec<&'static str> = {
        let mut seen = Vec::new();
        for p in points {
            if !seen.contains(&p.workload) {
                seen.push(p.workload);
            }
        }
        seen
    };
    for (i, name) in names.iter().enumerate() {
        let per: Vec<String> = points
            .iter()
            .filter(|p| p.workload == *name)
            .map(|p| format!("\"t{}\": {:.4}", p.threads, p.speedup))
            .collect();
        s.push_str(&format!("    \"{name}\": {{{}}}", per.join(", ")));
        s.push_str(if i + 1 < names.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n");
    s.push_str("  \"benchmarks\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}/t{}\", \"value\": {}, \"unit\": \"ns\", \"median_ns\": {}, \"threads\": {}}}",
            p.workload, p.threads, p.median_ns, p.median_ns, p.threads
        ));
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
