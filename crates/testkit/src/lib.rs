//! In-tree property testing and benchmarking for the voltsense workspace.
//!
//! The workspace has a zero-external-dependency policy (see the dependency
//! policy in DESIGN.md): every build and every test must succeed fully
//! offline, and every random stream must replay bit-identically across
//! platforms and toolchain versions. This crate supplies the two pieces of
//! developer tooling that previously pulled in registry crates:
//!
//! * **Property testing** ([`forall!`], [`gen`]) — seeded value generators
//!   driven by the workspace's portable xoshiro256++ generator
//!   ([`GaussianRng`]), a macro that runs a property over N deterministic
//!   cases, and greedy shrinking that reports the *minimal* failing input
//!   together with the seed that replays it.
//! * **Benchmarking** ([`bench`](mod@bench)) — a warmup + median-of-k wall-clock timer
//!   with auto-calibrated batching and JSON reports under `results/`.
//!
//! # Property tests
//!
//! ```
//! use voltsense_testkit::{forall, matrix};
//!
//! forall!(cases = 64, (m in matrix(3, 5, -10.0, 10.0)) => {
//!     assert_eq!(m.transpose().transpose(), m);
//! });
//! ```
//!
//! On failure the harness shrinks each generated component greedily (always
//! re-checking the property), then panics with the minimal failing input and
//! a `TESTKIT_SEED=<seed>` replay line. Environment knobs:
//!
//! * `TESTKIT_CASES=N` — override the case count of every `forall!`.
//! * `TESTKIT_SEED=S` — run exactly one case with the given seed (replay).
//!
//! # Benches
//!
//! ```no_run
//! use voltsense_testkit::bench::BenchTimer;
//!
//! let mut timer = BenchTimer::new("example");
//! timer.bench("sum_1k", || (0..1000u64).sum::<u64>());
//! timer.finish().expect("write results/bench_example.json");
//! ```

pub mod bench;
mod forall_support;
pub mod gen;

pub use forall_support::{forall_catch, run_forall, ForallConfig, GenTuple};
pub use gen::{
    choice, f64_range, matrix, spd, u64_range, usize_range, vec_f64, Choice, F64Range, Gen,
    MatrixGen, SpdGen, U64Range, UsizeRange, VecF64,
};
// Re-exported so `forall!` expansions can name the RNG via `$crate`.
pub use voltsense_workload::GaussianRng;

/// Runs a property over deterministically seeded generated inputs.
///
/// Syntax: `forall!(cases = N, (a in gen_a, b in gen_b, ...) => { body })`;
/// the `cases = N` prefix is optional and defaults to 64. Each name binds an
/// owned value generated by its [`Gen`] for the current case; the body is any
/// block using ordinary `assert!`/`assert_eq!` (a panic fails the case).
///
/// On a failing case the harness greedily shrinks every component toward its
/// generator's simplest value — re-running the body after each attempt and
/// keeping only still-failing inputs — then panics with the minimal failing
/// input, the assertion message, and the replay seed.
#[macro_export]
macro_rules! forall {
    (cases = $cases:expr, ($($name:ident in $gen:expr),+ $(,)?) => $body:block) => {{
        let __gens = ($($gen,)+);
        let __cfg = $crate::ForallConfig::new(
            $cases as u64,
            ::core::module_path!(),
            ::core::line!(),
        );
        $crate::run_forall(
            &__cfg,
            &__gens,
            |__vals| {
                let ($($name,)+) = ::core::clone::Clone::clone(__vals);
                $crate::forall_catch(|| {
                    let _ = $body;
                })
            },
            |__vals| {
                let ($(ref $name,)+) = *__vals;
                let mut __s = ::std::string::String::new();
                $(
                    __s.push_str(&::std::format!(
                        "  {} = {:?}\n",
                        ::core::stringify!($name),
                        $name
                    ));
                )+
                __s
            },
        );
    }};
    (($($name:ident in $gen:expr),+ $(,)?) => $body:block) => {
        $crate::forall!(cases = 64, ($($name in $gen),+) => $body)
    };
}
