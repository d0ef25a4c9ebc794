#!/usr/bin/env bash
# Tier-1 gate for the voltsense workspace. Runs fully offline: the
# workspace has zero external dependencies (see DESIGN.md §3), so a failure
# here is a real build/test failure, never a registry problem.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=1)"
VOLTSENSE_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=4)"
VOLTSENSE_THREADS=4 cargo test -q --offline

echo "==> voltbench tests (the benchmark's own package, lockfile unchanged)"
# voltbench is a package outside the workspace that calls the public API;
# testing it here turns an API break into a CI failure. --locked fails
# instead of rewriting voltbench/Cargo.lock.
cargo test -q --offline --locked --manifest-path voltbench/Cargo.toml

echo "==> cargo bench --no-run --offline (bench targets must compile)"
cargo bench --no-run --offline

echo "==> fault-tolerance sweep smoke (small scale, fast bench config)"
VOLTSENSE_SCALE=small TESTKIT_BENCH_FAST=1 \
    cargo run --release --offline -p voltsense-bench --bin fault_tolerance_sweep

echo "==> parallel scaling smoke (bit-identity + machine-aware speedup gate)"
# One rep per point keeps this fast; the binary hard-asserts bit-identity
# across thread counts and applies a lenient speedup floor on small
# runners (override with VOLTSENSE_MIN_SPEEDUP). Results go to a scratch
# dir so the committed results/bench_parallel_scaling.json reference is
# only compared against (gate below), never overwritten.
VOLTSENSE_BENCH_REPS=1 TESTKIT_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release --offline -p voltsense-bench --bin parallel_scaling

echo "==> fleet chaos smoke (seeded soak + kill -9 restart drill)"
# Chaos schedule is replayable from the seed; the binary hard-asserts
# zero server panics, latch-through-reconnect, an all-sessions resume
# (zero refits) after abort()+restart, a histogram-vs-exact-trace p99
# agreement, and a deterministic SLO fast-burn page from the laggy
# tenant. The observability endpoints and incident files are checked
# in-process by the telemetry and fleet test suites above. Results go
# to a scratch dir: the committed results/bench_fleet.json reference is
# only compared against (gate below), never overwritten; the page's
# incident file lands in a scratch dir too.
VOLTSENSE_FLEET_SESSIONS=64 VOLTSENSE_FLEET_FRAMES=10000 \
TESTKIT_RESULTS_DIR="$(mktemp -d)" VOLTSENSE_INCIDENT_DIR="$(mktemp -d)" \
    cargo run --release --offline -p voltsense-bench --bin fleet_soak

if [[ "${VOLTSENSE_BENCH_GATE:-}" == 1 ]]; then
    echo "==> bench regression gate (VOLTSENSE_BENCH_GATE=1)"
    fresh_dir="$(mktemp -d)"
    for ref in results/bench_*.json; do
        name="$(basename "$ref" .json)"
        case "$name" in
        bench_fleet)
            # Bin-generated report: a short soak regenerates it. Only the
            # microbench entries live inside `benchmarks` (soak stats sit
            # outside). The bodies are sub-µs and sampled min-of-k, but on
            # a shared single-core runner sustained CPU steal still
            # spreads back-to-back mins ~2x, so fleet compares at ±150%:
            # wide enough to never flap on neighbor noise, tight enough
            # to catch the step-change regressions (allocation blowups,
            # accidental quadratic scans) a µs gate can honestly detect.
            VOLTSENSE_FLEET_SESSIONS=16 VOLTSENSE_FLEET_FRAMES=2000 \
            TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo run --release --offline -p voltsense-bench --bin fleet_soak ||
                continue
            [[ -f "$fresh_dir/$name.json" ]] &&
                cargo run --release --offline -p voltsense-bench --bin bench_compare \
                    "$fresh_dir/$name.json" "$ref" --tolerance 1.5
            continue
            ;;
        bench_parallel_scaling)
            # Bin-generated report (not a bench target): regenerate with one
            # rep per point. Extra tN entries on wider machines are noted by
            # bench_compare, never gated; t1/t2/t4 always exist.
            VOLTSENSE_BENCH_REPS=1 TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo run --release --offline -p voltsense-bench --bin parallel_scaling ||
                continue
            ;;
        *)
            TESTKIT_BENCH_FAST=1 TESTKIT_RESULTS_DIR="$fresh_dir" \
                cargo bench --offline -p voltsense-bench --bench "${name#bench_}" 2>/dev/null ||
                continue
            ;;
        esac
        [[ -f "$fresh_dir/$name.json" ]] &&
            cargo run --release --offline -p voltsense-bench --bin bench_compare \
                "$fresh_dir/$name.json" "$ref"
    done
fi

echo "==> dependency policy: no external crates in any manifest"
if grep -rEn 'rand|proptest|criterion' Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external dependency reference found in a manifest" >&2
    exit 1
fi

echo "CI gate passed."
