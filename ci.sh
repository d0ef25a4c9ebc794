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

echo "==> dependency policy: every locked package is in-tree"
# Read the lockfiles, not the manifests: a registry or git dependency
# always appears there as a `source =` line, and every in-tree package is
# voltbench or voltsense*. voltbench/Cargo.lock is only read here.
for lock in Cargo.lock voltbench/Cargo.lock; do
    awk '
        /^\[\[package\]\]$/ { in_pkg = 1; next }
        /^\[/ { in_pkg = 0 }
        /^source = / { print FILENAME ":" FNR ": " $0; bad = 1 }
        in_pkg && /^name = / && $3 !~ /^"(voltbench|voltsense[^"]*)"$/ {
            print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit bad }
    ' "$lock" || {
        echo "ERROR: $lock locks a package from outside the repository" >&2
        exit 1
    }
done

echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Keeps intra-doc links resolvable and off private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=1)"
VOLTSENSE_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (all targets + doctests, VOLTSENSE_THREADS=4)"
VOLTSENSE_THREADS=4 cargo test -q --offline

echo "==> paper-scale digest (release; X, F and node ids bit-identical to the recorded run)"
# An #[ignore] test: minutes in debug, seconds in release.
cargo test --release -q --offline -p voltsense --test digests -- --ignored

echo "==> voltbench tests (the benchmark's own package, lockfile unchanged)"
# voltbench is a package outside the workspace that calls the public API;
# testing it here turns an API break into a CI failure. --locked fails
# instead of rewriting voltbench/Cargo.lock.
cargo test -q --offline --locked --manifest-path voltbench/Cargo.toml

echo "==> examples (release; every example must exit 0)"
# Incident files and result reports go to a scratch dir, not results/.
ex_dir="$(mktemp -d)"
for example in quickstart emergency_monitor sensor_budget_exploration \
        sensor_diagnostics voltage_map_viewer; do
    VOLTSENSE_INCIDENT_DIR="$ex_dir/incidents" TESTKIT_RESULTS_DIR="$ex_dir" \
        cargo run --release --offline -q -p voltsense --example "$example" >/dev/null
done

echo "==> fault-tolerance sweep smoke (small scale, output pinned)"
# The sweep fits with a sensor count and runs the fault-tolerant monitor;
# its report is deterministic, so it must match the committed record byte
# for byte. It is written to a scratch dir so that record is never
# overwritten.
ft_dir="$(mktemp -d)"
VOLTSENSE_SCALE=small TESTKIT_RESULTS_DIR="$ft_dir" \
    cargo run --release --offline -p voltsense-bench --bin fault_tolerance_sweep
cmp "$ft_dir/bench_fault_tolerance.json" results/bench_fault_tolerance.json

echo "==> parallel scaling smoke (bit-identity + machine-aware speedup gate)"
# One rep per point keeps this fast; the binary hard-asserts bit-identity
# across thread counts and applies a lenient speedup floor on small
# runners (override with VOLTSENSE_MIN_SPEEDUP). Results go to a scratch
# dir so the committed results/bench_parallel_scaling.json record is
# never overwritten.
VOLTSENSE_BENCH_REPS=1 TESTKIT_RESULTS_DIR="$(mktemp -d)" \
    cargo run --release --offline -p voltsense-bench --bin parallel_scaling

echo "==> fleet chaos smoke (seeded soak + kill -9 restart drill)"
# Chaos schedule is replayable from the seed; the binary hard-asserts
# zero server panics, latch-through-reconnect, an all-sessions resume
# (zero refits) after abort()+restart, a histogram-vs-exact-trace p99
# agreement, and a deterministic SLO fast-burn page from the laggy
# tenant. The observability endpoints and incident files are checked
# in-process by the telemetry and fleet test suites above. The binary
# also gates the tracing overhead probe at ±30%. It writes
# nothing under results/: checkpoints and the page's incident file go to
# a per-run temp dir.
VOLTSENSE_FLEET_SESSIONS=64 VOLTSENSE_FLEET_FRAMES=10000 \
    cargo run --release --offline -p voltsense-bench --bin fleet_soak

echo "CI gate passed."
