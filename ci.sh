#!/bin/sh
# Tier-1 verification, fully offline.
#
# --offline makes any attempt to reach crates.io a hard error, enforcing the
# zero-dependency policy (see README): the workspace must build and test from
# the repository alone, with an empty registry cache and no network.
set -eu

cd "$(dirname "$0")"

# Hang guard: every step that runs the simulator (tests, experiments, the
# benchmark) runs under coreutils `timeout -k 30 1800`, so a deadlocked
# engine (a thread stuck waiting for a round that never comes) fails CI
# instead of stalling it. The 30-minute limit is per step and generous:
# the slowest step takes a few minutes on a 2-core host. `-k 30` follows
# the TERM with a KILL if the step ignores it.

cargo build --release --offline

# Every perfbench build rewrites perfbench/Cargo.lock (it still lists
# dependencies the workspace crates dropped), and the benchmark's files must
# stay as committed. Keep the committed bytes aside before the first
# perfbench build and put them back when the script exits, whether the last
# perfbench step passed or any step failed.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
restore_perfbench_lock() {
    cp "$perfbench_lock" perfbench/Cargo.lock
    rm -f "$perfbench_lock"
}
trap restore_perfbench_lock EXIT
trap 'exit 130' INT TERM HUP

# The repo benchmark (perfbench/) is its own workspace, so the build above
# never compiles it: build it explicitly, so an API change that breaks the
# benchmark fails here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Clippy gate: every target of the workspace (libs, bins, tests, benches,
# examples) must be free of clippy warnings.
cargo clippy --release --offline --workspace --all-targets -- -D warnings

# Rustdoc gate: the workspace docs must build without a warning, so a
# broken or private intra-doc link fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Static analysis first: simlint (crates/lintkit) enforces the
# determinism, zero-dependency, and shard-safety invariants; exit 1 on any
# violation. The second invocation smoke-tests the machine-readable output
# consumed by external tooling (same exit codes, JSON on stdout).
cargo run -p lintkit --release --offline
cargo run -q -p lintkit --release --offline -- --json > /dev/null

timeout -k 30 1800 cargo test -q --offline

# shardsan smoke: the runtime shard-ownership sanitizer only compiles in
# debug builds (cargo test's default profile). Drive the sharded engine
# with every ownership check live at a parallel worker count: the injected
# cross-shard mutation must panic with both shard ids, and the clean run
# must stay thread-invariant. (Seed 101 is baked into the test.)
SMARTDS_THREADS=4 timeout -k 30 1800 cargo test -q --offline -p system-tests --test shardsan

# Thread matrix: the sharded engine must produce identical results at any
# worker count (golden.rs also pins 1/2/4/8 explicitly). Running the whole
# tier-1 suite under both a serial and a parallel default catches any test
# that accidentally depends on the engine's thread count via the
# SMARTDS_THREADS environment path rather than an explicit override.
SMARTDS_THREADS=1 timeout -k 30 1800 cargo test -q --offline -p system-tests
SMARTDS_THREADS=4 timeout -k 30 1800 cargo test -q --offline -p system-tests

# Chaos suite under two fixed storm seeds: each run asserts the generated
# fault schedule replays byte-identically and corrupts nothing (the other
# scenarios in the suite are seed-independent and simply run twice).
SMARTDS_CHAOS_SEED=101 timeout -k 30 1800 cargo test -q --offline -p system-tests --test faults
SMARTDS_CHAOS_SEED=202 timeout -k 30 1800 cargo test -q --offline -p system-tests --test faults

# Tracing contract under a pinned seed: a traced chaos workload must export
# a Chrome trace that replays byte-identically, round-trips through the
# in-repo JSON parser, is non-empty, and has balanced (open == close) spans.
SMARTDS_CHAOS_SEED=303 timeout -k 30 1800 cargo test -q --offline -p system-tests --test tracing

# Multi-tenant QoS example: three tenants in their own traffic classes,
# each class policed to a different rate by admission control. The
# example asserts every tenant lands within 15 % of its contract, so a
# broken rate policy fails here.
timeout -k 30 1800 cargo run -q -p smartds-examples --release --offline --bin tenants

# Rack-scale smoke, quick profile: the fabric topology + open-loop tenant
# generator + admission-control path end-to-end at a pinned seed, on 4
# worker threads (the outcome is thread-invariant — golden.rs pins the
# bytes; this run proves the experiment itself stays healthy offline).
# Appends the per-class rows to BENCH_PERF.quick.json next to the perf
# snapshot below.
SMARTDS_THREADS=4 timeout -k 30 1800 cargo run -q -p smartds-bench --release --offline --bin experiments -- scale --quick

# Data-services smoke, quick profile: the sealed byte path (dedup +
# encryption + cache/prefetch) swept over corpus mixes × placements on 4
# worker threads (outcome thread-invariant — the services golden fixture
# pins the bytes; this proves the sweep itself stays healthy offline).
# Merges a services array into BENCH_PERF.quick.json beside the scale rows.
SMARTDS_THREADS=4 timeout -k 30 1800 cargo run -q -p smartds-bench --release --offline --bin experiments -- services --quick

# Simulator perf snapshot, quick profile, report-only: prints the dense
# sweep at 1/2/4/8 worker threads (identical simulated outcomes, wall time
# scaling with the host's real parallelism) and writes BENCH_PERF.quick.json
# (untracked scratch — the committed BENCH_PERF.json baseline is
# full-profile only) so every CI log carries a throughput + scaling
# reference. No wall-clock assertion here — hosts differ; the deterministic
# events-budget gate lives in `system-tests --test perf_budget` (part of
# `cargo test` above).
timeout -k 30 1800 cargo run -q -p smartds-bench --release --offline --bin experiments -- perf --quick

# Report-only perf drift check: compare the quick snapshot just written
# against the committed full-profile BENCH_PERF.json, warning (never
# failing) when a workload's events/sec fell >20% below the baseline.
# Hosts and profiles differ, so this is a prompt to investigate, not a
# gate; the deterministic events/allocation budgets above are the gates.
timeout -k 30 1800 cargo run -q -p smartds-bench --release --offline --bin experiments -- perf-diff

# Benchmark correctness smoke: one short repetition of every perfbench
# workload with tracing off. perfbench exits non-zero when any of its
# determinism, stored-data audit or thread-match checks fails; the
# timings it prints are report-only here.
timeout -k 30 1800 cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 7 --seconds 1 --trace 0

# Traced per-layer smoke: one short repetition of every workload with the
# per-layer counters on (`--trace 1`), so the layer ledger perf changes
# quote (engine.ns_per_event, engine.sync_rounds, fluid.epochs, …) stays
# runnable. Report-only like the run above; a failed check still exits
# non-zero.
timeout -k 30 1800 cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 7 --seconds 1 --trace 1
