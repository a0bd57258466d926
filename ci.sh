#!/usr/bin/env bash
# The full CI gate. Run from the repository root; exits nonzero on the
# first failing step. GitHub Actions (.github/workflows/ci.yml) runs this
# same script so local and hosted CI cannot drift.
set -euo pipefail

step() { printf '\n=== %s\n' "$*"; }

# Most differential suites run twice: as is, then with XQ_THREADS=4 so a
# >1 thread knob is exercised. Each `for e in "${TWICE[@]}"` loop below
# is one such pair; `env $e` expands to no assignment on the first pass.
TWICE=("" "XQ_THREADS=4")

step "cargo build --release"
cargo build --release

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo test -q --workspace"
cargo test -q --workspace

# The data-parallel surface: par_diff sweeps 1/2/4/8 worker threads (plus
# whatever XQ_THREADS resolves to) on both parallel engines — the one
# materializing engine (eval_compiled_par, every plan piece on the VM)
# against Figure 1, and stream_query against its sequential run —
# including the planner suites (Seq-of-fors, nested fors, let-hoisted and
# where-filtered sources, and the parallelized⇒byte-identical property);
# the interner concurrency smoke test hammers the sharded global
# table from 8 threads. Run once more with XQ_THREADS=4 so the sweep
# covers that thread count explicitly. CI sets XQ_RANDOM_CASES=16;
# default to it here so local runs stay quick too.
step "parallel + planner suites (par_diff, plan, interner_threads; XQ_THREADS=4)"
for e in "${TWICE[@]}"; do
    env $e XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test par_diff
done
cargo test -q -p xq_core --lib plan
cargo test -q -p cv_xtree --test interner_threads

# The bytecode-VM surface: vm_diff proves interpreter, fresh plans, and
# warm cache hits byte- and counter-identical on the seeded coverage
# corpus, and the sharded VM (eval_compiled_par at 1/2/4/8 threads)
# byte-identical to Figure 1; vm_golden pins the disassembly listings; plan_cache_threads
# hammers the lock-striped plan store from 8 threads; vm_alloc is the
# allocation guard (a counting global allocator: after a warm run, a
# constructor loop and the heavy-eval text allocate as often on a
# 400-node document as on a 40-node one), run in debug and release.
# Run again with XQ_THREADS=4 so the parallel entry point is exercised
# at that thread count too.
step "bytecode VM suites (vm_diff, vm_golden, vm_alloc, plan_cache_threads; XQ_THREADS=4)"
for e in "${TWICE[@]}"; do
    env $e XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test vm_diff
    env $e cargo test -q -p xq_core --test vm_golden
done
cargo test -q -p xq_core --test plan_cache_threads
cargo test -q --release -p xq_core --test vm_alloc

# The streaming cursor-core surface: cursor_diff checks stream_query
# byte-identical to the Figure 1 interpreter under the lazy, buffered,
# cap-1, 2-thread and 4-thread configurations, compares its counters
# (pulls, recomputations, peak_live_cursors, tokens_out, workers,
# buffered_sources) and the 4-thread pull-budget sweep against
# tests/golden/cursor_counters.golden, asserts every sequential
# configuration fails with Budget below its own pull count and succeeds
# identically at it, and checks stream_boolean's verdicts against
# Figure 1. Run again with XQ_THREADS=4 (the golden file is the same for
# both passes).
step "streaming cursor suites (cursor_diff; XQ_THREADS=4)"
for e in "${TWICE[@]}"; do
    env $e XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_stream --test cursor_diff
done

# The serving surface: cancel_diff proves cancel-at-tick-k ≡ budget-cap-k
# across both engines (and that an untripped flag is byte-invisible);
# the xq_server package runs the protocol golden + malformed-frame fuzz
# + duplicate-id suite (proto), the bounded-queue / exact-shedding /
# no-lost-responses socket suite (load_shed), the token-bucket suite
# (rate_limit), the graceful-shutdown suite (drain), the pinned-seed
# chaos soak (chaos: injected worker panics, dropped completions, and
# refusals — zero lost or duplicated responses, pool self-healing),
# the backpressure + idle-timeout suite (pressure), the fault-spec
# environment gate (fault_env), the inline-route suite (inline: first
# sightings probed on the reactor, heavy pairs escalated once and then
# pooled, the `escalated` counter, seeded fault draws identical whether
# a request is served inline, escalated or pooled), and the protocol +
# epoll-binding + timer-wheel unit tests — all against the
# readiness-driven reactor front door. (The probe's cost records are
# checked against the pool's in xq_core's cost_record suite, and the
# step-cap sweep, long-answer escalation and `=deep` tree-comparison
# flag in the service and compile unit tests, all run by the workspace
# test step above.) The supervision suite drives the unwind fence, restart
# budget, and RAII gauge contracts on the pool directly. Run again with
# XQ_THREADS=4 so cancellation, the socket path, and the chaos soak are
# exercised through the parallel entry points.
step "serving suites (cancel_diff, supervision, xq_server; XQ_THREADS=4)"
for e in "${TWICE[@]}"; do
    env $e XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test cancel_diff
    env $e cargo test -q -p xq_core --test supervision
    env $e cargo test -q -p xq_server
done

# The serving benchmark (servebench/, a package outside the workspace that
# BENCHMARK.json runs) has its own tests: workload generation, the
# fastest-quarter estimator, the report format and the per-layer trace.
step "servebench tests (cargo test --release --manifest-path servebench/Cargo.toml)"
cargo test --release --offline --manifest-path servebench/Cargo.toml

# The machine-readable experiment tables: T16 parallel scaling, T17
# planner coverage, T18 VM vs interpreter, T19 network serving, T20
# connection scaling, T21 chaos soak. Each table checks itself as it
# runs. They are written under target/bench-tables/ (CI uploads them from
# there), so a CI run leaves the committed BENCH_T*.json at the root
# alone; regenerate those on purpose with the harness command in the
# README.
TABLES=target/bench-tables
mkdir -p "$TABLES"
for t in 16 17 18 19 20 21; do
    step "T$t harness table (machine-readable: $TABLES/BENCH_T$t.json)"
    cargo run --release -p xq_bench --bin harness -- --only "t$t" --json "$TABLES/BENCH_T$t.json" > /dev/null
done

step "cargo bench --no-run --workspace (bench targets must compile)"
# --workspace matters: from the root, plain `cargo bench` only builds the
# umbrella package's benches and would skip every xq_bench target.
cargo bench --no-run --workspace

# Twice: the public pass catches public docs linking to private items,
# the private pass checks the links in crate-internal docs too.
step "cargo doc --no-deps --workspace, public and private items (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items --workspace

step "examples"
for ex in quickstart monad_algebra_tour composition_elimination complexity_frontier; do
    echo "--- cargo run --release --example $ex"
    cargo run --release --example "$ex" > /dev/null
done

step "cargo fmt --check"
cargo fmt --check

echo
echo "CI green."
