#!/usr/bin/env bash
# The full CI gate. Run from the repository root; exits nonzero on the
# first failing step. GitHub Actions (.github/workflows/ci.yml) runs this
# same script so local and hosted CI cannot drift.
set -euo pipefail

step() { printf '\n=== %s\n' "$*"; }

step "cargo build --release"
cargo build --release

step "cargo test -q --workspace"
cargo test -q --workspace

# The arena-vs-Rc differential surface beyond the workspace pass (which
# already runs arena_diff with XQ_ARENA unset): XQ_ARENA=1 reroutes the
# agreement suites' document loading through the arena store (see
# xq_core::doc). CI sets XQ_RANDOM_CASES=16; default to it here so local
# runs stay quick too.
step "agreement suites with XQ_ARENA=1"
XQ_ARENA=1 XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" \
    cargo test -q -p xq_core --test random_queries
XQ_ARENA=1 cargo test -q -p xq_complexity --test engine_agreement

# The data-parallel surface: par_diff sweeps 1/2/4/8 worker threads (plus
# whatever XQ_THREADS resolves to) on both parallel engines — including
# the planner suites (Seq-of-fors, nested fors, let-hoisted and
# where-filtered sources, and the parallelized⇒byte-identical property) —
# and the interner concurrency smoke test hammers the sharded global
# table from 8 threads. Run once more with XQ_ARENA=1 + XQ_THREADS=4 so
# the arena document store and a >1 thread knob are exercised together
# (par_diff's corpus documents route through DocRepr, so XQ_ARENA=1
# re-runs every planner shape on arena-loaded documents).
step "parallel + planner suites (par_diff, plan, interner_threads; XQ_ARENA=1 XQ_THREADS=4)"
XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test par_diff
XQ_ARENA=1 XQ_THREADS=4 XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" \
    cargo test -q -p xq_core --test par_diff
cargo test -q -p xq_core --lib plan
cargo test -q -p cv_xtree --test interner_threads

# The bytecode-VM surface: vm_diff proves interpreter, fresh plans, and
# warm cache hits byte- and counter-identical on the seeded coverage
# corpus; vm_golden pins the disassembly listings; plan_cache_threads
# hammers the lock-striped plan store from 8 threads. Run again with
# XQ_ARENA=1 + XQ_THREADS=4 so arena documents and the parallel entry
# points are exercised through compiled plans too.
step "bytecode VM suites (vm_diff, vm_golden, plan_cache_threads; XQ_ARENA=1 XQ_THREADS=4)"
XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test vm_diff
XQ_ARENA=1 XQ_THREADS=4 XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" \
    cargo test -q -p xq_core --test vm_diff
cargo test -q -p xq_core --test vm_golden
XQ_ARENA=1 XQ_THREADS=4 cargo test -q -p xq_core --test vm_golden
cargo test -q -p xq_core --test plan_cache_threads

# The streaming cursor-core surface: cursor_diff locks the refactored
# one-pipeline engine byte- and counter-identical (pulls, recomputations,
# peak_live_cursors, tokens_out, workers; errors at exact points under a
# pull-budget sweep) to the frozen pre-refactor engine
# (xq_bench::legacy_stream) on all four stream_query* entry points, and
# byte-identical to the Figure 1 interpreter. Run again with XQ_ARENA=1 +
# XQ_THREADS=4 so the corpus documents route through the arena store and
# the parallel sweep picks up the CI thread knob.
step "streaming cursor suites (cursor_diff; XQ_ARENA=1 XQ_THREADS=4)"
XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_stream --test cursor_diff
XQ_ARENA=1 XQ_THREADS=4 XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" \
    cargo test -q -p xq_stream --test cursor_diff

# The serving surface: cancel_diff proves cancel-at-tick-k ≡ budget-cap-k
# across both engines (and that an untripped flag is byte-invisible);
# the xq_server package runs the protocol golden + malformed-frame fuzz
# + duplicate-id suite (proto), the bounded-queue / exact-shedding /
# no-lost-responses socket suite (load_shed), the token-bucket suite
# (rate_limit), the graceful-shutdown suite (drain), the pinned-seed
# chaos soak (chaos: injected worker panics, dropped completions, and
# refusals — zero lost or duplicated responses, pool self-healing),
# the backpressure + idle-timeout suite (pressure), the fault-spec
# environment gate (fault_env), and the protocol + epoll-binding +
# timer-wheel unit tests — all against the readiness-driven reactor
# front door. The supervision suite drives the unwind fence, restart
# budget, and RAII gauge contracts on the pool directly. Run again with
# XQ_ARENA=1 + XQ_THREADS=4 so cancellation, the socket path, and the
# chaos soak are exercised over arena documents and the parallel entry
# points.
step "serving suites (cancel_diff, supervision, xq_server; XQ_ARENA=1 XQ_THREADS=4)"
XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" cargo test -q -p xq_core --test cancel_diff
XQ_ARENA=1 XQ_THREADS=4 XQ_RANDOM_CASES="${XQ_RANDOM_CASES:-16}" \
    cargo test -q -p xq_core --test cancel_diff
cargo test -q -p xq_core --test supervision
XQ_ARENA=1 XQ_THREADS=4 cargo test -q -p xq_core --test supervision
cargo test -q -p xq_server
XQ_ARENA=1 XQ_THREADS=4 cargo test -q -p xq_server

# The serving benchmark (servebench/, a package outside the workspace that
# BENCHMARK.json runs) has its own tests: workload generation, the
# fastest-quarter estimator, the report format and the per-layer trace.
step "servebench tests (cargo test --release --manifest-path servebench/Cargo.toml)"
cargo test --release --offline --manifest-path servebench/Cargo.toml

step "T16 parallel-scaling table (machine-readable: BENCH_T16.json)"
cargo run --release -p xq_bench --bin harness -- --only t16 --json BENCH_T16.json > /dev/null

step "T17 planner-coverage table (machine-readable: BENCH_T17.json)"
cargo run --release -p xq_bench --bin harness -- --only t17 --json BENCH_T17.json > /dev/null

step "T18 VM-vs-interpreter table (machine-readable: BENCH_T18.json)"
cargo run --release -p xq_bench --bin harness -- --only t18 --json BENCH_T18.json > /dev/null

step "T19 network-serving table (machine-readable: BENCH_T19.json)"
cargo run --release -p xq_bench --bin harness -- --only t19 --json BENCH_T19.json > /dev/null

step "T20 connection-scaling table (machine-readable: BENCH_T20.json)"
cargo run --release -p xq_bench --bin harness -- --only t20 --json BENCH_T20.json > /dev/null

step "T21 chaos-soak table (machine-readable: BENCH_T21.json)"
cargo run --release -p xq_bench --bin harness -- --only t21 --json BENCH_T21.json > /dev/null

step "T22 cursor-core table (machine-readable: BENCH_T22.json)"
cargo run --release -p xq_bench --bin harness -- --only t22 --json BENCH_T22.json > /dev/null

step "cargo bench --no-run --workspace (bench targets must compile)"
# --workspace matters: from the root, plain `cargo bench` only builds the
# umbrella package's benches and would skip every xq_bench target.
cargo bench --no-run --workspace

step "cargo doc --no-deps --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "examples"
for ex in quickstart monad_algebra_tour composition_elimination complexity_frontier; do
    echo "--- cargo run --release --example $ex"
    cargo run --release --example "$ex" > /dev/null
done

step "cargo fmt --check"
cargo fmt --check

echo
echo "CI green."
