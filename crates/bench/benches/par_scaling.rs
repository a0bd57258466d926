//! T16 — data-parallel evaluation over the arena store (`xq_core::par`,
//! `xq_stream::stream_query`): the cross-join `for`-nests of the
//! doubling families evaluated at 1/2/4 worker threads, plus the planner
//! shapes (`Seq`-of-`for`s, nested `for`s, and a body mentioning `$root`
//! beside its loop variable). Each query compiles once, outside the timed
//! loop, so every row runs the VM: sequentially at 1 thread, sharded
//! above. The harness binary prints the corresponding tables (and
//! `--json` emits them machine-readably); this target keeps the workloads
//! compiling and timeable under `cargo bench`.
//!
//! Note: wall-clock *speedup* from the threaded rows needs actual cores —
//! on a single-core container the 2/4-thread rows measure overhead only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cv_xtree::DoublingFamily;
use xq_bench::{par_workload, planner_workloads, stream_workload};
use xq_core::{compile_query, eval_compiled_par, Budget, Threads};

/// Bench-sized instances (the harness sweeps larger ones).
const FAMILIES: [(DoublingFamily, u32); 3] = [
    (DoublingFamily::Binary, 9),
    (DoublingFamily::Wide, 10),
    (DoublingFamily::Comb, 8),
];

fn bench_eval_par(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/eval");
    for (family, n) in FAMILIES {
        let doc = family.arena(n);
        let plan = compile_query(&par_workload(family));
        for threads in [1usize, 2, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            g.bench_function(format!("{family}-n{n}-t{threads}"), |b| {
                b.iter(|| black_box(eval_compiled_par(&plan, &doc, budget.clone()).unwrap()))
            });
        }
    }
    g.finish();
}

fn bench_stream_par(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/stream");
    let (family, n) = FAMILIES[0];
    let doc = family.arena(n);
    let q = stream_workload(family);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("{family}-n{n}-t{threads}"), |b| {
            let cfg = xq_stream::StreamConfig {
                threads,
                ..xq_stream::StreamConfig::buffered(u64::MAX)
            };
            b.iter(|| black_box(xq_stream::stream_query(&q, &doc, cfg).unwrap()))
        });
    }
    g.finish();
}

/// The planner shapes at 1/4 threads: `seq-of-fors` and `nested-for`
/// shard beyond a lone outer `for`; `root-share`'s body reads `$root`,
/// which every worker resolves to the document's root id.
fn bench_planner_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/planner");
    let (family, n) = FAMILIES[0];
    let doc = family.arena(n);
    for (name, q) in planner_workloads(family) {
        let plan = compile_query(&q);
        for threads in [1usize, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            g.bench_function(format!("{name}-{family}-n{n}-t{threads}"), |b| {
                b.iter(|| black_box(eval_compiled_par(&plan, &doc, budget.clone()).unwrap()))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_eval_par,
    bench_stream_par,
    bench_planner_shapes
);
criterion_main!(benches);
