//! T16/T17 — data-parallel evaluation over the arena store
//! (`xq_core::par`, `xq_stream::stream_query`): the cross-join
//! `for`-nests of the doubling families evaluated at 1/2/4 worker
//! threads, the planner shapes (`Seq`-of-`for`s, nested `for`s, and a
//! `$root`-sharing body exercising the build-once root materialization),
//! the two merge disciplines (retired resolve+reparse vs `IToken`
//! splice), plus the indexed-vs-linear `Env::lookup` contrast on a deep
//! `for`-nest environment. The harness binary prints the corresponding
//! tables (and `--json` emits them machine-readably); this target keeps
//! the workloads compiling and timeable under `cargo bench`.
//!
//! Note: wall-clock *speedup* from the threaded rows needs actual cores —
//! on a single-core container the 2/4-thread rows measure overhead only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cv_xtree::{DoublingFamily, Tree};
use xq_bench::{par_workload, planner_workloads, stream_workload, ENV_NEST_DEPTH};
use xq_core::{eval_query_par, Budget, Env, Threads, Var};

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
        let q = par_workload(family);
        for threads in [1usize, 2, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            g.bench_function(format!("{family}-n{n}-t{threads}"), |b| {
                b.iter(|| black_box(eval_query_par(&q, &doc, budget.clone()).unwrap()))
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

/// The T17 planner shapes at 1/4 threads: `seq-of-fors` and `nested-for`
/// are coverage the PR 4 `outer_for_split` path ran sequentially;
/// `root-share` has a `$root`-referencing body, so its 4-thread row
/// exercises the build-once root materialization (the satellite fix —
/// previously each of the 4 workers rebuilt the full tree; the 1-thread
/// row, which pays one build either way, is the baseline for that win).
fn bench_planner_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/planner");
    let (family, n) = FAMILIES[0];
    let doc = family.arena(n);
    for (name, q) in planner_workloads(family) {
        for threads in [1usize, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            g.bench_function(format!("{name}-{family}-n{n}-t{threads}"), |b| {
                b.iter(|| black_box(eval_query_par(&q, &doc, budget.clone()).unwrap()))
            });
        }
    }
    g.finish();
}

/// The root-tree materialization a worker used to repeat: at `t4` the old
/// code paid this 4×, the new code once — this row prices the saving.
fn bench_root_materialization(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/root-share");
    let (family, n) = FAMILIES[0];
    let doc = family.arena(n);
    g.bench_function(format!("to_tree-{family}-n{n}"), |b| {
        b.iter(|| black_box(doc.to_tree()))
    });
    g.finish();
}

/// The merge disciplines: the retired `resolve_tokens` →
/// `forest_from_tokens` rebuild vs the `forest_from_itokens` splice, on a
/// 4-worker-shaped result buffer.
fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/merge");
    let doc = DoublingFamily::Wide.arena(10);
    let one = cv_xtree::intern_tokens(&doc.tokens());
    let mut itokens = Vec::with_capacity(4 * one.len());
    for _ in 0..4 {
        itokens.extend_from_slice(&one);
    }
    g.bench_function(format!("resolve-reparse-{}tok", itokens.len()), |b| {
        b.iter(|| {
            let tokens = cv_xtree::resolve_tokens(&itokens);
            black_box(Tree::forest_from_tokens(&tokens).unwrap())
        })
    });
    g.bench_function(format!("itoken-splice-{}tok", itokens.len()), |b| {
        b.iter(|| black_box(cv_xtree::forest_from_itokens(&itokens).unwrap()))
    });
    g.finish();
}

/// The deep-`for`-nest environment: `ENV_NEST_DEPTH` live bindings, the
/// referenced variable bound outermost (the linear scan's worst case).
fn bench_env_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("par_scaling/env-lookup");
    let mut env = Env::new();
    env.bind(Var::root(), Tree::leaf("doc"));
    for i in 0..ENV_NEST_DEPTH {
        env.bind(Var::new(format!("v{i}")), Tree::leaf("x"));
    }
    let root = Var::root();
    g.bench_function(format!("indexed-depth{ENV_NEST_DEPTH}"), |b| {
        b.iter(|| black_box(env.lookup(&root).is_some()))
    });
    g.bench_function(format!("linear-depth{ENV_NEST_DEPTH}"), |b| {
        b.iter(|| black_box(env.lookup_linear(&root).is_some()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_eval_par,
    bench_stream_par,
    bench_planner_shapes,
    bench_root_materialization,
    bench_merge,
    bench_env_lookup
);
criterion_main!(benches);
