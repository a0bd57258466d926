//! T14: the `cv_monad::opt` pass and the `xq_stream` buffered fast path
//! against their naive baselines.
//!
//! * Example 2.4 derived difference: naive derived evaluation vs the
//!   optimized (rewritten-to-builtin) plan vs the built-in `Diff` — the
//!   acceptance bar is optimized within ≤3× of the built-in.
//! * The Theorem 4.5 doubling family at n = 4: lazy streaming vs the
//!   buffered fast path vs full materialization.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cv_monad::{eval, opt, CollectionKind};
use cv_xtree::{parse_tree, ArenaDoc};
use xq_bench::{diff_workload, doubling_query};
use xq_stream::StreamConfig;

fn bench_diff(c: &mut Criterion) {
    let (derived, builtin, input) = diff_workload();
    let (optimized, _) = opt::optimize(&derived, CollectionKind::Set);
    let mut g = c.benchmark_group("opt_vs_naive");
    g.sample_size(20);
    g.bench_function("diff_naive_derived", |b| {
        b.iter(|| eval(&derived, CollectionKind::Set, &input).unwrap())
    });
    g.bench_function("diff_optimized_plan", |b| {
        b.iter(|| eval(&optimized, CollectionKind::Set, &input).unwrap())
    });
    g.bench_function("diff_builtin", |b| {
        b.iter(|| eval(&builtin, CollectionKind::Set, &input).unwrap())
    });
    // The cost of running the pass itself (plan-once, run-many).
    g.bench_function("optimize_pass_on_derived_diff", |b| {
        b.iter(|| opt::optimize(&derived, CollectionKind::Set))
    });
    g.finish();
}

fn bench_stream(c: &mut Criterion) {
    let t = parse_tree("<r/>").unwrap();
    let doc = ArenaDoc::from_tree(&t);
    let (lazy, buffered) = (
        StreamConfig::lazy(u64::MAX),
        StreamConfig::buffered(u64::MAX),
    );
    let mut g = c.benchmark_group("opt_vs_naive");
    g.sample_size(10);
    for n in [2usize, 4] {
        let q = doubling_query(n);
        g.bench_with_input(BenchmarkId::new("stream_lazy", n), &q, |b, q| {
            b.iter(|| xq_stream::stream_query(q, &doc, lazy).unwrap().1)
        });
        g.bench_with_input(BenchmarkId::new("stream_buffered", n), &q, |b, q| {
            b.iter(|| xq_stream::stream_query(q, &doc, buffered).unwrap().1)
        });
        g.bench_with_input(BenchmarkId::new("materializing", n), &q, |b, q| {
            b.iter(|| xq_core::eval_query(q, &t).unwrap().len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_diff, bench_stream);
criterion_main!(benches);
