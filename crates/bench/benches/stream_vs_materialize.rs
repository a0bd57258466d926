//! E4 (Thm 4.5): streaming evaluation has small live state while the
//! materializing evaluator's footprint tracks the (exponential) output.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cv_xtree::{parse_tree, ArenaDoc};
use xq_bench::doubling_query;

fn bench(c: &mut Criterion) {
    let t = parse_tree("<r/>").unwrap();
    let doc = ArenaDoc::from_tree(&t);
    let lazy = xq_stream::StreamConfig::lazy(u64::MAX);
    let mut g = c.benchmark_group("stream_vs_materialize");
    g.sample_size(10);
    for n in [2usize, 4] {
        let q = doubling_query(n);
        g.bench_with_input(BenchmarkId::new("materializing", n), &q, |b, q| {
            b.iter(|| xq_core::eval_query(q, &t).unwrap().len())
        });
        g.bench_with_input(BenchmarkId::new("streaming", n), &q, |b, q| {
            b.iter(|| xq_stream::stream_query(q, &doc, lazy).unwrap().1)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
