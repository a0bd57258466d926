//! T15 — the arena document store vs the `Rc` tree (`cv_xtree::arena`):
//! document build, descendant-axis scan, and tokenization of the
//! doubling-family documents. The harness binary prints the
//! corresponding table; this target keeps the workload compiling and
//! timeable under `cargo bench`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cv_xtree::{Axis, DoublingFamily, NodeTest, Tree};

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena_vs_rc/build");
    for (family, n) in [
        (DoublingFamily::Binary, 12u32),
        (DoublingFamily::Wide, 13),
        (DoublingFamily::Comb, 10),
    ] {
        g.bench_function(format!("{family}-n{n}-tree"), |b| {
            b.iter(|| black_box(family.tree(n)))
        });
        g.bench_function(format!("{family}-n{n}-arena"), |b| {
            b.iter(|| black_box(family.arena(n)))
        });
    }
    g.finish();
}

fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena_vs_rc/parse");
    let xml = DoublingFamily::Binary.tree(12).to_xml();
    g.bench_function("binary-n12-parse-tree", |b| {
        b.iter(|| black_box(cv_xtree::parse_tree(&xml).unwrap()))
    });
    g.bench_function("binary-n12-parse-arena", |b| {
        b.iter(|| black_box(cv_xtree::ArenaDoc::parse(&xml).unwrap()))
    });
    g.finish();
}

fn bench_axis_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena_vs_rc/axis-scan");
    for (family, n) in [(DoublingFamily::Binary, 12u32), (DoublingFamily::Wide, 13)] {
        let tree = family.tree(n);
        let arena = family.arena(n);
        let test = NodeTest::tag("a");
        g.bench_function(format!("{family}-n{n}-tree"), |b| {
            b.iter(|| {
                let hits = tree
                    .axis(Axis::Descendant)
                    .into_iter()
                    .filter(|t| test.matches(t.label()))
                    .count();
                black_box(hits)
            })
        });
        g.bench_function(format!("{family}-n{n}-arena"), |b| {
            b.iter(|| black_box(arena.axis(arena.root(), Axis::Descendant, &test).len()))
        });
    }
    g.finish();
}

fn bench_tokenize(c: &mut Criterion) {
    let mut g = c.benchmark_group("arena_vs_rc/tokenize");
    let tree: Tree = DoublingFamily::Binary.tree(7);
    let arena = DoublingFamily::Binary.arena(7);
    g.bench_function("binary-n7-tree", |b| b.iter(|| black_box(tree.tokens())));
    g.bench_function("binary-n7-arena", |b| b.iter(|| black_box(arena.tokens())));
    g.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_parse,
    bench_axis_scan,
    bench_tokenize
);
criterion_main!(benches);
