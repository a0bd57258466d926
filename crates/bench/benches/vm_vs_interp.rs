//! T18: the bytecode VM and plan cache against the Figure 1 interpreter.
//!
//! Three costs on the hot service query, one fixed-seed document:
//!
//! * per-evaluation latency — pre-parsed interpreter vs compiled plan
//!   (the pure engine delta, `vm_diff` proves them identical);
//! * the per-request front end the cache removes — parse + eval vs a
//!   warm `PlanCache` hit + exec;
//! * the one-time costs the cache amortizes — parse, compile, and a
//!   cold `get_or_compile`;
//! * the serving benchmark's `heavy-eval` cross-join
//!   (`<r>{ par_workload(Binary) }</r>` on Binary depth 8), where
//!   evaluation is nearly the whole request and the VM's borrowed axis
//!   scans and fused quantifier loop do the work.
//!
//! The VM runs over the arena document (the served route); the
//! interpreter over the same document as a tree.

use criterion::{criterion_group, criterion_main, Criterion};
use cv_xtree::{random_tree, ArenaDoc, DoublingFamily, TreeGen};
use xq_core::vm::{compile_query, exec_doc, PlanCache};
use xq_core::{eval_with, parse_query, Budget, Env, Query};

const QUERY: &str = "for $x in $root//a return <w>{ $x/* }</w>";

fn bench_engines(c: &mut Criterion) {
    let q = parse_query(QUERY).unwrap();
    let plan = compile_query(&q);
    let mut g = TreeGen::new(7);
    let doc = random_tree(&mut g, 200, &["a", "b", "k"]);
    let arena = ArenaDoc::from_tree(&doc);
    let env = Env::with_root(doc);
    let budget = Budget::default();

    let mut group = c.benchmark_group("vm_vs_interp");
    group.sample_size(30);
    group.bench_function("interp_eval", |b| {
        b.iter(|| eval_with(&q, &env, budget.clone()).unwrap())
    });
    group.bench_function("vm_exec", |b| {
        b.iter(|| exec_doc(&plan, &arena, budget.clone()).unwrap())
    });
    group.bench_function("interp_parse_then_eval", |b| {
        b.iter(|| {
            let q = parse_query(QUERY).unwrap();
            eval_with(&q, &env, budget.clone()).unwrap()
        })
    });
    let cache = PlanCache::new();
    cache.get_or_compile(QUERY).unwrap();
    group.bench_function("vm_warm_cache_then_exec", |b| {
        b.iter(|| {
            let plan = cache.get_or_compile(QUERY).unwrap();
            exec_doc(&plan, &arena, budget.clone()).unwrap()
        })
    });
    group.bench_function("parse", |b| b.iter(|| parse_query(QUERY).unwrap()));
    group.bench_function("compile", |b| b.iter(|| compile_query(&q)));
    group.bench_function("cold_get_or_compile", |b| {
        b.iter(|| PlanCache::new().get_or_compile(QUERY).unwrap())
    });
    group.finish();
}

fn bench_heavy_eval(c: &mut Criterion) {
    let q = Query::elem("r", xq_bench::par_workload(DoublingFamily::Binary));
    let plan = compile_query(&q);
    let env = Env::with_root(DoublingFamily::Binary.tree(8));
    let arena = DoublingFamily::Binary.arena(8);
    let budget = Budget::default();

    let mut group = c.benchmark_group("vm_vs_interp/heavy_eval");
    group.sample_size(10);
    group.bench_function("interp_eval", |b| {
        b.iter(|| eval_with(&q, &env, budget.clone()).unwrap())
    });
    group.bench_function("vm_exec_arena", |b| {
        b.iter(|| exec_doc(&plan, &arena, budget.clone()).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_engines, bench_heavy_eval);
criterion_main!(benches);
