//! The VM differential suite: every query of the seeded T17 coverage
//! corpus (`xq_bench::coverage_corpus`, the `par_diff.rs` grammar drawn
//! from a fixed splitmix64 stream) must evaluate **identically** on
//!
//! * the Figure 1 interpreter (`eval_with`),
//! * a freshly compiled plan on the bytecode VM over the arena document
//!   (`exec_doc`, the served route), and
//! * a warm [`PlanCache`] hit (same plan `Arc`, re-executed),
//!
//! down to the bytes of the result, the `EvalStats` counters (`steps`,
//! `items`, `max_env_depth`), and — under tightened budgets — the exact
//! error at the exact point. Counter equality is the strong form of the
//! contract: the VM does not merely agree on answers, it charges the
//! budget at the same instants, so budget-exhaustion behaviour is
//! engine-independent.
//!
//! The suite also pins the compile layer itself: `Display` output
//! round-trips through the parser (so text-keyed caching is faithful),
//! compilation is deterministic, and the baked `par_hint` is sound with
//! respect to the planner (`ParPlan::engages ⟹ par_hint`). The parallel
//! entry point (`eval_compiled_par`, the sharded VM) is compared with
//! Figure 1 at 1/2/4/8 threads on arena documents.
//!
//! `XQ_RANDOM_CASES` scales the corpus (CI pins 16; local default 64).
//! The `#[ignore]`d full-size variant (weekly `scheduled.yml` run)
//! sweeps bigger documents plus the doubling families over a 256-query
//! corpus.

use std::sync::Arc;

use cv_xtree::{random_tree, ArenaDoc, DoublingFamily, Tree, TreeGen};
use xq_core::ast::Query;
use xq_core::vm::{compile_query, exec_doc, par_hint, PlanCache};
use xq_core::{
    eval_compiled_par, eval_query, eval_with, parse_query, Budget, Env, ParPlan, Threads, XqError,
};

/// Cases per property: `XQ_RANDOM_CASES` if set (CI uses 16), else 64.
fn cases() -> usize {
    std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The seeded coverage corpus (deterministic across runs and PRs).
fn corpus() -> Vec<Query> {
    xq_bench::coverage_corpus(cases())
}

/// The cached per-thread documents — the `par_diff.rs` corpus.
fn docs() -> Vec<Tree> {
    thread_local! {
        static DOCS: Vec<Tree> = (0..3u64)
            .map(|seed| random_tree(&mut TreeGen::new(seed), 10, &["a", "b", "k"]))
            .collect();
    }
    DOCS.with(|d| d.clone())
}

/// Serializes a result list to bytes.
fn bytes(trees: &[Tree]) -> Vec<u8> {
    trees
        .iter()
        .map(Tree::to_xml)
        .collect::<String>()
        .into_bytes()
}

/// A run's result, or its error.
type Run = Result<(Vec<Tree>, xq_core::EvalStats), XqError>;

/// Demands *identical* outcomes: same bytes, same counters, or the same
/// error.
fn assert_identical(want: &Run, got: &Run, q: &Query, ctx: &str) {
    match (want, got) {
        (Ok((wt, ws)), Ok((gt, gs))) => {
            assert_eq!(bytes(gt), bytes(wt), "{ctx}: result bytes for {q}");
            assert_eq!(gs.steps, ws.steps, "{ctx}: steps for {q}");
            assert_eq!(gs.items, ws.items, "{ctx}: items for {q}");
            assert_eq!(
                gs.max_env_depth, ws.max_env_depth,
                "{ctx}: max_env_depth for {q}"
            );
        }
        (Err(we), Err(ge)) => assert_eq!(ge, we, "{ctx}: error for {q}"),
        _ => panic!("{ctx}: engines disagree on {q}: interp {want:?} vs vm {got:?}"),
    }
}

/// Runs both engines under `budget` and demands *identical* outcomes.
fn assert_engines_identical(q: &Query, env: &Env, arena: &ArenaDoc, budget: Budget, ctx: &str) {
    let want = eval_with(q, env, budget.clone());
    let got = exec_doc(&compile_query(q), arena, budget);
    assert_identical(&want, &got, q, ctx);
}

/// The differential body shared by the quick and full-size suites: for
/// each (query, document) pair, interpreter vs fresh VM plan vs a warm
/// cache hit, at the default budget and at budgets tightened to bite
/// mid-evaluation.
fn assert_vm_agrees(q: &Query, doc: &Tree, arena: &ArenaDoc, cache: &PlanCache) {
    let env = Env::with_root(doc.clone());
    let budget = Budget::default();

    // Cold plan, full budget.
    assert_engines_identical(q, &env, arena, budget.clone(), "cold");

    // Warm cache hit: keyed by the query's surface text (the round-trip
    // test below guarantees this is faithful); the second probe must be
    // the *same* plan, and executing it must still match the interpreter.
    let src = q.to_string();
    let p1 = cache.get_or_compile(&src).expect("corpus text parses");
    let p2 = cache.get_or_compile(&src).expect("corpus text parses");
    assert!(Arc::ptr_eq(&p1, &p2), "warm hit must reuse the plan: {src}");
    assert_eq!(p1.query(), q, "cached plan compiles the same query: {src}");
    let want = eval_with(q, &env, budget.clone());
    assert_identical(&want, &exec_doc(&p1, arena, budget.clone()), q, "warm");

    // Budget exhaustion at the same point: tighten each cap to fractions
    // of the full run's spend (plus the 0 and 1 edges) and demand the
    // identical Err(Budget)/Ok outcome from both engines.
    if let Ok((_, full)) = eval_with(q, &env, budget.clone()) {
        let step_caps = [0, 1, full.steps / 2, full.steps.saturating_sub(1)];
        for cap in step_caps {
            let b = Budget {
                max_steps: cap,
                ..budget.clone()
            };
            assert_engines_identical(q, &env, arena, b, "step-cap");
        }
        let item_caps = [0, 1, full.items / 2, full.items.saturating_sub(1)];
        for cap in item_caps {
            let b = Budget {
                max_items: cap,
                ..budget.clone()
            };
            assert_engines_identical(q, &env, arena, b, "item-cap");
        }
    }
}

/// `Display` is a faithful serialization: every corpus query parses back
/// to the identical AST. This is what licenses keying the plan cache by
/// query text.
#[test]
fn corpus_display_round_trips_through_the_parser() {
    for q in corpus() {
        let src = q.to_string();
        let back = parse_query(&src)
            .unwrap_or_else(|e| panic!("corpus query failed to re-parse: {src}: {e}"));
        assert_eq!(back, q, "round-trip changed the query: {src}");
    }
}

/// Compilation is a pure function of the query: two independent compiles
/// produce identical instruction sequences, slot counts, and hints.
#[test]
fn compilation_is_deterministic() {
    for q in corpus() {
        let a = compile_query(&q);
        let b = compile_query(&q);
        assert_eq!(a.instrs(), b.instrs(), "instrs for {q}");
        assert_eq!(a.slots(), b.slots(), "slots for {q}");
        assert_eq!(a.par_hint(), b.par_hint(), "par_hint for {q}");
        assert_eq!(a.disasm(), b.disasm(), "disasm for {q}");
    }
}

/// The baked `par_hint` is sound: whenever the planner engages on a
/// document, the document-independent hint said so at compile time.
#[test]
fn par_hint_is_sound_for_the_planner() {
    let budget = Budget::default().with_threads(Threads::N(4));
    for doc in &docs() {
        let arena = ArenaDoc::from_tree(doc);
        for q in corpus() {
            let plan = ParPlan::of(&q, &arena, budget.clone());
            if plan.engages() {
                assert!(
                    par_hint(&q),
                    "planner engaged but par_hint said sequential: {q}"
                );
            }
        }
    }
}

/// The quick differential pass: interpreter vs VM vs warm cache on the
/// full seeded corpus, all documents, exact counters and errors.
#[test]
fn vm_matches_interpreter_on_the_coverage_corpus() {
    let cache = PlanCache::new();
    for doc in &docs() {
        let arena = ArenaDoc::from_tree(doc);
        for q in corpus() {
            assert_vm_agrees(&q, doc, &arena, &cache);
        }
    }
}

/// The parallel entry point agrees with Figure 1: `eval_compiled_par`
/// (the sharded VM) is byte- and error-identical to `eval_query` at every
/// thread count, under `par_diff`'s monotone-budget rule — where the
/// sequential run exhausts its budget, the per-worker budgets may let the
/// parallel run finish or fail elsewhere.
#[test]
fn compiled_parallel_matches_figure_1() {
    for doc in &docs() {
        let arena = ArenaDoc::from_tree(doc);
        for q in corpus() {
            let plan = compile_query(&q);
            let want = eval_query(&q, doc).map(|out| bytes(&out));
            for threads in [1usize, 2, 4, 8] {
                let budget = Budget::default().with_threads(Threads::N(threads));
                let got = eval_compiled_par(&plan, &arena, budget).map(|(out, _)| bytes(&out));
                if !matches!(want, Err(XqError::Budget { .. })) {
                    assert_eq!(got, want, "{q} at {threads} threads");
                }
            }
        }
    }
}

/// Zero-budget edge: with `max_steps = 0` or `max_items = 0`, both
/// engines refuse identically — nothing runs, ever.
#[test]
fn zero_budgets_refuse_identically() {
    let doc = &docs()[0];
    let env = Env::with_root(doc.clone());
    let arena = ArenaDoc::from_tree(doc);
    for q in corpus().into_iter().take(16) {
        for b in [
            Budget {
                max_steps: 0,
                ..Budget::default()
            },
            Budget {
                max_items: 0,
                ..Budget::default()
            },
        ] {
            let want = eval_with(&q, &env, b.clone());
            let plan = compile_query(&q);
            assert_identical(&want, &exec_doc(&plan, &arena, b), &q, "zero budget");
            if let Err(e) = &want {
                assert!(
                    matches!(e, XqError::Budget { .. }),
                    "zero budget must fail on Budget, got {e:?} for {q}"
                );
            }
        }
    }
}

/// The weekly full-size pass: a 256-query corpus against bigger random
/// documents plus the three doubling families at n = 6. Run explicitly
/// with `cargo test --release -p xq_core -- --ignored` (scheduled.yml
/// does).
#[test]
#[ignore = "full-size VM differential pass; runs in the weekly scheduled workflow"]
fn vm_matches_interpreter_full_size() {
    let mut full: Vec<Tree> = (0..2u64)
        .map(|seed| random_tree(&mut TreeGen::new(seed), 64, &["a", "b", "k"]))
        .collect();
    full.extend(DoublingFamily::ALL.iter().map(|f| f.tree(6)));
    let cache = PlanCache::new();
    for doc in &full {
        let arena = ArenaDoc::from_tree(doc);
        for q in xq_bench::coverage_corpus(256) {
            assert_vm_agrees(&q, doc, &arena, &cache);
        }
    }
}
