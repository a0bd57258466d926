//! The serving pool's cost record is exact.
//!
//! Figure 1 is deterministic: a fixed query on a fixed document charges
//! the same steps on every run. The pool relies on that when it records
//! a successful run's cost against (compiled plan, document id) and the
//! inline route later reads the record as the cost of the next run. This
//! suite checks the record against the VM itself: for every query of the
//! seeded coverage corpus on seeded 40-node documents, the steps the pool
//! recorded equal the steps of a repeated `exec_doc`, the bytes equal the
//! answer's length, and a failed run records nothing. A text served on
//! 40 documents keeps all 40 records: the log holds 64 documents,
//! direct-mapped by id, so no two of 64 documents built one after
//! another evict each other's records. (That a rebuilt
//! document starts with no record is checked where it matters, on the
//! inline route: the service unit tests and `xq_server`'s `inline.rs`.)
//!
//! The inline route's probe records costs too: a probe that finishes
//! records exactly what the pool records for the same pair, and one
//! that crosses the reactor bound leaves a lower bound that the pool's
//! run replaces with the exact cost.

use std::sync::Arc;

use cv_xtree::{random_tree, ArenaDoc, TreeGen};
use std::sync::mpsc::channel;
use std::time::Duration;

use xq_core::service::{INLINE_MAX_BYTES, INLINE_MAX_STEPS};
use xq_core::vm::{compile_query_text, exec_doc, CostRecord};
use xq_core::{Budget, CompletionSink, Inline, PlanCache, QueryService, Request};

/// Cases: `XQ_RANDOM_CASES` if set (CI uses 16), else 64.
fn cases() -> usize {
    std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

#[test]
fn recorded_steps_equal_a_repeated_exec_doc_on_the_coverage_corpus() {
    let texts: Vec<String> = xq_bench::coverage_corpus(cases())
        .iter()
        .map(ToString::to_string)
        .collect();
    let service = QueryService::new(2);
    let (mut recorded, mut failed) = (0, 0);
    // The default budget, then a step cap that fails part of the corpus
    // mid-run; each pass on documents of its own, so no record carries
    // over from the other pass.
    let tight = Budget {
        max_steps: 60,
        ..Budget::default()
    };
    for (pass, budget) in [Budget::default(), tight].into_iter().enumerate() {
        let docs: Vec<Arc<ArenaDoc>> = (0..3u64)
            .map(|seed| {
                let mut g = TreeGen::new(4000 + seed);
                Arc::new(ArenaDoc::from_tree(&random_tree(
                    &mut g,
                    40,
                    &["a", "b", "k"],
                )))
            })
            .collect();
        let requests: Vec<Request> = docs
            .iter()
            .flat_map(|d| {
                texts.iter().map(|t| {
                    let mut r = Request::new(t, Arc::clone(d));
                    r.budget = budget.clone();
                    r
                })
            })
            .collect();
        let answers = service.run_batch(requests.clone());
        for (request, answer) in requests.iter().zip(&answers) {
            let plan = PlanCache::global()
                .get(&request.query)
                .expect("the pool compiled every corpus text");
            let record = plan.recorded_cost(request.doc.id());
            // The repeat, on a plan compiled afresh: what any later run
            // costs.
            let fresh = compile_query_text(&request.query).unwrap();
            let repeat = exec_doc(&fresh, &request.doc, budget.clone());
            match (answer, repeat) {
                (Ok(xml), Ok((_, stats))) => {
                    let cost = record.expect("a successful run is recorded");
                    assert_eq!(cost.steps, stats.steps, "steps of {}", request.query);
                    assert_eq!(cost.bytes, xml.len() as u64, "bytes of {}", request.query);
                    recorded += 1;
                }
                (Err(_), Err(_)) => {
                    assert_eq!(record, None, "a failed run records nothing");
                    failed += 1;
                }
                (a, r) => panic!(
                    "pass {pass}: pool and exec_doc disagree on {}: {a:?} vs {r:?}",
                    request.query
                ),
            }
        }
    }
    assert!(recorded > 0, "the corpus exercised the record");
    assert!(failed > 0, "the step cap failed some runs");
}

#[test]
fn a_text_served_on_forty_documents_keeps_every_record() {
    let text = "for $cost_forty in $root/* return <forty>{ $cost_forty }</forty>";
    let docs: Vec<Arc<ArenaDoc>> = (0..40u64)
        .map(|seed| {
            let mut g = TreeGen::new(5000 + seed);
            Arc::new(ArenaDoc::from_tree(&random_tree(&mut g, 12, &["a", "b"])))
        })
        .collect();
    let service = QueryService::new(2);
    let answers = service.run_batch(
        docs.iter()
            .map(|d| Request::new(text, Arc::clone(d)))
            .collect(),
    );
    let plan = PlanCache::global().get(text).expect("the pool compiled it");
    for (doc, answer) in docs.iter().zip(&answers) {
        let xml = answer.as_ref().expect("the text evaluates");
        let cost = plan
            .recorded_cost(doc.id())
            .expect("every document keeps its record");
        assert_eq!(cost.bytes, xml.len() as u64);
    }
}

/// Seeded 40-node documents, each with a twin built from the same tree:
/// the same answers and costs, a separate record.
fn twins(seed: u64) -> Vec<(Arc<ArenaDoc>, Arc<ArenaDoc>)> {
    (0..3u64)
        .map(|i| {
            let mut g = TreeGen::new(seed + i);
            let tree = random_tree(&mut g, 40, &["a", "b", "k"]);
            (
                Arc::new(ArenaDoc::from_tree(&tree)),
                Arc::new(ArenaDoc::from_tree(&tree)),
            )
        })
        .collect()
}

#[test]
fn a_probe_records_what_the_pool_records_on_the_coverage_corpus() {
    let texts: Vec<String> = xq_bench::coverage_corpus(cases())
        .iter()
        .map(ToString::to_string)
        .collect();
    let service = QueryService::new(2);
    let (mut exact, mut escalated) = (0, 0);
    for (probed, pooled) in twins(6000) {
        for text in &texts {
            let request = Request::new(text, Arc::clone(&probed));
            let inline = service.try_serve_inline(&request);
            let twin = Request::new(text, Arc::clone(&pooled));
            let answer = service.run_batch(vec![twin]).remove(0);
            let plan = PlanCache::global().get(text).expect("compiled");
            let pool_record = plan.cost_record(pooled.id());
            match inline {
                Inline::Served(got) => {
                    assert_eq!(got, answer, "inline and pool answers differ on {text}");
                    assert_eq!(
                        plan.cost_record(probed.id()),
                        pool_record,
                        "probe and pool records differ on {text}"
                    );
                    exact += usize::from(got.is_ok());
                }
                Inline::Escalated(_) => {
                    let Some(CostRecord::AtLeast(floor)) = plan.cost_record(probed.id()) else {
                        panic!("an escalated probe leaves a lower bound on {text}");
                    };
                    let Some(CostRecord::Exact(cost)) = pool_record else {
                        panic!("the pool records {text} exactly");
                    };
                    assert!(
                        cost.steps >= floor.steps && cost.bytes >= floor.bytes,
                        "{text}"
                    );
                    assert!(cost.steps > INLINE_MAX_STEPS || cost.bytes > INLINE_MAX_BYTES);
                    escalated += 1;
                }
                Inline::Declined => assert!(plan.compares_trees(), "{text} declined"),
            }
        }
    }
    assert!(exact > 0, "the corpus exercised the probe");
    assert!(escalated > 0, "the corpus crossed the reactor bound");
}

#[test]
fn an_escalated_probe_leaves_a_lower_bound_the_pool_replaces() {
    // Four nested loops over every element of a 40-node document.
    let text = "for $bound_a in $root//* return for $bound_b in $root//* return \
                for $bound_c in $root//* return $bound_c/never";
    let (doc, _) = twins(7000).remove(0);
    let service = QueryService::new(1);
    let request = Request::new(text, Arc::clone(&doc));
    let Inline::Escalated(handoff) = service.try_serve_inline(&request) else {
        panic!("the probe crosses the step bound");
    };
    let plan = PlanCache::global().get(text).unwrap();
    assert!(matches!(
        plan.cost_record(doc.id()),
        Some(CostRecord::AtLeast(floor)) if floor.steps == INLINE_MAX_STEPS + 1
    ));
    assert_eq!(
        plan.recorded_cost(doc.id()),
        None,
        "a lower bound is not a cost"
    );
    let (tx, rx) = channel();
    service.hand_off(
        0,
        request.clone(),
        handoff,
        &CompletionSink::new(tx, Arc::new(|| {})),
    );
    let (_, answer) = rx.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(answer.as_deref(), Ok(""));
    let fresh = compile_query_text(text).unwrap();
    let (_, stats) = exec_doc(&fresh, &doc, Budget::default()).unwrap();
    assert_eq!(
        plan.cost_record(doc.id()).map(|c| match c {
            CostRecord::Exact(cost) => cost.steps,
            CostRecord::AtLeast(_) => 0,
        }),
        Some(stats.steps),
        "the pool's run replaced the bound with the exact cost"
    );
    assert!(matches!(
        service.try_serve_inline(&request),
        Inline::Declined
    ));
}

#[test]
fn corpus_texts_comparing_nodes_are_not_kept_off_the_inline_route() {
    // `many-small`'s hot set is the first 256 distinct corpus texts that
    // evaluate; about twenty of them compare with `=deep`, always
    // between document nodes, so none is flagged and none is declined.
    use std::collections::HashSet;
    use xq_core::vm::OpCode;
    use xq_core::EqMode;
    let mut seen = HashSet::new();
    let texts: Vec<String> = xq_bench::coverage_corpus(4096)
        .iter()
        .map(ToString::to_string)
        .filter(|t| seen.insert(t.clone()))
        .take(256)
        .collect();
    let (doc, _) = twins(8000).remove(0);
    let service = QueryService::new(1);
    let mut deep = 0;
    for text in &texts {
        let plan = PlanCache::global().get_or_compile(text).unwrap();
        let compares = |op: &OpCode| matches!(op, OpCode::CmpVars(_, _, EqMode::Deep));
        if !plan.instrs().ops().iter().any(compares) {
            continue;
        }
        deep += 1;
        assert!(!plan.compares_trees(), "{text}");
        let request = Request::new(text, Arc::clone(&doc));
        assert!(
            !matches!(service.try_serve_inline(&request), Inline::Declined),
            "{text}"
        );
    }
    assert!(deep >= 20, "{deep} texts compare with =deep");
}
