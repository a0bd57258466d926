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

use std::sync::Arc;

use cv_xtree::{random_tree, ArenaDoc, TreeGen};
use xq_core::vm::{compile_query_text, exec_doc};
use xq_core::{Budget, PlanCache, QueryService, Request};

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
