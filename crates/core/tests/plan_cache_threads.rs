//! Concurrency smoke tests for the lock-striped [`PlanCache`]: the
//! invariants that make a process-wide plan store safe — same text ⇒
//! same plan `Arc` on every thread, distinct texts ⇒ distinct plans,
//! each text compiled **exactly once** no matter how many threads race
//! for it — asserted while 8 threads hammer the same query set
//! simultaneously in rotated orders (so shard-lock acquisition
//! interleaves, as in the label-interner smoke test this mirrors) —
//! and while a flood of one-shot texts forces evictions underneath them.

use std::collections::HashMap;
use std::sync::Arc;
use xq_core::{CompiledPlan, PlanCache};

const WORKERS: usize = 8;

/// A query set large enough to spread over every shard, with per-index
/// tags so every text is distinct and recognisably its own plan.
fn query_set() -> Vec<String> {
    (0..64)
        .map(|i| format!("for $x in $root/t{i} return <r{i}>{{ $x/* }}</r{i}>"))
        .collect()
}

#[test]
fn concurrent_lookups_share_plans_and_compile_exactly_once() {
    let cache = PlanCache::new();
    let queries = query_set();

    let per_thread: Vec<Vec<(String, Arc<CompiledPlan>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let cache = &cache;
                let queries = &queries;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..4 {
                        for i in 0..queries.len() {
                            let src = &queries[(i + w * 7 + round) % queries.len()];
                            let plan = cache.get_or_compile(src).expect("query parses");
                            seen.push((src.clone(), plan));
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Sharing invariant: every thread got the *same* Arc for a given
    // text (pointer equality, not just structural), and the plan really
    // is that text's compilation.
    let mut canon: HashMap<String, Arc<CompiledPlan>> = HashMap::new();
    for thread in &per_thread {
        for (src, plan) in thread {
            let entry = canon.entry(src.clone()).or_insert_with(|| plan.clone());
            assert!(
                Arc::ptr_eq(entry, plan),
                "text {src} resolved to two different plans"
            );
            assert_eq!(plan.source(), Some(src.as_str()));
        }
    }
    // Distinctness: different texts never alias a plan.
    for (i, a) in queries.iter().enumerate() {
        for b in &queries[i + 1..] {
            assert!(
                !Arc::ptr_eq(&canon[a], &canon[b]),
                "distinct texts {a} / {b} must get distinct plans"
            );
        }
    }
    // Exactly-once compilation: however the 8 threads interleaved, each
    // text was compiled a single time (the compile runs inside the shard
    // write lock after a re-check, so racing threads wait, then hit).
    for src in &queries {
        assert_eq!(cache.compile_count(src), 1, "duplicate compile of {src}");
    }
    assert_eq!(cache.len(), queries.len());
}

#[test]
fn concurrent_parse_errors_stay_uncached_and_plans_stay_executable() {
    let cache = PlanCache::new();
    // Threads alternate between a broken text and a good one; errors must
    // never poison the cache, and the good plan must stay shared and
    // runnable from every thread.
    let doc = cv_xtree::ArenaDoc::from_tree(&cv_xtree::Tree::leaf("r"));
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let cache = &cache;
            let doc = &doc;
            scope.spawn(move || {
                for _ in 0..8 {
                    assert!(cache.get_or_compile("for $x in").is_err());
                    let plan = cache.get_or_compile("<ok/>").expect("parses");
                    let (out, _) = xq_core::vm::exec_doc(&plan, doc, xq_core::Budget::default())
                        .expect("evaluates");
                    assert_eq!(out.len(), 1);
                }
            });
        }
    });
    assert_eq!(cache.len(), 1, "only the good text is cached");
    assert_eq!(cache.compile_count("<ok/>"), 1);
    assert_eq!(cache.compile_count("for $x in"), 0);
}

#[test]
fn lookups_racing_an_eviction_flood_get_their_own_plans() {
    let cache = PlanCache::new();
    let queries = query_set();
    // Enough one-shot texts to turn every shard over many times while
    // the workers read.
    let flood: Vec<String> = (0..4000)
        .map(|i| format!("let $flood{i} := <f/> return $root/t{i}"))
        .collect();
    std::thread::scope(|scope| {
        let (cache, queries, flood) = (&cache, &queries, &flood);
        scope.spawn(move || {
            for src in flood {
                let plan = cache.get_or_compile(src).expect("flood text parses");
                assert_eq!(plan.source(), Some(src.as_str()));
            }
        });
        for w in 0..WORKERS {
            scope.spawn(move || {
                for round in 0..64 {
                    for i in 0..queries.len() {
                        let src = &queries[(i + w * 7 + round) % queries.len()];
                        let plan = cache.get_or_compile(src).expect("query parses");
                        assert_eq!(plan.source(), Some(src.as_str()), "wrong plan");
                    }
                }
            });
        }
    });
    // Eviction may have dropped a text, and a later miss compiled it
    // again; but no resident entry was ever compiled twice.
    for src in queries.iter().chain(&flood) {
        assert!(cache.compile_count(src) <= 1, "duplicate compile of {src}");
    }
    assert!(
        cache.len() <= PlanCache::CAPACITY,
        "the cache stays bounded"
    );
}
