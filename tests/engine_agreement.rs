//! Differential testing across all five XQuery engines: the Figure 1
//! reference semantics, the streaming evaluator (Thm 4.5), the
//! composition-free nested-loop engine (Prop 7.3), the witness-search
//! engine (Prop 7.6), and the positional string semantics (Remark 6.7) —
//! plus the Fig 2 monad-algebra translation evaluated on encoded inputs.

use xq_complexity::core::{self as core, parse_query, DocRepr};
use xq_complexity::xtree::{random_tree, ArenaDoc, Token, Tree, TreeGen};

fn reference_tokens(q: &core::Query, t: &Tree) -> Vec<Token> {
    core::eval_query(q, t)
        .unwrap()
        .iter()
        .flat_map(Tree::tokens)
        .collect()
}

const COMPOSITION_FREE: &[&str] = &[
    "<out>{ for $x in $root/a return <w>{ $x/b }</w> }</out>",
    "<out>{ for $x in $root//b return ($x, $x) }</out>",
    "<out>{ for $x in $root/* return \
       if (some $y in $x/b satisfies $y =atomic <b/>) then $x }</out>",
    "<out>{ for $x in $root/a return for $y in $root/a return \
       if ($x = $y) then <eq/> }</out>",
    "<out>{ if (every $x in $root/a satisfies some $y in $x/* \
       satisfies true) then <nonleaf/> }</out>",
];

const COMPOSITIONAL: &[&str] = &[
    "for $y in (for $w in $root/a return <b>{$w}</b>) return $y/*",
    "(<w>{ $root/a }</w>)/a",
    "let $x := <k><a/><b/></k> return ($x/a, $x/b)",
];

/// The shared document fleet. Loading honours `XQ_ARENA` (see
/// `xq_core::doc`): with it set, every document — parsed or generated —
/// is routed through the arena store, re-running all the agreement suites
/// below against that representation.
fn fleet_docs() -> Vec<Tree> {
    let repr = DocRepr::from_env();
    let mut docs = vec![
        core::load_document("<r><a><b/></a><a><c/></a><b/></r>").unwrap(),
        core::load_document("<r/>").unwrap(),
        core::load_document("<r><a><b/><b/></a></r>").unwrap(),
    ];
    for seed in 0..4u64 {
        let mut g = TreeGen::new(seed);
        docs.push(repr.roundtrip(&random_tree(&mut g, 15, &["a", "b", "c"])));
    }
    docs
}

#[test]
fn streaming_agrees_with_reference() {
    for doc in fleet_docs() {
        let arena = ArenaDoc::from_tree(&doc);
        for src in COMPOSITION_FREE.iter().chain(COMPOSITIONAL) {
            let q = parse_query(src).unwrap();
            let lazy = xq_complexity::stream::StreamConfig::lazy(50_000_000);
            let (got, _) = xq_complexity::stream::stream_query(&q, &arena, lazy)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(got, reference_tokens(&q, &doc), "query {src} on {doc}");
        }
    }
}

#[test]
fn nested_loop_agrees_with_reference() {
    for doc in fleet_docs() {
        let d = ArenaDoc::from_tree(&doc);
        for src in COMPOSITION_FREE {
            let q = parse_query(src).unwrap();
            let mut engine = xq_complexity::compfree::NestedLoopEngine::new(&d);
            let mut got = Vec::new();
            engine.eval(&q, &mut got).unwrap();
            assert_eq!(got, reference_tokens(&q, &doc), "query {src} on {doc}");
        }
    }
}

#[test]
fn witness_search_agrees_on_booleans() {
    for doc in fleet_docs() {
        for src in COMPOSITION_FREE {
            let q = parse_query(src).unwrap();
            match xq_complexity::compfree::witness_boolean(&q, &doc) {
                Ok(got) => {
                    let want = core::boolean_result(&q, &doc).unwrap();
                    assert_eq!(got, want, "query {src} on {doc}");
                }
                // Queries needing co-nondeterminism are out of scope.
                Err(xq_complexity::compfree::CfError::NegationPresent) => {}
                Err(e) => panic!("{src}: {e}"),
            }
        }
    }
}

#[test]
fn positional_agrees_with_reference() {
    // Positional evaluation is deliberately naive — small docs only.
    let docs = [
        core::load_document("<r><a><b/></a><a><c/></a></r>").unwrap(),
        core::load_document("<r/>").unwrap(),
    ];
    for doc in docs {
        for src in COMPOSITION_FREE.iter().chain(COMPOSITIONAL) {
            let q = parse_query(src).unwrap();
            let got = xq_complexity::fom::eval_positional(&q, &doc, 100_000_000)
                .unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(got, reference_tokens(&q, &doc), "query {src} on {doc}");
        }
    }
}

#[test]
fn ma_translation_agrees_with_reference() {
    // Lemma 3.2 on the fleet (child/descendant/self axes).
    for doc in fleet_docs() {
        for src in COMPOSITION_FREE {
            let q = parse_query(src).unwrap();
            assert!(
                core::ma_invariant_holds(&q, &doc).unwrap(),
                "Lemma 3.2 failed for {src} on {doc}"
            );
        }
    }
}

#[test]
fn rewriter_preserves_semantics_on_compositional_queries() {
    for doc in fleet_docs() {
        for src in COMPOSITIONAL {
            let q = parse_query(src).unwrap();
            let (out, _) = xq_complexity::rewrite::eliminate_composition(&q, 10_000_000).unwrap();
            assert!(xq_complexity::core::is_xq_tilde(&out), "{out}");
            assert_eq!(
                core::eval_query(&out, &doc).unwrap(),
                core::eval_query(&q, &doc).unwrap(),
                "query {src} on {doc}"
            );
        }
    }
}
