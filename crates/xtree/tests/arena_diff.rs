//! The arena differential suite: random XQ∼ queries (the
//! `crates/core/tests/random_queries.rs` corpus shape) evaluated over
//! arena-backed and `Rc`-backed documents must yield **byte-identical**
//! results, on every engine the arena touches:
//!
//! * the Figure 1 reference semantics on the `Rc` tree vs the same tree
//!   routed `Tree → ArenaDoc → Tree` (the `XQ_ARENA` load path), and vs
//!   the parse route `to_xml → ArenaDoc::parse → to_tree`;
//! * the streaming engine pulling tokens straight out of the arena
//!   vectors vs the reference bytes. (It has no `Rc`-tree source to
//!   compare against: `arena_prop` asserts the two stores tokenize
//!   identically.)
//!
//! The per-thread `docs()` corpus is cached exactly like the
//! `random_queries.rs` one, and the case count honours `XQ_RANDOM_CASES`
//! (CI pins 16; local default 64). The `#[ignore]`d full-size variant
//! (weekly `scheduled.yml` run) sweeps bigger documents and the three
//! doubling families.

use cv_xtree::{random_tree, ArenaDoc, Axis, DoublingFamily, NodeTest, Tree, TreeGen};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xq_core::ast::{Cond, EqMode, Query, Var};

/// Variables in scope are `$root` plus loop variables `v0..v{depth}`.
fn var_in_scope(depth: usize) -> impl Strategy<Value = Var> {
    (0..=depth).prop_map(|i| {
        if i == 0 {
            Var::root()
        } else {
            Var::new(format!("v{}", i - 1))
        }
    })
}

fn node_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        Just(NodeTest::Wildcard),
        Just(NodeTest::tag("a")),
        Just(NodeTest::tag("b")),
    ]
}

fn axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        3 => Just(Axis::Child),
        1 => Just(Axis::Descendant),
        1 => Just(Axis::DescendantOrSelf),
        1 => Just(Axis::SelfAxis),
    ]
}

/// A step on an in-scope variable.
fn var_step(depth: usize) -> impl Strategy<Value = Query> {
    (var_in_scope(depth), axis(), node_test())
        .prop_map(|(v, ax, nt)| Query::step(Query::Var(v), ax, nt))
}

/// Random XQ∼ queries with `depth` loop variables in scope — the same
/// grammar the `random_queries.rs` suites draw from.
///
/// NOTE: deliberately duplicated from `crates/core/tests/random_queries.rs`
/// (a shared test-support module would put the generator on `xq_core`'s
/// public surface). If you extend the grammar there, mirror it here — the
/// reverse pointer comment sits on that file's `xq_tilde`.
fn xq_tilde(depth: usize, size: u32) -> BoxedStrategy<Query> {
    if size == 0 {
        return prop_oneof![
            Just(Query::Empty),
            Just(Query::leaf("k")),
            var_in_scope(depth).prop_map(Query::Var),
            var_step(depth),
        ]
        .boxed();
    }
    let d = depth;
    prop_oneof![
        2 => var_step(d),
        2 => (prop_oneof![Just("w"), Just("x")], xq_tilde(d, size - 1))
            .prop_map(|(t, b)| Query::elem(t, b)),
        2 => (xq_tilde(d, size - 1), xq_tilde(d, size - 1))
            .prop_map(|(a, b)| Query::seq([a, b])),
        3 => (var_step(d), xq_tilde(d + 1, size - 1)).prop_map(move |(s, b)| {
            Query::for_in(format!("v{d}").as_str(), s, b)
        }),
        2 => (cond(d, size - 1), xq_tilde(d, size - 1))
            .prop_map(|(c, b)| Query::if_then(c, b)),
        1 => var_in_scope(d).prop_map(Query::Var),
    ]
    .boxed()
}

fn cond(depth: usize, size: u32) -> BoxedStrategy<Cond> {
    let base =
        prop_oneof![
            (var_in_scope(depth), var_in_scope(depth), eq_mode())
                .prop_map(|(x, y, m)| Cond::VarEq(x, y, m)),
            (var_in_scope(depth), prop_oneof![Just("a"), Just("k")])
                .prop_map(|(x, t)| Cond::ConstEq(x, t.into(), EqMode::Atomic)),
        ];
    if size == 0 {
        return base.boxed();
    }
    prop_oneof![
        2 => base,
        2 => xq_tilde(depth, size.min(1)).prop_map(Cond::query),
        1 => cond(depth, size - 1).prop_map(Cond::negate),
    ]
    .boxed()
}

fn eq_mode() -> impl Strategy<Value = EqMode> {
    prop_oneof![Just(EqMode::Deep), Just(EqMode::Atomic)]
}

/// The cached per-thread corpus — the `random_queries.rs` documents.
fn docs() -> Vec<Tree> {
    thread_local! {
        static DOCS: Vec<Tree> = (0..3u64)
            .map(|seed| {
                let mut g = TreeGen::new(seed);
                random_tree(&mut g, 10, &["a", "b", "k"])
            })
            .collect();
    }
    DOCS.with(|d| d.clone())
}

/// Cases per property: `XQ_RANDOM_CASES` if set (CI uses 16), else 64.
fn cases() -> u32 {
    std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Serializes a reference-semantics result list to bytes.
fn result_bytes(q: &Query, doc: &Tree) -> Vec<u8> {
    xq_core::eval_query(q, doc)
        .unwrap()
        .iter()
        .map(Tree::to_xml)
        .collect::<String>()
        .into_bytes()
}

/// The differential body shared by the quick and full-size suites.
fn assert_arena_agrees(q: &Query, doc: &Tree) -> Result<(), TestCaseError> {
    let arena = ArenaDoc::from_tree(doc);
    let want = result_bytes(q, doc);

    // Reference semantics over the two arena load routes.
    let via_roundtrip = arena.to_tree();
    prop_assert_eq!(
        &result_bytes(q, &via_roundtrip),
        &want,
        "roundtrip route: {} on {}",
        q,
        doc
    );
    let via_parse = ArenaDoc::parse(&doc.to_xml()).unwrap().to_tree();
    prop_assert_eq!(
        &result_bytes(q, &via_parse),
        &want,
        "parse route: {} on {}",
        q,
        doc
    );

    // Streaming over the arena: the streamed tokens match the reference
    // bytes once serialized (through the tested `Tree` serializer — no
    // hand-rolled renderer).
    let cfg = xq_stream::StreamConfig::buffered(50_000_000);
    let (stream_got, _) =
        xq_stream::stream_query(q, &arena, cfg).unwrap_or_else(|e| panic!("arena {q}: {e}"));
    let stream_xml: Vec<u8> = Tree::forest_from_tokens(&stream_got)
        .unwrap()
        .iter()
        .map(Tree::to_xml)
        .collect::<String>()
        .into_bytes();
    prop_assert_eq!(&stream_xml, &want, "stream vs reference: {} on {}", q, doc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arena and Rc documents are observationally identical under random
    /// queries, on the cached corpus.
    #[test]
    fn arena_and_rc_results_are_byte_identical(q in xq_tilde(0, 3)) {
        for doc in &docs() {
            assert_arena_agrees(&q, doc)?;
        }
    }
}

proptest! {
    // The weekly full-size pass: bigger random documents plus the three
    // doubling families at n = 6, 128 cases. Run explicitly with
    // `cargo test --release -p cv_xtree -- --ignored` (scheduled.yml does).
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    #[ignore = "full-size differential pass; runs in the weekly scheduled workflow"]
    fn arena_and_rc_results_are_byte_identical_full_size(q in xq_tilde(0, 3)) {
        let mut full: Vec<Tree> = (0..2u64)
            .map(|seed| {
                let mut g = TreeGen::new(seed);
                random_tree(&mut g, 64, &["a", "b", "k"])
            })
            .collect();
        full.extend(DoublingFamily::ALL.iter().map(|f| f.tree(6)));
        for doc in &full {
            assert_arena_agrees(&q, doc)?;
        }
    }
}
