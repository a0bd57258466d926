//! Randomized structural testing of the §7 fragment machinery: a
//! generator for random XQ∼ queries drives the Proposition 7.1
//! translations and the Lemma 3.2 monad-algebra translation, checking
//! semantic preservation against the Figure 1 reference on random
//! documents.

use cv_xtree::{random_tree, Axis, NodeTest, Tree, TreeGen};
use proptest::prelude::*;
use xq_core::ast::{Cond, EqMode, Query, Var};
use xq_core::{
    boolean_result, is_composition_free, is_xq_tilde, ma_invariant_holds, to_composition_free,
    to_xq_tilde,
};

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

/// A step on an in-scope variable — the only `for`-source XQ∼ allows.
fn var_step(depth: usize) -> impl Strategy<Value = Query> {
    (var_in_scope(depth), axis(), node_test())
        .prop_map(|(v, ax, nt)| Query::step(Query::Var(v), ax, nt))
}

/// Random XQ∼ queries with `depth` loop variables in scope.
///
/// NOTE: `crates/xtree/tests/arena_diff.rs` carries a deliberate copy of
/// this grammar (its suite must run from `cv_xtree`, and a shared helper
/// would put the generator on `xq_core`'s public surface). If you extend
/// the grammar here, mirror it there.
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

/// XQ∼ conditions: queries, var = var, $z = ⟨a/⟩, not.
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

/// The shared document corpus, built once per test thread and reused
/// across every generated case (it was rebuilt per case before — the
/// dominant cost of this suite, see ROADMAP "Slow suite"). `Tree` is
/// `Rc`-based, so the returned clone is three pointer bumps.
fn docs() -> Vec<Tree> {
    thread_local! {
        static DOCS: Vec<Tree> = (0..3u64)
            .map(|seed| random_tree(&mut TreeGen::new(seed), 10, &["a", "b", "k"]))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Prop 7.1 round trip: XQ∼ → XQ⁻ → XQ∼, all three equivalent.
    #[test]
    fn prop_7_1_translations_preserve_semantics(q in xq_tilde(0, 3)) {
        prop_assume!(is_xq_tilde(&q));
        let minus = to_composition_free(&q);
        prop_assert!(is_composition_free(&minus), "not XQ⁻: {}", minus);
        let back = to_xq_tilde(&minus);
        prop_assert!(is_xq_tilde(&back), "not XQ∼: {}", back);
        for doc in &docs() {
            let want = boolean_result(&q, doc).unwrap();
            prop_assert_eq!(
                boolean_result(&minus, doc).unwrap(),
                want,
                "XQ⁻ of {} on {}", q, doc
            );
            prop_assert_eq!(
                boolean_result(&back, doc).unwrap(),
                want,
                "XQ∼ round trip of {} on {}", q, doc
            );
        }
    }

    /// Lemma 3.2 on random queries: the Figure 2 translation commutes
    /// with evaluation through the C/C′ encodings.
    #[test]
    fn lemma_3_2_on_random_queries(q in xq_tilde(0, 2)) {
        for doc in &docs() {
            prop_assert!(
                ma_invariant_holds(&q, doc).unwrap(),
                "Lemma 3.2 failed for {} on {}", q, doc
            );
        }
    }

    /// Desugaring (Prop 3.1) preserves the Figure 1 semantics.
    #[test]
    fn desugaring_preserves_semantics(q in xq_tilde(0, 3)) {
        let mut fresh = 0;
        let core = q.desugar(&mut fresh);
        for doc in &docs() {
            prop_assert_eq!(
                xq_core::eval_query(&core, doc).unwrap(),
                xq_core::eval_query(&q, doc).unwrap(),
                "desugaring changed {} on {}", q, doc
            );
        }
    }

    /// The nested-loop engine agrees with the reference on random XQ⁻.
    #[test]
    fn nested_loop_on_random_queries(q in xq_tilde(0, 3)) {
        let minus = to_composition_free(&q);
        prop_assume!(is_composition_free(&minus));
        for doc in &docs() {
            let d = cv_xtree::ArenaDoc::from_tree(doc);
            let mut engine = xq_compfree::NestedLoopEngine::new(&d);
            let got = engine.boolean(&minus).unwrap();
            let want = boolean_result(&minus, doc).unwrap();
            prop_assert_eq!(got, want, "{} on {}", minus, doc);
        }
    }

    /// The streaming engine — lazy discipline and buffered fast path —
    /// agrees with the reference on random XQ∼.
    #[test]
    fn streaming_on_random_queries(q in xq_tilde(0, 2)) {
        for doc in &docs() {
            let arena = cv_xtree::ArenaDoc::from_tree(doc);
            let lazy = xq_stream::StreamConfig::lazy(50_000_000);
            let (got, _) = xq_stream::stream_query(&q, &arena, lazy)
                .unwrap_or_else(|e| panic!("{q}: {e}"));
            let want: Vec<cv_xtree::Token> = xq_core::eval_query(&q, doc)
                .unwrap()
                .iter()
                .flat_map(Tree::tokens)
                .collect();
            prop_assert_eq!(&got, &want, "{} on {}", q, doc);
            let buffered = xq_stream::StreamConfig::buffered(50_000_000);
            let (fast, _) = xq_stream::stream_query(&q, &arena, buffered)
                .unwrap_or_else(|e| panic!("buffered {q}: {e}"));
            prop_assert_eq!(&fast, &want, "buffered {} on {}", q, doc);
        }
    }
}
