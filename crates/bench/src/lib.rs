//! Shared workloads for the benchmark harness (see `benches/` for the
//! per-experiment Criterion targets and `src/bin/harness.rs` for the
//! EXPERIMENTS.md table generator).

use cv_xtree::{Axis, DoublingFamily, NodeTest, Tree, TreeGen};
use xq_core::ast::{Cond, EqMode};
use xq_core::{parse_query, Query, Var};

/// A fixed bibliography-style document generator: `n` books with years,
/// titles, and authors — the workload shape of the paper's introduction.
pub fn bib_document(books: usize) -> Tree {
    let mut gen = TreeGen::new(books as u64);
    let book_nodes: Vec<Tree> = (0..books)
        .map(|i| {
            let year = if gen.chance(1, 3) { "y2004" } else { "y1999" };
            let authors = (0..1 + gen.below(3)).map(|a| {
                Tree::node(
                    "author",
                    [Tree::node(
                        "lastname",
                        [Tree::leaf(format!("name{}", (i + a) % 7))],
                    )],
                )
            });
            let mut children = vec![
                Tree::node("year", [Tree::leaf(year)]),
                Tree::node("title", [Tree::leaf(format!("t{i}"))]),
            ];
            children.extend(authors);
            Tree::node("book", children)
        })
        .collect();
    Tree::node("doc", [Tree::node("bib", book_nodes)])
}

/// The intro's `books_2004` query (composition-free).
pub fn books_query() -> Query {
    // The intro's query, written in strict XQ⁻ form: every `for`/`some`
    // ranges over a single step on a variable (`/bib/book` becomes two
    // nested `for`s; the year test becomes a `some`-chain).
    parse_query(
        r#"<books_2004>
          { for $b in $root/bib return
            for $x in $b/book
            where some $w in $x/year satisfies
                  some $u in $w/y2004 satisfies true
            return <book>{ $x/title }
              <authors>{ for $y in $x/author return
                         <author>{ $y/lastname }</author> }</authors>
            </book> }
          </books_2004>"#,
    )
    .expect("static query parses")
}

/// The doubling query family for the streaming experiment (output size
/// `2^n` from a query of size `O(n)`).
pub fn doubling_query(n: usize) -> Query {
    let mut q = String::from("<z/>");
    for i in 0..n {
        q = format!("for $v{i} in ({q}, {q}) return <z/>");
    }
    parse_query(&q).expect("static query parses")
}

/// The T11/T14/`opt_vs_naive` derived-difference workload: the Example 2.4
/// construction, its built-in counterpart, and a `⟨R, S⟩` input with
/// |R| = 60, |S| = 30 (every second member shared). Returns
/// `(derived, builtin, input)`.
pub fn diff_workload() -> (cv_monad::Expr, cv_monad::Expr, cv_value::Value) {
    use cv_monad::Expr;
    use cv_value::Value;
    let r: Vec<Value> = (0..60).map(|i| Value::atom(format!("r{i}"))).collect();
    let s: Vec<Value> = (0..60)
        .filter(|i| i % 2 == 0)
        .map(|i| Value::atom(format!("r{i}")))
        .collect();
    let input = Value::tuple([("R", Value::set(r)), ("S", Value::set(s))]);
    let derived = cv_monad::derived::derived_diff();
    let builtin = Expr::Diff(Expr::proj("R").into(), Expr::proj("S").into());
    (derived, builtin, input)
}

/// The T16/`par_scaling` cross-join workload for a doubling family: an
/// outer `for` over one tag class joined (by always-false atomic
/// equality, so `some` never short-circuits) against a full re-scan of
/// the other class. Work is `Θ(|x-items| · |doc|)` — the large-`for`-nest
/// shape of the paper's combined-complexity results — and the outer loop
/// is exactly what `xq_core::par` distributes across threads.
pub fn par_workload(family: DoublingFamily) -> Query {
    let (x_src, y_src) = match family {
        // Binary: `a` at even depths, `b` at odd depths.
        DoublingFamily::Binary => ("$root//a", "$root//b"),
        // Wide: leaf children cycling a/b/c.
        DoublingFamily::Wide => ("$root/a", "$root/b"),
        // Comb: an `s` spine carrying `t` leaves.
        DoublingFamily::Comb => ("$root//t", "$root//s"),
    };
    parse_query(&format!(
        "for $x in {x_src} return \
         if (some $y in {y_src} satisfies $x =atomic $y) then <hit/>"
    ))
    .expect("static query parses")
}

/// The T16 streaming workload: a token-throughput shape (outer `for`,
/// per-item subtree emission) rather than the cross-join — under the
/// buffered streaming engine the cross-join's per-item source overflows
/// the buffer cap and degenerates to quadratic lazy re-streaming, which
/// would measure the Theorem 4.5 recomputation discipline, not sharding.
pub fn stream_workload(family: DoublingFamily) -> Query {
    // Sources are kept under the buffered engine's token cap (the comb
    // spine `$root//s` would overflow it and degenerate the *sequential*
    // baseline the same way the cross-join does).
    let src = match family {
        DoublingFamily::Binary => "for $x in $root//a return <w>{ $x//b }</w>",
        DoublingFamily::Wide => "for $x in $root/a return <w>{ $x }</w>",
        DoublingFamily::Comb => "for $x in $root//t return <w>{ $x }</w>",
    };
    parse_query(src).expect("static query parses")
}

/// `par_scaling` planner-shape workloads: each exercises one shape the
/// `xq_core::plan` planner shards beyond a lone outer `for` — a `Seq` of
/// two loops, a nested `for` flattened to (node, node) rows, and a loop
/// whose body mentions `$root` beside its loop variable. Returns
/// `(name, query)` pairs.
pub fn planner_workloads(family: DoublingFamily) -> Vec<(&'static str, Query)> {
    let (x_src, y_src) = match family {
        DoublingFamily::Binary => ("$root//a", "$root//b"),
        DoublingFamily::Wide => ("$root/a", "$root/b"),
        DoublingFamily::Comb => ("$root//t", "$root//s"),
    };
    vec![
        (
            "seq-of-fors",
            parse_query(&format!(
                "(for $x in {x_src} return <w>{{ $x }}</w>, \
                  for $y in {y_src} return <v>{{ $y }}</v>)"
            ))
            .expect("static query parses"),
        ),
        (
            "nested-for",
            parse_query(&format!(
                "for $x in {x_src} return for $y in $x/* return <p>{{ $y }}</p>"
            ))
            .expect("static query parses"),
        ),
        (
            "root-share",
            parse_query(&format!(
                "for $x in {x_src} return if (some $y in $root/* satisfies \
                 $x =atomic $y) then <hit/>"
            ))
            .expect("static query parses"),
        ),
    ]
}

// ---------------------------------------------------------------------
// T17: a deterministic random-query corpus for the parallel-path
// coverage measurement. Mirrors the `par_diff.rs` proptest grammar, but
// drawn from a seeded splitmix64 stream so the harness (which has no
// proptest) regenerates the *same* corpus every run — coverage numbers
// are comparable across PRs.
// ---------------------------------------------------------------------

fn rand_var(g: &mut TreeGen, depth: usize) -> Var {
    let i = g.below(depth + 1);
    if i == 0 {
        Var::root()
    } else {
        Var::new(format!("v{}", i - 1))
    }
}

fn rand_axis(g: &mut TreeGen) -> Axis {
    *g.choose(&[
        Axis::Child,
        Axis::Child,
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::SelfAxis,
    ])
}

fn rand_test(g: &mut TreeGen) -> NodeTest {
    match g.below(3) {
        0 => NodeTest::Wildcard,
        1 => NodeTest::tag("a"),
        _ => NodeTest::tag("b"),
    }
}

fn rand_var_step(g: &mut TreeGen, depth: usize) -> Query {
    Query::step(Query::Var(rand_var(g, depth)), rand_axis(g), rand_test(g))
}

fn rand_root_chain(g: &mut TreeGen) -> Query {
    let steps = 1 + g.below(3);
    (0..steps).fold(Query::Var(Var::root()), |q, _| {
        Query::step(q, rand_axis(g), rand_test(g))
    })
}

fn rand_cond(g: &mut TreeGen, depth: usize, size: u32) -> Cond {
    if size > 0 && g.chance(1, 5) {
        return rand_cond(g, depth, size - 1).negate();
    }
    if size > 0 && g.chance(2, 5) {
        return Cond::query(rand_xq(g, depth, 1));
    }
    if g.chance(1, 2) {
        let mode = if g.chance(1, 2) {
            EqMode::Deep
        } else {
            EqMode::Atomic
        };
        Cond::VarEq(rand_var(g, depth), rand_var(g, depth), mode)
    } else {
        let tag = if g.chance(1, 2) { "a" } else { "k" };
        Cond::ConstEq(rand_var(g, depth), tag.into(), EqMode::Atomic)
    }
}

fn rand_xq(g: &mut TreeGen, depth: usize, size: u32) -> Query {
    if size == 0 {
        return match g.below(4) {
            0 => Query::Empty,
            1 => Query::leaf("k"),
            2 => Query::Var(rand_var(g, depth)),
            _ => rand_var_step(g, depth),
        };
    }
    match g.below(12) {
        0 | 1 => rand_var_step(g, depth),
        2 | 3 => {
            let tag = if g.chance(1, 2) { "w" } else { "x" };
            Query::elem(tag, rand_xq(g, depth, size - 1))
        }
        4 | 5 => Query::seq([rand_xq(g, depth, size - 1), rand_xq(g, depth, size - 1)]),
        6..=8 => {
            let s = rand_var_step(g, depth);
            let b = rand_xq(g, depth + 1, size - 1);
            Query::for_in(format!("v{depth}").as_str(), s, b)
        }
        9 | 10 => Query::if_then(rand_cond(g, depth, size - 1), rand_xq(g, depth, size - 1)),
        _ => Query::Var(rand_var(g, depth)),
    }
}

/// One random query of the T17 coverage corpus, mirroring the `par_diff`
/// distribution: mostly planner-shardable shapes (outer `for`s, `Seq`s of
/// loops, nested `for`s, `let`-hoisted sources, `where`-filtered sources)
/// plus raw XQ∼ queries for the fallback share.
fn rand_coverage_query(g: &mut TreeGen) -> Query {
    match g.below(14) {
        0..=2 => Query::for_in("v0", rand_root_chain(g), rand_xq(g, 1, 2)),
        3 | 4 => Query::elem(
            "out",
            Query::for_in("v0", rand_root_chain(g), rand_xq(g, 1, 2)),
        ),
        5 | 6 => {
            // Nested for: inner grounded at $root or at the outer var.
            let inner = if g.chance(1, 2) {
                rand_root_chain(g)
            } else {
                Query::step(Query::var("v0"), rand_axis(g), rand_test(g))
            };
            Query::for_in(
                "v0",
                rand_root_chain(g),
                Query::for_in("v1", inner, rand_xq(g, 2, 1)),
            )
        }
        7 | 8 => Query::seq([
            Query::for_in("v0", rand_root_chain(g), rand_xq(g, 1, 1)),
            rand_xq(g, 0, 1),
            Query::for_in("v0", rand_root_chain(g), rand_xq(g, 1, 1)),
        ]),
        9 => Query::let_in(
            "v0",
            Query::Var(Var::root()),
            Query::for_in(
                "v1",
                Query::step(Query::var("v0"), rand_axis(g), rand_test(g)),
                rand_xq(g, 2, 1),
            ),
        ),
        10 | 11 => {
            // where-filtered source.
            let filtered = Query::for_in(
                "v0",
                rand_root_chain(g),
                Query::if_then(rand_cond(g, 1, 1), Query::var("v0")),
            );
            Query::for_in("v0", filtered, rand_xq(g, 1, 1))
        }
        _ => rand_xq(g, 0, 3),
    }
}

/// The T17 coverage corpus: `cases` deterministic random queries (fixed
/// seed stream, comparable across runs and PRs).
pub fn coverage_corpus(cases: usize) -> Vec<Query> {
    let mut g = TreeGen::new(2005);
    (0..cases).map(|_| rand_coverage_query(&mut g)).collect()
}

/// The `let`-chain family for the composition-elimination blowup (E10).
pub fn let_chain_query(depth: usize) -> Query {
    let mut bindings = String::from("let $x0 := <a>{ $root/* }</a> return ");
    for i in 1..=depth {
        bindings.push_str(&format!(
            "let $x{i} := <a>{{ $x{prev}/* , $x{prev}/* }}</a> return ",
            prev = i - 1
        ));
    }
    parse_query(&format!("<out>{{ {bindings} $x{depth}/* }}</out>")).expect("static query parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_well_formed() {
        let doc = bib_document(10);
        assert!(doc.size() > 30);
        let out = xq_core::eval_query(&books_query(), &doc).unwrap();
        assert_eq!(out.len(), 1);
        assert!(xq_core::is_composition_free(&books_query()));
        assert!(doubling_query(3).size() > 0);
        assert!(!xq_core::is_composition_free(&let_chain_query(2)));
    }

    #[test]
    fn coverage_corpus_is_deterministic_and_evaluable() {
        let a = coverage_corpus(32);
        let b = coverage_corpus(32);
        assert_eq!(a, b, "same seed stream, same corpus");
        // Every corpus query evaluates (or budget-errors) on a small doc;
        // no unbound variables by construction.
        let mut g = TreeGen::new(0);
        let t = cv_xtree::random_tree(&mut g, 10, &["a", "b", "k"]);
        for q in &a {
            if let Err(e) = xq_core::eval_query(q, &t) {
                assert!(
                    matches!(e, xq_core::XqError::Budget { .. }),
                    "{q} failed with {e}"
                );
            }
        }
    }

    #[test]
    fn planner_workloads_shard() {
        use cv_xtree::DoublingFamily;
        let doc = DoublingFamily::Binary.arena(6);
        for (name, q) in planner_workloads(DoublingFamily::Binary) {
            let plan = xq_core::ParPlan::of(&q, &doc, xq_core::Budget::default());
            assert!(plan.engages(), "{name} must engage the planner");
        }
    }
}
