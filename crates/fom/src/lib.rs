//! Data complexity machinery (Koch PODS 2005, §6): FO(Majority) over tag
//! strings and the positional string semantics of Remark 6.7 — the
//! substance of the TC⁰ upper bound (Theorem 6.6).
//!
//! Barrington–Immerman–Straubing: TC⁰ = FOM, first-order logic with
//! majority quantifiers over string positions. Theorem 6.6 encodes Core
//! XQuery evaluation as FOM formulas `size[[α]]` / `pos_l[[α]]`; the two
//! ingredients reproduced here are
//!
//! * formula-style predicates over tag strings — `node(i, j)`
//!   (matching tags), `axis_child`, `axis_descendant`, `item` — written
//!   with counting exactly as in the proof ("the number of opening tags
//!   between i and j equals the number of closing tags"), evaluated over
//!   concrete strings and validated against the tree library;
//! * [`eval_positional`] — the Remark 6.7 evaluator in which an XQuery
//!   variable is bound to an *integer position* into the string value of
//!   its defining expression (`expr($x)`), not to a tree. Variables are
//!   `O(log n)` bits of state; everything else is recomputation — the
//!   LOGSPACE/TC⁰ story made executable.

use cv_xtree::{Label, Token, Tree};
use std::rc::Rc;
use xq_core::ast::{Cond, EqMode, Query, Var};

// ---------------------------------------------------------------------------
// FOM-style predicates over tag strings (Theorem 6.6 proof)
// ---------------------------------------------------------------------------

/// A tag string: the sequence of opening/closing tags of a document.
pub type TagString = Vec<Token>;

/// `node(i, j)`: positions `i` and `j` (0-based here) hold an opening tag
/// and *its matching* closing tag. Written exactly as in the proof: same
/// label, `i < j`, and the number of opening tags with that label strictly
/// between them equals the number of closing ones.
pub fn node(s: &TagString, i: usize, j: usize) -> bool {
    if i >= j || j >= s.len() {
        return false;
    }
    let (Token::Open(a), Token::Close(b)) = (&s[i], &s[j]) else {
        return false;
    };
    if a != b {
        return false;
    }
    let opens = s[i + 1..j]
        .iter()
        .filter(|t| matches!(t, Token::Open(x) if x == a))
        .count();
    let closes = s[i + 1..j]
        .iter()
        .filter(|t| matches!(t, Token::Close(x) if x == a))
        .count();
    opens == closes
}

/// The matching close position for the open tag at `i`, if well-formed.
pub fn close_of(s: &TagString, i: usize) -> Option<usize> {
    (i + 1..s.len()).find(|&j| node(s, i, j))
}

/// `axis_descendant(i, j)`: node `j` is a proper descendant of node `i`
/// (both given by their opening-tag positions) — `i < j ∧ j′ < i′`.
pub fn axis_descendant(s: &TagString, i: usize, j: usize) -> bool {
    match (close_of(s, i), close_of(s, j)) {
        (Some(ip), Some(jp)) => i < j && jp < ip,
        _ => false,
    }
}

/// `axis_child(i, j)`: `j` is a child of `i`: a descendant with no node
/// strictly between them.
pub fn axis_child(s: &TagString, i: usize, j: usize) -> bool {
    if !axis_descendant(s, i, j) {
        return false;
    }
    let (ip, jp) = (close_of(s, i).unwrap(), close_of(s, j).unwrap());
    !(0..s.len()).any(|l| close_of(s, l).is_some_and(|lp| i < l && l < j && jp < lp && lp < ip))
}

/// `item(i)`: position `i` opens a top-level tree of the (forest-valued)
/// string — a node not enclosed by any other node.
pub fn item(s: &TagString, i: usize) -> bool {
    close_of(s, i).is_some() && !(0..i).any(|j| axis_descendant(s, j, i))
}

// ---------------------------------------------------------------------------
// Remark 6.7: the positional semantics
// ---------------------------------------------------------------------------

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosError {
    /// Unbound variable.
    UnboundVariable(String),
    /// Budget exhausted (positional evaluation recomputes heavily).
    Budget,
    /// `=mon` is not an XQuery equality.
    BadEqualityMode,
}

impl std::fmt::Display for PosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            PosError::Budget => f.write_str("positional evaluation budget exhausted"),
            PosError::BadEqualityMode => f.write_str("=mon is not an XQuery equality"),
        }
    }
}

impl std::error::Error for PosError {}

/// A binding in the positional semantics: the variable's *defining
/// expression* (Remark 6.7's `expr($x)`), the environment prefix it was
/// bound under, and the position of its opening tag in
/// `[[expr($x)]](prefix)`. The root variable is position 0 of the input.
#[derive(Clone)]
enum PosBinding<'q> {
    Input,
    Defined {
        expr: &'q Query,
        env: PosEnv<'q>,
        pos: usize,
    },
}

type PosEnv<'q> = Option<Rc<PosEnvNode<'q>>>;

struct PosEnvNode<'q> {
    var: Var,
    binding: PosBinding<'q>,
    parent: PosEnv<'q>,
}

struct PosInterp<'q> {
    input: TagString,
    fuel: std::cell::Cell<u64>,
    _marker: std::marker::PhantomData<&'q ()>,
}

impl<'q> PosInterp<'q> {
    fn tick(&self) -> Result<(), PosError> {
        let f = self.fuel.get();
        if f == 0 {
            return Err(PosError::Budget);
        }
        self.fuel.set(f - 1);
        Ok(())
    }

    fn lookup(&self, env: &PosEnv<'q>, v: &Var) -> Result<PosBinding<'q>, PosError> {
        let mut cur = env;
        while let Some(n) = cur {
            if &n.var == v {
                return Ok(match &n.binding {
                    PosBinding::Input => PosBinding::Input,
                    PosBinding::Defined { expr, env, pos } => PosBinding::Defined {
                        expr,
                        env: env.clone(),
                        pos: *pos,
                    },
                });
            }
            cur = &n.parent;
        }
        Err(PosError::UnboundVariable(v.name().to_string()))
    }

    /// The tag (sub)string a variable denotes: recompute `[[expr($x)]]`
    /// and slice out the node at the stored position (Remark 6.7's
    /// re-evaluation of `[[expr($xi)]]_{i−1}`).
    fn var_string(&self, b: &PosBinding<'q>) -> Result<TagString, PosError> {
        match b {
            PosBinding::Input => Ok(self.input.clone()),
            PosBinding::Defined { expr, env, pos } => {
                let s = self.eval(expr, env)?;
                let end = close_of(&s, *pos).ok_or(PosError::Budget)?;
                Ok(s[*pos..=end].to_vec())
            }
        }
    }

    fn eval(&self, q: &'q Query, env: &PosEnv<'q>) -> Result<TagString, PosError> {
        self.tick()?;
        match q {
            Query::Empty => Ok(Vec::new()),
            Query::Elem(a, body) => {
                let mut out = vec![Token::Open(a.clone())];
                out.extend(self.eval(body, env)?);
                out.push(Token::Close(a.clone()));
                Ok(out)
            }
            Query::Seq(x, y) => {
                let mut out = self.eval(x, env)?;
                out.extend(self.eval(y, env)?);
                Ok(out)
            }
            Query::Var(v) => self.var_string(&self.lookup(env, v)?),
            Query::Step(base, axis, nt) => {
                let s = self.eval(base, env)?;
                let mut out = Vec::new();
                // Enumerate item roots, then axis positions within.
                for i in 0..s.len() {
                    if !item(&s, i) {
                        continue;
                    }
                    for j in i..s.len() {
                        let selected = match axis {
                            cv_xtree::Axis::SelfAxis => j == i,
                            cv_xtree::Axis::Child => axis_child(&s, i, j),
                            cv_xtree::Axis::Descendant => axis_descendant(&s, i, j),
                            cv_xtree::Axis::DescendantOrSelf => j == i || axis_descendant(&s, i, j),
                        };
                        if !selected {
                            continue;
                        }
                        if let Token::Open(l) = &s[j] {
                            if nt.matches(l) {
                                let end = close_of(&s, j).ok_or(PosError::Budget)?;
                                out.extend_from_slice(&s[j..=end]);
                            }
                        }
                    }
                }
                Ok(out)
            }
            Query::For(v, source, body) | Query::Let(v, source, body) => {
                let s = self.eval(source, env)?;
                let mut out = Vec::new();
                for i in 0..s.len() {
                    if item(&s, i) {
                        let new_env = Some(Rc::new(PosEnvNode {
                            var: v.clone(),
                            binding: PosBinding::Defined {
                                expr: source,
                                env: env.clone(),
                                pos: i,
                            },
                            parent: env.clone(),
                        }));
                        out.extend(self.eval(body, &new_env)?);
                    }
                }
                Ok(out)
            }
            Query::If(c, body) => {
                if self.cond(c, env)? {
                    self.eval(body, env)
                } else {
                    Ok(Vec::new())
                }
            }
        }
    }

    fn first_label(&self, b: &PosBinding<'q>) -> Result<Option<Label>, PosError> {
        let s = self.var_string(b)?;
        Ok(match s.first() {
            Some(Token::Open(l)) => Some(l.clone()),
            _ => None,
        })
    }

    fn cond(&self, c: &'q Cond, env: &PosEnv<'q>) -> Result<bool, PosError> {
        self.tick()?;
        match c {
            Cond::True => Ok(true),
            // The FOM encoding of $xi =deep $xj: equal sizes and equal
            // symbols at every position (Fig 8's cond[[·]]).
            Cond::VarEq(x, y, mode) => {
                let bx = self.lookup(env, x)?;
                let by = self.lookup(env, y)?;
                match mode {
                    EqMode::Deep => Ok(self.var_string(&bx)? == self.var_string(&by)?),
                    EqMode::Atomic => Ok(self.first_label(&bx)? == self.first_label(&by)?),
                    EqMode::Mon => Err(PosError::BadEqualityMode),
                }
            }
            Cond::ConstEq(x, a, mode) => {
                let bx = self.lookup(env, x)?;
                match mode {
                    EqMode::Deep => Ok(self.var_string(&bx)?
                        == vec![Token::Open(a.clone()), Token::Close(a.clone())]),
                    _ => Ok(self.first_label(&bx)?.as_ref() == Some(a)),
                }
            }
            Cond::Query(q) => Ok(!self.eval(q, env)?.is_empty()),
            Cond::Some(v, source, sat) | Cond::Every(v, source, sat) => {
                let every = matches!(c, Cond::Every(_, _, _));
                let s = self.eval(source, env)?;
                for i in 0..s.len() {
                    if item(&s, i) {
                        let new_env = Some(Rc::new(PosEnvNode {
                            var: v.clone(),
                            binding: PosBinding::Defined {
                                expr: source,
                                env: env.clone(),
                                pos: i,
                            },
                            parent: env.clone(),
                        }));
                        let r = self.cond(sat, &new_env)?;
                        if every && !r {
                            return Ok(false);
                        }
                        if !every && r {
                            return Ok(true);
                        }
                    }
                }
                Ok(every)
            }
            Cond::And(a, b) => Ok(self.cond(a, env)? && self.cond(b, env)?),
            Cond::Or(a, b) => Ok(self.cond(a, env)? || self.cond(b, env)?),
            Cond::Not(a) => Ok(!self.cond(a, env)?),
        }
    }
}

/// Evaluates `q` on `input` under the Remark 6.7 positional semantics,
/// returning the output tag string. `fuel` bounds total work.
pub fn eval_positional(q: &Query, input: &Tree, fuel: u64) -> Result<TagString, PosError> {
    let interp = PosInterp {
        input: input.tokens(),
        fuel: std::cell::Cell::new(fuel),
        _marker: std::marker::PhantomData,
    };
    let env = Some(Rc::new(PosEnvNode {
        var: Var::root(),
        binding: PosBinding::Input,
        parent: None,
    }));
    interp.eval(q, &env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_xtree::{parse_tree, ArenaDoc, NodeId};
    use xq_core::parse_query;

    const FUEL: u64 = 5_000_000;

    fn ts(src: &str) -> TagString {
        parse_tree(src).unwrap().tokens()
    }

    #[test]
    fn node_matches_tag_pairs() {
        // <c><d/><a/><a><c/></a></c>
        let s = ts("<c><d/><a/><a><c/></a></c>");
        assert!(node(&s, 0, 9), "outer c at positions 0..9");
        assert!(node(&s, 1, 2), "d");
        assert!(node(&s, 5, 8), "second a wraps inner c");
        assert!(!node(&s, 0, 2));
        assert!(!node(&s, 5, 6), "open a vs open c");
    }

    #[test]
    fn axes_agree_with_the_tree_library() {
        let tree = parse_tree("<r><a><b/><b/></a><c><a/></c></r>").unwrap();
        let s = tree.tokens();
        let doc = ArenaDoc::from_tree(&tree);
        // Opening-tag positions in document order correspond to preorder
        // node ids.
        let opens: Vec<usize> = (0..s.len())
            .filter(|&i| matches!(s[i], Token::Open(_)))
            .collect();
        for (ni, &i) in opens.iter().enumerate() {
            for (nj, &j) in opens.iter().enumerate() {
                let (ni, nj) = (NodeId(ni as u32), NodeId(nj as u32));
                assert_eq!(
                    axis_descendant(&s, i, j),
                    ni != nj && doc.is_in_subtree(ni, nj),
                    "desc {i} {j}"
                );
                assert_eq!(
                    axis_child(&s, i, j),
                    doc.parent(nj) == Some(ni),
                    "child {i} {j}"
                );
            }
        }
    }

    #[test]
    fn item_finds_forest_roots() {
        let mut s = ts("<a><b/></a>");
        s.extend(ts("<c/>"));
        let items: Vec<usize> = (0..s.len()).filter(|&i| item(&s, i)).collect();
        assert_eq!(items, vec![0, 4]);
    }

    fn agree(src: &str, doc: &str) {
        let q = parse_query(src).unwrap();
        let t = parse_tree(doc).unwrap();
        let got = eval_positional(&q, &t, FUEL)
            .unwrap_or_else(|e| panic!("positional failed for {src}: {e}"));
        let want: TagString = xq_core::eval_query(&q, &t)
            .unwrap()
            .iter()
            .flat_map(Tree::tokens)
            .collect();
        assert_eq!(got, want, "query {src} on {doc}");
    }

    #[test]
    fn positional_agrees_on_remark_6_7_example() {
        // "for $x in $root/a return $x" on ⟨c⟩⟨d/⟩⟨a/⟩⟨a⟩⟨c/⟩⟨/a⟩⟨/c⟩
        agree("for $x in $root/a return $x", "<c><d/><a/><a><c/></a></c>");
    }

    #[test]
    fn positional_agrees_on_core_forms() {
        let doc = "<r><a><b/></a><a><c/></a><b/></r>";
        for src in [
            "()",
            "<out/>",
            "$root",
            "$root/a",
            "$root//b",
            "for $x in $root/a return <w>{ $x/* }</w>",
            "for $x in $root/a return for $y in $x/* return $y",
            "if ($root/b) then <yes/>",
            "for $x in $root/* return if ($x = $x) then <eq/>",
            "for $x in $root/* return for $y in $root/* return \
             if ($x =atomic $y) then <at/>",
            "if (not($root/zzz)) then <none/>",
            "if (some $x in $root/a satisfies $x/b) then <has/>",
            "if (every $x in $root/a satisfies $x/b) then <all/>",
        ] {
            agree(src, doc);
        }
    }

    #[test]
    fn positional_handles_composition() {
        // Variables over constructed values: positions point into the
        // recomputed string of the defining expression.
        agree(
            "for $y in (for $w in $root/a return <b>{$w}</b>) return $y/*",
            "<r><a><p/></a><a><q/></a></r>",
        );
        agree("let $x := <a><b/></a> return $x/b", "<r/>");
    }

    #[test]
    fn data_scaling_is_polynomial() {
        // Fixed query, growing data (the data-complexity regime): the
        // positional evaluator completes with fuel linear-ish in |t|.
        // The predicates node/axis are evaluated naively (each is a
        // linear scan, as in the circuit picture), so sizes stay small
        // here; the criterion bench sweeps further in release mode.
        let q = parse_query("for $x in $root/a return <hit/>").unwrap();
        for size in [8usize, 16, 32] {
            let mut g = cv_xtree::TreeGen::new(size as u64);
            let t = cv_xtree::random_tree(&mut g, size, &["a", "b"]);
            let r = eval_positional(&q, &t, 200_000_000);
            assert!(r.is_ok(), "size {size}");
        }
    }

    #[test]
    fn budget_guard() {
        let q = parse_query("for $a in $root//* return for $b in $root//* return <t/>").unwrap();
        let mut g = cv_xtree::TreeGen::new(3);
        let t = cv_xtree::random_tree(&mut g, 60, &["a"]);
        assert_eq!(eval_positional(&q, &t, 1000), Err(PosError::Budget));
    }
}
