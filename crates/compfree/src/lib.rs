//! Engines for composition-free Core XQuery (`XQ⁻`, Koch PODS 2005, §7.1).
//!
//! Because every variable of an `XQ⁻` query ranges exclusively over nodes
//! of the *input* tree (never over constructed intermediate results), two
//! special evaluation strategies exist:
//!
//! * [`NestedLoopEngine`] — Proposition 7.3's direct nested-loop
//!   evaluation. Bindings are [`NodeId`]s (one machine word each), so the
//!   working space is `O(|Q| · log |t|)`: the engine counts its live
//!   bindings to exhibit exactly that bound.
//! * [`witness_boolean`] — Proposition 7.6's NP procedure for the
//!   negation-free language: `for`/`some` become existential guesses
//!   (implemented as backtracking search), sound and complete for Boolean
//!   queries because `[[for …]]` is a concatenation over all the choices
//!   the guess ranges over.
//!
//! Both engines navigate the [`ArenaDoc`] store: axis scans are `u32`
//! range walks over contiguous spans, label tests and atomic equality are
//! O(1) interned-id compares, and result emission walks preorder spans.
//! Since `ArenaDoc: Send + Sync`, one loaded document can also serve
//! nested-loop evaluations from many threads.

use cv_xtree::{ArenaDoc, LabelId, NodeId, Token, Tree};
use xq_core::ast::{Cond, EqMode, Query, Var};
use xq_core::fragments::is_composition_free;

/// Errors of the composition-free engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfError {
    /// The query is not in `XQ⁻` (run [`xq_core::to_composition_free`] or
    /// the full evaluator instead).
    NotCompositionFree,
    /// The witness-search engine only handles the negation-free fragment.
    NegationPresent,
    /// A free variable other than `$root` was encountered.
    UnboundVariable(String),
    /// Step budget exceeded.
    Budget,
}

impl std::fmt::Display for CfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfError::NotCompositionFree => f.write_str("query is not composition-free"),
            CfError::NegationPresent => {
                f.write_str("witness search requires a negation-free query")
            }
            CfError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            CfError::Budget => f.write_str("step budget exceeded"),
        }
    }
}

impl std::error::Error for CfError {}

/// Space/time counters for the nested-loop engine. The paper's bound
/// (Prop 7.3) is that `max_live_bindings` stays `O(|Q|)` — one pointer
/// per variable — regardless of the output size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Peak number of simultaneously live variable bindings.
    pub max_live_bindings: usize,
    /// Evaluation steps.
    pub steps: u64,
    /// Tokens emitted to the output sink (not working space).
    pub output_tokens: u64,
}

/// Proposition 7.3's nested-loop evaluator over an arena document.
pub struct NestedLoopEngine<'d> {
    doc: &'d ArenaDoc,
    max_steps: u64,
    stats: SpaceStats,
    env: Vec<(Var, NodeId)>,
}

impl<'d> NestedLoopEngine<'d> {
    /// Creates an engine for the document.
    pub fn new(doc: &'d ArenaDoc) -> Self {
        NestedLoopEngine {
            doc,
            max_steps: 100_000_000,
            stats: SpaceStats::default(),
            env: Vec::new(),
        }
    }

    /// Overrides the step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// The counters accumulated by the last run.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    fn step(&mut self) -> Result<(), CfError> {
        self.stats.steps += 1;
        if self.stats.steps > self.max_steps {
            return Err(CfError::Budget);
        }
        Ok(())
    }

    fn lookup(&self, v: &Var) -> Result<NodeId, CfError> {
        self.env
            .iter()
            .rev()
            .find(|(name, _)| name == v)
            .map(|(_, id)| *id)
            .ok_or_else(|| CfError::UnboundVariable(v.name().to_string()))
    }

    /// Evaluates `q` (which must be `XQ⁻`), streaming the result's tag
    /// string into `out`. `$root` is bound to the document root.
    pub fn eval(&mut self, q: &Query, out: &mut Vec<Token>) -> Result<(), CfError> {
        if !is_composition_free(q) {
            return Err(CfError::NotCompositionFree);
        }
        self.stats = SpaceStats::default();
        self.env.clear();
        self.env.push((Var::root(), self.doc.root()));
        self.stats.max_live_bindings = 1;
        self.emit_query(q, out)
    }

    /// Decides the Boolean query per the §7.1 convention.
    pub fn boolean(&mut self, q: &Query) -> Result<bool, CfError> {
        let mut out = Vec::new();
        self.eval(q, &mut out)?;
        match q {
            Query::Elem(_, _) => Ok(out.len() > 2), // root has a child
            _ => Ok(!out.is_empty()),
        }
    }

    fn emit_node(&mut self, id: NodeId, out: &mut Vec<Token>) -> Result<(), CfError> {
        // One step per emitted node (as the recursive Rc walk charged),
        // paid up front; the walk itself is an iterative preorder over the
        // arena span — no recursion, so comb-deep subtrees are safe.
        let nodes = self.doc.subtree_len(id) as u64;
        self.stats.steps += nodes;
        if self.stats.steps > self.max_steps {
            return Err(CfError::Budget);
        }
        out.extend(self.doc.tokens_of(id));
        self.stats.output_tokens += 2 * nodes;
        Ok(())
    }

    fn emit_query(&mut self, q: &Query, out: &mut Vec<Token>) -> Result<(), CfError> {
        self.step()?;
        match q {
            Query::Empty => Ok(()),
            Query::Elem(a, body) => {
                out.push(Token::Open(a.clone()));
                self.stats.output_tokens += 1;
                self.emit_query(body, out)?;
                out.push(Token::Close(a.clone()));
                self.stats.output_tokens += 1;
                Ok(())
            }
            Query::Seq(x, y) => {
                self.emit_query(x, out)?;
                self.emit_query(y, out)
            }
            Query::Var(v) => {
                let id = self.lookup(v)?;
                self.emit_node(id, out)
            }
            Query::Step(base, axis, nt) => {
                let Query::Var(v) = &**base else {
                    return Err(CfError::NotCompositionFree);
                };
                let id = self.lookup(v)?;
                for n in self.doc.axis(id, *axis, nt) {
                    self.emit_node(n, out)?;
                }
                Ok(())
            }
            Query::For(x, source, body) => {
                let nodes = self.source_nodes(source)?;
                for n in nodes {
                    self.env.push((x.clone(), n));
                    self.stats.max_live_bindings = self.stats.max_live_bindings.max(self.env.len());
                    let r = self.emit_query(body, out);
                    self.env.pop();
                    r?;
                }
                Ok(())
            }
            Query::If(c, body) => {
                if self.cond(c)? {
                    self.emit_query(body, out)
                } else {
                    Ok(())
                }
            }
            Query::Let(_, _, _) => Err(CfError::NotCompositionFree),
        }
    }

    fn cond(&mut self, c: &Cond) -> Result<bool, CfError> {
        self.step()?;
        match c {
            Cond::True => Ok(true),
            Cond::VarEq(x, y, mode) => {
                let a = self.lookup(x)?;
                let b = self.lookup(y)?;
                Ok(match mode {
                    EqMode::Deep => self.doc.deep_eq(a, b),
                    // Atomic equality compares root labels (see xq-core) —
                    // one interned-id compare on the arena.
                    _ => self.doc.label_id(a) == self.doc.label_id(b),
                })
            }
            Cond::ConstEq(x, a, mode) => {
                let n = self.lookup(x)?;
                Ok(match mode {
                    EqMode::Deep => label_is(self.doc, n, a.as_str()) && self.doc.is_leaf(n),
                    _ => label_is(self.doc, n, a.as_str()),
                })
            }
            Cond::Some(x, source, sat) => {
                let nodes = self.source_nodes(source)?;
                for n in nodes {
                    self.env.push((x.clone(), n));
                    self.stats.max_live_bindings = self.stats.max_live_bindings.max(self.env.len());
                    let r = self.cond(sat);
                    self.env.pop();
                    if r? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Cond::Every(x, source, sat) => {
                let nodes = self.source_nodes(source)?;
                for n in nodes {
                    self.env.push((x.clone(), n));
                    self.stats.max_live_bindings = self.stats.max_live_bindings.max(self.env.len());
                    let r = self.cond(sat);
                    self.env.pop();
                    if !r? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Cond::And(a, b) => Ok(self.cond(a)? && self.cond(b)?),
            Cond::Or(a, b) => Ok(self.cond(a)? || self.cond(b)?),
            Cond::Not(a) => Ok(!self.cond(a)?),
            Cond::Query(_) => Err(CfError::NotCompositionFree),
        }
    }

    fn source_nodes(&mut self, source: &Query) -> Result<Vec<NodeId>, CfError> {
        let Query::Step(base, axis, nt) = source else {
            return Err(CfError::NotCompositionFree);
        };
        let Query::Var(v) = &**base else {
            return Err(CfError::NotCompositionFree);
        };
        let id = self.lookup(v)?;
        Ok(self.doc.axis(id, *axis, nt))
    }
}

/// Proposition 7.6's NP decision procedure for *negation-free* `XQ⁻`
/// Boolean queries: the modified semantics `[[·]]′` guesses one binding
/// per `for`, implemented here as backtracking search for a witness.
///
/// Returns the same Boolean as the nested-loop engine (soundness and
/// completeness per the Prop 7.6 argument), but touches only one
/// assignment of bindings at a time.
pub fn witness_boolean(q: &Query, tree: &Tree) -> Result<bool, CfError> {
    if !is_composition_free(q) {
        return Err(CfError::NotCompositionFree);
    }
    let doc = ArenaDoc::from_tree(tree);
    let mut env: Vec<(Var, NodeId)> = vec![(Var::root(), doc.root())];
    let found = match q {
        // Boolean convention: ⟨a⟩α⟨/a⟩ is true iff α produces anything.
        Query::Elem(_, body) => nonempty(&doc, body, &mut env)?,
        other => nonempty(&doc, other, &mut env)?,
    };
    Ok(found)
}

fn lookup(env: &[(Var, NodeId)], v: &Var) -> Result<NodeId, CfError> {
    env.iter()
        .rev()
        .find(|(name, _)| name == v)
        .map(|(_, id)| *id)
        .ok_or_else(|| CfError::UnboundVariable(v.name().to_string()))
}

/// Whether node `n`'s label is the string `a` — a lookup-only interned-id
/// compare (a never-interned constant matches nothing, and the query must
/// not grow the global interner).
fn label_is(doc: &ArenaDoc, n: NodeId, a: &str) -> bool {
    LabelId::lookup(a).is_some_and(|want| doc.label_id(n) == want)
}

/// Does `[[q]]′` have a nonempty instantiation?
fn nonempty(doc: &ArenaDoc, q: &Query, env: &mut Vec<(Var, NodeId)>) -> Result<bool, CfError> {
    match q {
        Query::Empty => Ok(false),
        Query::Elem(_, _) => Ok(true), // always constructs a node
        Query::Seq(a, b) => Ok(nonempty(doc, a, env)? || nonempty(doc, b, env)?),
        Query::Var(_) => Ok(true),
        Query::Step(base, axis, nt) => {
            let Query::Var(v) = &**base else {
                return Err(CfError::NotCompositionFree);
            };
            let id = lookup(env, v)?;
            Ok(!doc.axis(id, *axis, nt).is_empty())
        }
        Query::For(x, source, body) => {
            let Query::Step(base, axis, nt) = &**source else {
                return Err(CfError::NotCompositionFree);
            };
            let Query::Var(v) = &**base else {
                return Err(CfError::NotCompositionFree);
            };
            let id = lookup(env, v)?;
            for n in doc.axis(id, *axis, nt) {
                env.push((x.clone(), n));
                let r = nonempty(doc, body, env);
                env.pop();
                if r? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Query::If(c, body) => Ok(guess_cond(doc, c, env)? && nonempty(doc, body, env)?),
        Query::Let(_, _, _) => Err(CfError::NotCompositionFree),
    }
}

fn guess_cond(doc: &ArenaDoc, c: &Cond, env: &mut Vec<(Var, NodeId)>) -> Result<bool, CfError> {
    match c {
        Cond::True => Ok(true),
        Cond::VarEq(x, y, mode) => {
            let a = lookup(env, x)?;
            let b = lookup(env, y)?;
            Ok(match mode {
                EqMode::Deep => doc.deep_eq(a, b),
                _ => doc.label_id(a) == doc.label_id(b),
            })
        }
        Cond::ConstEq(x, a, mode) => {
            let n = lookup(env, x)?;
            Ok(match mode {
                EqMode::Deep => label_is(doc, n, a.as_str()) && doc.is_leaf(n),
                _ => label_is(doc, n, a.as_str()),
            })
        }
        Cond::Some(x, source, sat) => {
            let Query::Step(base, axis, nt) = &**source else {
                return Err(CfError::NotCompositionFree);
            };
            let Query::Var(v) = &**base else {
                return Err(CfError::NotCompositionFree);
            };
            let id = lookup(env, v)?;
            for n in doc.axis(id, *axis, nt) {
                env.push((x.clone(), n));
                let r = guess_cond(doc, sat, env);
                env.pop();
                if r? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Cond::And(a, b) => Ok(guess_cond(doc, a, env)? && guess_cond(doc, b, env)?),
        Cond::Or(a, b) => Ok(guess_cond(doc, a, env)? || guess_cond(doc, b, env)?),
        // Negation over guess-free conditions (atomic equalities and their
        // Boolean combinations) is deterministic given the bindings — the
        // Prop 7.7 query's `not $xi = $xj` disequalities fall here, as in
        // the classical conjunctive-query-with-≠ reading. Negation over
        // quantified conditions would need co-nondeterminism: rejected.
        Cond::Not(inner) => {
            if cond_is_guess_free(inner) {
                Ok(!guess_cond(doc, inner, env)?)
            } else {
                Err(CfError::NegationPresent)
            }
        }
        Cond::Every(v, s, sat) => {
            if !cond_is_guess_free(sat) {
                return Err(CfError::NegationPresent);
            }
            let Query::Step(base, axis, nt) = &**s else {
                return Err(CfError::NotCompositionFree);
            };
            let Query::Var(sv) = &**base else {
                return Err(CfError::NotCompositionFree);
            };
            let id = lookup(env, sv)?;
            for n in doc.axis(id, *axis, nt) {
                env.push((v.clone(), n));
                let r = guess_cond(doc, sat, env);
                env.pop();
                if !r? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Cond::Query(_) => Err(CfError::NotCompositionFree),
    }
}

/// A condition is guess-free when it quantifies over nothing: its value is
/// determined by the current bindings alone.
fn cond_is_guess_free(c: &Cond) -> bool {
    match c {
        Cond::VarEq(_, _, _) | Cond::ConstEq(_, _, _) | Cond::True => true,
        Cond::And(a, b) | Cond::Or(a, b) => cond_is_guess_free(a) && cond_is_guess_free(b),
        Cond::Not(a) => cond_is_guess_free(a),
        Cond::Some(_, _, _) | Cond::Every(_, _, _) | Cond::Query(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_xtree::parse_tree;
    use xq_core::{boolean_result, parse_query};

    fn doc(src: &str) -> Tree {
        parse_tree(src).unwrap()
    }

    fn nested_loop_tokens(q: &Query, t: &Tree) -> Vec<Token> {
        let d = ArenaDoc::from_tree(t);
        let mut e = NestedLoopEngine::new(&d);
        let mut out = Vec::new();
        e.eval(q, &mut out).unwrap();
        out
    }

    #[test]
    fn nested_loop_agrees_with_reference_semantics() {
        let t = doc("<r><a><b/><c/></a><a><b/></a><d/></r>");
        for src in [
            "<out>{ for $x in $root/a return <w>{ $x/b }</w> }</out>",
            "<out>{ for $x in $root/* return if ($x =atomic <d/>) then $x }</out>",
            "<out>{ for $x in $root//b return $x }</out>",
            "<out>{ for $x in $root/a return \
               if (some $y in $x/b satisfies true) then $x }</out>",
            "<out>{ for $x in $root/a return for $y in $root/a return \
               if ($x = $y) then <same/> }</out>",
            "<out>{ if (not(some $y in $root/zzz satisfies true)) then <none/> }</out>",
            "()",
            "$root/d",
        ] {
            let q = parse_query(src).unwrap();
            let got = nested_loop_tokens(&q, &t);
            let want: Vec<Token> = xq_core::eval_query(&q, &t)
                .unwrap()
                .iter()
                .flat_map(|tr| tr.tokens())
                .collect();
            assert_eq!(got, want, "query {src}");
        }
    }

    #[test]
    fn space_stays_linear_in_query_depth() {
        // Prop 7.3: live bindings ≤ #variables + 1, independent of |t|.
        let q = parse_query(
            "<out>{ for $a in $root/* return for $b in $a/* return \
             for $c in $b/* return <hit/> }</out>",
        )
        .unwrap();
        for size in [10usize, 100, 1000] {
            let mut g = cv_xtree::TreeGen::new(size as u64);
            let t = cv_xtree::random_tree(&mut g, size, &["a", "b"]);
            let d = ArenaDoc::from_tree(&t);
            let mut e = NestedLoopEngine::new(&d);
            let mut out = Vec::new();
            e.eval(&q, &mut out).unwrap();
            assert!(
                e.stats().max_live_bindings <= 4,
                "bindings {} at size {size}",
                e.stats().max_live_bindings
            );
        }
    }

    #[test]
    fn rejects_composition() {
        let q = parse_query("for $y in <a><b/></a> return $y/b").unwrap();
        let t = doc("<r/>");
        let d = ArenaDoc::from_tree(&t);
        let mut e = NestedLoopEngine::new(&d);
        assert_eq!(
            e.eval(&q, &mut Vec::new()),
            Err(CfError::NotCompositionFree)
        );
        assert_eq!(witness_boolean(&q, &t), Err(CfError::NotCompositionFree));
    }

    #[test]
    fn witness_search_agrees_on_positive_queries() {
        let t = doc("<r><a><b/></a><a><c/></a></r>");
        for src in [
            "<out>{ for $x in $root/a return $x/b }</out>",
            "<out>{ for $x in $root/a return $x/z }</out>",
            "<out>{ if (some $x in $root/a satisfies some $y in $x/c \
               satisfies true) then <y/> }</out>",
            "<out>{ for $x in $root/a return for $y in $root/a return \
               if ($x = $y) then <e/> }</out>",
            "<out>{ () }</out>",
            "<out><always/></out>",
        ] {
            let q = parse_query(src).unwrap();
            let want = boolean_result(&q, &t).unwrap();
            assert_eq!(witness_boolean(&q, &t).unwrap(), want, "query {src}");
        }
    }

    #[test]
    fn witness_search_handles_guess_free_negation_only() {
        // Atomic disequality (the Prop 7.7 pattern) is fine.
        let q = parse_query(
            "<out>{ for $x in $root/* return for $y in $root/* return \
             if (not($x =atomic $y)) then <ne/> }</out>",
        )
        .unwrap();
        let t = doc("<r><a/><b/></r>");
        assert_eq!(witness_boolean(&q, &t), Ok(true));
        // Negation over a quantified condition is rejected.
        let q =
            parse_query("<out>{ if (not(some $x in $root/* satisfies true)) then <none/> }</out>")
                .unwrap();
        assert_eq!(witness_boolean(&q, &t), Err(CfError::NegationPresent));
    }

    #[test]
    fn boolean_convention() {
        let t = doc("<r><a/></r>");
        let d = ArenaDoc::from_tree(&t);
        let mut e = NestedLoopEngine::new(&d);
        let yes = parse_query("<out>{ $root/a }</out>").unwrap();
        let no = parse_query("<out>{ $root/z }</out>").unwrap();
        assert!(e.boolean(&yes).unwrap());
        assert!(!e.boolean(&no).unwrap());
    }

    #[test]
    fn budget_guard() {
        let q = parse_query(
            "<out>{ for $a in $root//* return for $b in $root//* return \
             for $c in $root//* return <t/> }</out>",
        )
        .unwrap();
        let mut g = cv_xtree::TreeGen::new(1);
        let t = cv_xtree::random_tree(&mut g, 200, &["a"]);
        let d = ArenaDoc::from_tree(&t);
        let mut e = NestedLoopEngine::new(&d).with_max_steps(10_000);
        assert_eq!(e.eval(&q, &mut Vec::new()), Err(CfError::Budget));
    }
}
