//! A recursive-descent parser for the Core XQuery surface syntax used in
//! the paper's examples.
//!
//! ```text
//! query  ::= item ("," item)*
//! item   ::= "for" "$x" "in" item ("where" cond)? "return" item
//!          | "let" "$x" ":=" item "return" item
//!          | "if" "(" cond ")" "then" item ("else" item)?
//!          | element | "()" | "(" query ")" | path
//! element::= "<a/>" | "<a>" ( "{" query "}" | element )* "</a>"
//! path   ::= "$x" step*
//! step   ::= "/" ν | "//" ν | "/axis::ν"      ν ::= tag | "*"
//! cond   ::= disjunction of conjunctions of:
//!            "not" "(" cond ")" | "some"/"every" "$x" "in" item
//!            "satisfies" cond | "true" | "(" cond ")"
//!          | operand (eqop operand)? — absent eqop means query-as-condition
//! eqop   ::= "=" | "=deep" (deep) | "eq" | "=atomic" (atomic)
//! ```
//!
//! The parser bounds how deeply the query it builds may nest
//! ([`MAX_QUERY_DEPTH`]): parsing, compiling, evaluating and dropping a
//! query all recurse over its AST, so an unbounded text could overflow a
//! worker's stack — which no unwind fence can catch. A text that would
//! nest deeper is rejected with a [`QueryParseError`] *while* it is being
//! parsed, before any over-deep tree exists. Nested parentheses,
//! constructors and binders count one level each; comma lists, path
//! steps and `and`/`or` chains count one level per item, step or operand,
//! because the AST nests them that deep.
//!
//! Sugar handled here rather than in the AST:
//!
//! * `where` clauses become `if` in the `return` body;
//! * `else` branches become `(if φ then α, if not(φ) then β)`;
//! * path operands in equalities become `some`-nesting, exactly as in the
//!   Fig 3 `XQ(Ai = Aj)` translation:
//!   `$x/a = $y/b` ⇒ `some $u in $x/a satisfies some $v in $y/b
//!   satisfies $u = $v`.

use crate::ast::{Cond, EqMode, Query, Var};
use cv_xtree::{Axis, NodeTest};

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for QueryParseError {}

/// The deepest AST nesting [`parse_query`] accepts. Far above the
/// queries people write (no query in the test corpora, golden files or
/// experiment tables nests 40 levels), and low enough that parsing,
/// compiling, evaluating on either engine, serializing and dropping the
/// deepest accepted query fits a 2 MiB thread stack even in an
/// unoptimized build (the `deep_queries` suite checks every nesting
/// construct).
pub const MAX_QUERY_DEPTH: usize = 256;

/// Parses a query in the surface syntax.
pub fn parse_query(src: &str) -> Result<Query, QueryParseError> {
    let mut p = Parser {
        src,
        pos: 0,
        fresh: 0,
        depth: 0,
        deepest: 0,
        too_deep: false,
    };
    let q = p.query()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    fresh: usize,
    /// AST depth of the node being parsed, counting the ancestors known
    /// so far (a path step or `and`/`or` wrapping it is added later, by
    /// [`Parser::reach`]).
    depth: usize,
    /// The deepest AST depth reached inside the current
    /// [`Parser::begin_measure`] region.
    deepest: usize,
    /// Set when the text nests deeper than [`MAX_QUERY_DEPTH`].
    too_deep: bool,
}

/// An equality operand before desugaring.
enum EqOperand {
    Var(Var),
    Path(Query),
    ConstLeaf(String),
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> QueryParseError {
        QueryParseError {
            offset: self.pos,
            message: m.into(),
        }
    }

    /// Records that the tree being built reaches AST depth `depth`,
    /// failing past [`MAX_QUERY_DEPTH`].
    fn reach(&mut self, depth: usize) -> Result<(), QueryParseError> {
        if depth > MAX_QUERY_DEPTH {
            self.too_deep = true;
            return Err(self.err(format!("query nests deeper than {MAX_QUERY_DEPTH} levels")));
        }
        self.deepest = self.deepest.max(depth);
        Ok(())
    }

    /// Runs `f` on a node `levels` below the current one.
    fn nested<T>(
        &mut self,
        levels: usize,
        f: fn(&mut Self) -> Result<T, QueryParseError>,
    ) -> Result<T, QueryParseError> {
        self.reach(self.depth + levels)?;
        self.depth += levels;
        let out = f(self);
        self.depth -= levels;
        out
    }

    /// Starts measuring the height of what is parsed next at the current
    /// depth; returns the enclosing region's mark for
    /// [`Parser::end_measure`]. (A pair of calls rather than a closure:
    /// every frame on the recursive descent costs stack.)
    fn begin_measure(&mut self) -> usize {
        std::mem::replace(&mut self.deepest, self.depth)
    }

    /// The height of what was parsed since the matching
    /// [`Parser::begin_measure`]: how many levels below the current depth
    /// its deepest node sits. Callers that wrap it afterwards (path
    /// steps, `and`/`or` folds) add the wrapping to that height.
    fn end_measure(&mut self, outer: usize) -> usize {
        let height = self.deepest - self.depth;
        self.deepest = self.deepest.max(outer);
        height
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            if let Some(c) = r.chars().next() {
                if c.is_whitespace() {
                    self.pos += c.len_utf8();
                    continue;
                }
            }
            // XQuery comments: (: ... :)
            if r.starts_with("(:") {
                if let Some(end) = r.find(":)") {
                    self.pos += end + 2;
                    continue;
                }
            }
            break;
        }
    }

    fn peek_str(&mut self, s: &str) -> bool {
        self.skip_ws();
        self.rest().starts_with(s)
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Keyword: like `eat` but must not be followed by an identifier char.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(after) = r.strip_prefix(kw) {
            let boundary = after
                .chars()
                .next()
                .map(|c| !c.is_ascii_alphanumeric() && c != '_' && c != '-')
                .unwrap_or(true);
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect(&mut self, s: &str) -> Result<(), QueryParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let c = bytes[self.pos] as char;
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        (self.pos > start).then(|| self.src[start..self.pos].to_string())
    }

    fn variable(&mut self) -> Result<Var, QueryParseError> {
        self.skip_ws();
        if !self.eat("$") {
            return Err(self.err("expected a variable"));
        }
        let name = self
            .ident()
            .ok_or_else(|| self.err("expected a variable name"))?;
        Ok(Var::new(name))
    }

    // ----- queries --------------------------------------------------------

    fn query(&mut self) -> Result<Query, QueryParseError> {
        // `Query::seq` nests the k-th item (from 0) under at most k + 1
        // `Seq` nodes.
        let mut items = vec![self.nested(1, Self::item)?];
        while self.eat(",") {
            let levels = items.len() + 1;
            items.push(self.nested(levels, Self::item)?);
        }
        Ok(Query::seq(items))
    }

    // `item`, `element` and `cond_atom` inline what `nested(1, …)` does:
    // they are the recursion itself, and one frame fewer per level lets
    // more nesting fit a stack.
    fn item(&mut self) -> Result<Query, QueryParseError> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let out = self.item_here();
        self.depth -= 1;
        out
    }

    // One small function per construct keeps each frame on the recursive
    // descent small, so more nesting fits a worker's stack.
    fn item_here(&mut self) -> Result<Query, QueryParseError> {
        self.skip_ws();
        if self.eat_kw("for") {
            return self.for_rest();
        }
        if self.eat_kw("let") {
            return self.let_rest();
        }
        if self.eat_kw("if") {
            return self.if_rest();
        }
        if self.peek_str("<") {
            return self.element();
        }
        if self.eat("(") {
            return self.paren_rest();
        }
        if self.peek_str("$") {
            let v = self.variable()?;
            return self.steps(Query::Var(v), 0);
        }
        Err(self.err("expected a query"))
    }

    /// `for` has been consumed.
    fn for_rest(&mut self) -> Result<Query, QueryParseError> {
        let v = self.variable()?;
        if !self.eat_kw("in") {
            return Err(self.err("expected 'in'"));
        }
        let source = self.item()?;
        // `where φ return β` becomes `if φ then β`: one level deeper.
        let where_cond = if self.eat_kw("where") {
            Some(self.nested(1, Self::cond)?)
        } else {
            None
        };
        if !self.eat_kw("return") {
            return Err(self.err("expected 'return'"));
        }
        let body = self.nested(usize::from(where_cond.is_some()), Self::item)?;
        let body = match where_cond {
            Some(c) => Query::if_then(c, body),
            None => body,
        };
        Ok(Query::for_in(v, source, body))
    }

    /// `let` has been consumed.
    fn let_rest(&mut self) -> Result<Query, QueryParseError> {
        let v = self.variable()?;
        self.expect(":=")?;
        let bound = self.item()?;
        if !self.eat_kw("return") {
            return Err(self.err("expected 'return'"));
        }
        let body = self.item()?;
        Ok(Query::let_in(v, bound, body))
    }

    /// `if` has been consumed.
    fn if_rest(&mut self) -> Result<Query, QueryParseError> {
        // Counted as if an `else` follows: its desugaring puts the
        // branches under `Seq` and `If`, and the negated condition under
        // `Seq`, `If` and `Not`.
        let cond = if self.eat("(") {
            let c = self.nested(2, Self::cond)?;
            self.expect(")")?;
            c
        } else {
            self.nested(2, Self::cond)?
        };
        if !self.eat_kw("then") {
            return Err(self.err("expected 'then'"));
        }
        let then = self.nested(1, Self::item)?;
        if self.eat_kw("else") {
            let els = self.nested(1, Self::item)?;
            // if φ then α else β := (if φ then α, if not(φ) then β)
            return Ok(Query::seq([
                Query::if_then(cond.clone(), then),
                Query::if_then(cond.negate(), els),
            ]));
        }
        Ok(Query::if_then(cond, then))
    }

    /// `(` has been consumed: `()`, or a parenthesized query and its steps.
    fn paren_rest(&mut self) -> Result<Query, QueryParseError> {
        if self.eat(")") {
            return Ok(Query::Empty);
        }
        let outer = self.begin_measure();
        let q = self.query();
        let height = self.end_measure(outer);
        let q = q?;
        self.expect(")")?;
        self.steps(q, height)
    }

    /// Parses trailing `/ν`, `//ν`, `/axis::ν` steps after a base query
    /// of the given height: each step nests the base one level deeper.
    fn steps(&mut self, mut base: Query, mut height: usize) -> Result<Query, QueryParseError> {
        loop {
            if self.peek_str("/") {
                height += 1;
                self.reach(self.depth + height)?;
            }
            if self.eat("//") {
                let nt = self.node_test()?;
                base = Query::step(base, Axis::Descendant, nt);
            } else if self.peek_str("/") {
                self.expect("/")?;
                // Optional axis prefix.
                let save = self.pos;
                let axis = if let Some(word) = self.ident() {
                    if self.eat("::") {
                        Some(match word.as_str() {
                            "child" => Axis::Child,
                            "descendant" => Axis::Descendant,
                            "self" => Axis::SelfAxis,
                            "dos" | "descendant-or-self" => Axis::DescendantOrSelf,
                            other => return Err(self.err(format!("unknown axis {other:?}"))),
                        })
                    } else {
                        // It was a bare node test; rewind.
                        self.pos = save;
                        None
                    }
                } else {
                    None
                };
                let axis = axis.unwrap_or(Axis::Child);
                let nt = self.node_test()?;
                base = Query::step(base, axis, nt);
            } else {
                return Ok(base);
            }
        }
    }

    fn node_test(&mut self) -> Result<NodeTest, QueryParseError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(NodeTest::Wildcard);
        }
        let name = self
            .ident()
            .ok_or_else(|| self.err("expected a node test"))?;
        Ok(NodeTest::tag(name))
    }

    fn element(&mut self) -> Result<Query, QueryParseError> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let out = self.element_here();
        self.depth -= 1;
        out
    }

    fn element_here(&mut self) -> Result<Query, QueryParseError> {
        self.expect("<")?;
        let tag = self
            .ident()
            .ok_or_else(|| self.err("expected a tag name"))?;
        if self.eat("/>") {
            return Ok(Query::leaf(tag));
        }
        self.expect(">")?;
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            if self.peek_str("</") {
                break;
            }
            // The body `Seq` nests the k-th part k + 1 levels down.
            let levels = parts.len() + 1;
            if self.eat("{") {
                let q = self.nested(levels, Self::query)?;
                self.expect("}")?;
                parts.push(q);
            } else if self.peek_str("<") {
                parts.push(self.nested(levels, Self::element)?);
            } else {
                return Err(self.err("expected '{', an element, or a closing tag"));
            }
        }
        self.expect("</")?;
        let close = self
            .ident()
            .ok_or_else(|| self.err("expected a tag name"))?;
        if close != tag {
            return Err(self.err(format!("mismatched tags <{tag}> and </{close}>")));
        }
        self.expect(">")?;
        Ok(Query::elem(tag, Query::seq(parts)))
    }

    // ----- conditions -------------------------------------------------------

    fn cond(&mut self) -> Result<Cond, QueryParseError> {
        let outer = self.begin_measure();
        let c = self.cond_and();
        let mut height = self.end_measure(outer);
        let mut c = c?;
        while self.eat_kw("or") {
            let outer = self.begin_measure();
            let rhs = self.cond_and();
            let rhs_height = self.end_measure(outer);
            c = c.or(rhs?);
            // The fold nests both operands one level under the new `Or`.
            height = height.max(rhs_height) + 1;
            self.reach(self.depth + height)?;
        }
        Ok(c)
    }

    fn cond_and(&mut self) -> Result<Cond, QueryParseError> {
        let outer = self.begin_measure();
        let c = self.cond_atom();
        let mut height = self.end_measure(outer);
        let mut c = c?;
        while self.eat_kw("and") {
            let outer = self.begin_measure();
            let rhs = self.cond_atom();
            let rhs_height = self.end_measure(outer);
            c = c.and(rhs?);
            height = height.max(rhs_height) + 1;
            self.reach(self.depth + height)?;
        }
        Ok(c)
    }

    fn cond_atom(&mut self) -> Result<Cond, QueryParseError> {
        self.reach(self.depth + 1)?;
        self.depth += 1;
        let out = self.cond_atom_here();
        self.depth -= 1;
        out
    }

    fn cond_atom_here(&mut self) -> Result<Cond, QueryParseError> {
        self.skip_ws();
        if self.eat_kw("not") {
            self.expect("(")?;
            let c = self.cond()?;
            self.expect(")")?;
            return Ok(c.negate());
        }
        if self.eat_kw("some") {
            let (v, src, sat) = self.quantifier_rest()?;
            return Ok(Cond::some(v, src, sat));
        }
        if self.eat_kw("every") {
            let (v, src, sat) = self.quantifier_rest()?;
            return Ok(Cond::every(v, src, sat));
        }
        if self.eat_kw("true") {
            let _ = self.eat("()");
            return Ok(Cond::True);
        }
        // Query-only constructs used as conditions (XQ∼ style).
        if self.peek_str("for ")
            || self.peek_str("for\t")
            || self.peek_str("for\n")
            || self.peek_str("if ")
            || self.peek_str("if(")
            || self.peek_str("let ")
        {
            return Ok(Cond::query(self.item()?));
        }
        if self.eat("(") {
            return self.cond_paren_rest();
        }
        // An element: either a ⟨a/⟩ equality operand or a query condition.
        if self.peek_str("<") {
            return self.cond_element();
        }
        self.cond_operand()
    }

    /// `some`/`every` has been consumed: `$x in α satisfies φ`.
    fn quantifier_rest(&mut self) -> Result<(Var, Query, Cond), QueryParseError> {
        let v = self.variable()?;
        if !self.eat_kw("in") {
            return Err(self.err("expected 'in'"));
        }
        let src = self.item()?;
        if !self.eat_kw("satisfies") {
            return Err(self.err("expected 'satisfies'"));
        }
        let sat = self.cond_atom()?;
        Ok((v, src, sat))
    }

    /// `(` has been consumed in condition position.
    fn cond_paren_rest(&mut self) -> Result<Cond, QueryParseError> {
        if self.eat(")") {
            // The empty sequence as a (false) condition.
            return Ok(Cond::query(Query::Empty));
        }
        // Could be a parenthesized condition or a parenthesized query;
        // try the condition reading first and backtrack on failure — or
        // when a step follows (then it was a query after all).
        // A condition reading that nests too deep rejects the text: the
        // query reading would only report a less helpful error.
        let save = (self.pos, self.deepest);
        match self.cond() {
            Ok(c) if self.eat(")") && !self.peek_str("/") => return Ok(c),
            Err(e) if self.too_deep => return Err(e),
            _ => {}
        }
        (self.pos, self.deepest) = save;
        Ok(Cond::query(self.paren_rest()?))
    }

    /// An element in condition position: a ⟨a/⟩ equality operand or a
    /// query condition.
    fn cond_element(&mut self) -> Result<Cond, QueryParseError> {
        let el = self.element()?;
        let is_leaf = matches!(&el, Query::Elem(_, b) if matches!(&**b, Query::Empty));
        let has_eq = self.peek_str("=") || self.peek_str("eq ");
        if !(is_leaf && has_eq) {
            return Ok(Cond::query(el));
        }
        // Fall through to the equality machinery with the leaf operand.
        let Query::Elem(tag, _) = el else {
            unreachable!()
        };
        let mode = if self.eat("=deep") {
            EqMode::Deep
        } else if self.eat("=atomic") {
            EqMode::Atomic
        } else if self.eat("=") {
            EqMode::Deep
        } else {
            self.expect("eq")?;
            EqMode::Atomic
        };
        let rhs = self.nested(2, Self::eq_operand)?;
        Ok(self.desugar_eq(EqOperand::ConstLeaf(tag.as_str().to_string()), rhs, mode))
    }

    /// `operand (eqop operand)?` — `desugar_eq` puts a path operand at
    /// most two levels down, under `some` binders.
    fn cond_operand(&mut self) -> Result<Cond, QueryParseError> {
        let lhs = self.nested(2, Self::eq_operand)?;
        let mode = if self.eat("=deep") {
            Some(EqMode::Deep)
        } else if self.eat("=atomic") {
            Some(EqMode::Atomic)
        } else if self.eat("=") {
            Some(EqMode::Deep)
        } else if self.eat_kw("eq") {
            Some(EqMode::Atomic)
        } else {
            None
        };
        match mode {
            None => match lhs {
                EqOperand::Var(v) => Ok(Cond::query(Query::Var(v))),
                EqOperand::Path(q) => Ok(Cond::query(q)),
                EqOperand::ConstLeaf(_) => Err(self.err("an element is not a condition")),
            },
            Some(mode) => {
                let rhs = self.nested(2, Self::eq_operand)?;
                Ok(self.desugar_eq(lhs, rhs, mode))
            }
        }
    }

    fn eq_operand(&mut self) -> Result<EqOperand, QueryParseError> {
        self.skip_ws();
        if self.peek_str("<") {
            let save = self.pos;
            let el = self.element()?;
            return match el {
                Query::Elem(tag, body) if matches!(*body, Query::Empty) => {
                    Ok(EqOperand::ConstLeaf(tag.as_str().to_string()))
                }
                _ => {
                    self.pos = save;
                    Err(self.err("only empty elements ⟨a/⟩ may appear in equalities"))
                }
            };
        }
        let v = self.variable()?;
        let q = self.steps(Query::Var(v.clone()), 0)?;
        match q {
            Query::Var(v) => Ok(EqOperand::Var(v)),
            path => Ok(EqOperand::Path(path)),
        }
    }

    /// Builds the equality condition, `some`-wrapping path operands.
    fn desugar_eq(&mut self, lhs: EqOperand, rhs: EqOperand, mode: EqMode) -> Cond {
        // Normalize to var-or-const by binding paths with fresh variables.
        let (lv, lbind) = self.operand_var(lhs);
        let (rv, rbind) = self.operand_var(rhs);
        let core = match (lv, rv) {
            (OpVar::Var(x), OpVar::Var(y)) => Cond::VarEq(x, y, mode),
            (OpVar::Var(x), OpVar::Leaf(a)) | (OpVar::Leaf(a), OpVar::Var(x)) => {
                Cond::ConstEq(x, a.as_str().into(), mode)
            }
            (OpVar::Leaf(a), OpVar::Leaf(b)) => {
                if a == b {
                    Cond::True
                } else {
                    Cond::True.negate()
                }
            }
        };
        let core = match rbind {
            Some((v, src)) => Cond::some(v, src, core),
            None => core,
        };
        match lbind {
            Some((v, src)) => Cond::some(v, src, core),
            None => core,
        }
    }

    fn operand_var(&mut self, op: EqOperand) -> (OpVar, Option<(Var, Query)>) {
        match op {
            EqOperand::Var(v) => (OpVar::Var(v), None),
            EqOperand::ConstLeaf(a) => (OpVar::Leaf(a), None),
            EqOperand::Path(q) => {
                self.fresh += 1;
                let v = Var::fresh(self.fresh);
                (OpVar::Var(v.clone()), Some((v, q)))
            }
        }
    }
}

enum OpVar {
    Var(Var),
    Leaf(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{boolean_result, eval_query};
    use cv_xtree::parse_tree;

    fn p(src: &str) -> Query {
        parse_query(src).unwrap_or_else(|e| panic!("{e}\nsource: {src}"))
    }

    #[test]
    fn parses_simple_forms() {
        assert_eq!(p("()"), Query::Empty);
        assert_eq!(p("$x"), Query::var("x"));
        assert_eq!(p("<a/>"), Query::leaf("a"));
        assert_eq!(p("<a></a>"), Query::leaf("a"));
        assert_eq!(p("$x/b"), Query::child(Query::var("x"), "b"));
        assert_eq!(p("$x/*"), Query::child_any(Query::var("x")));
    }

    #[test]
    fn parses_axes() {
        assert_eq!(
            p("$x//b"),
            Query::step(Query::var("x"), Axis::Descendant, NodeTest::tag("b"))
        );
        assert_eq!(
            p("$x/descendant::b"),
            Query::step(Query::var("x"), Axis::Descendant, NodeTest::tag("b"))
        );
        assert_eq!(
            p("$x/self::*"),
            Query::step(Query::var("x"), Axis::SelfAxis, NodeTest::Wildcard)
        );
        assert_eq!(
            p("$x/child::b/c"),
            Query::child(Query::child(Query::var("x"), "b"), "c")
        );
    }

    #[test]
    fn parses_for_if_let() {
        let q = p("for $x in $root/a return <hit>{$x}</hit>");
        assert!(matches!(q, Query::For(_, _, _)));
        let q = p("if ($x) then <y/>");
        assert!(matches!(q, Query::If(_, _)));
        let q = p("let $x := <a/> return $x");
        assert!(matches!(q, Query::Let(_, _, _)));
    }

    #[test]
    fn parses_element_content_with_braces() {
        let q = p("<out>{ $x }{ $y }</out>");
        match q {
            Query::Elem(tag, body) => {
                assert_eq!(tag.as_str(), "out");
                assert!(matches!(&*body, Query::Seq(_, _)));
            }
            other => panic!("expected element, got {other}"),
        }
        // Nested literal elements.
        let q = p("<out><inner/></out>");
        assert_eq!(q, Query::elem("out", Query::leaf("inner")));
    }

    #[test]
    fn equality_modes_in_conditions() {
        let q = p("if ($x = $y) then <t/>");
        match q {
            Query::If(c, _) => assert_eq!(*c, Cond::var_eq_deep("x", "y")),
            other => panic!("{other}"),
        }
        let q = p("if ($x =atomic $y) then <t/>");
        match q {
            Query::If(c, _) => assert_eq!(*c, Cond::var_eq_atomic("x", "y")),
            other => panic!("{other}"),
        }
        let q = p("if ($x eq $y) then <t/>");
        match q {
            Query::If(c, _) => assert_eq!(*c, Cond::var_eq_atomic("x", "y")),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn const_equality() {
        let q = p("if ($x =atomic <true/>) then <t/>");
        match q {
            Query::If(c, _) => {
                assert_eq!(*c, Cond::ConstEq("x".into(), "true".into(), EqMode::Atomic))
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn path_equality_desugars_to_some() {
        let q = p("if ($x/year = $y/year) then <t/>");
        match q {
            Query::If(c, _) => assert!(matches!(&*c, Cond::Some(_, _, _))),
            other => panic!("{other}"),
        }
    }

    #[test]
    fn where_clause_desugars_to_if() {
        let a = p("for $x in $root/a where $x = $x return $x");
        let b = p("for $x in $root/a return if ($x = $x) then $x");
        assert_eq!(a, b);
    }

    #[test]
    fn else_desugars_to_negation() {
        let q = p("if (true) then <a/> else <b/>");
        assert!(matches!(q, Query::Seq(_, _)));
        let t = parse_tree("<r/>").unwrap();
        let out = eval_query(&q.desugar(&mut 0), &t).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].label().as_str(), "a");
    }

    #[test]
    fn boolean_connectives() {
        let q = p("if (true and not(true)) then <t/>");
        let t = parse_tree("<r/>").unwrap();
        assert!(eval_query(&q, &t).unwrap().is_empty());
        let q = p("if (true or not(true)) then <t/>");
        assert_eq!(eval_query(&q, &t).unwrap().len(), 1);
    }

    #[test]
    fn parses_the_intro_books_query() {
        // The paper's flagship composition-free example (with year as a
        // leaf-tag comparison in our text-free data model).
        let q = p(r#"
            <books_2004>
            { for $x in $root/bib/book
              where some $w in $x/year satisfies $w/y2004
              return
              <book>
                {$x/title}
                <authors>
                  { for $y in $x/author return
                    <author> {$y/lastname} </author> }
                </authors>
              </book> }
            </books_2004>
        "#);
        let doc = parse_tree(
            "<bib>\
               <book><year><y2004/></year><title><t1/></title>\
                 <author><lastname><smith/></lastname></author>\
                 <author><lastname><jones/></lastname></author></book>\
               <book><year><y1999/></year><title><t2/></title></book>\
             </bib>",
        )
        .unwrap();
        // $root/bib is a child step from root; our root *is* bib, so use a
        // wrapper document.
        let wrapper = cv_xtree::Tree::node("doc", [doc]);
        let out = eval_query(&q, &wrapper).unwrap();
        assert_eq!(out.len(), 1);
        let result = &out[0];
        assert_eq!(result.label().as_str(), "books_2004");
        assert_eq!(result.children().len(), 1, "only the 2004 book");
        let book = &result.children()[0];
        assert_eq!(book.children().len(), 2); // title + authors
        let authors = &book.children()[1];
        assert_eq!(authors.children().len(), 2);
        assert!(boolean_result(&q, &wrapper).unwrap());
    }

    #[test]
    fn parses_qbf_style_query_from_example_7_5() {
        let q = p(r#"
          <a>
          { if (every $x in $root/* satisfies
               (some $y in $root/* satisfies
                 ((not($x =atomic <true/>) or $y =atomic <true/>) and
                  ($x =atomic <true/> or not($y =atomic <true/>)))))
            then <yes/> }
          </a>
        "#);
        let t = parse_tree("<r><true/><false/></r>").unwrap();
        assert!(
            boolean_result(&q, &t).unwrap(),
            "the QBF of Ex. 7.5 is true"
        );
    }

    #[test]
    fn comments_are_skipped() {
        let q = p("(: a comment :) $x (: another :)");
        assert_eq!(q, Query::var("x"));
    }

    #[test]
    fn comma_sequences() {
        let q = p("(<a/>, <b/>, $x)");
        let t = parse_tree("<r/>").unwrap();
        let out = eval_query(&q, &cv_xtree::Tree::node("root", [t])).unwrap_err();
        // $x is unbound — error proves all three items parsed.
        assert!(matches!(out, crate::semantics::XqError::UnboundVariable(_)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("").is_err());
        assert!(parse_query("for $x return $x").is_err());
        assert!(parse_query("<a>").is_err());
        assert!(parse_query("<a></b>").is_err());
        assert!(parse_query("if $x then").is_err());
        assert!(parse_query("$x/unknownaxis::a").is_err());
    }

    /// `n` copies of `open`, then `core`, then `n` copies of `close`.
    fn nest(n: usize, open: &str, core: &str, close: &str) -> String {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    }

    fn assert_too_deep(src: &str) {
        let e = parse_query(src).expect_err("an over-deep query must not parse");
        assert!(e.message.contains("nests deeper"), "{e}");
    }

    #[test]
    fn over_deep_queries_are_parse_errors() {
        const N: usize = 100_000;
        assert_too_deep(&nest(N, "(", "$root", ")"));
        assert_too_deep(&nest(N, "<a>", "", "</a>"));
        assert_too_deep(&nest(N, "<a>{", "$root", "}</a>"));
        assert_too_deep(&nest(N, "for $x in $root return ", "$x", ""));
        assert_too_deep(&format!("({})", vec!["$root"; N].join(", ")));
        assert_too_deep(&format!("$root{}", "/a".repeat(N)));
        assert_too_deep(&format!("$root{}", "//a".repeat(N)));
        assert_too_deep(&format!(
            "if ({}) then <y/>",
            vec!["$root"; N].join(" and ")
        ));
        assert_too_deep(&format!("if ({}) then <y/>", vec!["$root"; N].join(" or ")));
        assert_too_deep(&nest(N, "if (not(", "$root", "))"));
        assert_too_deep(&nest(N, "if ($root) then <a/> else ", "<b/>", ""));
        assert_too_deep(&nest(N, "<o>{ (", "$root", ")/a }</o>"));
    }

    #[test]
    fn post_wrapped_nesting_adds_up() {
        // Parentheses around step chains: each level is shallow on its
        // own, but the AST stacks every chain on the one inside it.
        let chain = "/a".repeat(MAX_QUERY_DEPTH / 8);
        assert_too_deep(&nest(16, "(", "$root", &format!("){chain}")));
        // The same for `and` chains nested in parentheses.
        let conj = " and $root".repeat(MAX_QUERY_DEPTH / 8);
        assert_too_deep(&format!(
            "if ({}) then <y/>",
            nest(16, "(", "$root", &format!("{conj})"))
        ));
    }

    #[test]
    fn wide_queries_are_not_deep() {
        // Many shallow parts side by side: the cap bounds nesting, not size.
        let wide = vec!["<b>{ $root/a }</b>"; MAX_QUERY_DEPTH / 4].join(", ");
        let parts = "<p>{ $root }</p>".repeat(MAX_QUERY_DEPTH / 4);
        p(&format!(
            "<out>{{ for $x in $root/* return ({wide}) }}{parts}</out>"
        ));
    }

    #[test]
    fn steps_on_parenthesized_queries() {
        // Used by the §7.2 rewriting experiments: (⟨a⟩…⟨/a⟩)/χ::ν.
        let q = p("(<a><b/></a>)/b");
        assert!(matches!(q, Query::Step(_, _, _)));
        let t = parse_tree("<r/>").unwrap();
        let out = eval_query(&q, &t).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].label().as_str(), "b");
    }
}
