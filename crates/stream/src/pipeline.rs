//! The one pipeline builder behind [`stream_query`](crate::stream_query):
//! AST → composed [`Cursor`] pipeline, plus the stream-level condition
//! evaluator.
//!
//! [`build_query`] maps each query node to exactly one node cursor from
//! [`crate::cursor`] (allocation order is part of the accounting contract:
//! children register in the live-cursor gauge before their parent, and a
//! lazy variable reference charges its re-streaming *before* the defining
//! expression is rebuilt — the order behind the `peak_live_cursors` and
//! `recomputations` figures that `cursor_diff`'s golden file pins).
//! [`eval_cond`] evaluates conditions by probing freshly built pipelines
//! against the same shared budget.
//!
//! The public face is [`Pipeline`]: `stream_query` configures one (pull
//! budget + [`BufferPolicy`]) and calls [`Pipeline::build`]; external
//! consumers can also compose cursors by hand (see the example on
//! [`Pipeline`]).

use crate::buffer::{BufferPolicy, QuantLoopCursor};
use crate::cursor::{
    bind, lookup, AxisStepCursor, Binding, BoxCursor, ElemCursor, EmptyCursor, Env, ForLoopCursor,
    IfCursor, ItemCursor, SeqCursor, Shared, SliceCursor, StepBase,
};
use crate::{StreamError, StreamStats};
use cv_xtree::{Axis, Label, NodeTest, Token};
use std::rc::Rc;
use xq_core::ast::{Cond, EqMode, Query, Var};

/// Builds the cursor pipeline for `[[q]](env)`.
pub(crate) fn build_query<'q>(
    q: &'q Query,
    env: &Env<'q>,
    shared: &Shared,
) -> Result<BoxCursor<'q>, StreamError> {
    Ok(match q {
        Query::Empty => Box::new(EmptyCursor::new(shared)),
        Query::Elem(a, body) => {
            let body = build_query(body, env, shared)?;
            Box::new(ElemCursor::new(a.clone(), body, shared))
        }
        Query::Seq(a, b) => {
            let cur = build_query(a, env, shared)?;
            Box::new(SeqCursor::new(cur, (b, env.clone()), shared))
        }
        Query::Var(v) => build_binding(lookup(env, v)?, shared)?,
        Query::Step(base, axis, test) => Box::new(AxisStepCursor::new(
            StepBase::Query(base, env.clone()),
            *axis,
            test.clone(),
            shared,
        )),
        Query::For(v, s, b) | Query::Let(v, s, b) => {
            Box::new(ForLoopCursor::new(v.clone(), s, b, env.clone(), shared))
        }
        Query::If(c, body) => Box::new(IfCursor::new(c, body, env.clone(), shared)),
    })
}

/// Builds the cursor for a variable's binding: a [`SliceCursor`] over
/// materialized input, or (for a lazy handle) one charged re-streaming of
/// the defining expression behind an [`ItemCursor`].
pub(crate) fn build_binding<'q>(
    b: Binding<'q>,
    shared: &Shared,
) -> Result<BoxCursor<'q>, StreamError> {
    match b {
        Binding::Input(tokens) => Ok(Box::new(SliceCursor::new(tokens, shared))),
        Binding::Lazy { expr, env, index } => {
            shared.recompute();
            let inner = build_query(expr, &env, shared)?;
            Ok(Box::new(ItemCursor::new(inner, index, shared)))
        }
    }
}

fn first_label(b: Binding<'_>, shared: &Shared) -> Result<Option<Label>, StreamError> {
    let mut c = build_binding(b, shared)?;
    match c.pull()? {
        Some(Token::Open(l)) => Ok(Some(l)),
        _ => Ok(None),
    }
}

fn streams_equal<'q>(a: Binding<'q>, b: Binding<'q>, shared: &Shared) -> Result<bool, StreamError> {
    let mut ca = build_binding(a, shared)?;
    let mut cb = build_binding(b, shared)?;
    loop {
        match (ca.pull()?, cb.pull()?) {
            (None, None) => return Ok(true),
            (Some(x), Some(y)) if x == y => continue,
            _ => return Ok(false),
        }
    }
}

/// Evaluates a condition by streaming: equality compares token streams
/// (deep) or first labels (atomic), emptiness probes pull one token, and
/// quantifiers run a short-circuiting [`QuantLoopCursor`] over the same
/// buffered-or-lazy source bindings the `for`-loop would see.
pub(crate) fn eval_cond<'q>(
    c: &'q Cond,
    env: &Env<'q>,
    shared: &Shared,
) -> Result<bool, StreamError> {
    match c {
        Cond::True => Ok(true),
        Cond::VarEq(x, y, mode) => {
            let bx = lookup(env, x)?;
            let by = lookup(env, y)?;
            match mode {
                EqMode::Deep => streams_equal(bx, by, shared),
                EqMode::Atomic => Ok(first_label(bx, shared)? == first_label(by, shared)?),
                EqMode::Mon => Err(StreamError::BadEqualityMode),
            }
        }
        Cond::ConstEq(x, a, mode) => {
            let bx = lookup(env, x)?;
            match mode {
                EqMode::Deep => {
                    let mut cx = build_binding(bx, shared)?;
                    let t1 = cx.pull()?;
                    let t2 = cx.pull()?;
                    let t3 = cx.pull()?;
                    Ok(t1 == Some(Token::Open(a.clone()))
                        && t2 == Some(Token::Close(a.clone()))
                        && t3.is_none())
                }
                _ => Ok(first_label(bx, shared)?.as_ref() == Some(a)),
            }
        }
        Cond::Query(q) => {
            let mut c = build_query(q, env, shared)?;
            Ok(c.pull()?.is_some())
        }
        Cond::Some(v, source, sat) => {
            QuantLoopCursor::new(v.clone(), source, sat, env, shared)?.verdict(true, shared)
        }
        Cond::Every(v, source, sat) => {
            QuantLoopCursor::new(v.clone(), source, sat, env, shared)?.verdict(false, shared)
        }
        Cond::And(a, b) => Ok(eval_cond(a, env, shared)? && eval_cond(b, env, shared)?),
        Cond::Or(a, b) => Ok(eval_cond(a, env, shared)? || eval_cond(b, env, shared)?),
        Cond::Not(a) => Ok(!eval_cond(a, env, shared)?),
    }
}

/// The pipeline builder: one pull budget + one [`BufferPolicy`], shared by
/// every cursor built from it. [`stream_query`](crate::stream_query) and
/// [`stream_boolean`](crate::stream_boolean) drive
/// `Pipeline::new(..).build(..)`; external consumers can also compose
/// node cursors by hand.
///
/// # Example: a two-step pipeline composed by hand
///
/// An axis step over raw input tokens, wrapped in a constructed element —
/// no query AST involved:
///
/// ```
/// use cv_xtree::{parse_tree, Axis, Label, NodeTest};
/// use xq_stream::{BufferPolicy, Pipeline};
///
/// let tree = parse_tree("<r><a><b/></a><c/><a/></r>").unwrap();
/// let pipe = Pipeline::new(10_000, BufferPolicy::lazy());
///
/// // Step 1: `child::a` over the input tokens.
/// let hits = pipe.step(tree.tokens(), Axis::Child, NodeTest::Tag(Label::new("a")));
/// // Step 2: wrap all matches in one `<out>` element.
/// let mut wrapped = pipe.elem(Label::new("out"), hits);
///
/// let mut out = Vec::new();
/// while let Some(t) = wrapped.pull().unwrap() {
///     out.push(t);
/// }
/// // <out> + <a><b/></a> + <a/> + </out> = 8 tokens.
/// assert_eq!(out.len(), 8);
/// assert!(pipe.stats().pulls > 0);
/// ```
pub struct Pipeline {
    shared: Shared,
}

impl Pipeline {
    /// A pipeline charging at most `max_pulls` cursor pulls, buffering
    /// loop/quantifier sources per `policy`.
    pub fn new(max_pulls: u64, policy: BufferPolicy) -> Pipeline {
        Pipeline {
            shared: Shared::new(max_pulls, policy.per_source_cap),
        }
    }

    /// Builds the full pipeline for `q` with `$root` bound to `input` —
    /// the engine path of every streaming run.
    pub fn build<'q>(
        &self,
        q: &'q Query,
        input: impl Into<Rc<[Token]>>,
    ) -> Result<BoxCursor<'q>, StreamError> {
        let env = bind(&None, Var::root(), Binding::Input(input.into()));
        build_query(q, &env, &self.shared)
    }

    /// A source cursor over raw tokens (hand composition).
    pub fn source<'q>(&self, tokens: impl Into<Rc<[Token]>>) -> BoxCursor<'q> {
        Box::new(SliceCursor::new(tokens.into(), &self.shared))
    }

    /// An axis-step cursor ranging over raw input tokens (hand
    /// composition; the engine path steps over re-streamable queries
    /// instead).
    pub fn step<'q>(
        &self,
        input: impl Into<Rc<[Token]>>,
        axis: Axis,
        test: NodeTest,
    ) -> BoxCursor<'q> {
        Box::new(AxisStepCursor::new(
            StepBase::Input(input.into()),
            axis,
            test,
            &self.shared,
        ))
    }

    /// An element-construction cursor wrapping `body` in `⟨tag⟩…⟨/tag⟩`
    /// (hand composition).
    pub fn elem<'q>(&self, tag: Label, body: BoxCursor<'q>) -> BoxCursor<'q> {
        Box::new(ElemCursor::new(tag, body, &self.shared))
    }

    /// Snapshot of this pipeline's counters. `tokens_out` and `workers`
    /// are the driver's to fill in (a pipeline doesn't know what the
    /// caller collected).
    pub fn stats(&self) -> StreamStats {
        self.shared.snapshot()
    }
}
