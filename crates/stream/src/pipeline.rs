//! The one pipeline builder behind [`stream_query`](crate::stream_query):
//! AST → composed [`Cursor`](crate::cursor::Cursor) pipeline, plus the
//! stream-level condition evaluator.
//!
//! [`build_root`] binds `$root` to the input tokens of a run;
//! [`build_query`] maps each query node to exactly one node cursor from
//! [`crate::cursor`] (allocation order is part of the accounting contract:
//! children register in the live-cursor gauge before their parent, and a
//! lazy variable reference charges its re-streaming *before* the defining
//! expression is rebuilt — the order behind the `peak_live_cursors` and
//! `recomputations` figures that `cursor_diff`'s golden file pins).
//! [`eval_cond`] evaluates conditions by probing freshly built pipelines
//! against the same shared budget.

use crate::buffer::QuantLoopCursor;
use crate::cursor::{
    bind, lookup, AxisStepCursor, Binding, BoxCursor, ElemCursor, EmptyCursor, Env, ForLoopCursor,
    IfCursor, ItemCursor, SeqCursor, Shared, SliceCursor,
};
use crate::StreamError;
use cv_xtree::{Label, Token};
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
            base,
            env.clone(),
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

/// Builds the pipeline of a whole streaming run: `[[q]]` with `$root`
/// bound to `input`, charging `shared`'s budget.
pub(crate) fn build_root<'q>(
    q: &'q Query,
    input: Rc<[Token]>,
    shared: &Shared,
) -> Result<BoxCursor<'q>, StreamError> {
    let env = bind(&None, Var::root(), Binding::Input(input));
    build_query(q, &env, shared)
}
