//! The buffering layer: per-source materialization under a token cap,
//! with lazy fallback above it.
//!
//! Pure recomputation (Theorem 4.5) is the right *space* story but a
//! terrible *time* story on small intermediates: re-streaming a
//! `for`-source once per `item_exists` probe and once per variable
//! reference makes the engine ~160× slower than materializing on the tiny
//! doubling-family outputs. The fix is a *per-source decision*, not a
//! separate engine: every `for`/`some`/`every` source gets an
//! [`ItemBuffer`] that materializes its items **once**, on demand, while
//! the stream stays under the cap ([`StreamConfig::buffer_cap`]; 0
//! disables buffering, the pure Theorem 4.5 discipline). A source that
//! overflows the cap reverts to the lazy discipline — `item_exists` probing plus lazy
//! [`Binding`]s — so the Theorem 4.5 space bound degrades by at most
//! `O(cap)` *per live loop/quantifier scope*.
//!
//! Accounting: a decision that engages and holds for the source's whole
//! life counts in [`StreamStats::buffered_sources`]; an overflow reversal
//! counts in [`StreamStats::lazy_fallbacks`]; every token parked in a
//! buffer is tracked in the high-water mark behind
//! [`StreamStats::peak_buffered_tokens`].
//!
//! [`StreamConfig::buffer_cap`]: crate::StreamConfig::buffer_cap
//! [`StreamStats::buffered_sources`]: crate::StreamStats::buffered_sources
//! [`StreamStats::lazy_fallbacks`]: crate::StreamStats::lazy_fallbacks
//! [`StreamStats::peak_buffered_tokens`]: crate::StreamStats::peak_buffered_tokens

use crate::cursor::{bind, Binding, BoxCursor, Env, Shared};
use crate::pipeline::{build_query, eval_cond};
use crate::StreamError;
use cv_xtree::Token;
use std::rc::Rc;
use xq_core::ast::{Cond, Query, Var};

/// Incrementally materialized items of a `for`/`some`/`every` source —
/// the buffered fast path. One cursor streams the source exactly once;
/// items are split off the token stream *on demand*, so a consumer that
/// stops early (a short-circuiting condition, an outer boolean probe)
/// pulls no more of the source than the lazy discipline would. When the
/// stream exceeds the per-source token cap, `overflowed` is set and the
/// caller falls back to lazy re-streaming (the pulls spent probing still
/// count against the budget).
pub(crate) struct ItemBuffer<'q> {
    shared: Shared,
    cursor: Option<BoxCursor<'q>>,
    items: Vec<Rc<[Token]>>,
    partial: Vec<Token>,
    depth: i64,
    total: usize,
    overflowed: bool,
    /// Whether this buffer's held decision was already counted in
    /// `buffered_sources` (set at full drain; drop counts the rest).
    counted: bool,
}

impl<'q> ItemBuffer<'q> {
    fn new(expr: &'q Query, env: &Env<'q>, shared: &Shared) -> Result<ItemBuffer<'q>, StreamError> {
        shared.recompute();
        Ok(ItemBuffer {
            shared: shared.clone(),
            cursor: Some(build_query(expr, env, shared)?),
            items: Vec::new(),
            partial: Vec::new(),
            depth: 0,
            total: 0,
            overflowed: false,
            counted: false,
        })
    }

    /// Tokens currently parked in this buffer (and charged to the
    /// buffered-token gauge).
    fn parked(&self) -> u64 {
        (self.items.iter().map(|i| i.len()).sum::<usize>() + self.partial.len()) as u64
    }

    /// Returns item #m (0-based), pulling just far enough to materialize
    /// it. `Ok(None)` means the source ended before item #m *or* the cap
    /// was exceeded — check [`ItemBuffer::overflowed`] to tell them apart.
    fn get(&mut self, m: usize) -> Result<Option<Rc<[Token]>>, StreamError> {
        while self.items.len() <= m {
            let Some(cursor) = self.cursor.as_mut() else {
                return Ok(None);
            };
            let Some(t) = cursor.pull()? else {
                // Source fully buffered: the decision held.
                self.cursor = None;
                if !self.counted {
                    self.counted = true;
                    self.shared.count_buffered();
                }
                return Ok(None);
            };
            self.total += 1;
            if self.total > self.shared.buffer_limit {
                self.overflowed = true;
                self.cursor = None;
                self.shared.count_fallback();
                return Ok(None);
            }
            match &t {
                Token::Open(_) => self.depth += 1,
                Token::Close(_) => self.depth -= 1,
            }
            self.shared.buffer_tokens(1);
            self.partial.push(t);
            if self.depth == 0 {
                self.items.push(Rc::from(std::mem::take(&mut self.partial)));
            }
        }
        Ok(Some(self.items[m].clone()))
    }
}

impl Drop for ItemBuffer<'_> {
    fn drop(&mut self) {
        self.shared.unbuffer_tokens(self.parked());
        if !self.overflowed && !self.counted {
            // The decision engaged and held for the source's whole life
            // (an early-stopping consumer simply never drained it).
            self.shared.count_buffered();
        }
    }
}

/// Iterates the item bindings of a `for`/`some`/`every` source: the
/// buffered fast path when the policy's cap is nonzero (falling back to
/// lazy re-streaming on overflow), pure `item_exists` probing otherwise.
/// Both disciplines yield bindings one at a time, so early-stopping
/// consumers (quantifier short-circuits, outer boolean probes) pull no
/// more of the source than strictly needed.
pub(crate) struct SourceIter<'q> {
    source: &'q Query,
    env: Env<'q>,
    m: u64,
    buf: Option<ItemBuffer<'q>>,
}

impl<'q> SourceIter<'q> {
    pub(crate) fn new(
        source: &'q Query,
        env: &Env<'q>,
        shared: &Shared,
    ) -> Result<SourceIter<'q>, StreamError> {
        let buf = if shared.buffer_limit > 0 {
            Some(ItemBuffer::new(source, env, shared)?)
        } else {
            None
        };
        Ok(SourceIter {
            source,
            env: env.clone(),
            m: 0,
            buf,
        })
    }

    /// The binding for the next item, or `None` when the source ends.
    pub(crate) fn next_binding(
        &mut self,
        shared: &Shared,
    ) -> Result<Option<Binding<'q>>, StreamError> {
        let m = self.m;
        self.m += 1;
        let mut overflowed = false;
        if let Some(b) = self.buf.as_mut() {
            match b.get(m as usize)? {
                Some(item) => return Ok(Some(Binding::Input(item))),
                None => {
                    if b.overflowed {
                        overflowed = true;
                    } else {
                        return Ok(None);
                    }
                }
            }
        }
        if overflowed {
            self.buf = None;
        }
        if !item_exists(self.source, &self.env, m, shared)? {
            return Ok(None);
        }
        Ok(Some(Binding::Lazy {
            expr: self.source,
            env: self.env.clone(),
            index: m,
        }))
    }
}

/// The quantifier loop of `some`/`every`: drives a [`SourceIter`] over
/// the source — the same per-item bindings (buffered or lazy) the
/// `for`-loop sees — and evaluates the satisfaction condition per item
/// with Boolean short-circuiting. Like
/// [`MatchEmitter`](crate::cursor::MatchEmitter) it is a loop driver, not
/// a token cursor: it has no meter and no budget charge of its own (every
/// pull is its probes'), so quantifier cost is exactly the cost of the
/// probes actually made before the verdict.
pub(crate) struct QuantLoopCursor<'q> {
    var: Var,
    sat: &'q Cond,
    env: Env<'q>,
    iter: SourceIter<'q>,
}

impl<'q> QuantLoopCursor<'q> {
    pub(crate) fn new(
        var: Var,
        source: &'q Query,
        sat: &'q Cond,
        env: &Env<'q>,
        shared: &Shared,
    ) -> Result<QuantLoopCursor<'q>, StreamError> {
        Ok(QuantLoopCursor {
            var,
            sat,
            env: env.clone(),
            iter: SourceIter::new(source, env, shared)?,
        })
    }

    /// The short-circuiting verdict: existential (`some`) stops at the
    /// first satisfying item, universal (`every`) at the first
    /// counterexample.
    pub(crate) fn verdict(
        &mut self,
        existential: bool,
        shared: &Shared,
    ) -> Result<bool, StreamError> {
        while let Some(binding) = self.iter.next_binding(shared)? {
            let new_env = bind(&self.env, self.var.clone(), binding);
            if eval_cond(self.sat, &new_env, shared)? == existential {
                return Ok(existential);
            }
        }
        Ok(!existential)
    }
}

/// Does `[[expr]](env)` have an item #m (0-based)? Re-streams and counts.
pub(crate) fn item_exists<'q>(
    expr: &'q Query,
    env: &Env<'q>,
    m: u64,
    shared: &Shared,
) -> Result<bool, StreamError> {
    shared.recompute();
    let mut c = build_query(expr, env, shared)?;
    let mut depth: i64 = 0;
    let mut seen: u64 = 0;
    while let Some(t) = c.pull()? {
        match t {
            Token::Open(_) => {
                if depth == 0 {
                    seen += 1;
                    if seen > m {
                        return Ok(true);
                    }
                }
                depth += 1;
            }
            Token::Close(_) => depth -= 1,
        }
    }
    Ok(false)
}
