//! The cursor core: one pull-based [`Cursor`] trait and the composable
//! node cursors every `xq_stream` run is built from.
//!
//! A cursor is a pull iterator over a token stream. Each node
//! of the query plan becomes one cursor value — [`SliceCursor`] for raw
//! input spans, [`ElemCursor`] for element construction, [`SeqCursor`]
//! for concatenation, [`AxisStepCursor`] for axis steps, [`ForLoopCursor`]
//! for `for`/`let` loops, [`IfCursor`] for conditionals, [`ItemCursor`]
//! for the lazy "item `m` of `[[α]](env)`" handles of Theorem 4.5 — and
//! the pipeline builder ([`crate::pipeline`]) composes them 1:1 with the
//! query's AST. (XQ∼ has no set operators; [`SeqCursor`] is the only
//! polyadic combinator. The quantifier loops live in
//! [`QuantLoopCursor`](crate::buffer::QuantLoopCursor), which drives the
//! same source iteration with Boolean short-circuiting.)
//!
//! **Accounting is part of the contract.** Every cursor charges exactly
//! one pull against the shared budget per [`Cursor::pull`] call —
//! including exhausted cursors — and registers itself in the live-cursor
//! gauge for exactly its own lifetime. The `cursor_diff` suite proves the
//! composed pipeline pull- and peak-identical to the pre-refactor engine,
//! so the Theorem 4.5 space/time measurements carried over unchanged.

use crate::buffer::SourceIter;
use crate::pipeline::{build_query, eval_cond};
use crate::{StreamError, StreamStats};
use cv_xtree::{Axis, Label, NodeTest, Token};
use std::cell::Cell;
use std::rc::Rc;
use xq_core::ast::{Cond, Query, Var};

/// A boxed [`Cursor`] — the form the pipeline builder hands out and the
/// node cursors compose over.
pub(crate) type BoxCursor<'q> = Box<dyn Cursor<'q> + 'q>;

/// A pull-based stream of tokens: the one interface behind every
/// `xq_stream` run, the `getNext`/`atEnd` list iterator of Theorem 4.5.
///
/// * [`pull`](Cursor::pull) returns the next [`Token`] of this cursor's
///   stream, `None` once exhausted (repeatable), or a [`StreamError`] —
///   and **charges exactly one unit of the pull budget per call**, even
///   when exhausted. Budget errors are therefore deterministic functions
///   of the pull sequence, which is what lets the differential suites pin
///   error points exactly.
/// * [`kill`](Cursor::kill) decays the cursor to the exhausted stream,
///   releasing all held state (child cursors leave the live gauge at that
///   moment). A killed cursor still charges one pull per [`pull`](Cursor::pull) and
///   returns `None` — it is how the axis step abandons a base stream
///   mid-match without distorting the budget accounting.
///
/// There is no clone-for-restart: a restart (a variable reference, an
/// axis step's next match) rebuilds the cursor from the query, which is
/// exactly what Theorem 4.5's recomputation discipline charges for.
pub(crate) trait Cursor<'q> {
    /// Pulls the next token, charging one pull against the budget.
    fn pull(&mut self) -> Result<Option<Token>, StreamError>;

    /// Decays to the exhausted stream, releasing held state. Subsequent
    /// pulls still charge (one per call) and return `None`.
    fn kill(&mut self);
}

/// Counters shared by every cursor of one pipeline run. `Rc<Cell<_>>`
/// because a pipeline is single-threaded by construction; the parallel
/// path gives each worker its own `Shared` and merges after.
#[derive(Clone)]
pub(crate) struct Shared {
    pulls: Rc<Cell<u64>>,
    live: Rc<Cell<u64>>,
    peak: Rc<Cell<u64>>,
    recomp: Rc<Cell<u64>>,
    buffered: Rc<Cell<u64>>,
    fallbacks: Rc<Cell<u64>>,
    buf_tokens: Rc<Cell<u64>>,
    buf_peak: Rc<Cell<u64>>,
    max_pulls: u64,
    /// Per-source token cap for the buffered fast path; 0 disables it.
    pub(crate) buffer_limit: usize,
}

impl Shared {
    pub(crate) fn new(max_pulls: u64, buffer_limit: usize) -> Shared {
        Shared {
            pulls: Rc::new(Cell::new(0)),
            live: Rc::new(Cell::new(0)),
            peak: Rc::new(Cell::new(0)),
            recomp: Rc::new(Cell::new(0)),
            buffered: Rc::new(Cell::new(0)),
            fallbacks: Rc::new(Cell::new(0)),
            buf_tokens: Rc::new(Cell::new(0)),
            buf_peak: Rc::new(Cell::new(0)),
            max_pulls,
            buffer_limit,
        }
    }

    /// Charges one pull against the budget.
    pub(crate) fn pull(&self) -> Result<(), StreamError> {
        self.pulls.set(self.pulls.get() + 1);
        if self.pulls.get() > self.max_pulls {
            return Err(StreamError::Budget);
        }
        Ok(())
    }

    fn alloc(&self) {
        self.live.set(self.live.get() + 1);
        if self.live.get() > self.peak.get() {
            self.peak.set(self.live.get());
        }
    }

    fn free(&self) {
        self.live.set(self.live.get() - 1);
    }

    /// Charges one re-streaming of a defining expression.
    pub(crate) fn recompute(&self) {
        self.recomp.set(self.recomp.get() + 1);
    }

    /// Records a buffering decision that held (see
    /// [`StreamStats::buffered_sources`]).
    pub(crate) fn count_buffered(&self) {
        self.buffered.set(self.buffered.get() + 1);
    }

    /// Records a buffering decision reverted to the lazy discipline.
    pub(crate) fn count_fallback(&self) {
        self.fallbacks.set(self.fallbacks.get() + 1);
    }

    /// `n` more tokens parked in a buffer (high-water mark tracked).
    pub(crate) fn buffer_tokens(&self, n: u64) {
        self.buf_tokens.set(self.buf_tokens.get() + n);
        if self.buf_tokens.get() > self.buf_peak.get() {
            self.buf_peak.set(self.buf_tokens.get());
        }
    }

    /// `n` buffered tokens released.
    pub(crate) fn unbuffer_tokens(&self, n: u64) {
        self.buf_tokens.set(self.buf_tokens.get() - n);
    }

    /// Snapshot of the counters as a [`StreamStats`] (tokens_out and
    /// workers are the caller's to fill in).
    pub(crate) fn snapshot(&self) -> StreamStats {
        StreamStats {
            tokens_out: 0,
            pulls: self.pulls.get(),
            recomputations: self.recomp.get(),
            peak_live_cursors: self.peak.get(),
            buffered_sources: self.buffered.get(),
            workers: 0,
            lazy_fallbacks: self.fallbacks.get(),
            peak_buffered_tokens: self.buf_peak.get(),
        }
    }
}

/// RAII registration of one cursor in the live-cursor gauge: allocated on
/// construction, released on drop. Every node cursor owns exactly one, so
/// [`StreamStats::peak_live_cursors`] counts cursors, not nodes of some
/// internal representation.
pub(crate) struct Meter {
    shared: Shared,
}

impl Meter {
    pub(crate) fn new(shared: &Shared) -> Meter {
        shared.alloc();
        Meter {
            shared: shared.clone(),
        }
    }

    /// Charges one pull.
    fn tick(&self) -> Result<(), StreamError> {
        self.shared.pull()
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.shared.free();
    }
}

/// What a variable is bound to.
#[derive(Clone)]
pub(crate) enum Binding<'q> {
    /// A materialized token span (the input document, a buffered item, or
    /// a hoisted binding) — given data, not working memory.
    Input(Rc<[Token]>),
    /// Item `index` of `[[expr]](env)` — a lazy handle; referencing it
    /// re-streams the defining expression (Theorem 4.5's discipline).
    Lazy {
        expr: &'q Query,
        env: Env<'q>,
        index: u64,
    },
}

pub(crate) struct EnvNode<'q> {
    var: Var,
    binding: Binding<'q>,
    parent: Env<'q>,
}

/// The streaming environment: a persistent linked list of bindings
/// (cursors for one loop iteration share their prefix with every other
/// iteration by `Rc` bump).
pub(crate) type Env<'q> = Option<Rc<EnvNode<'q>>>;

pub(crate) fn bind<'q>(env: &Env<'q>, var: Var, binding: Binding<'q>) -> Env<'q> {
    Some(Rc::new(EnvNode {
        var,
        binding,
        parent: env.clone(),
    }))
}

pub(crate) fn lookup<'q>(env: &Env<'q>, v: &Var) -> Result<Binding<'q>, StreamError> {
    let mut cur = env;
    while let Some(node) = cur {
        if &node.var == v {
            return Ok(node.binding.clone());
        }
        cur = &node.parent;
    }
    Err(StreamError::UnboundVariable(v.name().to_string()))
}

// ---------------------------------------------------------------------
// Node cursors. Each mirrors one arm of the pre-refactor evaluator; the
// comments note the stream it produces, the struct fields are its state.
// ---------------------------------------------------------------------

/// The empty stream (`()` — and the terminal state other cursors decay
/// to). Pulls still charge, so exhausted probes count against the budget
/// like any other.
pub(crate) struct EmptyCursor {
    meter: Meter,
}

impl EmptyCursor {
    pub(crate) fn new(shared: &Shared) -> EmptyCursor {
        EmptyCursor {
            meter: Meter::new(shared),
        }
    }
}

impl<'q> Cursor<'q> for EmptyCursor {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        Ok(None)
    }

    fn kill(&mut self) {}
}

/// A raw token slice — the input document, a subtree span of it, or a
/// buffered item. The only source cursor; both `Tree` and `ArenaDoc`
/// tokenize into it (the pipeline builder differs only in how the slice
/// is produced).
pub(crate) struct SliceCursor {
    meter: Meter,
    tokens: Rc<[Token]>,
    pos: usize,
}

impl SliceCursor {
    pub(crate) fn new(tokens: Rc<[Token]>, shared: &Shared) -> SliceCursor {
        SliceCursor {
            meter: Meter::new(shared),
            tokens,
            pos: 0,
        }
    }
}

impl<'q> Cursor<'q> for SliceCursor {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        if self.pos < self.tokens.len() {
            let t = self.tokens[self.pos].clone();
            self.pos += 1;
            Ok(Some(t))
        } else {
            Ok(None)
        }
    }

    fn kill(&mut self) {
        self.tokens = Rc::from(&[][..]);
        self.pos = 0;
    }
}

/// Element construction: `⟨a⟩ body ⟨/a⟩`. Emits the open tag, streams the
/// body, emits the close tag, then decays to the exhausted state (the
/// body cursor is dropped the moment the close tag is produced).
pub(crate) struct ElemCursor<'q> {
    meter: Meter,
    tag: Label,
    opened: bool,
    body: Option<BoxCursor<'q>>,
}

impl<'q> ElemCursor<'q> {
    pub(crate) fn new(tag: Label, body: BoxCursor<'q>, shared: &Shared) -> ElemCursor<'q> {
        ElemCursor {
            meter: Meter::new(shared),
            tag,
            opened: false,
            body: Some(body),
        }
    }
}

impl<'q> Cursor<'q> for ElemCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        if !self.opened {
            self.opened = true;
            return Ok(Some(Token::Open(self.tag.clone())));
        }
        if let Some(b) = &mut self.body {
            if let Some(t) = b.pull()? {
                return Ok(Some(t));
            }
            let t = Token::Close(self.tag.clone());
            self.body = None;
            return Ok(Some(t));
        }
        Ok(None)
    }

    fn kill(&mut self) {
        self.opened = true;
        self.body = None;
    }
}

/// Concatenation: `α` then `β` — the stream combinator behind `Seq` (and
/// the closest thing XQ∼ has to a set operator; union-of-streams is
/// exactly concatenation under the list semantics).
pub(crate) struct SeqCursor<'q> {
    meter: Meter,
    cur: Option<BoxCursor<'q>>,
    rest: Option<(&'q Query, Env<'q>)>,
}

impl<'q> SeqCursor<'q> {
    pub(crate) fn new(
        cur: BoxCursor<'q>,
        rest: (&'q Query, Env<'q>),
        shared: &Shared,
    ) -> SeqCursor<'q> {
        SeqCursor {
            meter: Meter::new(shared),
            cur: Some(cur),
            rest: Some(rest),
        }
    }
}

impl<'q> Cursor<'q> for SeqCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        let Some(cur) = self.cur.as_mut() else {
            return Ok(None);
        };
        loop {
            if let Some(t) = cur.pull()? {
                return Ok(Some(t));
            }
            match self.rest.take() {
                Some((q, env)) => {
                    *cur = build_query(q, &env, self.meter.shared())?;
                }
                None => return Ok(None),
            }
        }
    }

    fn kill(&mut self) {
        self.cur = None;
        self.rest = None;
    }
}

/// Passes through item #`index` of the inner stream — the cursor form of
/// a lazy variable handle ("item `m` of `[[α]](env)`", Theorem 4.5).
pub(crate) struct ItemCursor<'q> {
    meter: Meter,
    inner: Option<BoxCursor<'q>>,
    index: u64,
    seen: u64,
    depth: i64,
    done: bool,
}

impl<'q> ItemCursor<'q> {
    pub(crate) fn new(inner: BoxCursor<'q>, index: u64, shared: &Shared) -> ItemCursor<'q> {
        ItemCursor {
            meter: Meter::new(shared),
            inner: Some(inner),
            index,
            seen: 0,
            depth: 0,
            done: false,
        }
    }
}

impl<'q> Cursor<'q> for ItemCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        if self.done {
            return Ok(None);
        }
        let inner = self.inner.as_mut().expect("inner present while not done");
        loop {
            let Some(t) = inner.pull()? else {
                self.done = true;
                return Ok(None);
            };
            match &t {
                Token::Open(_) => {
                    if self.depth == 0 {
                        self.seen += 1;
                    }
                    self.depth += 1;
                }
                Token::Close(_) => {
                    self.depth -= 1;
                }
            }
            // 1-based item number of the token just processed.
            if self.seen == self.index + 1 {
                if self.depth == 0 {
                    self.done = true; // closing token of our item
                }
                return Ok(Some(t));
            }
            if self.seen > self.index + 1 {
                self.done = true;
                return Ok(None);
            }
        }
    }

    fn kill(&mut self) {
        self.done = true;
        self.inner = None;
    }
}

/// Axis step over all items of a base query: for each match index, the
/// base is rebuilt (one charged re-streaming) and a [`MatchEmitter`] copies out the
/// subtree of match #index; when a restart finds no further match the
/// step is exhausted. This is the token-counter implementation of
/// `child`/`descendant`/`self`/`descendant-or-self` from the paper —
/// depth counters on the tag stream, no trees.
pub(crate) struct AxisStepCursor<'q> {
    meter: Meter,
    base: &'q Query,
    env: Env<'q>,
    axis: Axis,
    test: NodeTest,
    match_idx: u64,
    sub: Option<MatchEmitter<'q>>,
    exhausted: bool,
}

impl<'q> AxisStepCursor<'q> {
    pub(crate) fn new(
        base: &'q Query,
        env: Env<'q>,
        axis: Axis,
        test: NodeTest,
        shared: &Shared,
    ) -> AxisStepCursor<'q> {
        AxisStepCursor {
            meter: Meter::new(shared),
            base,
            env,
            axis,
            test,
            match_idx: 0,
            sub: None,
            exhausted: false,
        }
    }
}

impl<'q> Cursor<'q> for AxisStepCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        loop {
            if self.exhausted {
                return Ok(None);
            }
            if self.sub.is_none() {
                let shared = self.meter.shared();
                shared.recompute();
                let inner = build_query(self.base, &self.env, shared)?;
                self.sub = Some(MatchEmitter::new(
                    inner,
                    self.axis,
                    self.test.clone(),
                    self.match_idx,
                ));
            }
            let emitter = self.sub.as_mut().expect("just set");
            match emitter.next()? {
                Some(t) => return Ok(Some(t)),
                None => {
                    let found = emitter.found;
                    self.sub = None;
                    if found {
                        self.match_idx += 1;
                    } else {
                        self.exhausted = true;
                    }
                }
            }
        }
    }

    fn kill(&mut self) {
        self.exhausted = true;
        self.sub = None;
    }
}

/// Streams the subtree of match #`target` within an inner cursor. Not a
/// cursor itself: it has no meter and no budget charge of its own — every
/// pull it makes is the inner cursor's — so the axis step's cost is
/// exactly the base re-streaming cost, as in the paper's operator
/// algebra.
pub(crate) struct MatchEmitter<'q> {
    inner: BoxCursor<'q>,
    axis: Axis,
    test: NodeTest,
    target: u64,
    matches_seen: u64,
    depth: i64,
    emitting_from: Option<i64>,
    found: bool,
}

impl<'q> MatchEmitter<'q> {
    fn new(inner: BoxCursor<'q>, axis: Axis, test: NodeTest, target: u64) -> MatchEmitter<'q> {
        MatchEmitter {
            inner,
            axis,
            test,
            target,
            matches_seen: 0,
            depth: 0,
            emitting_from: None,
            found: false,
        }
    }

    /// Whether an `Open` that raised the depth to `d` starts a node
    /// selected by the axis (items are at depth 1).
    fn selects(&self, d: i64) -> bool {
        match self.axis {
            Axis::SelfAxis => d == 1,
            Axis::Child => d == 2,
            Axis::Descendant => d >= 2,
            Axis::DescendantOrSelf => d >= 1,
        }
    }

    fn next(&mut self) -> Result<Option<Token>, StreamError> {
        loop {
            let Some(t) = self.inner.pull()? else {
                return Ok(None);
            };
            match &t {
                Token::Open(label) => {
                    self.depth += 1;
                    if self.emitting_from.is_none()
                        && self.selects(self.depth)
                        && self.test.matches(label)
                    {
                        if self.matches_seen == self.target {
                            self.emitting_from = Some(self.depth);
                            self.found = true;
                        }
                        self.matches_seen += 1;
                    }
                    if self.emitting_from.is_some() {
                        return Ok(Some(t));
                    }
                }
                Token::Close(_) => {
                    let emit = self.emitting_from.is_some();
                    let finished = self.emitting_from == Some(self.depth);
                    self.depth -= 1;
                    if emit {
                        if finished {
                            // Final close of this match: abandon the rest
                            // of the base stream (its held state leaves
                            // the live gauge now; the next probe charges
                            // the killed cursor's one pull) and emit.
                            self.emitting_from = None;
                            self.inner.kill();
                            return Ok(Some(t));
                        }
                        return Ok(Some(t));
                    }
                }
            }
        }
    }
}

/// `for var in source return body` (and `let`, its single-item special
/// case), item by item: a [`SourceIter`] yields the per-item bindings —
/// buffered token spans when the Budget-driven policy engaged, lazy
/// handles otherwise — and the body is rebuilt per binding.
pub(crate) struct ForLoopCursor<'q> {
    meter: Meter,
    var: Var,
    source: &'q Query,
    body: &'q Query,
    env: Env<'q>,
    iter: Option<SourceIter<'q>>,
    cur: Option<BoxCursor<'q>>,
    exhausted: bool,
}

impl<'q> ForLoopCursor<'q> {
    pub(crate) fn new(
        var: Var,
        source: &'q Query,
        body: &'q Query,
        env: Env<'q>,
        shared: &Shared,
    ) -> ForLoopCursor<'q> {
        ForLoopCursor {
            meter: Meter::new(shared),
            var,
            source,
            body,
            env,
            iter: None,
            cur: None,
            exhausted: false,
        }
    }
}

impl<'q> Cursor<'q> for ForLoopCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        let shared = self.meter.shared().clone();
        loop {
            if self.exhausted {
                return Ok(None);
            }
            if self.cur.is_none() {
                if self.iter.is_none() {
                    self.iter = Some(SourceIter::new(self.source, &self.env, &shared)?);
                }
                let next = self
                    .iter
                    .as_mut()
                    .expect("just set")
                    .next_binding(&shared)?;
                let Some(binding) = next else {
                    self.exhausted = true;
                    return Ok(None);
                };
                let new_env = bind(&self.env, self.var.clone(), binding);
                self.cur = Some(build_query(self.body, &new_env, &shared)?);
            }
            if let Some(t) = self.cur.as_mut().expect("just set").pull()? {
                return Ok(Some(t));
            }
            self.cur = None;
        }
    }

    fn kill(&mut self) {
        self.exhausted = true;
        self.iter = None;
        self.cur = None;
    }
}

/// `if c then body` — the condition is evaluated on the first pull (via
/// [`eval_cond`], which builds its own probe cursors against this same
/// budget), after which the cursor either streams the body or is dead.
pub(crate) struct IfCursor<'q> {
    meter: Meter,
    cond: &'q Cond,
    body: &'q Query,
    env: Env<'q>,
    decided: Option<BoxCursor<'q>>,
    dead: bool,
}

impl<'q> IfCursor<'q> {
    pub(crate) fn new(
        cond: &'q Cond,
        body: &'q Query,
        env: Env<'q>,
        shared: &Shared,
    ) -> IfCursor<'q> {
        IfCursor {
            meter: Meter::new(shared),
            cond,
            body,
            env,
            decided: None,
            dead: false,
        }
    }
}

impl<'q> Cursor<'q> for IfCursor<'q> {
    fn pull(&mut self) -> Result<Option<Token>, StreamError> {
        self.meter.tick()?;
        if self.dead {
            return Ok(None);
        }
        if self.decided.is_none() {
            let shared = self.meter.shared().clone();
            if eval_cond(self.cond, &self.env, &shared)? {
                self.decided = Some(build_query(self.body, &self.env, &shared)?);
            } else {
                self.dead = true;
                return Ok(None);
            }
        }
        self.decided.as_mut().expect("just set").pull()
    }

    fn kill(&mut self) {
        self.dead = true;
        self.decided = None;
    }
}
