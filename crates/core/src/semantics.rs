//! The denotational semantics of Core XQuery, exactly as in Figure 1.
//!
//! `[[α]]_k(~e)` maps a `k`-tuple of trees (the environment) to a list of
//! trees. We index the environment by variable name rather than position;
//! since every binder introduces a distinct scope this is equivalent, with
//! inner bindings shadowing outer ones.
//!
//! Like the monad-algebra evaluator, this one materializes results and is
//! budgeted: Core XQuery can build results of doubly exponential size
//! (Prop 4.2 via Lemma 3.3), so the engine reports resource exhaustion
//! instead of dying.

use crate::ast::{Cond, EqMode, Query, Var};
use cv_xtree::Tree;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many worker threads the data-parallel entry point
/// ([`crate::par::eval_compiled_par`]) may use. The sequential evaluator
/// ignores this knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Threads {
    /// Single-threaded (the default — identical to the sequential path).
    #[default]
    One,
    /// One worker per available hardware thread.
    Auto,
    /// Exactly this many workers (clamped to at least 1).
    N(usize),
}

impl Threads {
    /// The concrete worker count this knob resolves to on this machine.
    pub fn count(self) -> usize {
        match self {
            Threads::One => 1,
            Threads::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Threads::N(n) => n.max(1),
        }
    }

    /// Reads the `XQ_THREADS` environment variable: unset or `1` mean
    /// [`Threads::One`]; `auto` (or `0`) means [`Threads::Auto`]; any
    /// other number means [`Threads::N`]. The CI parallel suites set this.
    pub fn from_env() -> Threads {
        match std::env::var("XQ_THREADS").ok().as_deref() {
            None | Some("" | "1") => Threads::One,
            Some("auto" | "0") => Threads::Auto,
            Some(n) => n.parse().map_or(Threads::One, Threads::N),
        }
    }
}

/// A shared cooperative cancellation flag.
///
/// Clone it into a [`Budget`] (the clone shares state) and keep one copy:
/// calling [`CancelFlag::cancel`] from any thread makes every engine
/// holding that budget — the Figure 1 interpreter, the bytecode VM, and
/// all parallel workers they spawn — fail with [`XqError::Cancelled`] at
/// its **next budget tick**, the `step()` charge both engines make at
/// every `tick.q`/`tick.c` site. Cancellation latency is therefore one
/// budget-tick granularity, and since the VM is tick-exact to the
/// interpreter (`vm_diff`), a cancellation observed at tick `k` aborts
/// both engines at the same evaluation point (`cancel_diff` pins this).
///
/// The network front door (`xq_server`) attaches one flag per in-flight
/// request: an explicit cancel frame or a client disconnect sets it, and
/// the evaluation unwinds mid-query instead of running to completion.
#[derive(Clone, Debug, Default)]
pub struct CancelFlag {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// 0 on production flags (polls are not counted — parallel workers
    /// share the flag and a `fetch_add` per tick would put a contended
    /// cache line in the innermost loop). Nonzero enables the counting
    /// device below for the differential suites.
    trip_at: AtomicU64,
    polls: AtomicU64,
}

impl CancelFlag {
    /// A fresh, unset flag (the production constructor: polling it costs
    /// two relaxed atomic loads per budget tick).
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// A flag that counts its polls and trips itself on poll number `n`
    /// (1-based) — the deterministic cancel-at-tick-`k` device of the
    /// `cancel_diff` suite. Real clients set the flag asynchronously with
    /// [`CancelFlag::cancel`] instead; this device exists so tests can pin
    /// *exactly which tick* observes the cancellation, single-threaded.
    pub fn tripping_at(n: u64) -> CancelFlag {
        let flag = CancelFlag::new();
        flag.inner.trip_at.store(n.max(1), Ordering::Relaxed);
        flag
    }

    /// A flag that counts its polls but never trips — attach it to a run
    /// to observe how many budget ticks polled it (the "same evaluation
    /// point" witness in `cancel_diff`).
    pub fn counting() -> CancelFlag {
        CancelFlag::tripping_at(u64::MAX)
    }

    /// Requests cancellation: every evaluation holding a budget with this
    /// flag fails at its next budget tick.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (an observer read — does
    /// not count as a poll).
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Polls observed so far (0 unless built by [`CancelFlag::counting`]
    /// or [`CancelFlag::tripping_at`]).
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// The engine-side check, called once per budget tick.
    pub(crate) fn poll(&self) -> bool {
        let trip_at = self.inner.trip_at.load(Ordering::Relaxed);
        if trip_at != 0 {
            let polls = self.inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
            if polls >= trip_at {
                self.cancel();
            }
        }
        self.is_cancelled()
    }
}

/// Resource limits for one evaluation.
///
/// **Zero is never "unlimited".** `max_steps: 0` permits no evaluation
/// steps at all (the first step errors), and `max_items: 0` permits no
/// result items. The parallel workers rely on this: they thread the
/// remaining budget through a `saturating_sub` chain between loop items,
/// so a worker that *exactly* exhausts its cap mid-chunk continues with a
/// cap of 0 and fails deterministically on the next item — audited here
/// and regression-tested in `par::tests` and below.
///
/// The same "zero means nothing" discipline covers the serving fields: a
/// [`CancelFlag`] that is already set or a [`Budget::deadline`] already in
/// the past rejects at the **first** budget tick, before any evaluation
/// work — never "ignored because evaluation just started" (regression-
/// tested below, mirroring the zero-cap contract).
#[derive(Clone, Debug)]
pub struct Budget {
    /// Maximum number of evaluation steps. 0 forbids any step.
    pub max_steps: u64,
    /// Maximum number of trees put into result lists. 0 forbids any item.
    pub max_items: u64,
    /// Worker threads for the data-parallel entry points (the sequential
    /// evaluator ignores this). In the parallel path each worker draws on
    /// the step/item caps independently for its chunk, so a query that
    /// fits the budget sequentially always fits it in parallel.
    pub threads: Threads,
    /// Cooperative cancellation: when set, both engines poll the flag at
    /// every budget tick and abort with [`XqError::Cancelled`]. Budget
    /// clones share the flag, so all parallel workers of one request
    /// observe one cancellation. `None` (the default) costs nothing.
    pub cancel: Option<CancelFlag>,
    /// Absolute deadline: when set, both engines compare it against the
    /// monotonic clock at every budget tick and abort with
    /// [`XqError::DeadlineExceeded`] once passed. `None` (the default)
    /// never reads the clock.
    pub deadline: Option<Instant>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            max_steps: 20_000_000,
            max_items: 10_000_000,
            threads: Threads::One,
            cancel: None,
            deadline: None,
        }
    }
}

impl Budget {
    /// This budget with the given thread knob.
    pub fn with_threads(self, threads: Threads) -> Budget {
        Budget { threads, ..self }
    }

    /// This budget observing the given cancellation flag (cloning the
    /// budget shares the flag).
    pub fn with_cancel(self, flag: CancelFlag) -> Budget {
        Budget {
            cancel: Some(flag),
            ..self
        }
    }

    /// This budget with an absolute deadline.
    pub fn with_deadline(self, deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            ..self
        }
    }

    /// This budget with a deadline `timeout` from now.
    pub fn with_deadline_in(self, timeout: Duration) -> Budget {
        self.with_deadline(Instant::now() + timeout)
    }

    /// The admission-time check: fails fast if the budget could never
    /// admit a first tick — the cancel flag is already set, the deadline
    /// already passed, or the step cap is 0. Evaluating such a budget
    /// fails identically at tick 1; front doors call this *before*
    /// parsing or queueing so doomed requests are rejected without
    /// consuming pool capacity.
    pub fn preflight(&self) -> Result<(), XqError> {
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(XqError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(XqError::DeadlineExceeded);
            }
        }
        if self.max_steps == 0 {
            return Err(XqError::Budget { which: "steps" });
        }
        Ok(())
    }

    /// Charges one evaluation step (the `tick.q`/`tick.c` budget-tick
    /// site): polls the cancel flag, then the deadline, then the step
    /// cap — in that order, so a cancelled *and* exhausted run reports
    /// [`XqError::Cancelled`] deterministically. `steps` is the counter
    /// value *after* the increment. Both engines route every tick through
    /// here, which is what makes cancellation engine-agnostic.
    #[inline]
    pub(crate) fn charge_step(&self, steps: u64) -> Result<(), XqError> {
        if let Some(flag) = &self.cancel {
            if flag.poll() {
                return Err(XqError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(XqError::DeadlineExceeded);
            }
        }
        if steps > self.max_steps {
            return Err(XqError::Budget { which: "steps" });
        }
        Ok(())
    }

    /// Charges one emitted result item. Items do not poll the cancel
    /// flag — every emission is adjacent to a step tick, and keeping
    /// polls == steps gives `cancel_diff` an exact evaluation-point
    /// witness.
    #[inline]
    pub(crate) fn charge_item(&self, items: u64) -> Result<(), XqError> {
        if items > self.max_items {
            return Err(XqError::Budget { which: "items" });
        }
        Ok(())
    }
}

/// Counters reported by [`eval_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Evaluation steps performed.
    pub steps: u64,
    /// Trees appended to intermediate or final result lists.
    pub items: u64,
    /// Deepest environment (number of simultaneously live bindings).
    pub max_env_depth: usize,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XqError {
    /// A free variable was not bound in the environment.
    UnboundVariable(String),
    /// `=mon` is not an XQuery equality.
    BadEqualityMode,
    /// The budget was exhausted.
    Budget {
        /// `"steps"` or `"items"`.
        which: &'static str,
    },
    /// The run's [`CancelFlag`] was set (client disconnect, explicit
    /// cancel frame, shutdown) and a budget tick observed it.
    Cancelled,
    /// The run's [`Budget::deadline`] passed and a budget tick observed
    /// it.
    DeadlineExceeded,
}

impl std::fmt::Display for XqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XqError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            XqError::BadEqualityMode => f.write_str("=mon is not an XQuery equality"),
            XqError::Budget { which } => write!(f, "budget exhausted ({which})"),
            XqError::Cancelled => f.write_str("evaluation cancelled"),
            XqError::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for XqError {}

/// A variable environment: name/tree bindings, later entries shadowing
/// earlier ones (Figure 1's `~e`).
///
/// Bindings live in a stack (preserving scope order and shadowing), and a
/// side map indexes each name to its binding positions, so
/// [`Env::lookup`] is one hash probe instead of a linear scan over the
/// live bindings — on a deep `for`-nest the scan is O(nesting depth)
/// *per variable reference*.
#[derive(Clone, Debug, Default)]
pub struct Env {
    bindings: Vec<(Var, Tree)>,
    /// name → stack of indices into `bindings` (innermost last).
    index: HashMap<Var, Vec<u32>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// An environment with the root variable bound to `t`.
    pub fn with_root(t: Tree) -> Env {
        let mut e = Env::new();
        e.bind(Var::root(), t);
        e
    }

    /// Adds a binding (shadowing any earlier one of the same name).
    pub fn bind(&mut self, v: Var, t: Tree) {
        let slot = self.bindings.len() as u32;
        self.index.entry(v.clone()).or_default().push(slot);
        self.bindings.push((v, t));
    }

    /// Removes the innermost binding (the evaluator's scope exit).
    pub(crate) fn pop(&mut self) {
        let (v, _) = self.bindings.pop().expect("pop on an empty environment");
        let slots = self.index.get_mut(&v).expect("binding was indexed");
        slots.pop();
        if slots.is_empty() {
            self.index.remove(&v);
        }
    }

    /// Looks up the innermost binding of `v`.
    pub fn lookup(&self, v: &Var) -> Option<&Tree> {
        let &slot = self.index.get(v)?.last()?;
        Some(&self.bindings[slot as usize].1)
    }

    /// Number of bindings.
    pub fn depth(&self) -> usize {
        self.bindings.len()
    }
}

struct Interp {
    budget: Budget,
    stats: EvalStats,
}

impl Interp {
    fn step(&mut self) -> Result<(), XqError> {
        self.stats.steps += 1;
        self.budget.charge_step(self.stats.steps)
    }

    fn emit(&mut self, out: &mut Vec<Tree>, t: Tree) -> Result<(), XqError> {
        self.stats.items += 1;
        self.budget.charge_item(self.stats.items)?;
        out.push(t);
        Ok(())
    }

    fn eval(&mut self, q: &Query, env: &mut Env) -> Result<Vec<Tree>, XqError> {
        self.step()?;
        self.stats.max_env_depth = self.stats.max_env_depth.max(env.depth());
        match q {
            Query::Empty => Ok(Vec::new()),
            Query::Elem(a, body) => {
                let children = self.eval(body, env)?;
                let mut out = Vec::with_capacity(1);
                self.emit(&mut out, Tree::node(a.clone(), children))?;
                Ok(out)
            }
            Query::Seq(x, y) => {
                let mut out = self.eval(x, env)?;
                let rest = self.eval(y, env)?;
                for t in rest {
                    self.emit(&mut out, t)?;
                }
                Ok(out)
            }
            Query::Var(v) => {
                let t = env
                    .lookup(v)
                    .ok_or_else(|| XqError::UnboundVariable(v.name().to_string()))?
                    .clone();
                let mut out = Vec::with_capacity(1);
                self.emit(&mut out, t)?;
                Ok(out)
            }
            Query::Step(base, axis, test) => {
                let bases = self.eval(base, env)?;
                let mut out = Vec::new();
                for t in &bases {
                    for s in t.axis(*axis) {
                        self.step()?;
                        if test.matches(s.label()) {
                            self.emit(&mut out, s)?;
                        }
                    }
                }
                Ok(out)
            }
            Query::For(v, source, body) => {
                let items = self.eval(source, env)?;
                let mut out = Vec::new();
                for t in items {
                    env.bind(v.clone(), t);
                    let r = self.eval(body, env);
                    env.pop();
                    for x in r? {
                        self.emit(&mut out, x)?;
                    }
                }
                Ok(out)
            }
            Query::If(cond, then) => {
                if self.eval_cond(cond, env)? {
                    self.eval(then, env)
                } else {
                    Ok(Vec::new())
                }
            }
            Query::Let(v, bound, body) => {
                // (let $x := α) β ≡ for $x in α return β when α is an
                // element constructor (singleton); we use the general
                // for-desugaring uniformly.
                let items = self.eval(bound, env)?;
                let mut out = Vec::new();
                for t in items {
                    env.bind(v.clone(), t);
                    let r = self.eval(body, env);
                    env.pop();
                    for x in r? {
                        self.emit(&mut out, x)?;
                    }
                }
                Ok(out)
            }
        }
    }

    fn tree_eq(a: &Tree, b: &Tree, mode: EqMode) -> Result<bool, XqError> {
        match mode {
            EqMode::Deep => Ok(a == b),
            // Atomic equality compares root labels; on leaves this is
            // equality of atomic values (see `Cond::VarEq` docs).
            EqMode::Atomic => Ok(a.label() == b.label()),
            EqMode::Mon => Err(XqError::BadEqualityMode),
        }
    }

    fn eval_cond(&mut self, c: &Cond, env: &mut Env) -> Result<bool, XqError> {
        self.step()?;
        match c {
            Cond::True => Ok(true),
            Cond::VarEq(x, y, mode) => {
                let tx = env
                    .lookup(x)
                    .ok_or_else(|| XqError::UnboundVariable(x.name().to_string()))?;
                let ty = env
                    .lookup(y)
                    .ok_or_else(|| XqError::UnboundVariable(y.name().to_string()))?;
                Self::tree_eq(tx, ty, *mode)
            }
            Cond::ConstEq(x, a, mode) => {
                let tx = env
                    .lookup(x)
                    .ok_or_else(|| XqError::UnboundVariable(x.name().to_string()))?
                    .clone();
                Self::tree_eq(&tx, &Tree::leaf(a.clone()), *mode)
            }
            Cond::Query(q) => Ok(!self.eval(q, env)?.is_empty()),
            Cond::Some(v, source, sat) => {
                let items = self.eval(source, env)?;
                for t in items {
                    env.bind(v.clone(), t);
                    let r = self.eval_cond(sat, env);
                    env.pop();
                    if r? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Cond::Every(v, source, sat) => {
                let items = self.eval(source, env)?;
                for t in items {
                    env.bind(v.clone(), t);
                    let r = self.eval_cond(sat, env);
                    env.pop();
                    if !r? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Cond::And(a, b) => Ok(self.eval_cond(a, env)? && self.eval_cond(b, env)?),
            Cond::Or(a, b) => Ok(self.eval_cond(a, env)? || self.eval_cond(b, env)?),
            Cond::Not(a) => Ok(!self.eval_cond(a, env)?),
        }
    }
}

/// Evaluates `q` in `env` under `budget`, returning the result list and
/// the evaluation statistics.
pub fn eval_with(q: &Query, env: &Env, budget: Budget) -> Result<(Vec<Tree>, EvalStats), XqError> {
    let mut interp = Interp {
        budget,
        stats: EvalStats::default(),
    };
    let mut env = env.clone();
    let out = interp.eval(q, &mut env)?;
    Ok((out, interp.stats))
}

/// Evaluates `q` on input tree `t` (bound to `$root`), default budget.
pub fn eval_query(q: &Query, t: &Tree) -> Result<Vec<Tree>, XqError> {
    eval_with(q, &Env::with_root(t.clone()), Budget::default()).map(|(r, _)| r)
}

/// Evaluates a condition in an environment (exposed for engines that share
/// the Figure 1 condition semantics).
pub fn eval_cond_with(c: &Cond, env: &Env, budget: Budget) -> Result<bool, XqError> {
    let mut interp = Interp {
        budget,
        stats: EvalStats::default(),
    };
    let mut env = env.clone();
    interp.eval_cond(c, &mut env)
}

/// The paper's Boolean-query convention for XQuery (§7.1): a query
/// `⟨a⟩α⟨/a⟩` is true iff the root of its result has at least one child.
/// For bare queries the convention "nonempty result list" (§2.1) is used.
pub fn boolean_result(q: &Query, t: &Tree) -> Result<bool, XqError> {
    let out = eval_query(q, t)?;
    match (q, out.as_slice()) {
        (Query::Elem(_, _), [single]) => Ok(!single.children().is_empty()),
        (_, trees) => Ok(!trees.is_empty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_xtree::{parse_tree, Axis, NodeTest};

    fn t(src: &str) -> Tree {
        parse_tree(src).unwrap()
    }

    fn run(q: &Query, src: &str) -> Vec<Tree> {
        eval_query(q, &t(src)).unwrap()
    }

    fn render(ts: &[Tree]) -> String {
        ts.iter().map(Tree::to_xml).collect()
    }

    #[test]
    fn empty_and_var() {
        assert_eq!(run(&Query::Empty, "<a/>"), vec![]);
        assert_eq!(
            render(&run(&Query::var("root"), "<a><b/></a>")),
            "<a><b/></a>"
        );
    }

    #[test]
    fn element_construction_wraps_list() {
        let q = Query::elem("out", Query::seq([Query::leaf("x"), Query::leaf("y")]));
        assert_eq!(render(&run(&q, "<a/>")), "<out><x/><y/></out>");
    }

    #[test]
    fn steps_follow_axes_in_document_order() {
        let doc = "<r><a><b/></a><c/><a/></r>";
        let child_a = Query::child(Query::var("root"), "a");
        assert_eq!(render(&run(&child_a, doc)), "<a><b/></a><a/>");
        let desc_any = Query::step(Query::var("root"), Axis::Descendant, NodeTest::Wildcard);
        assert_eq!(render(&run(&desc_any, doc)), "<a><b/></a><b/><c/><a/>");
        let self_r = Query::step(Query::var("root"), Axis::SelfAxis, NodeTest::tag("r"));
        assert_eq!(run(&self_r, doc).len(), 1);
    }

    #[test]
    fn for_concatenates_bodies_in_order() {
        // for $x in $root/* return <w>{$x}</w>
        let q = Query::for_in(
            "x",
            Query::child_any(Query::var("root")),
            Query::elem("w", Query::var("x")),
        );
        assert_eq!(
            render(&run(&q, "<r><a/><b/></r>")),
            "<w><a/></w><w><b/></w>"
        );
    }

    #[test]
    fn if_conditions() {
        let q = Query::if_then(Cond::True, Query::leaf("y"));
        assert_eq!(render(&run(&q, "<a/>")), "<y/>");
        let q = Query::if_then(Cond::query(Query::Empty), Query::leaf("y"));
        assert_eq!(run(&q, "<a/>"), vec![]);
        // Nonempty query condition.
        let q = Query::if_then(
            Cond::query(Query::child(Query::var("root"), "b")),
            Query::leaf("y"),
        );
        assert_eq!(render(&run(&q, "<a><b/></a>")), "<y/>");
        assert_eq!(run(&q, "<a><c/></a>"), vec![]);
    }

    #[test]
    fn equality_modes() {
        // for $x in $root/* return for $y in $root/* return
        //   if $x = $y then <eq/>
        let body = |mode| {
            Query::for_in(
                "x",
                Query::child_any(Query::var("root")),
                Query::for_in(
                    "y",
                    Query::child_any(Query::var("root")),
                    Query::if_then(Cond::VarEq("x".into(), "y".into(), mode), Query::leaf("eq")),
                ),
            )
        };
        // Deep: <a><b/></a> vs <a/> differ; diagonal matches only: 2 of 4.
        assert_eq!(run(&body(EqMode::Deep), "<r><a><b/></a><a/></r>").len(), 2);
        // Atomic compares root labels: all 4 pairs match.
        assert_eq!(
            run(&body(EqMode::Atomic), "<r><a><b/></a><a/></r>").len(),
            4
        );
    }

    #[test]
    fn const_eq_and_derived_conditions() {
        let q = Query::for_in(
            "x",
            Query::child_any(Query::var("root")),
            Query::if_then(
                Cond::ConstEq("x".into(), "true".into(), EqMode::Atomic),
                Query::leaf("hit"),
            ),
        );
        assert_eq!(run(&q, "<r><true/><false/></r>").len(), 1);
    }

    #[test]
    fn some_and_every() {
        let some_b = Cond::some(
            "y",
            Query::child_any(Query::var("root")),
            Cond::ConstEq("y".into(), "b".into(), EqMode::Atomic),
        );
        let every_b = Cond::every(
            "y",
            Query::child_any(Query::var("root")),
            Cond::ConstEq("y".into(), "b".into(), EqMode::Atomic),
        );
        let test = |c: &Cond, src: &str| {
            eval_cond_with(c, &Env::with_root(t(src)), Budget::default()).unwrap()
        };
        assert!(test(&some_b, "<r><a/><b/></r>"));
        assert!(!test(&some_b, "<r><a/></r>"));
        assert!(!test(&every_b, "<r><a/><b/></r>"));
        assert!(test(&every_b, "<r><b/><b/></r>"));
        assert!(test(&every_b, "<r/>"), "every is vacuously true");
    }

    #[test]
    fn desugared_forms_agree_with_native_forms() {
        let native = Cond::some(
            "y",
            Query::child_any(Query::var("root")),
            Cond::ConstEq("y".into(), "b".into(), EqMode::Atomic),
        )
        .and(Cond::True);
        let mut fresh = 0;
        let desugared = native.desugar(&mut fresh);
        for src in ["<r><a/><b/></r>", "<r><a/></r>", "<r/>"] {
            let env = Env::with_root(t(src));
            assert_eq!(
                eval_cond_with(&native, &env, Budget::default()).unwrap(),
                eval_cond_with(&desugared, &env, Budget::default()).unwrap(),
                "src = {src}"
            );
        }
    }

    #[test]
    fn variable_shadowing() {
        // for $x in $root/a return for $x in $x/* return $x
        let q = Query::for_in(
            "x",
            Query::child(Query::var("root"), "a"),
            Query::for_in("x", Query::child_any(Query::var("x")), Query::var("x")),
        );
        assert_eq!(render(&run(&q, "<r><a><inner/></a></r>")), "<inner/>");
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let r = eval_query(&Query::var("nope"), &t("<a/>"));
        assert!(matches!(r, Err(XqError::UnboundVariable(_))));
    }

    #[test]
    fn boolean_result_convention() {
        let yes = Query::elem("res", Query::leaf("hit"));
        let no = Query::elem("res", Query::Empty);
        assert!(boolean_result(&yes, &t("<a/>")).unwrap());
        assert!(!boolean_result(&no, &t("<a/>")).unwrap());
        // Bare queries: nonempty list.
        assert!(boolean_result(&Query::var("root"), &t("<a/>")).unwrap());
        assert!(!boolean_result(&Query::Empty, &t("<a/>")).unwrap());
    }

    #[test]
    fn budget_guards_blowup() {
        // Repeated doubling: for $x in (α α) return ... grows 2^n.
        let mut q = Query::leaf("z");
        for i in 0..40 {
            q = Query::for_in(
                format!("v{i}").as_str(),
                Query::Seq(Arc::new(q.clone()), Arc::new(q)),
                Query::leaf("z"),
            );
        }
        let r = eval_with(
            &q,
            &Env::with_root(t("<a/>")),
            Budget {
                max_steps: 50_000,
                max_items: 50_000,
                ..Budget::default()
            },
        );
        assert!(matches!(r, Err(XqError::Budget { .. })));
    }

    use std::sync::Arc;

    #[test]
    fn zero_budget_means_nothing_allowed_not_unlimited() {
        // The contract the parallel saturating_sub chain depends on: a cap
        // of 0 rejects the very first step/item, deterministically.
        let zero_steps = Budget {
            max_steps: 0,
            ..Budget::default()
        };
        let r = eval_with(&Query::Empty, &Env::with_root(t("<a/>")), zero_steps);
        assert!(matches!(r, Err(XqError::Budget { which: "steps" })));
        let zero_items = Budget {
            max_items: 0,
            ..Budget::default()
        };
        let r = eval_with(&Query::leaf("a"), &Env::with_root(t("<a/>")), zero_items);
        assert!(matches!(r, Err(XqError::Budget { which: "items" })));
    }

    #[test]
    fn preset_cancel_flag_rejects_the_first_tick() {
        // The zero-cap contract extended to the new fields: a flag that is
        // already set when evaluation starts must abort at the very first
        // tick, even on `Query::Empty` — never "run a bit, then notice".
        let flag = CancelFlag::new();
        flag.cancel();
        let b = Budget::default().with_cancel(flag);
        let r = eval_with(&Query::Empty, &Env::with_root(t("<a/>")), b.clone());
        assert!(matches!(r, Err(XqError::Cancelled)));
        // And the VM-shared charge path agrees before any work happens.
        assert!(matches!(b.preflight(), Err(XqError::Cancelled)));
    }

    #[test]
    fn past_deadline_rejects_the_first_tick() {
        let long_ago = Instant::now() - Duration::from_secs(1);
        let b = Budget::default().with_deadline(long_ago);
        let r = eval_with(&Query::Empty, &Env::with_root(t("<a/>")), b.clone());
        assert!(matches!(r, Err(XqError::DeadlineExceeded)));
        assert!(matches!(b.preflight(), Err(XqError::DeadlineExceeded)));
    }

    #[test]
    fn preflight_rejects_zero_steps_like_evaluation_does() {
        // The front door uses preflight() to shed doomed requests before
        // queuing them; it must agree with the evaluator's zero-cap rule.
        let b = Budget {
            max_steps: 0,
            ..Budget::default()
        };
        assert!(matches!(
            b.preflight(),
            Err(XqError::Budget { which: "steps" })
        ));
        assert!(Budget::default().preflight().is_ok());
    }

    #[test]
    fn tripping_flag_cancels_at_the_exact_tick_with_a_polls_witness() {
        // The determinism device cancel_diff builds on: a flag armed to
        // trip at poll n cancels exactly at tick n, and `polls()` reports
        // where evaluation stopped.
        let q = Query::for_in("x", Query::child_any(Query::var("root")), Query::var("x"));
        let env = Env::with_root(t("<r><a/><b/><c/></r>"));
        let (_, full) = eval_with(&q, &env, Budget::default()).unwrap();
        assert!(full.steps > 2);
        let k = full.steps / 2;
        let flag = CancelFlag::tripping_at(k);
        let r = eval_with(&q, &env, Budget::default().with_cancel(flag.clone()));
        assert!(matches!(r, Err(XqError::Cancelled)));
        assert_eq!(flag.polls(), k, "cancelled at exactly tick k");
        // A counting flag that never trips leaves the run untouched and
        // witnesses one poll per step.
        let counting = CancelFlag::counting();
        let (_, stats) =
            eval_with(&q, &env, Budget::default().with_cancel(counting.clone())).unwrap();
        assert_eq!(stats.steps, full.steps);
        assert_eq!(counting.polls(), full.steps);
    }

    #[test]
    fn stats_track_env_depth() {
        let q = Query::for_in(
            "x",
            Query::child_any(Query::var("root")),
            Query::for_in("y", Query::child_any(Query::var("x")), Query::var("y")),
        );
        let (_, stats) = eval_with(
            &q,
            &Env::with_root(t("<r><a><b/></a></r>")),
            Budget::default(),
        )
        .unwrap();
        assert_eq!(stats.max_env_depth, 3); // root, x, y
    }

    #[test]
    fn mon_equality_rejected() {
        let q = Query::if_then(
            Cond::VarEq("root".into(), "root".into(), EqMode::Mon),
            Query::leaf("y"),
        );
        assert!(matches!(
            eval_query(&q, &t("<a/>")),
            Err(XqError::BadEqualityMode)
        ));
    }
}
