//! Data-parallel evaluation over the arena document store.
//!
//! The paper's combined-complexity results hinge on large `for`-nests over
//! documents: loops range over thousands of input nodes, and the body's
//! work per node is independent of every other node's. With the label
//! interner global and sharded, [`ArenaDoc`] is `Send + Sync`, so those
//! loops split across threads: [`eval_query_par`] asks the planner
//! ([`ParPlan`], see [`crate::plan`]) which parts of the query shard —
//! `Seq` branches, flattened `for`-nests, hoisted `let` sources,
//! predicate-filtered loops — carves each shardable work-list into one
//! contiguous chunk per worker, and evaluates the loop body on each chunk
//! under [`std::thread::scope`] (no thread pool, no external runtime — the
//! registry is offline).
//!
//! **Determinism is the contract.** Workers return their chunk's result as
//! interned token buffers ([`IToken`], `Copy + Send`); the merging thread
//! splices the per-worker buffers *in chunk order* and rebuilds trees in
//! one pass with [`forest_from_itokens`] — no intermediate
//! [`Token`](cv_xtree::Token) list, no per-chunk rebuild. Because each
//! body evaluation is exactly the Figure 1 sequential semantics on the
//! same subtree values, and every plan node concatenates partial results
//! in iteration/branch order, the merged result is byte-identical to
//! [`eval_query`](crate::eval_query) — the `par_diff` differential suite
//! asserts this at 1/2/4/8 threads over the random-query corpus.
//!
//! **Shared values are built once.** Shard bodies and opaque leaves run
//! the Figure 1 interpreter over [`Tree`]s taken from the document's node
//! table ([`ArenaDoc::shared_node`]) — materialized once per document,
//! not per query or per worker — so binding `$root`, a hoisted `let` or
//! a row's loop variables is an `Arc` pointer bump (`Tree` is
//! `Arc`-backed), never a subtree copy.
//!
//! **Budget semantics.** Each worker draws on the step/item caps of the
//! [`Budget`] independently for its chunk (a shared atomic counter would
//! put a contended cache line in the innermost loop). Work per chunk is a
//! subset of the sequential work, so any query that fits the budget
//! sequentially also fits it in parallel; the converse may not hold, which
//! only ever turns an error into a result. A worker that *exactly*
//! exhausts its step or item cap mid-chunk continues with a cap of 0 —
//! and 0 means "nothing further allowed", never "unlimited" (see
//! [`Budget::max_steps`]), so the next item fails deterministically.
//!
//! Queries with no shardable loop of at least two items (or `threads <=
//! 1`) fall back to the sequential evaluator — the interpreter on the
//! shared tree, or the VM over the arena for compiled plans —
//! [`ParStats::parallelized`] reports which path ran.

use crate::ast::{Query, Var};
use crate::plan::{ParPlan, ShardPlan};
use crate::semantics::{eval_with, Budget, Env, EvalStats, XqError};
use cv_xtree::{forest_from_itokens, intern_tokens, ArenaDoc, IToken, Label, NodeId, Tree};

/// Counters reported by [`eval_query_par`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ParStats {
    /// Worker threads the budget's [`Threads`](crate::Threads) knob
    /// resolved to (the *requested* parallelism).
    pub threads: usize,
    /// Workers actually spawned — the maximum over the plan's shard
    /// executions, each of which spawns one worker per chunk. Less than
    /// [`ParStats::threads`] when a work-list has fewer items than
    /// threads; 0 on the sequential fallback.
    pub workers: usize,
    /// Sharded work items across all plan loops (0 when the query fell
    /// back to the sequential path).
    pub outer_items: usize,
    /// Whether the data-parallel path ran (false: sequential fallback).
    pub parallelized: bool,
    /// Evaluation steps summed over all workers and opaque (sequential)
    /// plan leaves. Excludes source resolution, which is pure arena axis
    /// scans plus any filter predicates.
    pub steps: u64,
    /// Result-list items summed over all workers and opaque leaves.
    pub items: u64,
}

/// Splits `q` into its element-constructor wrappers and the outermost
/// `for`, if that is its shape: `⟨a⟩…⟨b⟩ for $v in σ return β ⟨/b⟩…⟨/a⟩`
/// returns `([a, …, b], $v, σ, β)`.
///
/// This was the *entire* analysis of the PR 4 parallel layer; the planner
/// ([`ParPlan`]) subsumes it. It remains public as the baseline the T17
/// coverage harness measures the planner against.
pub fn outer_for_split(q: &Query) -> Option<(Vec<Label>, &Var, &Query, &Query)> {
    let mut wrappers = Vec::new();
    let mut cur = q;
    loop {
        match cur {
            Query::Elem(a, body) => {
                wrappers.push(a.clone());
                cur = body;
            }
            Query::For(v, source, body) => return Some((wrappers, v, source, body)),
            _ => return None,
        }
    }
}

/// Resolves a `for`-source that is a chain of axis steps grounded at
/// `$root` to the arena nodes it selects, in document order with
/// multiplicity. Returns `None` for any other source shape.
///
/// The planner's source resolution (which additionally handles pinned
/// variables and filter predicates) supersedes this; like
/// [`outer_for_split`] it is kept as the T17 baseline.
pub fn resolve_node_source(doc: &ArenaDoc, source: &Query) -> Option<Vec<NodeId>> {
    match source {
        Query::Var(v) if *v == Var::root() => Some(vec![doc.root()]),
        Query::Step(base, axis, test) => {
            let bases = resolve_node_source(doc, base)?;
            let mut out = Vec::new();
            for b in bases {
                out.extend(doc.axis(b, *axis, test));
            }
            Some(out)
        }
        _ => None,
    }
}

/// Carves `items` into at most `parts` contiguous chunks of near-equal
/// length (never empty; fewer chunks than `parts` when items are scarce).
/// Public so every parallel engine shards identically
/// (`xq_stream::stream_query` with `threads > 1` uses it too).
pub fn chunks<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.clamp(1, items.len().max(1));
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(&items[start..start + len]);
        start += len;
    }
    out
}

/// The row loop shared by the worker and inline shard paths: evaluates
/// `body` with the loop variables bound row-wise to the rows' subtrees
/// (plus the shared `$root` tree and hoisted bindings when present),
/// under one draining slice of the budget, feeding every result tree to
/// `emit` in iteration order.
#[allow(clippy::too_many_arguments)]
fn eval_rows(
    doc: &ArenaDoc,
    vars: &[Var],
    body: &Query,
    rows: &[&[NodeId]],
    budget: Budget,
    root: Option<&Tree>,
    hoisted: &[(Var, Tree)],
    mut emit: impl FnMut(Tree),
) -> Result<EvalStats, XqError> {
    let mut env = Env::new();
    if let Some(rt) = root {
        // One shared build: binding is an Arc pointer bump per worker.
        env.bind(Var::root(), rt.clone());
    }
    for (v, t) in hoisted {
        env.bind(v.clone(), t.clone());
    }
    let mut remaining = budget;
    let mut total = EvalStats::default();
    for &row in rows {
        // One env reused across the loop: bind/pop around each row
        // (eval_with clones internally, so the bindings stay per-item).
        for (v, &n) in vars.iter().zip(row) {
            env.bind(v.clone(), doc.shared_node(n).clone());
        }
        let result = eval_with(body, &env, remaining.clone());
        for _ in vars {
            env.pop();
        }
        let (out, stats) = result?;
        total.steps += stats.steps;
        total.items += stats.items;
        total.max_env_depth = total.max_env_depth.max(stats.max_env_depth);
        remaining.max_steps = remaining.max_steps.saturating_sub(stats.steps);
        remaining.max_items = remaining.max_items.saturating_sub(stats.items);
        for t in out {
            emit(t);
        }
    }
    Ok(total)
}

/// One worker's share of a sharded loop ([`eval_rows`] with the result
/// crossing back to the merger as an interned token buffer).
#[allow(clippy::too_many_arguments)]
fn eval_chunk(
    doc: &ArenaDoc,
    vars: &[Var],
    body: &Query,
    rows: &[&[NodeId]],
    budget: Budget,
    root: Option<&Tree>,
    hoisted: &[(Var, Tree)],
) -> Result<(Vec<IToken>, EvalStats), XqError> {
    let mut itokens = Vec::new();
    let stats = eval_rows(doc, vars, body, rows, budget, root, hoisted, |t| {
        itokens.extend(intern_tokens(&t.tokens()))
    })?;
    Ok((itokens, stats))
}

/// Plan executor state shared down the plan walk.
struct Exec<'d> {
    doc: &'d ArenaDoc,
    budget: Budget,
    threads: usize,
    /// The root tree, materialized once iff the plan needs it.
    root: Option<Tree>,
    /// Hoisted `let` bindings in scope (each subtree built once, shared
    /// with workers by clone).
    hoisted: Vec<(Var, Tree)>,
    stats: ParStats,
}

impl Exec<'_> {
    fn run(&mut self, plan: &ParPlan<'_>) -> Result<Vec<Tree>, XqError> {
        match plan {
            ParPlan::Wrap(a, inner) => {
                let children = self.run(inner)?;
                Ok(vec![Tree::node(a.clone(), children)])
            }
            ParPlan::Seq(branches) => {
                // Branch order is concatenation order; the first error in
                // branch order wins, as in sequential evaluation.
                let mut out = Vec::new();
                for b in branches {
                    out.extend(self.run(b)?);
                }
                Ok(out)
            }
            ParPlan::Hoist(v, node, inner) => {
                let t = self.doc.shared_node(*node).clone();
                self.hoisted.push((v.clone(), t));
                let result = self.run(inner);
                self.hoisted.pop();
                result
            }
            ParPlan::Shard(sp) => self.run_shard(sp),
            ParPlan::Opaque(q) => {
                let mut env = Env::new();
                if let Some(rt) = &self.root {
                    env.bind(Var::root(), rt.clone());
                }
                for (v, t) in &self.hoisted {
                    env.bind(v.clone(), t.clone());
                }
                let (out, stats) = eval_with(q, &env, self.budget.clone())?;
                self.stats.steps += stats.steps;
                self.stats.items += stats.items;
                Ok(out)
            }
        }
    }

    fn run_shard(&mut self, sp: &ShardPlan<'_>) -> Result<Vec<Tree>, XqError> {
        let rows: Vec<&[NodeId]> = sp.rows().collect();
        let parts = chunks(&rows, self.threads);
        self.stats.workers = self.stats.workers.max(parts.len());
        let (doc, budget) = (self.doc, self.budget.clone());
        let (vars, body) = (sp.vars(), sp.body());
        let (root, hoisted) = (self.root.as_ref(), self.hoisted.as_slice());
        if parts.len() <= 1 {
            // One chunk: evaluate inline — no thread to pay for, and no
            // reason to round-trip the result trees through tokens.
            let chunk = parts.first().copied().unwrap_or(&[]);
            let mut out = Vec::new();
            let stats = eval_rows(doc, vars, body, chunk, budget, root, hoisted, |t| {
                out.push(t)
            })?;
            self.stats.steps += stats.steps;
            self.stats.items += stats.items;
            return Ok(out);
        }
        let results: Vec<Result<(Vec<IToken>, EvalStats), XqError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|chunk| {
                    // Clones share the cancel flag: one cancellation (or
                    // deadline) aborts every worker of this request.
                    let budget = budget.clone();
                    scope.spawn(move || eval_chunk(doc, vars, body, chunk, budget, root, hoisted))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation worker panicked"))
                .collect()
        });
        // Chunk order is iteration order, so splicing the per-worker
        // buffers in order preserves it; the first error in chunk order
        // wins, making failures deterministic for a fixed thread count.
        let mut spliced: Vec<IToken> = Vec::new();
        for r in results {
            let (itokens, chunk_stats) = r?;
            self.stats.steps += chunk_stats.steps;
            self.stats.items += chunk_stats.items;
            spliced.extend_from_slice(&itokens);
        }
        Ok(forest_from_itokens(&spliced).expect("workers emit well-formed tag strings"))
    }
}

/// Evaluates `q` over an arena-backed document, sharding every loop the
/// planner proves splittable across `budget.threads` workers. Results are
/// byte-identical to [`eval_query`](crate::eval_query) on `doc.to_tree()`;
/// see the module docs for the merge and budget contracts.
pub fn eval_query_par(
    q: &Query,
    doc: &ArenaDoc,
    budget: Budget,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let threads = budget.threads.count();
    if threads <= 1 {
        return eval_seq(q, doc, budget, threads);
    }
    let plan = ParPlan::of(q, doc, budget.clone());
    if !plan.engages() {
        return eval_seq(q, doc, budget, threads);
    }
    eval_plan(&plan, doc, budget, threads)
}

/// [`eval_query_par`] for a compiled plan: the data-parallel entry point
/// of the bytecode VM. The baked [`par_hint`](crate::vm::CompiledPlan::par_hint)
/// short-circuits planning for queries that can never shard (hint `false`
/// proves `ParPlan` would not engage on any document), and both the
/// non-engaging and single-thread routes run on the VM executor instead
/// of the tree-walking interpreter. Output is byte-identical to
/// [`eval_query_par`] — the compiled-vs-interpreted differential suite
/// (`vm_diff`) pins this across the corpus at 1/2/4 threads.
pub fn eval_compiled_par(
    plan: &crate::vm::CompiledPlan,
    doc: &ArenaDoc,
    budget: Budget,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let threads = budget.threads.count();
    if threads <= 1 || !plan.par_hint() {
        return exec_seq(plan, doc, budget, threads);
    }
    let par_plan = ParPlan::of(plan.query(), doc, budget.clone());
    if !par_plan.engages() {
        return exec_seq(plan, doc, budget, threads);
    }
    eval_plan(&par_plan, doc, budget, threads)
}

/// The compiled sequential fallback: run the VM executor over the
/// arena document.
fn exec_seq(
    plan: &crate::vm::CompiledPlan,
    doc: &ArenaDoc,
    budget: Budget,
    threads: usize,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let (out, stats) = crate::vm::exec_doc(plan, doc, budget)?;
    Ok((
        out,
        ParStats {
            threads,
            workers: 0,
            outer_items: 0,
            parallelized: false,
            steps: stats.steps,
            items: stats.items,
        },
    ))
}

/// Executes an already-built, engaging plan. A plan that reads `$root`
/// binds the document's [`shared_tree`](ArenaDoc::shared_tree), so
/// planner, executor and every worker share one materialization (the
/// node table).
fn eval_plan(
    plan: &ParPlan<'_>,
    doc: &ArenaDoc,
    budget: Budget,
    threads: usize,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let root = plan.needs_root().then(|| doc.shared_tree().clone());
    let mut exec = Exec {
        doc,
        budget,
        threads,
        root,
        hoisted: Vec::new(),
        stats: ParStats {
            threads,
            outer_items: plan.sharded_items(),
            parallelized: true,
            ..ParStats::default()
        },
    };
    let out = exec.run(plan)?;
    Ok((out, exec.stats))
}

/// The sequential fallback: run Figure 1 over the document's shared tree.
fn eval_seq(
    q: &Query,
    doc: &ArenaDoc,
    budget: Budget,
    threads: usize,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let env = Env::with_root(doc.shared_tree().clone());
    let (out, stats) = eval_with(q, &env, budget)?;
    Ok((
        out,
        ParStats {
            threads,
            workers: 0,
            outer_items: 0,
            parallelized: false,
            steps: stats.steps,
            items: stats.items,
        },
    ))
}

// ---------------------------------------------------------------------
// Incremental merge plumbing: bounded token-run queues + a shared
// high-water gauge. The streaming engine's parallel path (xq_stream)
// uses these so workers hand their output to the merger in small runs
// instead of one fully-materialized per-chunk buffer — peak queued
// tokens is bounded by `parts × cap` regardless of result size. The
// eval-side merge above stays materialized on purpose:
// `forest_from_itokens` needs each chunk's full token slice to rebuild
// trees in one pass, and its output is materialized trees anyway, so an
// incremental hand-off would bound nothing.
// ---------------------------------------------------------------------

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// High-water gauge over everything queued in one merge: all
/// [`run_queue`]s of a merge share one gauge, so `peak()` is the maximum
/// number of tokens simultaneously in flight between the workers and the
/// merger — the number that proves the merge incremental.
#[derive(Debug, Default)]
pub struct MergeGauge {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl MergeGauge {
    pub fn new() -> MergeGauge {
        MergeGauge::default()
    }

    fn add(&self, n: u64) {
        let now = self.cur.fetch_add(n, Ordering::SeqCst) + n;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn sub(&self, n: u64) {
        self.cur.fetch_sub(n, Ordering::SeqCst);
    }

    /// Peak tokens simultaneously queued across every attached queue.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::SeqCst)
    }
}

/// One message out of a [`run_queue`].
pub enum RunMsg<T, F> {
    /// A run of tokens, in stream order.
    Run(Vec<T>),
    /// The producer finished; carries its final result. Always the last
    /// message.
    Done(F),
}

struct RunInner<T, F> {
    runs: VecDeque<Vec<T>>,
    queued: usize,
    done: Option<F>,
    finished: bool,
    rx_alive: bool,
}

struct RunShared<T, F> {
    inner: Mutex<RunInner<T, F>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    gauge: Arc<MergeGauge>,
}

/// Sending half of a [`run_queue`]. Dropping it without
/// [`finish`](RunTx::finish) (a panicking producer) marks the queue
/// finished with no result; the receiver panics on that queue, which the
/// join of the producer's thread turns into the producer's own panic.
pub struct RunTx<T, F> {
    shared: Arc<RunShared<T, F>>,
}

/// Receiving half of a [`run_queue`]. Dropping it (an aborted merge)
/// disconnects the producer: pending runs are discarded and every
/// subsequent send is a no-op, so producers never block on a merger that
/// went away.
pub struct RunRx<T, F> {
    shared: Arc<RunShared<T, F>>,
}

/// A bounded single-producer single-consumer queue of token *runs*,
/// capped by total queued tokens (not run count). The producer blocks in
/// [`RunTx::send`] while the consumer is `cap` or more tokens behind;
/// [`RunTx::finish`] always goes through (the final result is not a
/// token). All queues of one merge share a [`MergeGauge`], whose peak
/// bounds the merge's in-flight memory.
pub fn run_queue<T, F>(cap: usize, gauge: Arc<MergeGauge>) -> (RunTx<T, F>, RunRx<T, F>) {
    let shared = Arc::new(RunShared {
        inner: Mutex::new(RunInner {
            runs: VecDeque::new(),
            queued: 0,
            done: None,
            finished: false,
            rx_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        cap,
        gauge,
    });
    (
        RunTx {
            shared: shared.clone(),
        },
        RunRx { shared },
    )
}

impl<T, F> RunTx<T, F> {
    /// Queues one run, blocking while the queue is at capacity. Empty
    /// runs and sends after the receiver dropped are no-ops.
    pub fn send(&self, run: Vec<T>) {
        if run.is_empty() {
            return;
        }
        let mut inner = self.shared.inner.lock().expect("run queue poisoned");
        while inner.rx_alive && inner.queued >= self.shared.cap && !inner.runs.is_empty() {
            inner = self
                .shared
                .not_full
                .wait(inner)
                .expect("run queue poisoned");
        }
        if !inner.rx_alive {
            return; // merger gone: discard, never block
        }
        inner.queued += run.len();
        self.shared.gauge.add(run.len() as u64);
        inner.runs.push_back(run);
        drop(inner);
        self.shared.not_empty.notify_one();
    }

    /// Marks the stream complete with its final result. Bypasses the
    /// capacity bound (a result is not queued tokens).
    pub fn finish(self, result: F) {
        let mut inner = self.shared.inner.lock().expect("run queue poisoned");
        inner.done = Some(result);
        inner.finished = true;
        drop(inner);
        self.shared.not_empty.notify_one();
    }
}

impl<T, F> Drop for RunTx<T, F> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("run queue poisoned");
        // Runs after `finish` too (it takes self by value); setting the
        // flag twice is harmless, and a producer that never called
        // `finish` (a panic) leaves `done` empty for recv to detect.
        inner.finished = true;
        drop(inner);
        self.shared.not_empty.notify_one();
    }
}

impl<T, F> RunRx<T, F> {
    /// The next message, blocking until one is available. Runs drain in
    /// send order; [`RunMsg::Done`] is returned exactly once, after the
    /// last run.
    ///
    /// # Panics
    ///
    /// If called again after `Done`, or if the producer dropped without
    /// calling [`RunTx::finish`] (i.e. it panicked).
    pub fn recv(&mut self) -> RunMsg<T, F> {
        let mut inner = self.shared.inner.lock().expect("run queue poisoned");
        loop {
            if let Some(run) = inner.runs.pop_front() {
                inner.queued -= run.len();
                self.shared.gauge.sub(run.len() as u64);
                drop(inner);
                self.shared.not_full.notify_one();
                return RunMsg::Run(run);
            }
            if inner.finished {
                let result = inner
                    .done
                    .take()
                    .expect("producer dropped without finishing (or recv after Done)");
                return RunMsg::Done(result);
            }
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .expect("run queue poisoned");
        }
    }
}

impl<T, F> Drop for RunRx<T, F> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("run queue poisoned");
        inner.rx_alive = false;
        for run in inner.runs.drain(..) {
            self.shared.gauge.sub(run.len() as u64);
        }
        inner.queued = 0;
        drop(inner);
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::Threads;
    use crate::{eval_query, parse_query};
    use cv_xtree::{random_tree, TreeGen};

    fn arena(src: &str) -> ArenaDoc {
        ArenaDoc::parse(src).unwrap()
    }

    fn xml(trees: &[Tree]) -> String {
        trees.iter().map(Tree::to_xml).collect()
    }

    #[test]
    fn outer_for_split_recognizes_wrapped_loops() {
        let q = parse_query("<out>{ for $x in $root/a return $x }</out>").unwrap();
        let (wrappers, v, _, _) = outer_for_split(&q).unwrap();
        assert_eq!(wrappers, vec![Label::from("out")]);
        assert_eq!(v.name(), "x");
        assert!(outer_for_split(&parse_query("$root/a").unwrap()).is_none());
    }

    #[test]
    fn node_source_matches_sequential_step_semantics() {
        let doc = arena("<r><a><b/><a/></a><c/><a/></r>");
        let q = parse_query("$root//a").unwrap();
        let nodes = resolve_node_source(&doc, &q).unwrap();
        let seq = eval_query(&q, &doc.to_tree()).unwrap();
        assert_eq!(nodes.len(), seq.len());
        for (n, t) in nodes.iter().zip(&seq) {
            assert_eq!(&doc.subtree(*n), t);
        }
        // Constructed sources are not node sources.
        let q = parse_query("(<w><a/></w>)/a").unwrap();
        assert!(resolve_node_source(&doc, &q).is_none());
    }

    #[test]
    fn chunking_covers_everything_in_order() {
        let items: Vec<u32> = (0..10).collect();
        for parts in 1..=12 {
            let cs = chunks(&items, parts);
            let flat: Vec<u32> = cs.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, items, "parts = {parts}");
            assert!(cs.iter().all(|c| !c.is_empty()));
        }
    }

    #[test]
    fn parallel_agrees_with_sequential_on_fixed_queries() {
        let queries = [
            "for $x in $root/* return <w>{ $x }</w>",
            "<out>{ for $x in $root//a return $x/b }</out>",
            "for $x in $root//* return if ($x =atomic <a/>) then <hit/>",
            "for $x in $root/a return for $y in $root/a return \
             if ($x = $y) then <same/>",
            // Planner shapes: Seq branches, nested fors, let hoist, filter.
            "(for $x in $root/a return <w>{ $x }</w>, \
              for $y in $root/b return <v>{ $y }</v>)",
            "for $x in $root/* return for $y in $x/* return <p>{ $y }</p>",
            "let $z := $root return for $x in $z/* return <w>{ $x }</w>",
            "for $x in (for $w in $root/* where $w/b return $w) return <f>{ $x }</f>",
            "$root/a", // no shardable loop: fallback
            "<solo/>", // constant: fallback
        ];
        for seed in 0..4u64 {
            let mut g = TreeGen::new(seed);
            let t = random_tree(&mut g, 30, &["a", "b", "c"]);
            let doc = ArenaDoc::from_tree(&t);
            for src in queries {
                let q = parse_query(src).unwrap();
                let want = xml(&eval_query(&q, &t).unwrap());
                for threads in [1usize, 2, 4] {
                    let budget = Budget::default().with_threads(Threads::N(threads));
                    let (got, _) = eval_query_par(&q, &doc, budget).unwrap();
                    assert_eq!(xml(&got), want, "{src} at {threads} threads, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn parallel_path_actually_engages() {
        let doc = arena("<r><a/><a/><a/><a/><a/><a/></r>");
        let q = parse_query("for $x in $root/a return <w>{ $x }</w>").unwrap();
        let budget = Budget::default().with_threads(Threads::N(3));
        let (_, stats) = eval_query_par(&q, &doc, budget).unwrap();
        assert!(stats.parallelized);
        assert_eq!(stats.outer_items, 6);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.workers, 3);
        // Threads::One falls back by construction.
        let (_, stats) = eval_query_par(&q, &doc, Budget::default()).unwrap();
        assert!(!stats.parallelized);
        assert_eq!(stats.workers, 0);
    }

    #[test]
    fn workers_report_actual_spawned_not_requested() {
        // Regression (satellite): with fewer outer items than threads,
        // `chunks` produces fewer parts — the stats must say so.
        let doc = arena("<r><a/><a/></r>");
        let q = parse_query("for $x in $root/a return <w>{ $x }</w>").unwrap();
        let budget = Budget::default().with_threads(Threads::N(8));
        let (_, stats) = eval_query_par(&q, &doc, budget).unwrap();
        assert!(stats.parallelized);
        assert_eq!(stats.threads, 8, "requested parallelism");
        assert_eq!(stats.workers, 2, "actual workers = chunks = items");
    }

    #[test]
    fn errors_are_deterministic_and_budget_is_monotone() {
        let doc = arena("<r><a/><a/><a/><a/></r>");
        // Unbound variable in the body: every worker fails identically.
        let q = parse_query("for $x in $root/a return $nope").unwrap();
        for threads in [1usize, 2, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            let got = eval_query_par(&q, &doc, budget);
            assert!(
                matches!(got, Err(XqError::UnboundVariable(ref v)) if v == "nope"),
                "{got:?} at {threads} threads"
            );
        }
        // A budget ample for the sequential run stays ample in parallel.
        let q = parse_query("for $x in $root/a return ($x, $x)").unwrap();
        let tight = Budget {
            max_steps: 10_000,
            max_items: 10_000,
            ..Budget::default()
        };
        assert!(eval_with(&q, &Env::with_root(doc.to_tree()), tight.clone()).is_ok());
        for threads in [2usize, 4] {
            let b = tight.clone().with_threads(Threads::N(threads));
            assert!(eval_query_par(&q, &doc, b).is_ok());
        }
    }

    #[test]
    fn exact_budget_exhaustion_mid_chunk_errors_deterministically() {
        // Regression (satellite): a worker whose first item consumes
        // *exactly* the remaining step cap continues with max_steps = 0,
        // which must mean "no further steps" — never "unlimited". If 0
        // were treated as unlimited anywhere, the second item of each
        // chunk would silently evaluate with no cap instead of erroring.
        let doc = arena("<r><a/><a/><a/><a/></r>");
        let q = parse_query("for $x in $root/a return <w>{ $x }</w>").unwrap();
        let body = parse_query("<w>{ $x }</w>").unwrap();
        let mut env = Env::new();
        env.bind(Var::new("x"), Tree::leaf("a"));
        let (_, per_item) = eval_with(&body, &env, Budget::default()).unwrap();
        // Two items per chunk at 2 threads; cap = exactly one item's steps.
        let exact = Budget {
            max_steps: per_item.steps,
            max_items: u64::MAX,
            threads: Threads::N(2),
            ..Budget::default()
        };
        for _ in 0..3 {
            let got = eval_query_par(&q, &doc, exact.clone());
            assert!(
                matches!(got, Err(XqError::Budget { which: "steps" })),
                "exact exhaustion must error deterministically, got {got:?}"
            );
        }
    }

    #[test]
    fn threads_knob_resolves() {
        assert_eq!(Threads::One.count(), 1);
        assert_eq!(Threads::N(0).count(), 1);
        assert_eq!(Threads::N(7).count(), 7);
        assert!(Threads::Auto.count() >= 1);
    }
}
