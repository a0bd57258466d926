//! Data-parallel evaluation over the arena document store.
//!
//! The paper's combined-complexity results hinge on large `for`-nests over
//! documents: loops range over thousands of input nodes, and the body's
//! work per node is independent of every other node's. With the label
//! interner global and sharded, [`ArenaDoc`] is `Send + Sync`, so those
//! loops split across threads: [`eval_compiled_par`] asks the planner
//! ([`ParPlan`], see [`crate::plan`]) which parts of the query shard —
//! `Seq` branches, flattened `for`-nests, hoisted `let` sources,
//! predicate-filtered loops — carves each shardable work-list into one
//! contiguous chunk per worker, and evaluates the loop body on each chunk
//! under [`std::thread::scope`] (no thread pool, no external runtime — the
//! registry is offline).
//!
//! **One evaluator.** Every piece of a plan runs on the bytecode VM. Each
//! shard body and each opaque leaf is compiled once per request, before
//! the thread split, and the workers share that plan by reference. Its
//! loop and hoisted variables are free in the piece, so they compile to
//! [`VarRef::Free`](crate::vm::VarRef::Free) and each row runs through
//! [`exec_bound`] with them bound to the row's nodes: binding a variable
//! is writing a [`NodeId`], and no worker materializes a tree to read
//! the document. This is Koch05 Prop 7.3's evaluation of a
//! composition-free loop body with its variables ranging over node ids.
//!
//! **Determinism is the contract.** [`Tree`] is `Arc`-backed and `Send`,
//! so each worker returns its chunk's result trees and the merging thread
//! concatenates them *in chunk order*. Because each row runs exactly the
//! sequential semantics on the same node values (the VM is byte- and
//! counter-identical to Figure 1), and every plan node concatenates
//! partial results in iteration/branch order, the merged result is
//! byte-identical to [`eval_query`](crate::eval_query) — the `par_diff`
//! and `vm_diff` suites assert this at 1/2/4/8 threads over random query
//! corpora.
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
//! 1`) run the whole plan on the VM over the arena, sequentially;
//! [`ParStats::parallelized`] reports which path ran.

use crate::ast::Var;
use crate::plan::{ParPlan, ShardPlan};
use crate::semantics::{Budget, EvalStats, XqError};
use crate::vm::{compile_query, exec_bound, exec_doc, CompiledPlan};
use cv_xtree::{ArenaDoc, NodeId, Tree};

/// Counters reported by [`eval_compiled_par`].
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

/// One chunk of a sharded loop: runs `body` once per row, with `bound`
/// (the hoisted bindings) plus `vars` bound row-wise to the row's nodes,
/// under one draining slice of the budget. Result trees come back in
/// iteration order.
fn run_rows(
    doc: &ArenaDoc,
    body: &CompiledPlan,
    bound: &[(Var, NodeId)],
    vars: &[Var],
    rows: &[&[NodeId]],
    budget: Budget,
) -> Result<(Vec<Tree>, EvalStats), XqError> {
    // One binding slice for the whole chunk: each row overwrites the
    // loop variables' nodes in place.
    let mut env: Vec<(Var, NodeId)> = bound.to_vec();
    let depth = env.len();
    env.extend(vars.iter().map(|v| (v.clone(), doc.root())));
    let mut remaining = budget;
    let mut total = EvalStats::default();
    let mut out = Vec::new();
    for &row in rows {
        for (binding, &n) in env[depth..].iter_mut().zip(row) {
            binding.1 = n;
        }
        let (trees, stats) = exec_bound(body, doc, &env, remaining.clone())?;
        total.steps += stats.steps;
        total.items += stats.items;
        total.max_env_depth = total.max_env_depth.max(stats.max_env_depth);
        remaining.max_steps = remaining.max_steps.saturating_sub(stats.steps);
        remaining.max_items = remaining.max_items.saturating_sub(stats.items);
        out.extend(trees);
    }
    Ok((out, total))
}

/// Plan executor state shared down the plan walk.
struct Exec<'d> {
    doc: &'d ArenaDoc,
    budget: Budget,
    threads: usize,
    /// Hoisted `let` bindings in scope, innermost last.
    bound: Vec<(Var, NodeId)>,
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
                self.bound.push((v.clone(), *node));
                let result = self.run(inner);
                self.bound.pop();
                result
            }
            ParPlan::Shard(sp) => self.run_shard(sp),
            ParPlan::Opaque(q) => {
                let leaf = compile_query(q);
                let (out, stats) = exec_bound(&leaf, self.doc, &self.bound, self.budget.clone())?;
                self.stats.steps += stats.steps;
                self.stats.items += stats.items;
                Ok(out)
            }
        }
    }

    fn run_shard(&mut self, sp: &ShardPlan<'_>) -> Result<Vec<Tree>, XqError> {
        let body = compile_query(sp.body());
        let rows: Vec<&[NodeId]> = sp.rows().collect();
        let parts = chunks(&rows, self.threads);
        self.stats.workers = self.stats.workers.max(parts.len());
        let (doc, budget, vars) = (self.doc, self.budget.clone(), sp.vars());
        let (body, bound) = (&body, self.bound.as_slice());
        let results: Vec<Result<(Vec<Tree>, EvalStats), XqError>> = if parts.len() <= 1 {
            // One chunk: evaluate inline — no thread to pay for.
            let chunk = parts.first().copied().unwrap_or(&[]);
            vec![run_rows(doc, body, bound, vars, chunk, budget)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = parts
                    .iter()
                    .map(|chunk| {
                        // Clones share the cancel flag: one cancellation
                        // (or deadline) aborts every worker of this
                        // request.
                        let budget = budget.clone();
                        scope.spawn(move || run_rows(doc, body, bound, vars, chunk, budget))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("evaluation worker panicked"))
                    .collect()
            })
        };
        // Chunk order is iteration order, so concatenating the per-worker
        // results in order preserves it; the first error in chunk order
        // wins, making failures deterministic for a fixed thread count.
        let mut out = Vec::new();
        for r in results {
            let (trees, chunk_stats) = r?;
            self.stats.steps += chunk_stats.steps;
            self.stats.items += chunk_stats.items;
            out.extend(trees);
        }
        Ok(out)
    }
}

/// Evaluates a compiled plan over an arena-backed document, sharding every
/// loop the planner proves splittable across `budget.threads` workers.
/// Results are byte-identical to [`eval_query`](crate::eval_query) on
/// `doc.to_tree()`; see the module docs for the merge and budget
/// contracts. The baked [`par_hint`](crate::vm::CompiledPlan::par_hint)
/// short-circuits planning for queries that can never shard (hint `false`
/// proves `ParPlan` would not engage on any document); those, and every
/// single-thread request, run the whole plan on the VM sequentially.
pub fn eval_compiled_par(
    plan: &CompiledPlan,
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
    let mut exec = Exec {
        doc,
        budget,
        threads,
        bound: Vec::new(),
        stats: ParStats {
            threads,
            outer_items: par_plan.sharded_items(),
            parallelized: true,
            ..ParStats::default()
        },
    };
    let out = exec.run(&par_plan)?;
    Ok((out, exec.stats))
}

/// The sequential fallback: run the VM executor over the arena document.
fn exec_seq(
    plan: &CompiledPlan,
    doc: &ArenaDoc,
    budget: Budget,
    threads: usize,
) -> Result<(Vec<Tree>, ParStats), XqError> {
    let (out, stats) = exec_doc(plan, doc, budget)?;
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
// eval-side merge above hands over whole result vectors on purpose: its
// output is materialized trees anyway, so an incremental hand-off would
// bound nothing.
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
    use cv_xtree::{random_tree, DoublingFamily, TreeGen};

    fn arena(src: &str) -> ArenaDoc {
        ArenaDoc::parse(src).unwrap()
    }

    fn xml(trees: &[Tree]) -> String {
        trees.iter().map(Tree::to_xml).collect()
    }

    /// [`eval_compiled_par`] on the text `src`.
    fn par(src: &str, doc: &ArenaDoc, budget: Budget) -> Result<(Vec<Tree>, ParStats), XqError> {
        eval_compiled_par(&compile_query(&parse_query(src).unwrap()), doc, budget)
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
            // Shard variables shadowing `$root`, in the body and a filter.
            "for $root in $root/* return <w>{ $root/* }</w>",
            "let $z := $root return for $root in $z/a return ($root, $z/b)",
            "for $x in (for $root in $root/* where $root/b return $root) return $x",
            "$root/a", // no shardable loop: fallback
            "<solo/>", // constant: fallback
        ];
        for seed in 0..4u64 {
            let mut g = TreeGen::new(seed);
            let t = random_tree(&mut g, 30, &["a", "b", "c"]);
            let doc = ArenaDoc::from_tree(&t);
            for src in queries {
                let want = xml(&eval_query(&parse_query(src).unwrap(), &t).unwrap());
                for threads in [1usize, 2, 4] {
                    let budget = Budget::default().with_threads(Threads::N(threads));
                    let (got, _) = par(src, &doc, budget).unwrap();
                    assert_eq!(xml(&got), want, "{src} at {threads} threads, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn parallel_path_actually_engages() {
        let doc = arena("<r><a/><a/><a/><a/><a/><a/></r>");
        let src = "for $x in $root/a return <w>{ $x }</w>";
        let budget = Budget::default().with_threads(Threads::N(3));
        let (_, stats) = par(src, &doc, budget).unwrap();
        assert!(stats.parallelized);
        assert_eq!(stats.outer_items, 6);
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.workers, 3);
        // Threads::One falls back by construction.
        let (_, stats) = par(src, &doc, Budget::default()).unwrap();
        assert!(!stats.parallelized);
        assert_eq!(stats.workers, 0);
    }

    /// `heavy-eval`'s text (the serving benchmark's cross-join) on the
    /// depth-8 binary doubling document: the sharded VM charges what the
    /// sharded Figure 1 interpreter charged, at every thread count.
    #[test]
    fn heavy_eval_counters_are_pinned() {
        let src = "<r>{ for $x in $root//a return \
                   if (some $y in $root//b satisfies $x =atomic $y) then <hit/> }</r>";
        let doc = DoublingFamily::Binary.arena(8);
        let want = par(src, &doc, Budget::default()).unwrap().0;
        for threads in [2usize, 4, 8] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            let (got, stats) = par(src, &doc, budget).unwrap();
            assert_eq!(xml(&got), xml(&want), "{threads} threads");
            assert!(stats.parallelized, "{threads} threads");
            assert_eq!(
                (stats.steps, stats.items, stats.outer_items, stats.workers),
                (232_560, 58_140, 340, threads),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn workers_report_actual_spawned_not_requested() {
        // Regression (satellite): with fewer outer items than threads,
        // `chunks` produces fewer parts — the stats must say so.
        let doc = arena("<r><a/><a/></r>");
        let budget = Budget::default().with_threads(Threads::N(8));
        let (_, stats) = par("for $x in $root/a return <w>{ $x }</w>", &doc, budget).unwrap();
        assert!(stats.parallelized);
        assert_eq!(stats.threads, 8, "requested parallelism");
        assert_eq!(stats.workers, 2, "actual workers = chunks = items");
    }

    #[test]
    fn errors_are_deterministic_and_budget_is_monotone() {
        let doc = arena("<r><a/><a/><a/><a/></r>");
        // Unbound variable in the body: every worker fails identically.
        for threads in [1usize, 2, 4] {
            let budget = Budget::default().with_threads(Threads::N(threads));
            let got = par("for $x in $root/a return $nope", &doc, budget);
            assert!(
                matches!(got, Err(XqError::UnboundVariable(ref v)) if v == "nope"),
                "{got:?} at {threads} threads"
            );
        }
        // A budget ample for the sequential run stays ample in parallel.
        let src = "for $x in $root/a return ($x, $x)";
        let tight = Budget {
            max_steps: 10_000,
            max_items: 10_000,
            ..Budget::default()
        };
        assert!(par(src, &doc, tight.clone()).is_ok());
        for threads in [2usize, 4] {
            let b = tight.clone().with_threads(Threads::N(threads));
            assert!(par(src, &doc, b).is_ok());
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
        let body = compile_query(&parse_query("<w>{ $x }</w>").unwrap());
        let a = doc.children(doc.root())[0];
        let bound = [(Var::new("x"), a)];
        let (_, per_item) = exec_bound(&body, &doc, &bound, Budget::default()).unwrap();
        // Two items per chunk at 2 threads; cap = exactly one item's steps.
        let exact = Budget {
            max_steps: per_item.steps,
            max_items: u64::MAX,
            threads: Threads::N(2),
            ..Budget::default()
        };
        for _ in 0..3 {
            let got = par(
                "for $x in $root/a return <w>{ $x }</w>",
                &doc,
                exact.clone(),
            );
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
