//! The parallel streaming path: planner-sharded loops streamed by worker
//! threads, merged *incrementally* in chunk order.
//!
//! Workers do not materialize their chunk's output. Each one streams its
//! rows through the same cursor pipeline as the sequential paths and
//! sends the merger runs of at most [`RUN_TOKENS`] tokens over a bounded
//! [`sync_channel`] of `QUEUE_CAP_TOKENS / RUN_TOKENS` runs: a worker
//! that gets [`QUEUE_CAP_TOKENS`] ahead of the merger blocks in `send`
//! until the merger catches up. The merger drains the channels in chunk
//! (= iteration) order, so the spliced stream is byte-identical to the
//! sequential one while peak in-flight memory is bounded by
//! `workers × (QUEUE_CAP_TOKENS + RUN_TOKENS)` tokens instead of the full
//! result size. A private gauge records the high-water mark, reported as
//! [`StreamStats::peak_buffered_tokens`].
//!
//! The materializing engine's sharded merge (`xq_core::par`) hands over
//! whole per-chunk result vectors instead: its output is materialized
//! trees anyway, so an incremental hand-off would bound nothing there.
//! A token stream is the one result form whose size an incremental merge
//! can keep out of memory.
//!
//! Error semantics match a materialized merge: every worker runs its
//! chunk to completion (an aborted merge only drops the receivers, so
//! their sends fail instead of blocking), and the first error in chunk
//! order wins.

use crate::cursor::{bind, Binding, Env, Shared};
use crate::pipeline::build_query;
use crate::{StreamConfig, StreamError, StreamStats};
use cv_xtree::{ArenaDoc, NodeId, Token};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SendError};
use xq_core::ast::{Query, Var};
use xq_core::free_vars;
use xq_core::par::chunks;
use xq_core::plan::{ParPlan, ShardPlan};

/// Tokens a worker batches per run before handing off to the merger
/// (amortizes channel synchronization without meaningfully delaying the
/// merge).
pub(crate) const RUN_TOKENS: usize = 512;

/// Per-channel cap on queued tokens: a worker this far ahead of the
/// merger blocks until the merger catches up.
pub(crate) const QUEUE_CAP_TOKENS: usize = 8 * 1024;

/// The parallel path of [`stream_query`](crate::stream_query)
/// (`cfg.threads <= 1` short-circuits before reaching here).
pub(crate) fn stream_par(
    q: &Query,
    doc: &ArenaDoc,
    cfg: StreamConfig,
) -> Result<(Vec<Token>, StreamStats), StreamError> {
    let StreamConfig {
        max_pulls,
        buffer_cap: buffer_limit,
        threads,
    } = cfg;
    // The planner's filter predicates run on the bytecode VM (Figure 1
    // semantics); the agreement suites prove both engines semantically
    // identical, so a planner-filtered node set is exactly the item set
    // this engine would stream. Any planner fallback (including predicate
    // errors) lands on the sequential engine, which reproduces the
    // sequential stream — bytes and errors — by definition. The caller's
    // pull budget doubles as the planner's (shared, aggregate) predicate
    // allowance: steps and pulls are the same order of magnitude, and a
    // too-small allowance only means a sequential fallback — never extra
    // unbounded planning work on a budget-limited call.
    let plan_budget = xq_core::Budget {
        max_steps: max_pulls,
        max_items: max_pulls,
        ..xq_core::Budget::default()
    };
    let plan = ParPlan::of(q, doc, plan_budget);
    if !plan.engages() {
        return crate::stream_query(q, doc, StreamConfig { threads: 1, ..cfg });
    }
    let root: Option<Vec<Token>> = needs_root(&plan).then(|| doc.tokens());
    let mut exec = StreamExec {
        doc,
        max_pulls,
        buffer_limit,
        threads,
        root,
        hoisted: Vec::new(),
        out: Vec::new(),
        stats: StreamStats::default(),
    };
    exec.run(&plan)?;
    let StreamExec { out, mut stats, .. } = exec;
    stats.tokens_out = out.len() as u64;
    Ok((out, stats))
}

/// Whether any streamed part of `plan` (a shard body or an opaque leaf)
/// references `$root` — i.e. whether the executor must tokenize the whole
/// document (once, before the thread split) at all.
fn needs_root(plan: &ParPlan<'_>) -> bool {
    match plan {
        ParPlan::Wrap(_, p) | ParPlan::Hoist(_, _, p) => needs_root(p),
        ParPlan::Seq(ps) => ps.iter().any(needs_root),
        ParPlan::Shard(sp) => free_vars(sp.body()).contains(&Var::root()),
        ParPlan::Opaque(q) => free_vars(q).contains(&Var::root()),
    }
}

/// Plan executor for the streaming engine.
struct StreamExec<'d> {
    doc: &'d ArenaDoc,
    max_pulls: u64,
    buffer_limit: usize,
    threads: usize,
    /// `$root` tokenized once (iff the plan needs it); workers re-wrap it.
    root: Option<Vec<Token>>,
    /// Hoisted `let` bindings in scope, tokenized once each.
    hoisted: Vec<(Var, Vec<Token>)>,
    out: Vec<Token>,
    stats: StreamStats,
}

impl StreamExec<'_> {
    fn merge_stats(&mut self, s: &StreamStats) {
        self.stats.pulls += s.pulls;
        self.stats.recomputations += s.recomputations;
        self.stats.buffered_sources += s.buffered_sources;
        self.stats.lazy_fallbacks += s.lazy_fallbacks;
        self.stats.peak_live_cursors = self.stats.peak_live_cursors.max(s.peak_live_cursors);
        self.stats.peak_buffered_tokens =
            self.stats.peak_buffered_tokens.max(s.peak_buffered_tokens);
    }

    fn run(&mut self, plan: &ParPlan<'_>) -> Result<(), StreamError> {
        match plan {
            ParPlan::Wrap(a, inner) => {
                self.out.push(Token::Open(a.clone()));
                self.run(inner)?;
                self.out.push(Token::Close(a.clone()));
                Ok(())
            }
            ParPlan::Seq(branches) => {
                // Branch order is concatenation order; the first error in
                // branch order wins, as sequentially.
                for b in branches {
                    self.run(b)?;
                }
                Ok(())
            }
            ParPlan::Hoist(v, node, inner) => {
                // `let $z := $root` is the common hoist; reuse the shared
                // root token build instead of re-walking the document.
                let tokens = match &self.root {
                    Some(rt) if *node == self.doc.root() => rt.clone(),
                    _ => self.doc.tokens_of(*node),
                };
                self.hoisted.push((v.clone(), tokens));
                let result = self.run(inner);
                self.hoisted.pop();
                result
            }
            ParPlan::Shard(sp) => self.run_shard(sp),
            ParPlan::Opaque(q) => {
                let shared = Shared::new(self.max_pulls, self.buffer_limit);
                let mut env: Env = None;
                if let Some(rt) = &self.root {
                    env = bind(&env, Var::root(), Binding::Input(Rc::from(&rt[..])));
                }
                for (v, t) in &self.hoisted {
                    env = bind(&env, v.clone(), Binding::Input(Rc::from(&t[..])));
                }
                let mut cursor = build_query(q, &env, &shared)?;
                while let Some(t) = cursor.pull()? {
                    self.out.push(t);
                }
                drop(cursor);
                let stats = shared.snapshot();
                self.merge_stats(&stats);
                Ok(())
            }
        }
    }

    fn run_shard(&mut self, sp: &ShardPlan<'_>) -> Result<(), StreamError> {
        // A planner-sharded loop is itself a per-source buffering
        // decision: the planner materialized the row set, exactly what a
        // completed `ItemBuffer` would hold. Count it so
        // `buffered_sources` stays consistent with the sequential paths.
        self.stats.buffered_sources += 1;
        let rows: Vec<&[NodeId]> = sp.rows().collect();
        let parts = chunks(&rows, self.threads);
        self.stats.workers = self.stats.workers.max(parts.len());
        let (doc, max_pulls, buffer_limit) = (self.doc, self.max_pulls, self.buffer_limit);
        let (vars, body) = (sp.vars(), sp.body());
        let root = self.root.as_deref();
        let hoisted = self.hoisted.as_slice();
        if parts.len() <= 1 {
            // One chunk: stream inline — no thread to pay for, and no
            // channel to cross.
            let chunk = parts.first().copied().unwrap_or(&[]);
            let out = &mut self.out;
            let s = stream_rows(
                doc,
                vars,
                body,
                chunk,
                max_pulls,
                buffer_limit,
                root,
                hoisted,
                |t| out.push(t),
            )?;
            self.merge_stats(&s);
            return Ok(());
        }
        let gauge = Gauge::default();
        let out = &mut self.out;
        let merged: Result<Vec<StreamStats>, StreamError> = std::thread::scope(|scope| {
            let gauge = &gauge;
            let workers: Vec<_> = parts
                .iter()
                .map(|&chunk| {
                    let (tx, rx) = sync_channel::<Vec<Token>>(QUEUE_CAP_TOKENS / RUN_TOKENS);
                    let worker = scope.spawn(move || {
                        let send = |run: Vec<Token>| {
                            gauge.add(run.len());
                            if let Err(SendError(run)) = tx.send(run) {
                                gauge.sub(run.len()); // merger gone
                            }
                        };
                        let mut run = Vec::with_capacity(RUN_TOKENS);
                        let result = stream_rows(
                            doc,
                            vars,
                            body,
                            chunk,
                            max_pulls,
                            buffer_limit,
                            root,
                            hoisted,
                            |t| {
                                run.push(t);
                                if run.len() == RUN_TOKENS {
                                    send(std::mem::replace(
                                        &mut run,
                                        Vec::with_capacity(RUN_TOKENS),
                                    ));
                                }
                            },
                        );
                        if !run.is_empty() {
                            send(run);
                        }
                        result
                    });
                    (rx, worker)
                })
                .collect();
            // Merge on this thread, chunk by chunk in order: drain a
            // channel until its worker drops the sender, then join the
            // worker for its result. An error returns early; dropping the
            // remaining receivers makes their workers' sends fail, and
            // those workers finish their chunks before the scope joins
            // them, so the first error in chunk order wins.
            let mut per_chunk = Vec::with_capacity(workers.len());
            for (rx, worker) in workers {
                for run in rx {
                    gauge.sub(run.len());
                    out.extend(run);
                }
                let result = worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                per_chunk.push(result?);
            }
            Ok(per_chunk)
        });
        let peak = gauge.peak.into_inner();
        self.stats.peak_buffered_tokens = self.stats.peak_buffered_tokens.max(peak);
        for s in merged? {
            self.merge_stats(&s);
        }
        Ok(())
    }
}

/// Tokens in flight between one shard's workers and the merger: a run
/// counts from just before its send until the merger receives it (or the
/// send fails). Each channel holds at most `QUEUE_CAP_TOKENS / RUN_TOKENS`
/// runs and a blocked worker holds one more, so the peak is at most
/// `workers × (QUEUE_CAP_TOKENS + RUN_TOKENS)`.
#[derive(Default)]
struct Gauge {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    fn add(&self, n: usize) {
        let now = self.cur.fetch_add(n as u64, Ordering::SeqCst) + n as u64;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn sub(&self, n: usize) {
        self.cur.fetch_sub(n as u64, Ordering::SeqCst);
    }
}

/// The row loop shared by the worker and inline shard paths: the body
/// streamed once per row, with loop-variable bindings tokenized straight
/// out of the shared arena and the `$root`/hoisted streams re-wrapped
/// from the one shared build; every output token goes to `emit` in
/// iteration order.
#[allow(clippy::too_many_arguments)]
fn stream_rows(
    doc: &ArenaDoc,
    vars: &[Var],
    body: &Query,
    rows: &[&[NodeId]],
    max_pulls: u64,
    buffer_limit: usize,
    root: Option<&[Token]>,
    hoisted: &[(Var, Vec<Token>)],
    mut emit: impl FnMut(Token),
) -> Result<StreamStats, StreamError> {
    let shared = Shared::new(max_pulls, buffer_limit);
    let root_rc: Option<Rc<[Token]>> = root.map(Rc::from);
    let hoisted_rc: Vec<(Var, Rc<[Token]>)> = hoisted
        .iter()
        .map(|(v, t)| (v.clone(), Rc::from(&t[..])))
        .collect();
    for &row in rows {
        let mut env: Env = None;
        if let Some(rt) = &root_rc {
            env = bind(&env, Var::root(), Binding::Input(rt.clone()));
        }
        for (v, t) in &hoisted_rc {
            env = bind(&env, v.clone(), Binding::Input(t.clone()));
        }
        for (v, &n) in vars.iter().zip(row) {
            env = bind(&env, v.clone(), Binding::Input(doc.tokens_of(n).into()));
        }
        let mut cursor = build_query(body, &env, &shared)?;
        while let Some(t) = cursor.pull()? {
            emit(t);
        }
    }
    Ok(shared.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xq_core::{parse_query, Budget};

    #[test]
    fn needs_root_tracks_shard_bodies_and_opaque_leaves() {
        let doc = ArenaDoc::parse("<r><a/><a/></r>").unwrap();
        let needs = |text: &str| {
            let q = parse_query(text).unwrap();
            let plan = ParPlan::of(&q, &doc, Budget::default());
            assert!(plan.engages(), "{text} must shard");
            needs_root(&plan)
        };
        assert!(!needs("for $x in $root/a return <w>{ $x }</w>"));
        assert!(!needs(
            "<out>{ for $x in $root/a return <w>{ $x }</w> }</out>"
        ));
        assert!(needs("for $x in $root/a return ($x, $root)"));
        assert!(
            needs("(for $x in $root/a return <w/>, $root/a)"),
            "opaque branch mentions $root"
        );
    }
}
