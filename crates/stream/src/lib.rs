//! The iterator-based streaming evaluator of Theorem 4.5 — the EXPSPACE
//! upper bound for `XQ[=deep, child, descendant]` — built as one
//! composable cursor pipeline.
//!
//! The materializing evaluator can build intermediate trees of doubly
//! exponential size (Prop 4.2 + Lemma 3.3). This engine follows the
//! paper's alternative: a *list iterator design pattern* with
//! `getNext`/`atEnd` (plus the derived `count`/`get`), where
//!
//! * results are streams of opening/closing-tag [`Token`]s, never trees;
//! * a `for`-variable binds to a **lazy handle** — "item `m` of
//!   `[[α]](~e)`" — not to a materialized tree;
//! * referencing a variable *re-streams* its defining expression and
//!   skips to item `m` (recomputation trades time for space);
//! * axis steps and deep equality work directly on token streams with
//!   depth counters.
//!
//! Live state is therefore a bounded number of cursors and counters per
//! query variable: [`StreamStats::peak_live_cursors`] measures it, and the
//! E4 experiment contrasts it with the materializing evaluator's allocated
//! nodes on the Prop 4.2 blowup family.
//!
//! # Architecture: one pipeline, one entry point
//!
//! [`stream_query`] runs a query over an [`ArenaDoc`] under a
//! [`StreamConfig`] — a pull budget, a per-source buffer cap and a thread
//! count — and every setting selects configuration, not a code path:
//!
//! * [`cursor`](self) — the [`Cursor`] trait (`pull`/`size_hint`/`fork`/
//!   kill) and the node cursors (slice, element construction, sequence,
//!   axis step, `for`-loop, conditional, lazy item handle), each charging
//!   exactly one pull per call and registering in the live-cursor gauge
//!   for its lifetime.
//! * `pipeline` — [`Pipeline`], the one builder mapping a query AST (or
//!   hand-picked stages) onto composed cursors over a shared budget.
//! * `buffer` — the [`BufferPolicy`]-driven per-source buffering decision:
//!   a `for`/`some`/`every` source streaming to completion within the cap
//!   is materialized once and iterated as plain slices; an oversized
//!   source falls back to the lazy Theorem 4.5 discipline
//!   ([`StreamStats::lazy_fallbacks`]), so worst-case space is
//!   `O(live cursors × cap)`. [`StreamStats::buffered_sources`] counts
//!   decisions that held.
//! * `par` — the planner-sharded parallel path: workers stream chunks
//!   through the same pipeline and hand the merger bounded interned-token
//!   runs, consumed incrementally in chunk order
//!   ([`StreamStats::peak_buffered_tokens`] proves the bound).
//!
//! The `cursor_diff` differential suite checks the engine byte-identical
//! to the Figure 1 interpreter over the coverage corpus and pins its
//! counters and budget error points in a golden file.

use cv_xtree::{ArenaDoc, Token};
use xq_core::ast::Query;

mod buffer;
mod cursor;
mod par;
mod pipeline;

pub use buffer::BufferPolicy;
pub use cursor::{BoxCursor, Cursor};
pub use par::{QUEUE_CAP_TOKENS as PAR_QUEUE_CAP_TOKENS, RUN_TOKENS as PAR_RUN_TOKENS};
pub use pipeline::Pipeline;

/// Streaming failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Unbound variable.
    UnboundVariable(String),
    /// `=mon` is not an XQuery equality.
    BadEqualityMode,
    /// The step budget was exhausted (streaming recomputes aggressively;
    /// time can be exponential in the query).
    Budget,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            StreamError::BadEqualityMode => f.write_str("=mon is not an XQuery equality"),
            StreamError::Budget => f.write_str("streaming step budget exhausted"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Counters exposed by the streaming engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Tokens produced at the top level.
    pub tokens_out: u64,
    /// Total cursor pulls (the time cost of recomputation).
    pub pulls: u64,
    /// Times a defining expression was re-streamed for a variable
    /// reference or a loop restart.
    pub recomputations: u64,
    /// Peak number of simultaneously live cursors — the measured "working
    /// memory" of Theorem 4.5 (each cursor is O(1) counters plus a
    /// constant number of references).
    pub peak_live_cursors: u64,
    /// Per-source buffering decisions that engaged and *held* — the
    /// source stayed under the [`BufferPolicy`] cap for its whole life
    /// (fully drained or abandoned early without overflowing). Counted
    /// identically on the sequential and parallel paths (a
    /// planner-sharded loop counts once: its row set is a
    /// planner-materialized buffer); always 0 when
    /// [`StreamConfig::buffer_cap`] is 0.
    pub buffered_sources: u64,
    /// Workers actually spawned when [`StreamConfig::threads`] is above 1
    /// — the maximum over the plan's shard executions, which can be less
    /// than the requested thread count when a work-list has fewer items
    /// than threads. 0 on every sequential run.
    pub workers: usize,
    /// Buffering decisions reverted to the lazy discipline because the
    /// source overflowed the per-source cap.
    pub lazy_fallbacks: u64,
    /// High-water mark of tokens parked in working buffers: per-source
    /// item buffers, and (on the parallel path) the worker→merger run
    /// queues. Maximum across workers/accounting domains, not a sum —
    /// each domain tracks its own peak. This is the number that proves
    /// the parallel merge incremental: it stays bounded while
    /// `tokens_out` grows.
    pub peak_buffered_tokens: u64,
}

/// Default per-source token cap of [`StreamConfig::buffered`]: generous
/// enough for everyday intermediates, small enough that the fast path's
/// worst-case extra space stays bounded.
pub const DEFAULT_BUFFER_LIMIT: usize = 1 << 16;

/// The settings of one [`stream_query`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Cursor pulls the run may charge: bounds the (possibly exponential)
    /// recomputation time. On the parallel path it bounds each worker's
    /// chunk and each sequential plan leaf independently, so parallel
    /// never exhausts a budget that sufficed sequentially.
    pub max_pulls: u64,
    /// Per-source token cap of the buffered fast path: any `for`/`some`/
    /// `every` source whose full token stream fits is materialized once
    /// and iterated as plain slices instead of being re-streamed per item
    /// and per variable reference. Oversized sources fall back to the
    /// lazy discipline, so the Theorem 4.5 space bound degrades by at most
    /// `O(buffer_cap)` *per live loop/quantifier scope*. 0 is the pure
    /// Theorem 4.5 discipline — every variable reference re-streams
    /// ([`BufferPolicy::lazy`]).
    pub buffer_cap: usize,
    /// Worker threads for planner-shardable loops; `<= 1` streams
    /// sequentially.
    pub threads: usize,
}

impl StreamConfig {
    /// The pure Theorem 4.5 discipline, sequential: cap 0, one thread.
    pub const fn lazy(max_pulls: u64) -> StreamConfig {
        StreamConfig {
            max_pulls,
            buffer_cap: 0,
            threads: 1,
        }
    }

    /// The buffered fast path at [`DEFAULT_BUFFER_LIMIT`], sequential.
    pub const fn buffered(max_pulls: u64) -> StreamConfig {
        StreamConfig {
            max_pulls,
            buffer_cap: DEFAULT_BUFFER_LIMIT,
            threads: 1,
        }
    }
}

/// Streams `[[q]]($root ↦ doc)` into a token vector, reporting stats.
///
/// The `$root` binding is tokenized straight out of the [`ArenaDoc`]'s
/// parallel vectors, and per-item bindings are plain token slices.
///
/// With `cfg.threads > 1`, every planner-shardable loop is distributed
/// over that many workers: the query is analyzed by the parallel planner
/// (`ParPlan`, `xq_core::plan`) — `Seq` branches stream independently
/// and concatenate in branch order, nested `for`s flatten into one
/// work-list of node rows, `let`-bound singleton sources hoist, and
/// `where`-filtered sources resolve to filtered node sets. Each sharded
/// loop's rows split into contiguous chunks; workers stream the body with
/// the loop variables bound to row token slices straight out of the
/// shared arena — exactly the binding the buffered fast path would
/// produce. Per-chunk output crosses back as bounded interned-token runs
/// that the merger consumes *incrementally* in chunk (= iteration) order,
/// so the stream is byte-identical to the sequential one while peak
/// in-flight memory stays bounded ([`StreamStats::peak_buffered_tokens`]).
/// Queries the planner cannot shard take the sequential path. The
/// `$root` token stream, when some body needs it, is tokenized once
/// before the thread split; each worker re-wraps the shared slice.
/// Merged stats sum `pulls`/`recomputations`/`buffered_sources`/
/// `lazy_fallbacks`, take the maximum for `peak_live_cursors`/
/// `peak_buffered_tokens`, and report actually-spawned `workers`.
pub fn stream_query(
    q: &Query,
    doc: &ArenaDoc,
    cfg: StreamConfig,
) -> Result<(Vec<Token>, StreamStats), StreamError> {
    if cfg.threads > 1 {
        return par::stream_par(q, doc, cfg);
    }
    let pipe = Pipeline::new(cfg.max_pulls, BufferPolicy::fixed(cfg.buffer_cap));
    let mut cursor = pipe.build(q, doc.tokens())?;
    let mut out = Vec::new();
    while let Some(t) = cursor.pull()? {
        out.push(t);
    }
    drop(cursor);
    let mut stats = pipe.stats();
    stats.tokens_out = out.len() as u64;
    Ok((out, stats))
}

/// Pulls only until the Boolean verdict is known: for `⟨a⟩α⟨/a⟩`, whether
/// the root element has a child (§7.1 convention); otherwise whether the
/// stream is nonempty. Never materializes the result.
pub fn stream_boolean(q: &Query, doc: &ArenaDoc, max_pulls: u64) -> Result<bool, StreamError> {
    let pipe = Pipeline::new(max_pulls, BufferPolicy::lazy());
    let mut cursor = pipe.build(q, doc.tokens())?;
    match q {
        Query::Elem(_, _) => {
            let _open = cursor.pull()?;
            match cursor.pull()? {
                Some(Token::Open(_)) => Ok(true),
                _ => Ok(false),
            }
        }
        _ => Ok(cursor.pull()?.is_some()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_xtree::{parse_tree, DoublingFamily, Tree};
    use xq_core::parse_query;

    const FUEL: u64 = 10_000_000;

    fn arena(doc: &str) -> ArenaDoc {
        ArenaDoc::from_tree(&parse_tree(doc).unwrap())
    }

    fn random_arena(seed: u64, nodes: usize, labels: &[&str]) -> ArenaDoc {
        let mut g = cv_xtree::TreeGen::new(seed);
        ArenaDoc::from_tree(&cv_xtree::random_tree(&mut g, nodes, labels))
    }

    /// A sequential run under [`FUEL`] with a per-source cap of `cap`.
    fn capped(cap: usize) -> StreamConfig {
        StreamConfig {
            buffer_cap: cap,
            ..StreamConfig::lazy(FUEL)
        }
    }

    /// The buffered default under [`FUEL`] on `threads` workers.
    fn par(threads: usize) -> StreamConfig {
        StreamConfig {
            threads,
            ..StreamConfig::buffered(FUEL)
        }
    }

    fn agree(src: &str, doc: &str) -> StreamStats {
        let q = parse_query(src).unwrap();
        let t = parse_tree(doc).unwrap();
        let (got, stats) = stream_query(&q, &ArenaDoc::from_tree(&t), StreamConfig::lazy(FUEL))
            .unwrap_or_else(|e| panic!("stream failed for {src}: {e}"));
        let want: Vec<Token> = xq_core::eval_query(&q, &t)
            .unwrap()
            .iter()
            .flat_map(Tree::tokens)
            .collect();
        assert_eq!(got, want, "query {src} on {doc}");
        stats
    }

    #[test]
    fn streams_basic_forms() {
        agree("()", "<r/>");
        agree("<a/>", "<r/>");
        agree("<a><b/></a>", "<r/>");
        agree("($root, $root)", "<r><x/></r>");
        agree("$root", "<r><a><b/></a></r>");
    }

    #[test]
    fn streams_steps_on_input() {
        let doc = "<r><a><b/></a><c/><a/></r>";
        agree("$root/a", doc);
        agree("$root/*", doc);
        agree("$root//b", doc);
        agree("$root//*", doc);
        agree("$root/self::r", doc);
        agree("$root/zzz", doc);
    }

    #[test]
    fn streams_for_loops_with_lazy_bindings() {
        let doc = "<r><a><x/></a><a><y/></a></r>";
        agree("for $v in $root/a return <w>{$v}</w>", doc);
        agree("for $v in $root/a return $v/*", doc);
        agree(
            "for $v in $root/a return for $u in $v/* return ($u, $u)",
            doc,
        );
    }

    #[test]
    fn streams_steps_over_constructed_values() {
        // Composition: steps on intermediate results, the hard case.
        let doc = "<r><a><x/></a></r>";
        agree("(<w><a/><b/></w>)/a", doc);
        agree(
            "for $y in (for $w in $root/a return <b>{$w}</b>) return $y/*",
            doc,
        );
        agree("(<w><a><b/></a></w>)//b", doc);
    }

    #[test]
    fn conditions_and_equality() {
        let doc = "<r><a><b/></a><a><b/></a><c/></r>";
        agree(
            "for $x in $root/a return for $y in $root/a return \
             if ($x = $y) then <deepeq/>",
            doc,
        );
        agree(
            "for $x in $root/* return if ($x =atomic <c/>) then <hit/>",
            doc,
        );
        agree("for $x in $root/* return if (not($x/b)) then <nob/>", doc);
        agree(
            "if (some $x in $root/* satisfies $x =atomic <c/>) then <y/>",
            doc,
        );
        agree("if (every $x in $root/a satisfies $x/b) then <all/>", doc);
    }

    #[test]
    fn boolean_short_circuits() {
        let q = parse_query("<out>{ for $x in $root/* return <w/> }</out>").unwrap();
        let doc = arena("<r><a/><b/><c/></r>");
        assert!(stream_boolean(&q, &doc, FUEL).unwrap());
        let q = parse_query("<out>{ $root/zzz }</out>").unwrap();
        assert!(!stream_boolean(&q, &doc, FUEL).unwrap());
    }

    #[test]
    fn live_cursors_stay_small_while_output_grows() {
        // Doubling family: result size 2^n, live cursor count O(n).
        fn doubling(n: usize) -> String {
            let mut q = String::from("<z/>");
            for i in 0..n {
                q = format!("for $v{i} in ({q}, {q}) return <z/>");
            }
            q
        }
        let doc = arena("<r/>");
        let mut peaks = Vec::new();
        // Streaming trades time for space: the recomputation cost on this
        // family is super-exponential in n (the EXPSPACE/2EXPTIME story),
        // so the unit test stays at small n; the bench sweeps further.
        for n in [1usize, 2, 3, 4] {
            let q = parse_query(&doubling(n)).unwrap();
            let (out, stats) = stream_query(&q, &doc, StreamConfig::lazy(FUEL)).unwrap();
            assert_eq!(out.len() as u64, 2 * (1 << n), "n = {n}");
            peaks.push(stats.peak_live_cursors);
        }
        // Peak cursors grow far slower than output.
        assert!(peaks[3] < 100, "expected small live state, got {peaks:?}");
    }

    #[test]
    fn recomputation_is_counted() {
        let stats = agree(
            "for $v in $root/a return ($v, $v, $v)",
            "<r><a><deep><tree/></deep></a></r>",
        );
        assert!(stats.recomputations >= 3, "{stats:?}");
    }

    #[test]
    fn budget_stops_runaway_recomputation() {
        let q = parse_query(
            "for $a in $root//* return for $b in $root//* return \
             for $c in $root//* return <t/>",
        )
        .unwrap();
        let doc = random_arena(5, 60, &["a"]);
        assert_eq!(
            stream_query(&q, &doc, StreamConfig::lazy(10_000)).unwrap_err(),
            StreamError::Budget
        );
    }

    #[test]
    fn unbound_variable_reported() {
        let q = parse_query("$nope").unwrap();
        assert!(matches!(
            stream_query(&q, &arena("<r/>"), StreamConfig::lazy(FUEL)),
            Err(StreamError::UnboundVariable(_))
        ));
    }

    /// The buffered fast path agrees with the lazy discipline (and hence
    /// the reference semantics) on the whole corpus of this module.
    #[test]
    fn buffered_fast_path_agrees_with_lazy() {
        let corpus = [
            ("()", "<r/>"),
            (
                "for $v in $root/a return <w>{$v}</w>",
                "<r><a><x/></a><a><y/></a></r>",
            ),
            (
                "for $v in $root/a return for $u in $v/* return ($u, $u)",
                "<r><a><x/></a><a><y/></a></r>",
            ),
            (
                "for $y in (for $w in $root/a return <b>{$w}</b>) return $y/*",
                "<r><a><x/></a></r>",
            ),
            ("(<c>{ $root/a }</c>)//b", "<r><a><b/></a></r>"),
            (
                "for $x in $root/a return for $y in $root/a return \
                 if ($x = $y) then <deepeq/>",
                "<r><a><b/></a><a><b/></a><c/></r>",
            ),
            (
                "if (some $x in $root/* satisfies $x =atomic <c/>) then <y/>",
                "<r><a/><c/></r>",
            ),
            (
                "if (every $x in $root/a satisfies $x/b) then <all/>",
                "<r><a><b/></a></r>",
            ),
        ];
        for (src, doc) in corpus {
            let q = parse_query(src).unwrap();
            let d = arena(doc);
            let (want, _) = stream_query(&q, &d, StreamConfig::lazy(FUEL)).unwrap();
            let (got, _stats) = stream_query(&q, &d, StreamConfig::buffered(FUEL)).unwrap();
            assert_eq!(got, want, "query {src} on {doc}");
            // A tiny cap forces the lazy fallback — still correct.
            let (fallback, _) = stream_query(&q, &d, capped(1)).unwrap();
            assert_eq!(fallback, want, "fallback for {src} on {doc}");
        }
    }

    #[test]
    fn fast_path_cuts_pulls_on_the_doubling_family() {
        fn doubling(n: usize) -> String {
            let mut q = String::from("<z/>");
            for i in 0..n {
                q = format!("for $v{i} in ({q}, {q}) return <z/>");
            }
            q
        }
        let doc = arena("<r/>");
        let q = parse_query(&doubling(4)).unwrap();
        let (want, lazy) = stream_query(&q, &doc, StreamConfig::lazy(FUEL)).unwrap();
        let (got, fast) = stream_query(&q, &doc, StreamConfig::buffered(FUEL)).unwrap();
        assert_eq!(got, want);
        assert!(fast.buffered_sources > 0, "{fast:?}");
        assert!(
            fast.pulls * 4 < lazy.pulls,
            "expected ≥4× fewer pulls: fast {} vs lazy {}",
            fast.pulls,
            lazy.pulls
        );
    }

    #[test]
    fn buffering_preserves_quantifier_short_circuit() {
        // The first item of $root/* already satisfies the `some`; the
        // buffered path must not stream the remaining (large) siblings.
        let mut doc = String::from("<r><a/>");
        for _ in 0..200 {
            doc.push_str("<b><c><d/><d/></c></b>");
        }
        doc.push_str("</r>");
        let q = parse_query("if (some $x in $root/* satisfies $x =atomic <a/>) then <y/>").unwrap();
        // Tight budget: far below the document's token count, ample for a
        // short-circuiting probe.
        let (out, stats) = stream_query(&q, &arena(&doc), StreamConfig::buffered(500))
            .expect("short-circuit must not buffer the whole source");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(stats.pulls < 500, "{stats:?}");
    }

    #[test]
    fn fast_path_still_respects_the_budget() {
        let q = parse_query(
            "for $a in $root//* return for $b in $root//* return \
             for $c in $root//* return <t/>",
        )
        .unwrap();
        let doc = random_arena(5, 60, &["a"]);
        assert_eq!(
            stream_query(&q, &doc, StreamConfig::buffered(2_000)).unwrap_err(),
            StreamError::Budget
        );
    }

    #[test]
    fn parallel_arena_stream_is_byte_identical() {
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "<out>{ for $x in $root/* return ($x//b, <w>{ $x/a }</w>) }</out>",
            "for $x in $root/* return if (some $y in $root/* satisfies $x = $y) then $x",
            "$root//b", // no outer for: sequential fallback
        ];
        for seed in 0..4u64 {
            let doc = random_arena(seed, 30, &["a", "b", "c"]);
            for src in &queries {
                let q = parse_query(src).unwrap();
                let (want, _) = stream_query(&q, &doc, StreamConfig::buffered(FUEL)).unwrap();
                for threads in [1usize, 2, 4] {
                    let (got, _) = stream_query(&q, &doc, par(threads)).unwrap();
                    assert_eq!(got, want, "query {src} seed {seed} threads {threads}");
                }
                // A tiny buffer cap (lazy discipline in the workers) must
                // not change the bytes either.
                let tiny = StreamConfig {
                    threads: 4,
                    ..capped(1)
                };
                let (got, _) = stream_query(&q, &doc, tiny).unwrap();
                let (lazy_want, _) = stream_query(&q, &doc, capped(1)).unwrap();
                assert_eq!(got, lazy_want, "lazy query {src} seed {seed}");
            }
        }
    }

    #[test]
    fn agreement_on_random_queries_and_documents() {
        // Broad differential test against the reference semantics.
        let queries = [
            "<out>{ for $x in $root/* return <w>{ $x//b }</w> }</out>",
            "for $x in $root//a return if ($x/b) then $x else <none/>",
            "for $x in $root/* return for $y in $x/* return \
             if ($x = $y) then <odd/> else <ok/>",
            "(<c>{ $root/a }</c>)//b",
        ];
        for seed in 0..5u64 {
            let mut g = cv_xtree::TreeGen::new(seed);
            let t = cv_xtree::random_tree(&mut g, 20, &["a", "b", "c"]);
            let doc = ArenaDoc::from_tree(&t);
            for src in &queries {
                let q = parse_query(src).unwrap();
                let (got, _) = stream_query(&q, &doc, StreamConfig::lazy(FUEL)).unwrap();
                let want: Vec<Token> = xq_core::eval_query(&q, &t)
                    .unwrap()
                    .iter()
                    .flat_map(Tree::tokens)
                    .collect();
                assert_eq!(got, want, "query {src} seed {seed}");
            }
        }
    }

    // -----------------------------------------------------------------
    // Regression tests for the buffering and parallel counters.
    // -----------------------------------------------------------------

    /// `buffered_sources` counts held per-source decisions, and never
    /// under the lazy discipline.
    #[test]
    fn buffered_sources_counted_consistently() {
        let q = parse_query("for $v in $root/a return <w>{$v}</w>").unwrap();
        let doc = arena("<r><a><x/></a><a><y/></a></r>");

        let (_, lazy) = stream_query(&q, &doc, StreamConfig::lazy(FUEL)).unwrap();
        assert_eq!(lazy.buffered_sources, 0, "lazy path must not buffer");
        assert_eq!(lazy.lazy_fallbacks, 0);
        assert_eq!(lazy.peak_buffered_tokens, 0);

        let (_, buffered) = stream_query(&q, &doc, StreamConfig::buffered(FUEL)).unwrap();
        assert_eq!(buffered.buffered_sources, 1, "one for-source, one decision");
        assert_eq!(buffered.lazy_fallbacks, 0);
        assert!(buffered.peak_buffered_tokens > 0, "{buffered:?}");
    }

    /// Overflow reverts to lazy and is reported as a fallback, not a
    /// buffered source.
    #[test]
    fn overflow_counts_as_lazy_fallback() {
        let q = parse_query("for $v in $root/a return $v").unwrap();
        // Cap of 1: the 6-token source overflows immediately.
        let (_, stats) = stream_query(&q, &arena("<r><a><x/><y/></a></r>"), capped(1)).unwrap();
        assert_eq!(stats.buffered_sources, 0, "{stats:?}");
        assert!(stats.lazy_fallbacks >= 1, "{stats:?}");
    }

    /// The parallel path reports sharded-loop decisions and counts
    /// deterministically per thread count.
    #[test]
    fn par_path_reports_buffering_decisions() {
        let q = parse_query("for $x in $root/* return <w>{ $x/* }</w>").unwrap();
        let doc = random_arena(7, 30, &["a", "b"]);
        let (_, s2) = stream_query(&q, &doc, par(2)).unwrap();
        let (_, s2b) = stream_query(&q, &doc, par(2)).unwrap();
        assert!(s2.buffered_sources >= 1, "sharded loop counts: {s2:?}");
        assert_eq!(s2.buffered_sources, s2b.buffered_sources, "deterministic");
    }

    /// The incremental merge keeps in-flight tokens bounded: on queries
    /// whose parallel output is large, `peak_buffered_tokens` stays far
    /// below `tokens_out`.
    #[test]
    fn par_merge_peak_is_bounded() {
        // Each of the ~hundreds of rows emits its whole subtree three
        // times: a large output from a planner-sharded loop, lazy inside
        // the workers.
        let q = parse_query("for $x in $root//* return ($x, $x, $x)").unwrap();
        let doc = random_arena(11, 400, &["a", "b"]);
        let lazy = StreamConfig {
            threads: 4,
            ..StreamConfig::lazy(FUEL)
        };
        let mut cases = vec![("random 400".to_string(), q, doc, lazy)];
        // The streaming workloads of the three doubling families at the
        // buffered default, each sized just past four queue caps of
        // output so a debug run stays fast.
        for (family, n) in [
            (DoublingFamily::Binary, 10u32),
            (DoublingFamily::Wide, 15),
            (DoublingFamily::Comb, 14),
        ] {
            let q = xq_bench::stream_workload(family);
            cases.push((family.to_string(), q, family.arena(n), par(4)));
        }
        for (name, q, doc, cfg) in cases {
            let (out, stats) = stream_query(&q, &doc, cfg).unwrap();
            assert!(stats.workers > 1, "{name}: {stats:?}");
            assert!(
                out.len() > 4 * par::QUEUE_CAP_TOKENS,
                "{name}: {} tokens out is not large enough",
                out.len()
            );
            // Bound: the queues can hold at most workers × cap plus one
            // in-flight run per worker.
            let bound = (stats.workers * (par::QUEUE_CAP_TOKENS + par::RUN_TOKENS)) as u64;
            assert!(
                stats.peak_buffered_tokens <= bound,
                "{name}: peak {} exceeds bound {bound}",
                stats.peak_buffered_tokens
            );
        }
    }

    /// Hand-composed pipelines: fork replays from the fork point, kill
    /// decays to the (still charging) exhausted stream.
    #[test]
    fn hand_composed_pipeline_forks_and_kills() {
        use cv_xtree::{Axis, Label, NodeTest};
        let t = parse_tree("<r><a><b/></a><c/><a/></r>").unwrap();
        let pipe = Pipeline::new(10_000, BufferPolicy::lazy());
        let mut step = pipe.step(t.tokens(), Axis::Child, NodeTest::Tag(Label::new("a")));
        // Pull the first match's open tag, then fork: both streams must
        // finish the remaining five tokens identically.
        let first = pipe
            .step(t.tokens(), Axis::Child, NodeTest::Tag(Label::new("a")))
            .pull()
            .unwrap();
        assert_eq!(first, Some(Token::Open(Label::new("a"))));
        assert!(step.pull().unwrap().is_some());
        let mut fork = step.fork();
        let rest: Vec<Token> = std::iter::from_fn(|| step.pull().unwrap()).collect();
        let rest_fork: Vec<Token> = std::iter::from_fn(|| fork.pull().unwrap()).collect();
        assert_eq!(rest, rest_fork);
        assert_eq!(rest.len(), 5, "{rest:?}");
        // Kill: exhausted, but pulls still charge.
        let mut killed = pipe.step(t.tokens(), Axis::Child, NodeTest::Wildcard);
        assert!(killed.pull().unwrap().is_some());
        let before = pipe.stats().pulls;
        killed.kill();
        assert_eq!(killed.pull().unwrap(), None);
        assert_eq!(pipe.stats().pulls, before + 1, "killed pulls charge");
    }
}
