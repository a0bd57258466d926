//! The parallel planner: which parts of a query shard across threads.
//!
//! A recursive analysis produces a [`ParPlan`], so the thread split
//! reaches the shapes that dominate the paper's combined-complexity
//! workloads (`for`-nests, `Seq`s of loops, `let`-prefixed pipelines,
//! `where`-filtered sources), not only an outer `for` over a `$root` step
//! chain:
//!
//! * **`Seq` branches** plan independently: each branch shards on its own
//!   and the executor concatenates branch results in branch order, which
//!   is exactly Figure 1's `Seq` semantics.
//! * **Nested `for`s flatten**: `for $x in σ₁ return for $y in σ₂ return β`
//!   becomes a single work-list of `(node, node)` rows (row-major, i.e.
//!   iteration order) whenever both sources resolve to arena node sets —
//!   σ₂ may be grounded at `$root` *or* at `$x`, since the planner
//!   resolves it once per outer node by pure arena axis scans. Flattening
//!   recurses, so deeper nests produce wider rows, until
//!   [`MAX_FLAT_ROWS`] caps the materialized work-list.
//! * **`let`-bound sources hoist**: a `for`/`let` whose source resolves to
//!   exactly one node binds that node in the planner's environment and
//!   planning continues *inside* the body — so
//!   `let $z := $root return for $x in $z/a …` still shards the inner
//!   loop. (With more than one node, `let` *is* `for` in this dialect —
//!   see [`Query::Let`] — and shards as a loop.)
//! * **Predicate-filtered sources** resolve: a source of the shape
//!   `for $w in σ where φ return $w` (the parser desugars `where` to
//!   `if φ then $w`) resolves σ to nodes and runs that `if φ then $w`
//!   body per candidate on the bytecode VM, with `$w` and the pinned
//!   nodes bound (all candidates drawing on one shared instance of the
//!   caller's budget), keeping the candidates it returns.
//!   Filtered loops therefore still shard. Any evaluation error during
//!   filtering (including exhausting that shared allowance) aborts
//!   resolution, and the query falls back to the sequential engine, which
//!   reproduces the error (or the result) exactly.
//!
//! Anything the analysis cannot prove shardable becomes an
//! [`ParPlan::Opaque`] leaf and runs on the VM sequentially with the
//! hoisted bindings in scope — so a plan is *always* executable, and the
//! executors' byte-identical-to-sequential contract (see
//! [`crate::par`]) holds for every shape, not just the recognized ones.
//! The `par_diff` differential suite asserts this at 1/2/4/8 threads over
//! random queries biased toward every planner shape.

use crate::ast::{Query, Var};
use crate::semantics::Budget;
use crate::vm::{compile_query, exec_bound, CompiledPlan};
use cv_xtree::{ArenaDoc, Label, NodeId};

/// Ceiling on the number of `NodeId` slots a flattened work-list may
/// materialize (rows × row width). Flattening a `for`-nest trades memory
/// proportional to the *iteration count* for shardability; past this cap
/// the planner stops flattening deeper and shards the outer levels only
/// (the inner loops stay in the body, evaluated per row as usual).
pub const MAX_FLAT_ROWS: usize = 1 << 20;

/// A parallel execution plan for a query over one arena document. Borrows
/// the query; build one per (query, document) evaluation.
#[derive(Debug)]
pub enum ParPlan<'q> {
    /// Element construction around an inner plan: execute the inner plan,
    /// wrap its result list in one `⟨a⟩…⟨/a⟩` node.
    Wrap(Label, Box<ParPlan<'q>>),
    /// Independently planned branches; results concatenate in branch
    /// order (Figure 1 `Seq`).
    Seq(Vec<ParPlan<'q>>),
    /// A `for`/`let` binding whose source resolved to exactly one arena
    /// node: the executor binds the variable to that node for the inner
    /// plan (every worker reads it by id) — the "hoisted `let` source" of
    /// the module docs.
    Hoist(Var, NodeId, Box<ParPlan<'q>>),
    /// A shardable loop (possibly a flattened nest): the work-list rows
    /// split across workers.
    Shard(ShardPlan<'q>),
    /// Not provably shardable: run this subquery sequentially, with the
    /// hoisted bindings in scope.
    Opaque(&'q Query),
}

/// A shardable loop: `vars` (outermost first) bind row-wise to the nodes
/// of `rows`, and `body` evaluates once per row. Row order is iteration
/// order, so concatenating per-row results in row order reproduces the
/// sequential output byte-for-byte.
#[derive(Debug)]
pub struct ShardPlan<'q> {
    vars: Vec<Var>,
    /// `len() = vars.len() × row count`; stride is [`ShardPlan::width`].
    rows: Vec<NodeId>,
    body: &'q Query,
}

impl<'q> ShardPlan<'q> {
    /// Loop variables, outermost first.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Number of nodes per row (= number of loop variables).
    pub fn width(&self) -> usize {
        self.vars.len()
    }

    /// Number of work items (loop iterations).
    pub fn len(&self) -> usize {
        self.rows.len() / self.width()
    }

    /// True iff the loop has no iterations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The work-list as width-strided rows, in iteration order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + Clone {
        self.rows.chunks(self.width())
    }

    /// The loop body, evaluated once per row with [`ShardPlan::vars`]
    /// bound to the row's nodes.
    pub fn body(&self) -> &'q Query {
        self.body
    }
}

impl<'q> ParPlan<'q> {
    /// Plans `q` over `doc`. `budget` bounds the *total* filter-predicate
    /// work performed while resolving filtered sources: every predicate
    /// evaluation across the whole planning session draws on one shared
    /// instance of it, so planner work never exceeds one sequential
    /// evaluation's allowance. Exhaustion aborts the affected resolution
    /// and that loop falls back to the sequential path. Each filter's
    /// `if φ then $w` body is compiled once per planning session and run
    /// on the VM, so the allowance is drawn in VM steps and items, and
    /// predicates read `$root`, `$w` and the pinned variables as node
    /// ids.
    pub fn of(q: &'q Query, doc: &ArenaDoc, budget: Budget) -> ParPlan<'q> {
        let mut planner = Planner {
            doc,
            remaining: budget,
            filters: Vec::new(),
        };
        planner.plan(q, &mut Vec::new())
    }

    /// Whether executing this plan would actually split work across
    /// threads: some loop sharded with at least two work items. When
    /// false, callers take the plain sequential path.
    pub fn engages(&self) -> bool {
        match self {
            ParPlan::Wrap(_, p) | ParPlan::Hoist(_, _, p) => p.engages(),
            ParPlan::Seq(ps) => ps.iter().any(ParPlan::engages),
            ParPlan::Shard(sp) => sp.len() >= 2,
            ParPlan::Opaque(_) => false,
        }
    }

    /// Total sharded work items across all loops in the plan (the
    /// [`ParStats::outer_items`](crate::ParStats::outer_items) figure).
    pub fn sharded_items(&self) -> usize {
        match self {
            ParPlan::Wrap(_, p) | ParPlan::Hoist(_, _, p) => p.sharded_items(),
            ParPlan::Seq(ps) => ps.iter().map(ParPlan::sharded_items).sum(),
            ParPlan::Shard(sp) => sp.len(),
            ParPlan::Opaque(_) => 0,
        }
    }
}

/// Planner state: the document, the shared predicate allowance (the
/// caller's budget, drawn down by every filter verdict), and each filter
/// body compiled so far, keyed by its address in the query (the planning
/// session borrows the query, so addresses are stable).
struct Planner<'d> {
    doc: &'d ArenaDoc,
    remaining: Budget,
    filters: Vec<(*const Query, CompiledPlan)>,
}

/// Bindings the planner has pinned to arena nodes (hoisted `let`s and,
/// during nest flattening, the outer loop variables of the current row).
/// Innermost binding last, as in the evaluator's environment.
type NodeEnv = Vec<(Var, NodeId)>;

fn node_env_lookup(env: &[(Var, NodeId)], v: &Var) -> Option<NodeId> {
    env.iter()
        .rev()
        .find(|(name, _)| name == v)
        .map(|&(_, n)| n)
}

impl<'d> Planner<'d> {
    fn plan<'q>(&mut self, q: &'q Query, env: &mut NodeEnv) -> ParPlan<'q> {
        let plan = self.plan_uncollapsed(q, env);
        // A composite with no Shard inside does exactly what the
        // sequential evaluator does, in more pieces — collapse it.
        if plan.sharded_items() == 0 && !matches!(plan, ParPlan::Opaque(_)) {
            return ParPlan::Opaque(q);
        }
        plan
    }

    fn plan_uncollapsed<'q>(&mut self, q: &'q Query, env: &mut NodeEnv) -> ParPlan<'q> {
        match q {
            Query::Elem(a, body) => ParPlan::Wrap(a.clone(), Box::new(self.plan(body, env))),
            Query::Seq(a, b) => {
                // Flatten right-nested Seq spines into one branch list so
                // `(α, β, γ)` plans as three independent branches.
                let mut branches = Vec::new();
                self.plan_seq(a, env, &mut branches);
                self.plan_seq(b, env, &mut branches);
                ParPlan::Seq(branches)
            }
            Query::For(v, source, body) | Query::Let(v, source, body) => {
                let Some(nodes) = self.resolve(source, env) else {
                    return ParPlan::Opaque(q);
                };
                if let [node] = nodes[..] {
                    // Singleton source: hoist the binding and keep
                    // planning inside the body (`let $z := $root …`).
                    env.push((v.clone(), node));
                    let inner = self.plan(body, env);
                    env.pop();
                    return ParPlan::Hoist(v.clone(), node, Box::new(inner));
                }
                self.flatten_loop(v, nodes, body, env)
            }
            // Everything else — conditionals, bare steps, variables,
            // constants — evaluates sequentially. (A bare `$root/a` *is* a
            // node source, but emitting its subtrees is all the work there
            // is; a thread split would only move the serialization.)
            _ => ParPlan::Opaque(q),
        }
    }

    fn plan_seq<'q>(&mut self, q: &'q Query, env: &mut NodeEnv, out: &mut Vec<ParPlan<'q>>) {
        match q {
            Query::Seq(a, b) => {
                self.plan_seq(a, env, out);
                self.plan_seq(b, env, out);
            }
            other => out.push(self.plan(other, env)),
        }
    }

    /// Shards `for v in nodes return body`, flattening directly nested
    /// `for`/`let` loops into wider rows while their sources resolve.
    fn flatten_loop<'q>(
        &mut self,
        v: &Var,
        nodes: Vec<NodeId>,
        body: &'q Query,
        env: &mut NodeEnv,
    ) -> ParPlan<'q> {
        let mut vars = vec![v.clone()];
        let mut rows = nodes;
        let mut body = body;
        'deeper: while let Query::For(v2, s2, b2) | Query::Let(v2, s2, b2) = body {
            let width = vars.len();
            let mut next = Vec::new();
            for row in rows.chunks(width) {
                let depth = env.len();
                env.extend(vars.iter().cloned().zip(row.iter().copied()));
                let resolved = self.resolve(s2, env);
                env.truncate(depth);
                let Some(inner) = resolved else { break 'deeper };
                if next.len() + inner.len() * (width + 1) > MAX_FLAT_ROWS {
                    break 'deeper;
                }
                for n2 in inner {
                    next.extend_from_slice(row);
                    next.push(n2);
                }
            }
            vars.push(v2.clone());
            rows = next;
            body = b2;
        }
        ParPlan::Shard(ShardPlan { vars, rows, body })
    }

    /// Resolves a `for`-source to the arena nodes it selects, in document
    /// order with multiplicity — exactly the items (as subtrees) the
    /// Figure 1 semantics would bind. Handles `$root`, planner-pinned
    /// variables, axis-step chains, and filter loops
    /// (`for $w in σ [where φ] return $w`). `None` means "not a node
    /// source" (constructed intermediates, free variables, conditionals,
    /// or a predicate that errored) and sends the caller to the
    /// sequential path.
    fn resolve(&mut self, source: &Query, env: &NodeEnv) -> Option<Vec<NodeId>> {
        match source {
            Query::Var(v) if *v == Var::root() => Some(vec![self.doc.root()]),
            Query::Var(v) => node_env_lookup(env, v).map(|n| vec![n]),
            Query::Step(base, axis, test) => {
                let bases = self.resolve(base, env)?;
                let mut out = Vec::new();
                for b in bases {
                    out.extend(self.doc.axis(b, *axis, test));
                }
                Some(out)
            }
            Query::For(w, inner, body) | Query::Let(w, inner, body) => {
                let candidates = self.resolve(inner, env)?;
                match &**body {
                    // Identity loop: `for $w in σ return $w` ≡ σ.
                    Query::Var(v) if v == w => Some(candidates),
                    // Filter loop: `for $w in σ where φ return $w`.
                    Query::If(_, then) if matches!(&**then, Query::Var(v) if v == w) => {
                        self.filter(w, candidates, body, env)
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Keeps the candidates for which the filter body `if φ then $w`
    /// returns its item, running it on the VM with the pinned nodes and
    /// `w` (the candidate, innermost) bound. The body compiles once per
    /// planning session. **All** predicate evaluations of the session
    /// draw on *one* instance of the caller's budget (`self.remaining`,
    /// decremented by the resources each run consumed), so planner work
    /// is bounded by a single sequential evaluation's allowance — never
    /// candidates × budget. Any evaluation error, including exhausting
    /// that shared allowance, aborts resolution (→ sequential fallback,
    /// which reproduces the error or the result exactly — predicates run
    /// *before* any loop body in Figure 1's `For`, so error order is
    /// preserved).
    fn filter(
        &mut self,
        w: &Var,
        candidates: Vec<NodeId>,
        body: &Query,
        env: &NodeEnv,
    ) -> Option<Vec<NodeId>> {
        let key: *const Query = body;
        let i = match self.filters.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.filters.push((key, compile_query(body)));
                self.filters.len() - 1
            }
        };
        let plan = &self.filters[i].1;
        let mut bound = env.clone();
        bound.push((w.clone(), self.doc.root()));
        let mut out = Vec::new();
        for n in candidates {
            bound.last_mut().expect("the candidate's binding").1 = n;
            match exec_bound(plan, self.doc, &bound, self.remaining.clone()) {
                Ok((kept, stats)) => {
                    self.remaining.max_steps = self.remaining.max_steps.saturating_sub(stats.steps);
                    self.remaining.max_items = self.remaining.max_items.saturating_sub(stats.items);
                    if !kept.is_empty() {
                        out.push(n);
                    }
                }
                Err(_) => return None,
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn arena(src: &str) -> ArenaDoc {
        ArenaDoc::parse(src).unwrap()
    }

    fn plan<'q>(q: &'q Query, doc: &ArenaDoc) -> ParPlan<'q> {
        ParPlan::of(q, doc, Budget::default())
    }

    #[test]
    fn outer_for_still_plans_as_a_shard() {
        let doc = arena("<r><a/><a/><a/></r>");
        let q = parse_query("<out>{ for $x in $root/a return <w>{ $x }</w> }</out>").unwrap();
        let p = plan(&q, &doc);
        assert!(p.engages());
        assert_eq!(p.sharded_items(), 3);
        let ParPlan::Wrap(tag, inner) = &p else {
            panic!("expected Wrap, got {p:?}")
        };
        assert_eq!(tag, &Label::from("out"));
        let ParPlan::Shard(sp) = &**inner else {
            panic!("expected Shard, got {inner:?}")
        };
        assert_eq!(sp.width(), 1);
        assert_eq!(sp.len(), 3);
    }

    #[test]
    fn seq_branches_plan_independently() {
        let doc = arena("<r><a/><a/><b/><b/></r>");
        let q = parse_query(
            "(for $x in $root/a return <w>{ $x }</w>, \
              <mid/>, \
              for $y in $root/b return <v>{ $y }</v>)",
        )
        .unwrap();
        let p = plan(&q, &doc);
        let ParPlan::Seq(branches) = &p else {
            panic!("expected Seq, got {p:?}")
        };
        assert_eq!(branches.len(), 3);
        assert!(matches!(branches[0], ParPlan::Shard(_)));
        assert!(matches!(branches[1], ParPlan::Opaque(_)));
        assert!(matches!(branches[2], ParPlan::Shard(_)));
        assert_eq!(p.sharded_items(), 4);
    }

    #[test]
    fn nested_fors_flatten_to_node_pairs() {
        let doc = arena("<r><a><b/><b/></a><a><b/></a></r>");
        // Inner source grounded at the outer variable: per-node resolution.
        let q = parse_query("for $x in $root/a return for $y in $x/b return <p/>").unwrap();
        let p = plan(&q, &doc);
        let ParPlan::Shard(sp) = &p else {
            panic!("expected flattened Shard, got {p:?}")
        };
        assert_eq!(sp.width(), 2);
        assert_eq!(sp.len(), 3, "2 b-children + 1 b-child");
        // Inner source grounded at $root: the cross-join shape.
        let q = parse_query("for $x in $root/a return for $y in $root//b return <p/>").unwrap();
        let ParPlan::Shard(sp) = plan(&q, &doc) else {
            panic!("expected Shard")
        };
        assert_eq!(sp.len(), 6, "2 × 3 cross product");
    }

    #[test]
    fn let_sources_hoist_and_inner_loops_still_shard() {
        let doc = arena("<r><a/><a/></r>");
        let q = parse_query("let $z := $root return for $x in $z/a return <w/>").unwrap();
        let p = plan(&q, &doc);
        let ParPlan::Hoist(v, n, inner) = &p else {
            panic!("expected Hoist, got {p:?}")
        };
        assert_eq!(v.name(), "z");
        assert_eq!(*n, doc.root());
        assert!(matches!(&**inner, ParPlan::Shard(_)));
        assert!(p.engages());
        // A multi-node let is a loop (let ≡ for in this dialect).
        let q = parse_query("let $z := $root/a return <w>{ $z }</w>").unwrap();
        assert!(matches!(plan(&q, &doc), ParPlan::Shard(_)));
    }

    #[test]
    fn filtered_sources_resolve_and_shard() {
        let doc = arena("<r><a><b/></a><a/><a><b/></a></r>");
        let q = parse_query(
            "for $x in (for $w in $root/a where $w/b return $w) return <hit>{ $x }</hit>",
        )
        .unwrap();
        let ParPlan::Shard(sp) = plan(&q, &doc) else {
            panic!("expected Shard")
        };
        assert_eq!(sp.len(), 2, "two a-nodes carry a b-child");
        // The identity loop resolves too.
        let q = parse_query("for $x in (for $w in $root/a return $w) return <w/>").unwrap();
        let ParPlan::Shard(sp) = plan(&q, &doc) else {
            panic!("expected Shard")
        };
        assert_eq!(sp.len(), 3);
        // A predicate that errors (unbound variable) falls back.
        let q = parse_query(
            "for $x in (for $w in $root/a where $w = $nope return $w) \
                             return <w/>",
        )
        .unwrap();
        assert!(matches!(plan(&q, &doc), ParPlan::Opaque(_)));
    }

    #[test]
    fn filter_predicate_work_is_bounded_by_the_shared_budget() {
        // Aggregate filter work draws on ONE instance of the caller's
        // budget; exhausting it aborts resolution (sequential fallback)
        // instead of evaluating every candidate on a fresh allowance.
        let doc = arena("<r><a><b/></a><a/><a><b/></a></r>");
        let q =
            parse_query("for $x in (for $w in $root/a where $w/b return $w) return <f>{ $x }</f>")
                .unwrap();
        assert!(
            plan(&q, &doc).engages(),
            "an ample budget resolves the filter"
        );
        let starved = Budget {
            max_steps: 0,
            ..Budget::default()
        };
        assert!(
            matches!(ParPlan::of(&q, &doc, starved), ParPlan::Opaque(_)),
            "a zero predicate allowance must fall back, not keep evaluating"
        );
    }

    #[test]
    fn opaque_shapes_do_not_engage() {
        let doc = arena("<r><a/><a/></r>");
        for src in [
            "$root/a",                                      // bare step
            "<solo/>",                                      // constant
            "for $x in (<w><a/></w>)/a return $x",          // constructed source
            "if ($root = $root) then <y/>",                 // top-level if
            "for $x in $root/zzz return <w/>",              // empty source
            "for $x in $root/self::r return <w>{ $x }</w>", // single item
        ] {
            let q = parse_query(src).unwrap();
            assert!(!plan(&q, &doc).engages(), "{src} must not engage");
        }
    }

    #[test]
    fn flattening_respects_the_row_cap() {
        // A 3-level nest over the same 4 nodes: 4³ = 64 rows, width 3 —
        // comfortably under the cap, so it flattens fully.
        let doc = arena("<r><a/><a/><a/><a/></r>");
        let q = parse_query(
            "for $x in $root/a return for $y in $root/a return \
             for $z in $root/a return <p/>",
        )
        .unwrap();
        let ParPlan::Shard(sp) = plan(&q, &doc) else {
            panic!("expected Shard")
        };
        assert_eq!((sp.width(), sp.len()), (3, 64));
    }
}
