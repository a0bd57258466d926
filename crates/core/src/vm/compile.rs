//! AST → [`InstrSeq`] lowering.
//!
//! One pass over the [`Query`]/[`Cond`] tree emits a flat instruction
//! sequence whose execution (see [`super::exec`]) reproduces the Figure 1
//! interpreter **exactly** — same bytes, same step/item counters, same
//! errors at the same points. The interpreter's budget accounting is
//! observable (a tight budget errors mid-query), so lowering performs no
//! semantics-visible rewriting; what compilation *bakes in* instead is
//! everything that used to be re-derived per evaluation:
//!
//! * **variable scoping** — binder references become depth-indexed slot
//!   loads, free references become by-name environment loads;
//! * **the `ParPlan` shard decision** — a document-independent,
//!   conservative [`par_hint`]: `false` proves the parallel planner could
//!   never engage on any document, letting executors skip planning
//!   entirely (the sound direction `engages ⇒ hint` is property-tested in
//!   `vm_diff`).
//!
//! The `cv_monad::opt` verdict on the query's Figure 2 translation is
//! *not* compiled in: no execution path reads it, so a compile is
//! lowering + [`par_hint`] only (after the parse, for text).
//! [`CompiledPlan::ma`] computes it on demand for the disassembly header.

use super::ir::{InstrSeq, OpCode, VarRef};
use crate::ast::{Cond, Query, Var};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The `cv_monad::opt` verdict for a query's Figure 2 monad-algebra
/// translation (absent when the query leaves the translatable fragment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaInfo {
    /// Optimizer rules that fired, in application order.
    pub rules: Vec<&'static str>,
    /// Operator count of the naive Figure 2 translation.
    pub size_before: u64,
    /// Operator count after the `cv_monad::opt` normalization pass.
    pub size_after: u64,
}

/// A query compiled once, executed many times: the instruction sequence
/// plus everything the evaluation paths used to re-derive per request.
/// `Send + Sync` (labels, variables, and the query itself are all
/// `Arc`-backed), so the process-wide [`PlanCache`](super::PlanCache)
/// shares one instance across every service worker.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    query: Query,
    source: Option<String>,
    instrs: InstrSeq,
    slots: usize,
    par_hint: bool,
    costs: CostLog,
}

/// What one successful sequential run of a plan cost on one document:
/// the Figure 1 steps it charged and the bytes of its serialized answer.
/// Figure 1 is deterministic, so every run of the same plan on the same
/// document costs exactly this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunCost {
    /// Evaluation steps (`EvalStats::steps`).
    pub steps: u64,
    /// Length of the answer's XML text.
    pub bytes: u64,
}

/// Documents whose cost one plan remembers.
const COST_SLOTS: usize = 16;

/// A plan's recorded costs, keyed by [`ArenaDoc::id`](cv_xtree::ArenaDoc::id):
/// at most [`COST_SLOTS`] documents, a new one replacing the entry at
/// `id % COST_SLOTS` once the log is full. Cloning a plan copies its log.
#[derive(Default)]
struct CostLog(Mutex<Vec<(u64, RunCost)>>);

impl CostLog {
    fn entries(&self) -> MutexGuard<'_, Vec<(u64, RunCost)>> {
        // Every critical section is a scan plus one store, so a poisoned
        // log is still consistent.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for CostLog {
    fn clone(&self) -> CostLog {
        CostLog(Mutex::new(self.entries().clone()))
    }
}

impl std::fmt::Debug for CostLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CostLog({} documents)", self.entries().len())
    }
}

impl CompiledPlan {
    /// The query this plan was compiled from.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The surface text the plan was compiled from, when it came through
    /// the parser (plans compiled from ASTs have none).
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The compiled instruction sequence.
    pub fn instrs(&self) -> &InstrSeq {
        &self.instrs
    }

    /// Number of local binding slots the executor must allocate.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether the parallel planner could possibly engage for *some*
    /// document. `false` is a proof: executors skip planning. `true` is a
    /// hint: planning may still come back non-engaging.
    pub fn par_hint(&self) -> bool {
        self.par_hint
    }

    /// Records what a successful sequential run of this plan cost on the
    /// document with id `doc` ([`ArenaDoc::id`](cv_xtree::ArenaDoc::id)).
    pub fn record_cost(&self, doc: u64, cost: RunCost) {
        let mut entries = self.costs.entries();
        if let Some(e) = entries.iter_mut().find(|(d, _)| *d == doc) {
            e.1 = cost;
        } else if entries.len() < COST_SLOTS {
            entries.push((doc, cost));
        } else {
            entries[doc as usize % COST_SLOTS] = (doc, cost);
        }
    }

    /// The cost recorded for the document with id `doc`, if any.
    pub fn recorded_cost(&self, doc: u64) -> Option<RunCost> {
        self.costs
            .entries()
            .iter()
            .find(|(d, _)| *d == doc)
            .map(|(_, c)| *c)
    }

    /// The `cv_monad::opt` verdict, if the query translates: the Figure 2
    /// translation optimized by [`cv_monad::opt::optimize_report`].
    /// Computed on every call — no execution path reads it, so it stays
    /// off the compile (and plan-cache miss) path.
    pub fn ma(&self) -> Option<MaInfo> {
        let expr = crate::translate::ma_query(&self.query).ok()?;
        let (_, report) = cv_monad::opt::optimize_report(&expr, cv_monad::CollectionKind::List);
        Some(MaInfo {
            rules: report.rules,
            size_before: report.size_before,
            size_after: report.size_after,
        })
    }

    /// The disassembly listing: a header (source, slot count, par hint,
    /// optimizer verdict) followed by one line per instruction — the
    /// substrate of the `vm_golden` golden tests.
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        match &self.source {
            Some(src) => writeln!(out, "; query  {src}").unwrap(),
            None => writeln!(out, "; query  {}", self.query).unwrap(),
        }
        writeln!(
            out,
            "; slots  {}   par_hint {}",
            self.slots,
            if self.par_hint { "yes" } else { "no" }
        )
        .unwrap();
        match self.ma() {
            Some(ma) if ma.rules.is_empty() => {
                writeln!(out, "; ma.opt {} ops (no rules fired)", ma.size_after).unwrap();
            }
            Some(ma) => {
                writeln!(
                    out,
                    "; ma.opt {} -> {} ops via [{}]",
                    ma.size_before,
                    ma.size_after,
                    ma.rules.join(", ")
                )
                .unwrap();
            }
            None => writeln!(out, "; ma.opt not translatable").unwrap(),
        }
        write!(out, "{}", self.instrs).unwrap();
        out
    }
}

/// Compiles a query into a [`CompiledPlan`]. Deterministic: equal queries
/// yield equal instruction sequences.
pub fn compile_query(q: &Query) -> CompiledPlan {
    compile_with_source(q, None)
}

/// Parses surface text and compiles it, recording the text in the plan
/// (it becomes the disassembly header and the [`PlanCache`](super::PlanCache)
/// key).
pub fn compile_query_text(src: &str) -> Result<CompiledPlan, crate::QueryParseError> {
    let q = crate::parse_query(src)?;
    Ok(compile_with_source(&q, Some(src.to_string())))
}

fn compile_with_source(q: &Query, source: Option<String>) -> CompiledPlan {
    let mut c = Compiler {
        ops: Vec::new(),
        scope: Vec::new(),
        slots: 0,
    };
    c.query(q);
    CompiledPlan {
        query: q.clone(),
        source,
        instrs: InstrSeq::from_ops(c.ops),
        slots: c.slots,
        par_hint: par_hint(q),
        costs: CostLog::default(),
    }
}

struct Compiler {
    ops: Vec<OpCode>,
    /// Live binders, outermost first — index is the slot.
    scope: Vec<Var>,
    slots: usize,
}

impl Compiler {
    fn emit(&mut self, op: OpCode) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn depth(&self) -> u16 {
        self.scope.len() as u16
    }

    /// Resolves a reference: innermost matching binder wins (lexical
    /// shadowing), otherwise the name stays free.
    fn resolve(&self, v: &Var) -> VarRef {
        match self.scope.iter().rposition(|b| b == v) {
            Some(slot) => VarRef::Local(slot as u16, v.clone()),
            None => VarRef::Free(v.clone()),
        }
    }

    fn bind(&mut self, v: &Var) -> u16 {
        let slot = self.depth();
        self.scope.push(v.clone());
        self.slots = self.slots.max(self.scope.len());
        slot
    }

    fn unbind(&mut self) {
        self.scope.pop();
    }

    fn query(&mut self, q: &Query) {
        self.emit(OpCode::TickQ(self.depth()));
        match q {
            Query::Empty => {
                self.emit(OpCode::PushUnit);
            }
            Query::Elem(a, body) => {
                self.query(body);
                self.emit(OpCode::MakeElem(a.clone()));
            }
            Query::Seq(x, y) => {
                self.query(x);
                self.query(y);
                self.emit(OpCode::Concat);
            }
            Query::Var(v) => {
                let r = self.resolve(v);
                self.emit(OpCode::Load(r));
            }
            Query::Step(base, axis, test) => {
                self.query(base);
                self.emit(OpCode::AxisStep(*axis, test.clone()));
            }
            // `let` is `for` in this dialect (see `Query::Let`): both
            // compile to the same jump-backed loop the interpreter runs.
            Query::For(v, source, body) | Query::Let(v, source, body) => {
                self.query(source);
                self.emit(OpCode::IterInit);
                let head = self.here();
                let next = self.emit(OpCode::IterNext {
                    slot: 0,
                    var: v.clone(),
                    exit: 0,
                });
                let slot = self.bind(v);
                self.query(body);
                self.unbind();
                self.emit(OpCode::IterAccum { back: head });
                let exit = self.here();
                self.ops[next] = OpCode::IterNext {
                    slot,
                    var: v.clone(),
                    exit,
                };
            }
            Query::If(cond, then) => {
                self.cond(cond);
                let jf = self.emit(OpCode::JumpIfFalse(0));
                self.query(then);
                let jend = self.emit(OpCode::Jump(0));
                // The false branch pushes () without an extra tick — the
                // interpreter's `Ok(Vec::new())`.
                self.ops[jf] = OpCode::JumpIfFalse(self.here());
                self.emit(OpCode::PushUnit);
                self.ops[jend] = OpCode::Jump(self.here());
            }
        }
    }

    fn cond(&mut self, c: &Cond) {
        self.emit(OpCode::TickC);
        match c {
            Cond::True => {
                self.emit(OpCode::PushBool(true));
            }
            Cond::VarEq(x, y, mode) => {
                let (rx, ry) = (self.resolve(x), self.resolve(y));
                self.emit(OpCode::CmpVars(rx, ry, *mode));
            }
            Cond::ConstEq(x, a, mode) => {
                let rx = self.resolve(x);
                self.emit(OpCode::CmpConst(rx, a.clone(), *mode));
            }
            Cond::Query(q) => {
                self.query(q);
                self.emit(OpCode::NonEmpty);
            }
            Cond::Some(v, source, sat) => self.quant(v, source, sat, true),
            Cond::Every(v, source, sat) => self.quant(v, source, sat, false),
            Cond::And(a, b) => {
                self.cond(a);
                let sc = self.emit(OpCode::AndJump(0));
                self.cond(b);
                self.ops[sc] = OpCode::AndJump(self.here());
            }
            Cond::Or(a, b) => {
                self.cond(a);
                let sc = self.emit(OpCode::OrJump(0));
                self.cond(b);
                self.ops[sc] = OpCode::OrJump(self.here());
            }
            Cond::Not(inner) => {
                self.cond(inner);
                self.emit(OpCode::NotBool);
            }
        }
    }

    fn quant(&mut self, v: &Var, source: &Query, sat: &Cond, some: bool) {
        self.query(source);
        self.emit(OpCode::QuantInit);
        let head = self.here();
        let next = self.emit(OpCode::QuantNext {
            slot: 0,
            var: v.clone(),
            some,
            exit: 0,
        });
        let slot = self.bind(v);
        self.cond(sat);
        self.unbind();
        let check = self.emit(OpCode::QuantCheck {
            some,
            back: head,
            exit: 0,
        });
        let exit = self.here();
        self.ops[next] = OpCode::QuantNext {
            slot,
            var: v.clone(),
            some,
            exit,
        };
        self.ops[check] = OpCode::QuantCheck {
            some,
            back: head,
            exit,
        };
    }
}

/// Document-independent conservative engagement analysis: `true` iff the
/// parallel planner ([`crate::ParPlan`]) could produce an engaging plan
/// for *some* document. Mirrors the planner's traversal (element bodies,
/// `Seq` branches, `for`/`let` loops) and its source resolver's accepted
/// shapes syntactically, overapproximating the parts that need a document
/// (variable pinning, filter-predicate verdicts). Soundness — `ParPlan`
/// engages ⇒ hint is `true` — is property-tested in `vm_diff`.
pub fn par_hint(q: &Query) -> bool {
    match q {
        Query::Elem(_, body) => par_hint(body),
        Query::Seq(a, b) => par_hint(a) || par_hint(b),
        // A loop shards (or hoists into a body that may shard) only when
        // its source has a resolvable shape; resolution failure makes the
        // whole node opaque, so the body cannot rescue it.
        Query::For(_, source, _) | Query::Let(_, source, _) => resolvable_shape(source),
        _ => false,
    }
}

/// Syntactic mirror of the planner's `resolve`: the shapes that *can*
/// resolve to arena node sets. Variables overapproximate (the planner
/// additionally requires `$root` or a pinned binder) and filter loops
/// overapproximate the predicate verdict.
fn resolvable_shape(source: &Query) -> bool {
    match source {
        Query::Var(_) => true,
        Query::Step(base, _, _) => resolvable_shape(base),
        Query::For(w, inner, body) | Query::Let(w, inner, body) => {
            resolvable_shape(inner)
                && match &**body {
                    // Identity loop: `for $w in σ return $w`.
                    Query::Var(v) => v == w,
                    // Filter loop: `for $w in σ where φ return $w`.
                    Query::If(_, then) => matches!(&**then, Query::Var(v) if v == w),
                    _ => false,
                }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn compiled(src: &str) -> CompiledPlan {
        compile_query(&parse_query(src).unwrap())
    }

    #[test]
    fn compile_is_deterministic() {
        let q = parse_query("for $x in $root//a return <w>{ $x/* }</w>").unwrap();
        let a = compile_query(&q);
        let b = compile_query(&q);
        assert_eq!(a.instrs(), b.instrs());
        assert_eq!(a.slots(), b.slots());
        assert_eq!(a.par_hint(), b.par_hint());
    }

    #[test]
    fn binders_resolve_to_slots_and_free_vars_stay_free() {
        let plan = compiled("for $x in $root/a return $x");
        let loads: Vec<&OpCode> = plan
            .instrs()
            .ops()
            .iter()
            .filter(|op| matches!(op, OpCode::Load(_)))
            .collect();
        assert_eq!(loads.len(), 2, "source $root + body $x");
        assert!(matches!(loads[0], OpCode::Load(VarRef::Free(v)) if v.name() == "root"));
        assert!(matches!(loads[1], OpCode::Load(VarRef::Local(0, v)) if v.name() == "x"));
    }

    #[test]
    fn shadowing_resolves_to_the_innermost_slot() {
        let plan = compiled("for $x in $root/a return for $x in $x/* return $x");
        let locals: Vec<u16> = plan
            .instrs()
            .ops()
            .iter()
            .filter_map(|op| match op {
                OpCode::Load(VarRef::Local(slot, _)) => Some(*slot),
                _ => None,
            })
            .collect();
        // Inner source `$x/*` sees the outer binder (slot 0); the body's
        // `$x` sees the inner binder (slot 1).
        assert_eq!(locals, vec![0, 1]);
        assert_eq!(plan.slots(), 2);
    }

    #[test]
    fn par_hint_tracks_planner_shapes() {
        for (src, want) in [
            ("for $x in $root/a return <w>{ $x }</w>", true),
            ("<out>{ for $x in $root//a return $x }</out>", true),
            ("let $z := $root return for $x in $z/* return $x", true),
            (
                "for $x in (for $w in $root/* where $w/b return $w) return $x",
                true,
            ),
            // No loop at all, or a non-resolvable source: never shards.
            ("$root/*", false),
            ("<a/>", false),
            ("for $x in <a/> return $x", false),
            ("for $x in (for $w in $root/* return <c/>) return $x", false),
            ("if ($root = $root) then for $x in $root/* return $x", false),
        ] {
            assert_eq!(par_hint(&parse_query(src).unwrap()), want, "{src}");
        }
    }

    #[test]
    fn ma_verdict_is_computed_for_translatable_queries() {
        let plan = compiled("for $x in $root/a return <w>{ $x }</w>");
        let ma = plan.ma().expect("query translates");
        assert!(ma.size_after <= ma.size_before);
        // The Figure 2 scaffolding always leaves the optimizer something.
        assert!(!ma.rules.is_empty());
    }

    #[test]
    fn disasm_lists_header_and_every_instruction() {
        let plan = compiled("for $x in $root/a return $x");
        let d = plan.disasm();
        assert!(d.starts_with("; query"));
        assert!(d.contains("par_hint yes"));
        assert_eq!(
            d.lines()
                .filter(|l| l.trim_start().starts_with('@'))
                .count(),
            plan.instrs().len()
        );
    }
}
