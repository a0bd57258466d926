//! A peephole/normalization pass over monad-algebra expressions that
//! recognizes the paper's *derived* constructions (Theorem 2.2,
//! Examples 2.1/2.3/2.4, footnote 5 — see [`crate::derived`]) and rewrites
//! them back to the built-in operators, plus generic cleanups.
//!
//! The derived forms are the paper's proof devices: they show the built-ins
//! interexpressible, but evaluating them literally is asymptotically worse
//! (the Example 2.4 difference materializes the R × S product, turning a
//! linear-scan `Diff` into a quadratic pairing — ~30× slower already at
//! |R| = 60 in the `derived_ops` bench). This pass undoes the encodings so
//! the [`crate::Evaluator`] runs the built-ins instead.
//!
//! # Rule catalog
//!
//! | rule | redex | rewrite |
//! |---|---|---|
//! | `flatten-then` | right-nested `∘` | left-nested pipeline |
//! | `elim-id` | `id` inside a composition | dropped |
//! | `map-id` | `map(id)` | `id` |
//! | `fuse-proj` | `⟨…, A: f, …⟩ ∘ π_A` | `f` (dead fields dropped) |
//! | `pred-true` | `⟨⟩ ∘ sng` | `pred[true]` |
//! | `intersect-2.3` | `(f × g) ∘ σ_{1=2} ∘ map(π1)` (sets only) | `f ∩ g` |
//! | `diff-2.4` | the Example 2.4 pairing construction | `π_R − π_S` |
//! | `select-2.3` | `σ_γ` with `γ = pred[c]` (Example 2.3) | `σ_c` |
//! | `not-deep-eq` | `⟨1: φ, 2: ∅⟩ ∘ (1 =deep 2)` | `φ ∘ not` |
//! | `and-product` | `pred[c] × pred[d]` normalized | `pred[c ∧ d]` |
//! | `or-union` | `pred[c] ∪ pred[d]` (sets only) | `pred[c ∨ d]` |
//! | `subset-2.3` | `⟨A: π_a, A′: π_a ∩ π_b⟩ ∘ (A =deep A′)` | `pred[a ⊆ b]` |
//! | `member-2.3` | `⟨A: π_a ∘ sng, B: π_b⟩ ∘ pred[A ⊆ B]` | `pred[a ∈ b]` |
//! | `nest-fn.5` | the footnote 5 grouping construction (sets only) | `map(π_{key,collect}) ∘ nest` |
//!
//! Rules fire bottom-up to a fixpoint, so constructions that *contain*
//! other constructions normalize in one call: `member_pred` contains
//! `subset_pred` contains `derived_intersect`, and
//! `optimize(member_pred(..))` collapses all three layers to a single
//! built-in `pred[a ∈ b]`.
//!
//! # Soundness
//!
//! Every rule preserves the semantics of well-typed expressions for the
//! collection kind the pass is run with; kind-sensitive rules
//! (`intersect-2.3`, `or-union`, `nest-fn.5`, the empty-collection
//! constant in `diff-2.4`) are gated on it. On *ill-typed* inputs the optimized expression may fail earlier,
//! later, or not at all (e.g. `fuse-proj` deletes dead fields together
//! with their errors) — the differential property test
//! (`tests/opt_prop.rs`) pins the contract: if the naive evaluator
//! succeeds, the optimized one succeeds with the same value.
//!
//! Each rule application is recorded in a [`Trace`] (shared with
//! `xq_rewrite`'s Theorem 7.9 eliminator), so the derivation itself is
//! testable — golden tests pin one trace per rule.

use crate::trace::Trace;
use crate::{Cond, EqMode, Expr, Operand};
use cv_value::{Atom, CollectionKind, Value, ValueKind};
use std::rc::Rc;

/// Upper bound on full rewriting passes; each pass is bottom-up and
/// cascades within itself, so the fixpoint is reached in one or two.
const MAX_PASSES: usize = 8;

/// Rewrites `e` to a fixpoint of the rule catalog for collection kind
/// `kind`, returning the normalized expression and the rule trace.
///
/// # Example
///
/// The Example 2.4 derived difference collapses to the built-in:
///
/// ```
/// use cv_monad::{derived::derived_diff, opt, CollectionKind, Expr};
///
/// let (rewritten, trace) = opt::optimize(&derived_diff(), CollectionKind::Set);
/// assert_eq!(
///     rewritten,
///     Expr::Diff(Expr::proj("R").into(), Expr::proj("S").into())
/// );
/// assert!(trace.rules().contains(&"diff-2.4"));
/// ```
pub fn optimize(e: &Expr, kind: CollectionKind) -> (Expr, Trace) {
    let mut opt = Optimizer {
        kind,
        trace: Trace::default(),
    };
    let mut cur = opt.pass(e);
    for _ in 1..MAX_PASSES {
        let next = opt.pass(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    (cur, opt.trace)
}

/// A thread-shareable summary of one [`optimize`] run: which rules fired
/// and how the expression size changed. [`Expr`] (and therefore [`Trace`],
/// which stores redex snapshots) is `Rc`-backed and cannot cross threads;
/// consumers that only need the verdict — `xq_core`'s
/// `CompiledPlan::ma`, which computes it on demand for the bytecode
/// disassembly — keep this report instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptReport {
    /// Names of the rules that fired, in application order (the
    /// [`Trace::rules`] listing).
    pub rules: Vec<&'static str>,
    /// Operator count of the input expression.
    pub size_before: u64,
    /// Operator count of the normalized expression.
    pub size_after: u64,
}

/// [`optimize`], additionally returning an [`OptReport`] — the
/// `Send + Sync` summary surfaced at query-compile time by plan caches.
pub fn optimize_report(e: &Expr, kind: CollectionKind) -> (Expr, OptReport) {
    let size_before = e.size();
    let (out, trace) = optimize(e, kind);
    let report = OptReport {
        rules: trace.rules(),
        size_before,
        size_after: out.size(),
    };
    (out, report)
}

struct Optimizer {
    kind: CollectionKind,
    trace: Trace,
}

impl Optimizer {
    /// One full bottom-up pass: linearize compositions, rewrite children,
    /// drop identities, then run the peephole window rules over the
    /// pipeline until none fires.
    fn pass(&mut self, e: &Expr) -> Expr {
        let mut right_nested = false;
        let mut segs: Vec<Expr> = Vec::new();
        collect_pipeline(e, &mut segs, &mut right_nested);
        if right_nested {
            self.trace.log("flatten-then", e);
        }
        let mut segs: Vec<Expr> = segs.iter().map(|s| self.rw_node(s)).collect();
        self.drop_identities(&mut segs);
        loop {
            let mut fired = false;
            let mut i = 0;
            while i < segs.len() {
                if let Some((repl, used, rule)) = self.try_window(&segs[i..]) {
                    self.trace.log(rule, &render(&segs[i..i + used]));
                    segs.splice(i..i + used, repl);
                    self.drop_identities(&mut segs);
                    fired = true;
                    // Rewind: the replacement may complete an earlier redex.
                    i = 0;
                } else {
                    i += 1;
                }
            }
            if !fired {
                break;
            }
        }
        match segs.len() {
            0 => Expr::Id,
            _ => Expr::chain(segs),
        }
    }

    /// Drops `id` segments from a pipeline (they are units of `∘`).
    fn drop_identities(&mut self, segs: &mut Vec<Expr>) {
        while segs.len() > 1 {
            let Some(pos) = segs.iter().position(|s| *s == Expr::Id) else {
                break;
            };
            self.trace.log("elim-id", &"id");
            segs.remove(pos);
        }
    }

    /// Rewrites the children of one pipeline segment (plus the single-node
    /// rules that need no window).
    fn rw_node(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Compose(_, _) => self.pass(e),
            Expr::Map(f) => {
                let f = self.pass(f);
                if f == Expr::Id {
                    self.trace.log("map-id", &"map(id)");
                    Expr::Id
                } else {
                    Expr::Map(Rc::new(f))
                }
            }
            Expr::MkTuple(fields) => Expr::MkTuple(
                fields
                    .iter()
                    .map(|(n, f)| (n.clone(), self.pass(f)))
                    .collect(),
            ),
            Expr::Union(f, g) => {
                let (f, g) = (self.pass(f), self.pass(g));
                // pred_or: γ ∨ δ = γ ∪ δ. Set union deduplicates the truth
                // witness; list/bag union would change multiplicities.
                if self.kind == CollectionKind::Set {
                    if let (Expr::Pred(c), Expr::Pred(d)) = (&f, &g) {
                        self.trace.log("or-union", &render(&[f.clone(), g.clone()]));
                        return Expr::Pred(c.clone().or(d.clone()));
                    }
                }
                Expr::Union(Rc::new(f), Rc::new(g))
            }
            Expr::Diff(f, g) => Expr::Diff(Rc::new(self.pass(f)), Rc::new(self.pass(g))),
            Expr::Intersect(f, g) => Expr::Intersect(Rc::new(self.pass(f)), Rc::new(self.pass(g))),
            Expr::Monus(f, g) => Expr::Monus(Rc::new(self.pass(f)), Rc::new(self.pass(g))),
            other => other.clone(),
        }
    }

    /// Tries every window rule at the head of `w`, longest pattern first.
    fn try_window(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        self.try_intersect(w)
            .or_else(|| self.try_pred_and(w))
            .or_else(|| self.try_diff(w))
            .or_else(|| self.try_nest(w))
            .or_else(|| self.try_sigma_gamma(w))
            .or_else(|| self.try_derived_not(w))
            .or_else(|| self.try_subset(w))
            .or_else(|| self.try_member(w))
            .or_else(|| self.try_fuse_proj(w))
            .or_else(|| self.try_pred_true(w))
    }

    /// Example 2.3 (sets only): `(f × g) ∘ σ_{1 =deep 2} ∘ map(π1)  ⊢  f ∩ g`.
    ///
    /// On lists and bags the derived form repeats an `f`-member once per
    /// deep-equal match in `g` (the product pairs them all), while the
    /// built-in `∩` keeps `f`'s multiplicity — only set semantics
    /// deduplicates the two to the same value.
    fn try_intersect(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        if self.kind != CollectionKind::Set {
            return None;
        }
        let (t1, f, t2, g) = match_product(w)?;
        let Expr::Select(Cond::Eq(Operand::Path(pa), Operand::Path(pb), EqMode::Deep)) =
            w.get(4)?
        else {
            return None;
        };
        if !(is_path_to(pa, t1) && is_path_to(pb, t2)) {
            return None;
        }
        let Expr::Map(m) = w.get(5)? else {
            return None;
        };
        if **m != Expr::Proj(t1.clone()) {
            return None;
        }
        Some((
            vec![Expr::Intersect(Rc::new(f.clone()), Rc::new(g.clone()))],
            6,
            "intersect-2.3",
        ))
    }

    /// §2.2: `pred[c] × pred[d]`, normalized back to Boolean type,
    /// is predicate conjunction — `pred[c ∧ d]`.
    fn try_pred_and(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let (_, f, _, g) = match_product(w)?;
        let Expr::Map(m) = w.get(4)? else {
            return None;
        };
        if **m != Expr::MkTuple(Vec::new()) {
            return None;
        }
        let (Expr::Pred(c), Expr::Pred(d)) = (f, g) else {
            return None;
        };
        Some((vec![Expr::Pred(c.clone().and(d.clone()))], 5, "and-product"))
    }

    /// Example 2.4: the derived difference construction `⊢ π_R − π_S`.
    fn try_diff(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::PairWith(r) = w.first()? else {
            return None;
        };
        let Expr::Map(body) = w.get(1)? else {
            return None;
        };
        let Expr::MkTuple(outer) = &**body else {
            return None;
        };
        let [(or_name, or_expr), (sr, inner)] = outer.as_slice() else {
            return None;
        };
        if or_name != r || *or_expr != Expr::Proj(r.clone()) || sr == r {
            return None;
        }
        // inner: ⟨R: πR, S: πS⟩ ∘ pairwith_S ∘ σ_{R =deep S}
        let ipipe = inner.pipeline();
        let [Expr::MkTuple(ifs), Expr::PairWith(pw), Expr::Select(Cond::Eq(Operand::Path(pa), Operand::Path(pb), EqMode::Deep))] =
            ipipe.as_slice()
        else {
            return None;
        };
        let [(ir_name, ir_expr), (is_name, is_expr)] = ifs.as_slice() else {
            return None;
        };
        let Expr::Proj(s_attr) = is_expr else {
            return None;
        };
        if ir_name != r
            || *ir_expr != Expr::Proj(r.clone())
            || is_name == r
            || pw != is_name
            || !is_path_to(pa, r)
            || !is_path_to(pb, is_name)
        {
            return None;
        }
        // π_{s_attr} must read a *different* attribute than the one
        // pairwith replaced: after pairwith_r, π_r is the current element,
        // not the original collection, so an aliasing projection is NOT
        // the Example 2.4 shape (and Diff(π_r, π_r) would be wrong).
        if s_attr == r {
            return None;
        }
        // σ_{SR =deep ∅} ∘ map(π_R)
        let Expr::Select(Cond::Eq(Operand::Path(psr), Operand::Const(empty), EqMode::Deep)) =
            w.get(2)?
        else {
            return None;
        };
        if !is_path_to(psr, sr) || !self.is_empty_of_kind(empty) {
            return None;
        }
        let Expr::Map(last) = w.get(3)? else {
            return None;
        };
        if **last != Expr::Proj(r.clone()) {
            return None;
        }
        Some((
            vec![Expr::Diff(
                Rc::new(Expr::Proj(r.clone())),
                Rc::new(Expr::Proj(s_attr.clone())),
            )],
            4,
            "diff-2.4",
        ))
    }

    /// Footnote 5 (sets only): the derived binary nesting construction
    /// `⊢ map(⟨key: π_key, collect: π_collect⟩) ∘ nest_{into=(collect)}`.
    ///
    /// The projection prefix makes the rewrite valid for relations of any
    /// width: the derived form groups by `key` alone and keeps only `key`
    /// and the nested collection, which is exactly built-in `nest` applied
    /// to the binary projection.
    fn try_nest(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        if self.kind != CollectionKind::Set {
            return None;
        }
        let Expr::MkTuple(top) = w.first()? else {
            return None;
        };
        let [(t, te), (rel, re)] = top.as_slice() else {
            return None;
        };
        if t == rel || *te != Expr::Id || *re != Expr::Id {
            return None;
        }
        let Expr::PairWith(pt) = w.get(1)? else {
            return None;
        };
        if pt != t {
            return None;
        }
        let Expr::Map(body) = w.get(2)? else {
            return None;
        };
        let Expr::MkTuple(bfs) = &**body else {
            return None;
        };
        let [(key, kexpr), (into, inner)] = bfs.as_slice() else {
            return None;
        };
        if !is_proj2(kexpr, t, key) {
            return None;
        }
        // inner: ⟨v: π_t ∘ π_key, rel: π_rel⟩ ∘ pairwith_rel
        //          ∘ σ_{rel.key =atomic v} ∘ map(⟨collect: π_rel ∘ π_collect⟩)
        let ipipe = inner.pipeline();
        let [Expr::MkTuple(ifs), Expr::PairWith(pr), Expr::Select(Cond::Eq(Operand::Path(pa), Operand::Path(pb), EqMode::Atomic)), Expr::Map(mm)] =
            ipipe.as_slice()
        else {
            return None;
        };
        let [(v, vx), (rel2, rx)] = ifs.as_slice() else {
            return None;
        };
        if v == rel2 || !is_proj2(vx, t, key) || *rx != Expr::Proj(rel.clone()) || pr != rel2 {
            return None;
        }
        if !(pa.len() == 2 && pa[0] == *rel2 && pa[1] == *key && is_path_to(pb, v)) {
            return None;
        }
        let Expr::MkTuple(cfs) = &**mm else {
            return None;
        };
        let [(collect, cexpr)] = cfs.as_slice() else {
            return None;
        };
        if collect == key || into == key || !is_proj2(cexpr, rel2, collect) {
            return None;
        }
        Some((
            vec![
                Expr::Map(Rc::new(Expr::MkTuple(vec![
                    (key.clone(), Expr::Proj(key.clone())),
                    (collect.clone(), Expr::Proj(collect.clone())),
                ]))),
                Expr::Nest {
                    collect: vec![collect.clone()],
                    into: into.clone(),
                },
            ],
            3,
            "nest-fn.5",
        ))
    }

    /// Example 2.3: `σ_γ` with `γ = pred[c]` `⊢ σ_c` (the built-in).
    fn try_sigma_gamma(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::Map(body) = w.first()? else {
            return None;
        };
        if *w.get(1)? != Expr::Flatten {
            return None;
        }
        let bpipe = body.pipeline();
        let [Expr::MkTuple(fs), Expr::PairWith(p2), Expr::Map(mp)] = bpipe.as_slice() else {
            return None;
        };
        let [(t1, e1), (t2, gamma)] = fs.as_slice() else {
            return None;
        };
        if t1 == t2 || *e1 != Expr::Id || p2 != t2 || **mp != Expr::Proj(t1.clone()) {
            return None;
        }
        let Expr::Pred(c) = gamma else {
            return None;
        };
        Some((vec![Expr::Select(c.clone())], 2, "select-2.3"))
    }

    /// §3: `not φ := (φ =deep ∅)` `⊢ φ ∘ not`, for collection-valued `φ`.
    fn try_derived_not(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::MkTuple(fs) = w.first()? else {
            return None;
        };
        let [(t1, e1), (t2, e2)] = fs.as_slice() else {
            return None;
        };
        let Expr::Pred(Cond::Eq(Operand::Path(pa), Operand::Path(pb), EqMode::Deep)) = w.get(1)?
        else {
            return None;
        };
        let straight = is_path_to(pa, t1) && is_path_to(pb, t2);
        let swapped = is_path_to(pa, t2) && is_path_to(pb, t1);
        if !straight && !swapped {
            return None;
        }
        let phi = match (e1, e2) {
            (Expr::EmptyColl, phi) | (phi, Expr::EmptyColl) => phi,
            _ => return None,
        };
        // `not` demands a collection of the evaluator's kind; the derived
        // form merely compares, so only rewrite provably collection-valued φ.
        if !self.returns_collection(phi) {
            return None;
        }
        Some((vec![phi.clone(), Expr::Not], 2, "not-deep-eq"))
    }

    /// Example 2.3: `⟨A: f, A′: f ∩ g⟩ ∘ (A =deep A′)` `⊢ pred[f ⊆ g]`,
    /// when `f`/`g` are attribute paths.
    fn try_subset(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::MkTuple(fs) = w.first()? else {
            return None;
        };
        let [(t1, e1), (t2, e2)] = fs.as_slice() else {
            return None;
        };
        let Expr::Intersect(f, g) = e2 else {
            return None;
        };
        if *e1 != **f {
            return None;
        }
        let Expr::Pred(Cond::Eq(Operand::Path(pa), Operand::Path(pb), EqMode::Deep)) = w.get(1)?
        else {
            return None;
        };
        let straight = is_path_to(pa, t1) && is_path_to(pb, t2);
        let swapped = is_path_to(pa, t2) && is_path_to(pb, t1);
        if !straight && !swapped {
            return None;
        }
        let pf = expr_as_path(f)?;
        let pg = expr_as_path(g)?;
        Some((
            vec![Expr::Pred(Cond::Subset(
                Operand::Path(pf),
                Operand::Path(pg),
            ))],
            2,
            "subset-2.3",
        ))
    }

    /// Example 2.3: `⟨A: f ∘ sng, B: g⟩ ∘ pred[A ⊆ B]` `⊢ pred[f ∈ g]`
    /// (membership as singleton containment, read back).
    fn try_member(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::MkTuple(fs) = w.first()? else {
            return None;
        };
        let [(t1, e1), (t2, e2)] = fs.as_slice() else {
            return None;
        };
        let Expr::Pred(Cond::Subset(Operand::Path(pa), Operand::Path(pb))) = w.get(1)? else {
            return None;
        };
        // The ⊆-left side must be the singleton-wrapped field.
        let (sng_side, coll_side) = if is_path_to(pa, t1) && is_path_to(pb, t2) {
            (e1, e2)
        } else if is_path_to(pa, t2) && is_path_to(pb, t1) {
            (e2, e1)
        } else {
            return None;
        };
        let mut pipe = sng_side.pipeline();
        if pipe.pop() != Some(&Expr::Sng) {
            return None;
        }
        let elem = expr_path_of_segments(&pipe)?;
        let coll = expr_as_path(coll_side)?;
        Some((
            vec![Expr::Pred(Cond::In(
                Operand::Path(elem),
                Operand::Path(coll),
            ))],
            2,
            "member-2.3",
        ))
    }

    /// `⟨…, A: f, …⟩ ∘ π_A  ⊢  f` — dead fields are dropped.
    fn try_fuse_proj(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::MkTuple(fs) = w.first()? else {
            return None;
        };
        let Expr::Proj(a) = w.get(1)? else {
            return None;
        };
        let (_, f) = fs.iter().find(|(n, _)| n == a)?;
        Some((vec![f.clone()], 2, "fuse-proj"))
    }

    /// `⟨⟩ ∘ sng ⊢ pred[true]` — the constantly-true predicate.
    fn try_pred_true(&self, w: &[Expr]) -> Option<(Vec<Expr>, usize, &'static str)> {
        let Expr::MkTuple(fs) = w.first()? else {
            return None;
        };
        if !fs.is_empty() || *w.get(1)? != Expr::Sng {
            return None;
        }
        Some((vec![Expr::Pred(Cond::True)], 2, "pred-true"))
    }

    /// Whether `v` is the empty collection of this optimizer's kind.
    fn is_empty_of_kind(&self, v: &Value) -> bool {
        match (self.kind, v.kind()) {
            (CollectionKind::Set, ValueKind::Set(xs))
            | (CollectionKind::List, ValueKind::List(xs))
            | (CollectionKind::Bag, ValueKind::Bag(xs)) => xs.is_empty(),
            _ => false,
        }
    }

    /// Conservative syntactic check that `e` always yields a collection of
    /// this optimizer's kind (so a following `not` cannot shape-error where
    /// the derived comparison form would have returned false).
    fn returns_collection(&self, e: &Expr) -> bool {
        match e {
            Expr::EmptyColl
            | Expr::Sng
            | Expr::Map(_)
            | Expr::Flatten
            | Expr::PairWith(_)
            | Expr::Union(_, _)
            | Expr::Pred(_)
            | Expr::Select(_)
            | Expr::Not
            | Expr::True
            | Expr::Diff(_, _)
            | Expr::Intersect(_, _)
            | Expr::Nest { .. }
            | Expr::Monus(_, _)
            | Expr::Unique
            | Expr::DescMap => true,
            Expr::Compose(_, g) => self.returns_collection(g),
            Expr::Const(v) => matches!(
                (self.kind, v.kind()),
                (CollectionKind::Set, ValueKind::Set(_))
                    | (CollectionKind::List, ValueKind::List(_))
                    | (CollectionKind::Bag, ValueKind::Bag(_))
            ),
            Expr::Id | Expr::Proj(_) | Expr::MkTuple(_) => false,
        }
    }
}

/// Matches the Example 2.1 product prefix
/// `⟨1: f, 2: g⟩ ∘ pairwith_1 ∘ map(pairwith_2) ∘ flatten`,
/// returning the tuple attributes and factors.
fn match_product(w: &[Expr]) -> Option<(&Atom, &Expr, &Atom, &Expr)> {
    let Expr::MkTuple(fs) = w.first()? else {
        return None;
    };
    let [(t1, f), (t2, g)] = fs.as_slice() else {
        return None;
    };
    if t1 == t2 {
        return None;
    }
    let Expr::PairWith(p1) = w.get(1)? else {
        return None;
    };
    let Expr::Map(m) = w.get(2)? else {
        return None;
    };
    if p1 != t1 || **m != Expr::PairWith(t2.clone()) || *w.get(3)? != Expr::Flatten {
        return None;
    }
    Some((t1, f, t2, g))
}

/// Linearizes nested compositions, noting whether any was right-nested
/// (i.e. reassembly will reassociate).
fn collect_pipeline(e: &Expr, segs: &mut Vec<Expr>, right_nested: &mut bool) {
    match e {
        Expr::Compose(f, g) => {
            if matches!(**g, Expr::Compose(_, _)) {
                *right_nested = true;
            }
            collect_pipeline(f, segs, right_nested);
            collect_pipeline(g, segs, right_nested);
        }
        other => segs.push(other.clone()),
    }
}

/// Whether `path` is the single-attribute path `[a]`.
fn is_path_to(path: &[Atom], a: &Atom) -> bool {
    path.len() == 1 && path[0] == *a
}

/// Whether `e` is exactly `π_a ∘ π_b`.
fn is_proj2(e: &Expr, a: &Atom, b: &Atom) -> bool {
    matches!(
        e.pipeline()[..],
        [Expr::Proj(ref x), Expr::Proj(ref y)] if x == a && y == b
    )
}

/// Reads `e` as an attribute path (`id` ⇒ the empty path, projection
/// chains ⇒ their attributes); `None` for anything else.
fn expr_as_path(e: &Expr) -> Option<Vec<Atom>> {
    expr_path_of_segments(&e.pipeline())
}

fn expr_path_of_segments(segs: &[&Expr]) -> Option<Vec<Atom>> {
    let mut path = Vec::new();
    for seg in segs {
        match seg {
            Expr::Proj(a) => path.push(a.clone()),
            Expr::Id => {}
            _ => return None,
        }
    }
    Some(path)
}

fn render(w: &[Expr]) -> String {
    w.iter()
        .map(|e| e.to_string())
        .collect::<Vec<_>>()
        .join(" o ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::*;
    use crate::{eval, Evaluator};
    use cv_value::parse_value;

    const K: CollectionKind = CollectionKind::Set;

    fn run(e: &Expr, input: &str) -> Value {
        eval(e, K, &parse_value(input).unwrap()).unwrap()
    }

    /// Optimizes, asserting the given rule fired.
    fn opt(e: &Expr, rule: &str) -> Expr {
        let (out, trace) = optimize(e, K);
        assert!(
            trace.rules().contains(&rule),
            "expected rule {rule} in {:?} for {e}",
            trace.rules()
        );
        out
    }

    // ---- golden tests: one pinned rewrite + trace per rule ---------------

    #[test]
    fn golden_diff_2_4() {
        let out = opt(&derived_diff(), "diff-2.4");
        assert_eq!(
            out,
            Expr::Diff(Expr::proj("R").into(), Expr::proj("S").into())
        );
        let input = "<R: {1, 2, 3}, S: {2}>";
        assert_eq!(run(&out, input), run(&derived_diff(), input));
    }

    #[test]
    fn diff_rule_rejects_aliasing_projection() {
        // Like derived_diff() but with the inner "S" projection aliasing
        // the pairwith'd attribute: after pairwith_R, π_R is the current
        // element, not the original collection, so this is not a
        // difference and the rule must not fire.
        let aliased = Expr::pairwith("R")
            .then(
                Expr::mk_tuple([
                    ("R", Expr::proj("R")),
                    (
                        "SR",
                        Expr::mk_tuple([("R", Expr::proj("R")), ("S2", Expr::proj("R"))])
                            .then(Expr::pairwith("S2"))
                            .then(Expr::Select(Cond::eq_deep(
                                Operand::path("R"),
                                Operand::path("S2"),
                            ))),
                    ),
                ])
                .mapped(),
            )
            .then(Expr::Select(Cond::eq_deep(
                Operand::path("SR"),
                Operand::konst(cv_value::Value::set([])),
            )))
            .then(Expr::proj("R").mapped());
        let (out, trace) = optimize(&aliased, K);
        assert!(
            !trace.rules().contains(&"diff-2.4"),
            "aliasing shape must not rewrite: {out}"
        );
        // Naive semantics keep every member (SR is always empty here);
        // the rewrite to Diff(π_R, π_R) would have returned {}.
        let input = "<R: {{a}}>";
        assert_eq!(run(&out, input), run(&aliased, input));
        assert_eq!(run(&aliased, input), parse_value("{{a}}").unwrap());
    }

    #[test]
    fn golden_intersect_2_3() {
        let d = derived_intersect(Expr::proj("R"), Expr::proj("S"));
        let out = opt(&d, "intersect-2.3");
        assert_eq!(
            out,
            Expr::Intersect(Expr::proj("R").into(), Expr::proj("S").into())
        );
        let input = "<R: {1, 2}, S: {2, 3}>";
        assert_eq!(run(&out, input), run(&d, input));
        // On lists the derived form repeats an f-member once per match in
        // g (e.g. R: [1], S: [1, 1] gives [1, 1], builtin gives [1]) — the
        // rule must not fire.
        let (out, trace) = optimize(&d, CollectionKind::List);
        assert!(
            !trace.rules().contains(&"intersect-2.3"),
            "intersect rule must not fire on lists: {out}"
        );
    }

    #[test]
    fn golden_select_2_3() {
        let c = Cond::eq_atomic(Operand::path("A"), Operand::path("B"));
        let d = sigma_gamma(Expr::Pred(c.clone()));
        let out = opt(&d, "select-2.3");
        assert_eq!(out, Expr::Select(c));
        let input = "{<A: 1, B: 1>, <A: 1, B: 2>}";
        assert_eq!(run(&out, input), run(&d, input));
    }

    #[test]
    fn golden_not_deep_eq() {
        let d = derived_not(pred_true());
        let out = opt(&d, "not-deep-eq");
        assert_eq!(out, Expr::Pred(Cond::True).then(Expr::Not));
        assert_eq!(run(&out, "<>"), run(&d, "<>"));
    }

    #[test]
    fn golden_and_product() {
        let c = Cond::eq_atomic(Operand::path("A"), Operand::path("B"));
        let d = Cond::eq_atomic(Operand::path("A"), Operand::path("C"));
        let e = pred_and(Expr::Pred(c.clone()), Expr::Pred(d.clone()));
        let out = opt(&e, "and-product");
        assert_eq!(out, Expr::Pred(c.and(d)));
        for input in ["<A: 1, B: 1, C: 1>", "<A: 1, B: 1, C: 2>"] {
            assert_eq!(run(&out, input), run(&e, input), "{input}");
        }
    }

    #[test]
    fn golden_or_union() {
        let c = Cond::eq_atomic(Operand::path("A"), Operand::path("B"));
        let d = Cond::eq_atomic(Operand::path("A"), Operand::path("C"));
        let e = pred_or(Expr::Pred(c.clone()), Expr::Pred(d.clone()));
        let out = opt(&e, "or-union");
        assert_eq!(out, Expr::Pred(c.or(d)));
        for input in ["<A: 1, B: 2, C: 1>", "<A: 1, B: 2, C: 3>"] {
            assert_eq!(run(&out, input), run(&e, input), "{input}");
        }
        // On lists the union concatenates truth witnesses — no rewrite.
        let e = pred_or(Expr::Pred(Cond::True), Expr::Pred(Cond::True));
        let (out, _) = optimize(&e, CollectionKind::List);
        assert!(matches!(out, Expr::Union(_, _)), "got {out}");
    }

    #[test]
    fn golden_subset_2_3() {
        let d = subset_pred("A", "B");
        let out = opt(&d, "subset-2.3");
        assert_eq!(
            out,
            Expr::Pred(Cond::Subset(Operand::path("A"), Operand::path("B")))
        );
        for input in ["<A: {1}, B: {1, 2}>", "<A: {1, 9}, B: {1, 2}>"] {
            assert_eq!(run(&out, input), run(&d, input), "{input}");
        }
    }

    #[test]
    fn golden_member_2_3() {
        let d = member_pred("A", "B");
        let out = opt(&d, "member-2.3");
        assert_eq!(
            out,
            Expr::Pred(Cond::In(Operand::path("A"), Operand::path("B")))
        );
        for input in ["<A: 1, B: {1, 2}>", "<A: 9, B: {1, 2}>"] {
            assert_eq!(run(&out, input), run(&d, input), "{input}");
        }
    }

    #[test]
    fn golden_nest_fn_5() {
        let d = derived_nest_binary("A", "B", "C");
        let out = opt(&d, "nest-fn.5");
        assert_eq!(
            out,
            Expr::Map(Rc::new(Expr::mk_tuple([
                ("A", Expr::proj("A")),
                ("B", Expr::proj("B")),
            ])))
            .then(Expr::Nest {
                collect: vec!["B".into()],
                into: "C".into(),
            })
        );
        for input in [
            "{<A: 1, B: x>, <A: 1, B: y>, <A: 2, B: x>}",
            "{<A: 1, B: x, D: extra>, <A: 1, B: y, D: other>}",
            "{}",
        ] {
            assert_eq!(run(&out, input), run(&d, input), "{input}");
        }
        // Lists keep per-tuple groups in the derived form — no rewrite.
        let (out, trace) = optimize(&d, CollectionKind::List);
        assert!(
            !trace.rules().contains(&"nest-fn.5"),
            "nest rule must not fire on lists: {out}"
        );
    }

    #[test]
    fn golden_fuse_proj() {
        let e = Expr::mk_tuple([("A", Expr::Sng), ("B", Expr::proj("X"))]).then(Expr::proj("A"));
        let out = opt(&e, "fuse-proj");
        assert_eq!(out, Expr::Sng);
        // The dead field "B" (which would error on an atom) is gone.
        assert_eq!(run(&out, "q"), parse_value("{q}").unwrap());
    }

    #[test]
    fn golden_identity_cleanups() {
        let e = Expr::Id.then(Expr::Sng).then(Expr::Id);
        let out = opt(&e, "elim-id");
        assert_eq!(out, Expr::Sng);
        let e = Expr::Id.mapped();
        let out = opt(&e, "map-id");
        assert_eq!(out, Expr::Id);
        let e = Expr::Compose(
            Rc::new(Expr::Sng),
            Rc::new(Expr::Compose(Rc::new(Expr::Flatten), Rc::new(Expr::Sng))),
        );
        let out = opt(&e, "flatten-then");
        assert_eq!(out, Expr::Sng.then(Expr::Flatten).then(Expr::Sng));
    }

    #[test]
    fn golden_pred_true() {
        let out = opt(&pred_true(), "pred-true");
        assert_eq!(out, Expr::Pred(Cond::True));
        assert_eq!(run(&out, "x"), Value::truth(K));
    }

    // ---- structural properties ------------------------------------------

    #[test]
    fn cascading_rewrites_collapse_nested_constructions() {
        // member_pred contains subset_pred contains derived_intersect: one
        // optimize call fires all three rules.
        let (out, trace) = optimize(&member_pred("A", "B"), K);
        let rules = trace.rules();
        for rule in ["intersect-2.3", "subset-2.3", "member-2.3"] {
            assert!(rules.contains(&rule), "missing {rule} in {rules:?}");
        }
        assert_eq!(
            out,
            Expr::Pred(Cond::In(Operand::path("A"), Operand::path("B"))),
            "fully collapsed"
        );
    }

    #[test]
    fn optimizer_is_idempotent_on_rewritten_output() {
        for e in [
            derived_diff(),
            derived_intersect(Expr::proj("R"), Expr::proj("S")),
            member_pred("A", "B"),
            derived_nest_binary("A", "B", "C"),
            sigma_gamma(Expr::Pred(Cond::True)),
        ] {
            let (once, _) = optimize(&e, K);
            let (twice, trace) = optimize(&once, K);
            assert_eq!(once, twice, "not idempotent on {e}");
            assert!(
                trace.rules().is_empty(),
                "second pass fired {:?} on {once}",
                trace.rules()
            );
        }
    }

    #[test]
    fn optimizer_never_grows_expressions() {
        for e in [
            derived_diff(),
            subset_pred("A", "B"),
            pred_and(pred_true(), pred_true()),
            Expr::Id.then(Expr::Sng),
            Expr::mk_tuple([("A", Expr::Id)]).then(Expr::proj("A")),
        ] {
            let (out, _) = optimize(&e, K);
            assert!(out.size() <= e.size(), "{e} grew to {out}");
        }
    }

    #[test]
    fn derived_not_requires_collection_valued_argument() {
        // φ = const(atom) is not collection-valued: the derived form
        // evaluates to false, the built-in `not` would shape-error.
        let e = derived_not(Expr::atom("a"));
        let (out, trace) = optimize(&e, K);
        assert!(!trace.rules().contains(&"not-deep-eq"), "{out}");
        assert_eq!(run(&out, "<>"), Value::boolean(K, false));
    }

    #[test]
    fn evaluator_knob_runs_the_pass() {
        let input = parse_value("<R: {1, 2, 3}, S: {2}>").unwrap();
        let mut naive = Evaluator::new(K);
        let want = naive.eval(&derived_diff(), &input).unwrap();
        let naive_steps = naive.stats().steps;
        let mut opt = Evaluator::new(K).with_optimizer(true);
        let got = opt.eval(&derived_diff(), &input).unwrap();
        assert_eq!(got, want);
        assert!(
            opt.stats().steps < naive_steps,
            "optimized {} vs naive {naive_steps} steps",
            opt.stats().steps
        );
    }
}
