//! The stack-based executor.
//!
//! Runs a [`CompiledPlan`] against an [`Env`] under a [`Budget`],
//! producing exactly what [`eval_with`](crate::eval_with) produces — the
//! same trees, the same [`EvalStats`] counters, and the same error at the
//! same point when the budget runs out. That equivalence is the load-
//! bearing contract (the `vm_diff` suite pins it per corpus query), so
//! the machine is deliberately plain: three stacks (lists, booleans, loop
//! frames), a static slot array for query-bound variables, and a program
//! counter over the flat instruction sequence. No recursion: `for`/`let`
//! loops and quantifiers run as jump-backed loops, so evaluation depth is
//! heap-bounded rather than call-stack-bounded.
//!
//! Values on the stacks are `Item`s: a tree *borrowed* from the
//! caller's environment (the document and its subtrees), or one the
//! query built. Axis scans walk borrowed children in place and
//! comparisons read borrowed slots, so the hot loops touch no refcount;
//! a `Tree` is cloned only where Figure 1's result keeps one — the
//! children of a constructed element and the final output list (plus
//! matches scanned out of a constructed tree, which has no document to
//! borrow from).

use super::compile::CompiledPlan;
use super::ir::{OpCode, VarRef};
use crate::ast::EqMode;
use crate::semantics::{Budget, Env, EvalStats, XqError};
use cv_xtree::{Axis, NodeTest, Tree};

/// Executes a compiled plan in `env` under `budget` — the VM counterpart
/// of [`eval_with`](crate::eval_with), byte- and counter-identical to it.
pub fn exec_with(
    plan: &CompiledPlan,
    env: &Env,
    budget: Budget,
) -> Result<(Vec<Tree>, EvalStats), XqError> {
    let mut m = Machine {
        budget,
        stats: EvalStats::default(),
        env,
        env_depth: env.depth(),
        locals: vec![None; plan.slots()],
        lists: Vec::new(),
        bools: Vec::new(),
        frames: Vec::new(),
    };
    m.run(plan.instrs().ops())?;
    debug_assert!(m.bools.is_empty() && m.frames.is_empty());
    let out = m.lists.pop().expect("a compiled query leaves its result");
    debug_assert!(m.lists.is_empty());
    Ok((out.into_iter().map(Item::into_tree).collect(), m.stats))
}

/// Executes a compiled plan on input tree `t` (bound to `$root`) under the
/// default budget — the VM counterpart of [`eval_query`](crate::eval_query).
pub fn exec_query(plan: &CompiledPlan, t: &Tree) -> Result<Vec<Tree>, XqError> {
    exec_with(plan, &Env::with_root(t.clone()), Budget::default()).map(|(out, _)| out)
}

/// A VM value: a tree borrowed from the caller's [`Env`] for the whole
/// run, or one the query constructed (an element, or a match scanned out
/// of one).
#[derive(Clone)]
enum Item<'e> {
    Doc(&'e Tree),
    Built(Tree),
}

impl Item<'_> {
    fn tree(&self) -> &Tree {
        match self {
            Item::Doc(t) => t,
            Item::Built(t) => t,
        }
    }

    fn into_tree(self) -> Tree {
        match self {
            Item::Doc(t) => t.clone(),
            Item::Built(t) => t,
        }
    }
}

/// An open loop: remaining work items plus (for `for`/`let`) the output
/// accumulated so far. Quantifier frames leave `out` empty.
struct Frame<'e> {
    items: std::vec::IntoIter<Item<'e>>,
    out: Vec<Item<'e>>,
}

struct Machine<'e> {
    budget: Budget,
    stats: EvalStats,
    env: &'e Env,
    /// The caller's environment depth — static scope depths in `TickQ`
    /// offset from here, reproducing the interpreter's `max_env_depth`.
    env_depth: usize,
    locals: Vec<Option<Item<'e>>>,
    lists: Vec<Vec<Item<'e>>>,
    bools: Vec<bool>,
    frames: Vec<Frame<'e>>,
}

/// The body the executor runs as one fused loop: `quant.next` at `pc`
/// followed by `tick.c`, one `cmp.var`/`cmp.const`, and the
/// `quant.check` that jumps back to that `quant.next` and exits where it
/// does. Returns the comparison.
fn fused_quant_body(ops: &[OpCode], pc: usize) -> Option<&OpCode> {
    let OpCode::QuantNext { exit, .. } = &ops[pc] else {
        return None;
    };
    match ops.get(pc + 1..pc + 4)? {
        [OpCode::TickC, cmp @ (OpCode::CmpVars(..) | OpCode::CmpConst(..)), OpCode::QuantCheck {
            back,
            exit: check_exit,
            ..
        }] if *back as usize == pc && check_exit == exit => Some(cmp),
        _ => None,
    }
}

impl<'e> Machine<'e> {
    fn step(&mut self) -> Result<(), XqError> {
        self.stats.steps += 1;
        // One shared charge path with the interpreter (cancel flag, then
        // deadline, then step cap) — cancellation is engine-agnostic
        // because both engines observe it at the same tick sites.
        self.budget.charge_step(self.stats.steps)
    }

    fn emit(&mut self, out: &mut Vec<Item<'e>>, t: Item<'e>) -> Result<(), XqError> {
        self.stats.items += 1;
        self.budget.charge_item(self.stats.items)?;
        out.push(t);
        Ok(())
    }

    /// The variable's current value, borrowed.
    fn lookup(&self, r: &VarRef) -> Result<&Tree, XqError> {
        match r {
            VarRef::Local(slot, _) => Ok(self.locals[*slot as usize]
                .as_ref()
                .expect("compiled local is live inside its binder")
                .tree()),
            VarRef::Free(v) => self
                .env
                .lookup(v)
                .ok_or_else(|| XqError::UnboundVariable(v.name().to_string())),
        }
    }

    fn load(&self, r: &VarRef) -> Result<Item<'e>, XqError> {
        match r {
            VarRef::Local(slot, _) => Ok(self.locals[*slot as usize]
                .clone()
                .expect("compiled local is live inside its binder")),
            VarRef::Free(v) => self
                .env
                .lookup(v)
                .map(Item::Doc)
                .ok_or_else(|| XqError::UnboundVariable(v.name().to_string())),
        }
    }

    fn pop_list(&mut self) -> Vec<Item<'e>> {
        self.lists.pop().expect("list operand on the stack")
    }

    fn pop_bool(&mut self) -> bool {
        self.bools.pop().expect("boolean operand on the stack")
    }

    /// Evaluates a `cmp.var`/`cmp.const` on borrowed operands: `x` is
    /// looked up before `y`, and only then does `=mon` raise — the
    /// interpreter's error order.
    fn compare(&self, op: &OpCode) -> Result<bool, XqError> {
        match op {
            OpCode::CmpVars(x, y, mode) => {
                let (tx, ty) = (self.lookup(x)?, self.lookup(y)?);
                match mode {
                    EqMode::Deep => Ok(tx == ty),
                    EqMode::Atomic => Ok(tx.label() == ty.label()),
                    EqMode::Mon => Err(XqError::BadEqualityMode),
                }
            }
            // Against the constant leaf `<a/>`, without building it.
            OpCode::CmpConst(x, a, mode) => {
                let tx = self.lookup(x)?;
                match mode {
                    EqMode::Deep => Ok(tx.is_leaf() && tx.label() == a),
                    EqMode::Atomic => Ok(tx.label() == a),
                    EqMode::Mon => Err(XqError::BadEqualityMode),
                }
            }
            _ => unreachable!("compare on a non-comparison opcode"),
        }
    }

    /// Runs the rest of the innermost quantifier frame whose body is the
    /// single comparison `cmp` (see [`fused_quant_body`]): per candidate,
    /// bind, tick, compare, decide — the charges `quant.next`, `tick.c`,
    /// the comparison and `quant.check` make one instruction at a time.
    /// Returns the quantifier's verdict.
    fn fused_quant(&mut self, slot: u16, some: bool, cmp: &OpCode) -> Result<bool, XqError> {
        let frame = self.frames.pop().expect("open quantifier frame");
        for t in frame.items {
            self.locals[slot as usize] = Some(t);
            self.step()?;
            if self.compare(cmp)? == some {
                // true decides `some`; false decides `every`.
                return Ok(some);
            }
        }
        // Exhausted without a decision: `some` is false, `every`
        // vacuously true.
        Ok(!some)
    }

    /// Scans `axis` from `base` in document order, charging one step per
    /// scanned node and one item per match; `keep` turns a match into a
    /// value.
    fn scan<'a>(
        &mut self,
        base: &'a Tree,
        axis: Axis,
        test: &NodeTest,
        out: &mut Vec<Item<'e>>,
        keep: &impl Fn(&'a Tree) -> Item<'e>,
    ) -> Result<(), XqError> {
        match axis {
            Axis::SelfAxis => self.visit(base, test, out, keep),
            Axis::Child => base
                .children()
                .iter()
                .try_for_each(|c| self.visit(c, test, out, keep)),
            Axis::Descendant => self.descend(base, test, out, keep),
            Axis::DescendantOrSelf => {
                self.visit(base, test, out, keep)?;
                self.descend(base, test, out, keep)
            }
        }
    }

    /// Visits the proper descendants of `t` in preorder, on an explicit
    /// stack so a deep document costs heap, not call stack.
    fn descend<'a>(
        &mut self,
        t: &'a Tree,
        test: &NodeTest,
        out: &mut Vec<Item<'e>>,
        keep: &impl Fn(&'a Tree) -> Item<'e>,
    ) -> Result<(), XqError> {
        let mut stack = vec![t.children().iter()];
        while let Some(it) = stack.last_mut() {
            match it.next() {
                Some(c) => {
                    self.visit(c, test, out, keep)?;
                    if !c.is_leaf() {
                        stack.push(c.children().iter());
                    }
                }
                None => {
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    fn visit<'a>(
        &mut self,
        s: &'a Tree,
        test: &NodeTest,
        out: &mut Vec<Item<'e>>,
        keep: &impl Fn(&'a Tree) -> Item<'e>,
    ) -> Result<(), XqError> {
        self.step()?;
        if test.matches(s.label()) {
            self.emit(out, keep(s))?;
        }
        Ok(())
    }

    fn run(&mut self, ops: &[OpCode]) -> Result<(), XqError> {
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                OpCode::TickQ(d) => {
                    self.step()?;
                    self.stats.max_env_depth =
                        self.stats.max_env_depth.max(self.env_depth + *d as usize);
                }
                OpCode::TickC => self.step()?,
                OpCode::PushUnit => self.lists.push(Vec::new()),
                OpCode::Load(r) => {
                    let t = self.load(r)?;
                    let mut out = Vec::with_capacity(1);
                    self.emit(&mut out, t)?;
                    self.lists.push(out);
                }
                OpCode::MakeElem(a) => {
                    let children = self.pop_list().into_iter().map(Item::into_tree);
                    let mut out = Vec::with_capacity(1);
                    self.emit(&mut out, Item::Built(Tree::node(a.clone(), children)))?;
                    self.lists.push(out);
                }
                OpCode::Concat => {
                    let rest = self.pop_list();
                    let mut out = self.pop_list();
                    for t in rest {
                        self.emit(&mut out, t)?;
                    }
                    self.lists.push(out);
                }
                OpCode::AxisStep(axis, test) => {
                    let bases = self.pop_list();
                    let mut out = Vec::new();
                    for base in &bases {
                        match base {
                            Item::Doc(t) => self.scan(t, *axis, test, &mut out, &Item::Doc)?,
                            Item::Built(t) => {
                                self.scan(t, *axis, test, &mut out, &|s| Item::Built(s.clone()))?
                            }
                        }
                    }
                    self.lists.push(out);
                }
                OpCode::IterInit => {
                    let items = self.pop_list();
                    self.frames.push(Frame {
                        items: items.into_iter(),
                        out: Vec::new(),
                    });
                }
                OpCode::IterNext { slot, exit, .. } => {
                    let frame = self.frames.last_mut().expect("open loop frame");
                    match frame.items.next() {
                        Some(t) => self.locals[*slot as usize] = Some(t),
                        None => {
                            let frame = self.frames.pop().expect("open loop frame");
                            self.lists.push(frame.out);
                            pc = *exit as usize;
                            continue;
                        }
                    }
                }
                OpCode::IterAccum { back } => {
                    let r = self.pop_list();
                    // Swap the accumulator out so `emit` (which borrows
                    // `self` mutably for the counters) can fill it.
                    let mut out =
                        std::mem::take(&mut self.frames.last_mut().expect("open loop frame").out);
                    for x in r {
                        self.emit(&mut out, x)?;
                    }
                    self.frames.last_mut().expect("open loop frame").out = out;
                    pc = *back as usize;
                    continue;
                }
                OpCode::PushBool(b) => self.bools.push(*b),
                cmp @ (OpCode::CmpVars(..) | OpCode::CmpConst(..)) => {
                    let verdict = self.compare(cmp)?;
                    self.bools.push(verdict);
                }
                OpCode::NonEmpty => {
                    let l = self.pop_list();
                    self.bools.push(!l.is_empty());
                }
                OpCode::NotBool => {
                    let b = self.pop_bool();
                    self.bools.push(!b);
                }
                OpCode::JumpIfFalse(t) => {
                    if !self.pop_bool() {
                        pc = *t as usize;
                        continue;
                    }
                }
                OpCode::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                OpCode::AndJump(t) => {
                    if *self.bools.last().expect("boolean operand") {
                        self.bools.pop();
                    } else {
                        pc = *t as usize;
                        continue;
                    }
                }
                OpCode::OrJump(t) => {
                    if *self.bools.last().expect("boolean operand") {
                        pc = *t as usize;
                        continue;
                    } else {
                        self.bools.pop();
                    }
                }
                OpCode::QuantInit => {
                    let items = self.pop_list();
                    self.frames.push(Frame {
                        items: items.into_iter(),
                        out: Vec::new(),
                    });
                }
                OpCode::QuantNext {
                    slot, some, exit, ..
                } => {
                    if let Some(cmp) = fused_quant_body(ops, pc) {
                        let verdict = self.fused_quant(*slot, *some, cmp)?;
                        self.bools.push(verdict);
                        pc = *exit as usize;
                        continue;
                    }
                    let frame = self.frames.last_mut().expect("open quantifier frame");
                    match frame.items.next() {
                        Some(t) => self.locals[*slot as usize] = Some(t),
                        None => {
                            self.frames.pop();
                            // Exhausted without a decision: `some` is
                            // false, `every` vacuously true.
                            self.bools.push(!*some);
                            pc = *exit as usize;
                            continue;
                        }
                    }
                }
                OpCode::QuantCheck { some, back, exit } => {
                    let verdict = self.pop_bool();
                    if verdict == *some {
                        // true decides `some`; false decides `every`.
                        self.frames.pop();
                        self.bools.push(*some);
                        pc = *exit as usize;
                    } else {
                        pc = *back as usize;
                    }
                    continue;
                }
            }
            pc += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Cond, Query};
    use crate::vm::{compile_query, compile_query_text};
    use crate::{eval_with, parse_query, CancelFlag};
    use cv_xtree::parse_tree;

    /// A run in comparable form: result trees and counters, or the error.
    type Outcome = Result<(Vec<Tree>, u64, u64, usize), XqError>;

    fn outcome(r: Result<(Vec<Tree>, EvalStats), XqError>) -> Outcome {
        r.map(|(out, s)| (out, s.steps, s.items, s.max_env_depth))
    }

    /// Interpreter vs VM on `q` over `doc`: equal outcomes under the
    /// default budget, under every step cap and every item cap up to the
    /// first one that no longer bites (so the error point crosses every
    /// opcode), and with a cancel flag tripping at every tick up to one
    /// past the full run — where both engines must also have polled the
    /// flag the same number of times.
    fn sweep(q: &Query, doc: &str) {
        let env = Env::with_root(parse_tree(doc).unwrap());
        let plan = compile_query(q);
        let run = |budget: Budget| {
            let want = outcome(eval_with(q, &env, budget.clone()));
            let got = outcome(exec_with(&plan, &env, budget));
            assert_eq!(got, want, "{q}");
            want
        };
        let _ = run(Budget::default());
        for which in ["steps", "items"] {
            for cap in 0.. {
                let budget = match which {
                    "steps" => Budget {
                        max_steps: cap,
                        ..Budget::default()
                    },
                    _ => Budget {
                        max_items: cap,
                        ..Budget::default()
                    },
                };
                if run(budget) != Err(XqError::Budget { which }) {
                    break;
                }
            }
        }
        let counting = CancelFlag::counting();
        eval_with(q, &env, Budget::default().with_cancel(counting.clone())).ok();
        for k in 1..=counting.polls() + 1 {
            let (fi, fv) = (CancelFlag::tripping_at(k), CancelFlag::tripping_at(k));
            let want = outcome(eval_with(
                q,
                &env,
                Budget::default().with_cancel(fi.clone()),
            ));
            let got = outcome(exec_with(
                &plan,
                &env,
                Budget::default().with_cancel(fv.clone()),
            ));
            assert_eq!(got, want, "{q}: trip at {k}");
            assert_eq!(fv.polls(), fi.polls(), "{q}: polls when tripping at {k}");
        }
    }

    fn sweep_text(src: &str, doc: &str) {
        sweep(&parse_query(src).unwrap(), doc);
    }

    /// Quantifiers in `plan` that the executor runs as a fused loop.
    fn fused_loops(plan: &CompiledPlan) -> usize {
        let ops = plan.instrs().ops();
        (0..ops.len())
            .filter(|&pc| fused_quant_body(ops, pc).is_some())
            .count()
    }

    const DOC: &str = "<r><a><b/></a><b/><a/><k><a/></k><b><c/></b></r>";

    #[test]
    fn vm_matches_interpreter_on_representative_queries() {
        for src in [
            "()",
            "<a/>",
            "$root",
            "$root/*",
            "$root//a",
            "($root/a, $root/b)",
            "<out>{ ($root/a, $root/b, $root/k) }</out>",
            "for $x in $root//a return <w>{ $x/* }</w>",
            "let $z := $root return for $x in $z/* return $x",
            "for $x in $root/* return for $y in $x/* return <p>{ $y }</p>",
            "for $x in $root//* return for $y in $root//* return <t>{ $y }</t>",
            "if ($root = $root) then <eq/>",
            "if (not($root/b) and $root/a) then <both/>",
            "if ($root/zzz or $root/a) then <or/>",
            "for $x in (for $w in $root/* where $w/b return $w) return <f>{ $x }</f>",
            "for $x in $root/a return for $x in $x/* return $x",
            "$nope",
            "if ($nope = $root) then <x/>",
            "if ($nope =atomic $gone) then <x/>",
        ] {
            sweep_text(src, DOC);
        }
    }

    #[test]
    fn fused_quantifiers_match_the_interpreter() {
        // some/every × cmp.var/cmp.const × atomic/deep, each both deciding
        // early and running to the end of its candidates.
        for src in [
            "if (some $y in $root//* satisfies $y =atomic <k/>) then <hit/>",
            "if (some $y in $root//* satisfies $y =atomic <zzz/>) then <hit/>",
            "if (some $y in $root//* satisfies $y = <b/>) then <hit/>",
            "if (some $y in $root//b satisfies $y = <c/>) then <hit/>",
            "if (every $y in $root/* satisfies $y =atomic <a/>) then <all/>",
            "if (every $y in $root//b satisfies $y =atomic <b/>) then <all/>",
            "if (every $y in $root//b satisfies $y = <b/>) then <all/>",
            "if (every $y in $root//c satisfies $y = <c/>) then <all/>",
            "for $x in $root/* return if (some $y in $root//* satisfies $x =atomic $y) then <hit/>",
            "for $x in $root//a return if (some $y in $root//b satisfies $x =atomic $y) then <hit/>",
            "for $x in $root/* return if (some $y in $root//* satisfies $x = $y) then <hit/>",
            "for $x in $root//b return if (some $y in $root/* satisfies $y = $x) then <hit/>",
            "for $x in $root//a return if (every $y in $root//a satisfies $y =atomic $x) then <all/>",
            "for $x in $root//a return if (every $y in $root//a satisfies $y = $x) then <all/>",
            "for $x in $root//* return if (every $y in $root/zzz satisfies $y = $x) then <all/>",
            // Quantifiers over constructed sources, alone and against
            // document nodes.
            "let $z := <a><b/><b/></a> return if (some $y in $z/* satisfies $y =atomic <b/>) then <hit/>",
            "let $z := <a><b/><c/></a> return if (every $y in $z/* satisfies $y = <b/>) then <all/>",
            "let $z := <a><b/><c/></a> return for $x in $root//b return \
             if (some $y in $z/* satisfies $x = $y) then <hit>{ $x }</hit>",
            // Unbound variables inside `satisfies`: x is looked up first.
            "if (some $y in $root/* satisfies $y =atomic $nope) then <hit/>",
            "if (some $y in $root/* satisfies $nope =atomic $y) then <hit/>",
            "if (some $y in $root/* satisfies $nope = $gone) then <hit/>",
            "if (every $y in $root/* satisfies $nope =atomic <a/>) then <hit/>",
            "if (some $y in $root/zzz satisfies $nope =atomic $y) then <hit/>",
        ] {
            assert_eq!(fused_loops(&compile_query_text(src).unwrap()), 1, "{src}");
            sweep_text(src, DOC);
        }
        // A quantifier body that is more than one comparison takes the
        // instruction-at-a-time path.
        let src = "if (some $y in $root/* satisfies ($y =atomic <a/> and $y/b)) then <hit/>";
        assert_eq!(fused_loops(&compile_query_text(src).unwrap()), 0);
        sweep_text(src, DOC);
    }

    #[test]
    fn mon_errors_match_inside_and_outside_fused_quantifiers() {
        // `=mon` has no surface syntax; build the ASTs directly.
        let all = |v: &str| Query::step(Query::var(v), Axis::Child, NodeTest::Wildcard);
        let none = Query::step(Query::var("root"), Axis::Child, NodeTest::Tag("zzz".into()));
        let eq = |x: &str, y: &str| Cond::VarEq(x.into(), y.into(), EqMode::Mon);
        let eq_a = |x: &str| Cond::ConstEq(x.into(), "a".into(), EqMode::Mon);
        for (cond, fused) in [
            (eq("root", "root"), 0),
            (Cond::some("y", all("root"), eq("y", "root")), 1),
            (Cond::every("y", all("root"), eq_a("y")), 1),
            // Unbound beats `=mon`: the lookup comes first.
            (Cond::some("y", all("root"), eq("nope", "y")), 1),
            (Cond::some("y", all("root"), eq("y", "nope")), 1),
            // Never reached: no candidates, no error.
            (Cond::some("y", none.clone(), eq("y", "root")), 1),
            (Cond::every("y", none, eq_a("y")), 1),
        ] {
            let q = Query::if_then(cond, Query::leaf("x"));
            assert_eq!(fused_loops(&compile_query(&q)), fused, "{q}");
            sweep(&q, DOC);
        }
        let q = Query::if_then(eq("root", "root"), Query::leaf("x"));
        let env = Env::with_root(parse_tree(DOC).unwrap());
        let got = exec_with(&compile_query(&q), &env, Budget::default()).unwrap_err();
        assert_eq!(got, XqError::BadEqualityMode);
    }

    #[test]
    fn axis_steps_over_constructed_trees_match_the_interpreter() {
        for src in [
            "let $z := <a><b><c/></b><b/></a> return ($z/*, $z/b, $z//*, $z//b, \
             $z/self::a, $z/self::b, $z/dos::*, $z/dos::b)",
            // A constructed tree holding document subtrees: its matches are
            // copied out, then stepped from again.
            "let $w := <w>{ $root/* }</w> return for $y in $w//b return ($y/*, $y/self::*)",
            "for $x in $root/* return let $w := <w>{ $x }</w> return $w/dos::*",
            "let $w := <w>{ ($root//a, <b/>) }</w> return for $y in $w/* return \
             if (some $v in $w//* satisfies $v = $y) then $y//*",
        ] {
            sweep_text(src, DOC);
        }
    }
}
