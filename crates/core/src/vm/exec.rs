//! The stack-based executor.
//!
//! Runs a [`CompiledPlan`] under a [`Budget`], producing exactly what
//! [`eval_with`](crate::eval_with) produces — the same trees, the same
//! [`EvalStats`] counters, and the same error at the same point when the
//! budget runs out. That equivalence is the load-bearing contract (the
//! `vm_diff` suite pins it per corpus query), so the machine is
//! deliberately plain: a value stack, a boolean stack, loop frames, a
//! static slot array for query-bound variables, and a program counter
//! over the flat instruction sequence. No recursion: `for`/`let` loops
//! and quantifiers run as jump-backed loops, so evaluation depth is
//! heap-bounded rather than call-stack-bounded.
//!
//! The one entry point, [`exec_doc`], binds `$root` to the root of an
//! [`ArenaDoc`]. Document values are `NodeId`s: axis steps walk
//! contiguous child slices and `id+1..subtree_end` preorder ranges, node
//! tests and comparisons against constants compare interned [`LabelId`]s
//! (query text is resolved with [`LabelId::lookup`], never interned), and
//! node-against-node `=deep` is the arena's iterative preorder compare.
//! A caller holding a [`Tree`] converts it once with
//! [`ArenaDoc::from_tree`].
//!
//! Lists are regions of one value stack, not vectors of their own: a
//! list runs from its mark to the next one (the top list to the end of
//! the stack). A loop's accumulator is the region
//! directly under its body's result, so `iter.accum` and `concat` merge
//! two lists by dropping a mark and charge their items in one bulk
//! charge (exact, as an item charge polls nothing). Loop and
//! quantifier sources move to a second stack that the frame indexes.
//! Each thread keeps the emptied stacks of its last run, so a warm run
//! allocates no list storage.
//!
//! Values on the stacks are `Item`s: a document node (`Node`) or a tree
//! the query built (`Built`). The hot loops touch no refcount. A `Tree`
//! is produced only where Figure 1's result keeps one — the children of
//! a constructed element and the final output list — and where a node
//! meets a tree in `=deep`/`=atomic`; a node then borrows or clones its
//! entry of the document's node table ([`ArenaDoc::shared_node`]), an
//! `Arc` handle, never a copy. Matches scanned out of a constructed tree
//! are cloned out of it, as there is no document to borrow from.
//!
//! Constructors are memoized per run. Values are compared by value and
//! have no node identity, so an `elem` whose children are the very
//! values (the same node, the same `Arc`) it was given the last time it
//! ran returns the tree it built then, at the cost of one `Arc` clone; a
//! leaf constructor builds once per run. The memo is charged exactly as
//! a fresh build, lives in the machine, and is emptied when the run ends.

use super::compile::CompiledPlan;
use super::ir::{OpCode, VarRef};
use crate::ast::{EqMode, Var};
use crate::semantics::{Budget, Env, EvalStats, XqError};
use cv_xtree::{ArenaDoc, Axis, LabelId, NodeId, NodeTest, Tree};
use std::cell::Cell;

/// Executes a compiled plan with `$root` bound to the root of `doc`
/// under `budget` — the VM counterpart of [`eval_with`](crate::eval_with)
/// over `Env::with_root(doc.to_tree())`, byte- and counter-identical to
/// it.
pub fn exec_doc(
    plan: &CompiledPlan,
    doc: &ArenaDoc,
    budget: Budget,
) -> Result<(Vec<Tree>, EvalStats), XqError> {
    Machine::new(plan, doc, budget).run_plan(plan)
}

/// [`exec_doc`] over `env`'s `$root`, converted to an arena on every
/// call; `UnboundVariable("root")` when `env` binds no `$root`. Its one
/// caller is `servebench/src/trace.rs`'s replay.
pub fn exec_with(
    plan: &CompiledPlan,
    env: &Env,
    budget: Budget,
) -> Result<(Vec<Tree>, EvalStats), XqError> {
    let root = env.lookup(&Var::root());
    let root = root.ok_or_else(|| XqError::UnboundVariable("root".into()))?;
    exec_doc(plan, &ArenaDoc::from_tree(root), budget)
}

/// A VM value: a node of the input document, or a tree the query
/// constructed (an element, or a match scanned out of one).
#[derive(Clone)]
enum Item {
    Node(Node),
    Built(Tree),
}

impl Item {
    /// The value's tree form, borrowed.
    fn tree<'a>(&'a self, doc: &'a ArenaDoc) -> &'a Tree {
        match self {
            Item::Node(n) => doc.shared_node(n.id()),
            Item::Built(t) => t,
        }
    }

    fn into_tree(self, doc: &ArenaDoc) -> Tree {
        match self {
            Item::Node(n) => doc.shared_node(n.id()).clone(),
            Item::Built(t) => t,
        }
    }

    fn view(&self) -> View<'_> {
        match self {
            Item::Node(n) => View::Node(n.id()),
            Item::Built(t) => View::Tree(t),
        }
    }
}

/// Moves a source value out of its stack entry, leaving a copyable
/// placeholder that is truncated away with the frame.
fn take(slot: &mut Item) -> Item {
    std::mem::replace(slot, Item::Node(Node(0)))
}

/// A document node's [`NodeId`], held as a full word. With every payload
/// one word wide, an `Item` is a (tag, word) pair that moves in
/// registers. A `u32` payload made it a memory aggregate, and the fused
/// quantifier loop ran about twice as slow per candidate (x86-64,
/// 2-vCPU Xeon VM).
#[derive(Clone, Copy)]
struct Node(u64);

impl Node {
    fn new(id: NodeId) -> Node {
        Node(id.0.into())
    }

    fn id(self) -> NodeId {
        NodeId(self.0 as u32)
    }
}

/// An operand of a comparison, borrowed from a slot.
#[derive(Clone, Copy)]
enum View<'a> {
    Node(NodeId),
    Tree(&'a Tree),
}

/// A node test resolved against the interner, once per axis step.
#[derive(Clone, Copy)]
enum IdTest {
    /// `*`.
    Any,
    /// An interned tag.
    Is(LabelId),
    /// A tag never interned: no document node carries it.
    Never,
}

impl IdTest {
    fn of(test: &NodeTest) -> IdTest {
        match test {
            NodeTest::Wildcard => IdTest::Any,
            NodeTest::Tag(l) => LabelId::lookup(l.as_str()).map_or(IdTest::Never, IdTest::Is),
        }
    }

    fn matches(self, label: LabelId) -> bool {
        match self {
            IdTest::Any => true,
            IdTest::Is(want) => want == label,
            IdTest::Never => false,
        }
    }
}

/// An open loop or quantifier. Its source values are `srcs[base..]` (the
/// frames opened inside it have closed by the time it binds again), and
/// `next` is the one to bind next. A `for`/`let` accumulates into the
/// list on top of the value stack when it opened.
struct Frame {
    base: usize,
    next: usize,
}

/// The machine's buffers. Between runs each thread keeps one emptied
/// set, so a warm run grows no buffer that an earlier run on the thread
/// already grew.
#[derive(Default)]
struct Stacks {
    /// The value stack: every open list, oldest first.
    vals: Vec<Item>,
    /// Where each open list starts in `vals`; the last is the top list.
    marks: Vec<usize>,
    /// Loop and quantifier sources, and an axis step's bases while it
    /// scans them.
    srcs: Vec<Item>,
    frames: Vec<Frame>,
    bools: Vec<bool>,
    locals: Vec<Option<Item>>,
    /// Per `elem` instruction, the tree it built last in this run.
    memo: Vec<Option<Tree>>,
    /// The preorder walk of [`Machine::descend`], kept empty between
    /// walks (see [`recycle`]).
    walk: Vec<std::slice::Iter<'static, Tree>>,
}

/// A buffer above this many entries is freed rather than kept for the
/// thread's next run.
const SPARE_CAP: usize = 1 << 18;

thread_local! {
    static SPARE: Cell<Stacks> = Cell::new(Stacks::default());
}

/// Empties `v` and hands its buffer over at another element type of the
/// same layout (here: another lifetime). The collect runs in place, so
/// the buffer is reused, not reallocated; a buffer over [`SPARE_CAP`] is
/// dropped instead.
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    if v.capacity() > SPARE_CAP {
        return Vec::new();
    }
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

impl Stacks {
    fn emptied(self) -> Stacks {
        Stacks {
            vals: recycle(self.vals),
            marks: recycle(self.marks),
            srcs: recycle(self.srcs),
            frames: recycle(self.frames),
            bools: recycle(self.bools),
            locals: recycle(self.locals),
            memo: recycle(self.memo),
            walk: recycle(self.walk),
        }
    }
}

struct Machine<'d> {
    budget: Budget,
    stats: EvalStats,
    /// The input document; `$root` is its root, the only free binding.
    doc: &'d ArenaDoc,
    s: Stacks,
}

impl Drop for Machine<'_> {
    fn drop(&mut self) {
        let spare = std::mem::take(&mut self.s).emptied();
        SPARE.with(|s| s.set(spare));
    }
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

impl<'d> Machine<'d> {
    fn new(plan: &CompiledPlan, doc: &'d ArenaDoc, budget: Budget) -> Self {
        let mut s = SPARE.with(Cell::take);
        s.locals.resize(plan.slots(), None);
        s.memo.resize(plan.instrs().len(), None);
        Machine {
            budget,
            stats: EvalStats::default(),
            doc,
            s,
        }
    }

    fn run_plan(mut self, plan: &CompiledPlan) -> Result<(Vec<Tree>, EvalStats), XqError> {
        self.run(plan.instrs().ops())?;
        debug_assert!(self.s.bools.is_empty() && self.s.frames.is_empty());
        debug_assert!(self.s.marks == [0] && self.s.srcs.is_empty());
        let doc = self.doc;
        let out = self.s.vals.drain(..).map(|t| t.into_tree(doc)).collect();
        Ok((out, self.stats))
    }

    fn step(&mut self) -> Result<(), XqError> {
        self.stats.steps += 1;
        // One shared charge path with the interpreter (cancel flag, then
        // deadline, then step cap) — cancellation is engine-agnostic
        // because both engines observe it at the same tick sites.
        self.budget.charge_step(self.stats.steps)
    }

    /// Charges `n` items at once: the error, if any, is the one the
    /// `n`th single charge would raise, as item charges poll nothing.
    fn charge_items(&mut self, n: usize) -> Result<(), XqError> {
        self.stats.items += n as u64;
        self.budget.charge_item(self.stats.items)
    }

    /// Charges one item and pushes `t` onto the top list.
    fn emit(&mut self, t: Item) -> Result<(), XqError> {
        self.charge_items(1)?;
        self.s.vals.push(t);
        Ok(())
    }

    /// Where the top list starts.
    fn top(&self) -> usize {
        *self.s.marks.last().expect("list operand on the stack")
    }

    /// Drops the top list's mark, merging it into the list below.
    fn pop_mark(&mut self) -> usize {
        self.s.marks.pop().expect("list operand on the stack")
    }

    /// Opens a new, empty top list.
    fn push_mark(&mut self) {
        self.s.marks.push(self.s.vals.len());
    }

    /// A free variable's value: `$root` is the document's root; any
    /// other is unbound.
    fn free(&self, v: &Var) -> Result<NodeId, XqError> {
        if v.name() == "root" {
            Ok(self.doc.root())
        } else {
            Err(XqError::UnboundVariable(v.name().to_string()))
        }
    }

    /// The variable's current value, borrowed.
    fn view(&self, r: &VarRef) -> Result<View<'_>, XqError> {
        match r {
            VarRef::Local(slot, _) => Ok(self.s.locals[*slot as usize]
                .as_ref()
                .expect("compiled local is live inside its binder")
                .view()),
            VarRef::Free(v) => self.free(v).map(View::Node),
        }
    }

    fn load(&self, r: &VarRef) -> Result<Item, XqError> {
        match r {
            VarRef::Local(slot, _) => Ok(self.s.locals[*slot as usize]
                .clone()
                .expect("compiled local is live inside its binder")),
            VarRef::Free(v) => Ok(Item::Node(Node::new(self.free(v)?))),
        }
    }

    fn pop_bool(&mut self) -> bool {
        self.s.bools.pop().expect("boolean operand on the stack")
    }

    /// Moves the top list onto the source stack and opens a frame over
    /// it; the list's mark stays as the (empty) accumulator.
    fn open_frame(&mut self) {
        let base = self.s.srcs.len();
        let from = self.top();
        self.s.srcs.extend(self.s.vals.drain(from..));
        self.s.frames.push(Frame { base, next: base });
    }

    /// Binds the innermost frame's next source value into `slot`, or
    /// closes the frame and returns false when it is exhausted.
    fn bind_next(&mut self, slot: u16) -> bool {
        let frame = self.s.frames.last_mut().expect("open loop frame");
        if frame.next < self.s.srcs.len() {
            let t = take(&mut self.s.srcs[frame.next]);
            frame.next += 1;
            self.s.locals[slot as usize] = Some(t);
            true
        } else {
            self.close_frame();
            false
        }
    }

    fn close_frame(&mut self) {
        let frame = self.s.frames.pop().expect("open loop frame");
        self.s.srcs.truncate(frame.base);
    }

    /// `elem <a>` at `pc` over the children on top of the stack: the tree
    /// this instruction built last, if its children were these very
    /// values, else a new one.
    fn make_elem(&mut self, pc: usize, a: &cv_xtree::Label) -> Tree {
        let from = self.top();
        let doc = self.doc;
        let children = &self.s.vals[from..];
        if let Some(last) = &self.s.memo[pc] {
            let same = last.children().len() == children.len()
                && last
                    .children()
                    .iter()
                    .zip(children)
                    .all(|(c, t)| c.ptr_eq(t.tree(doc)));
            if same {
                let last = last.clone();
                self.s.vals.truncate(from);
                return last;
            }
        }
        let elem = Tree::node(
            a.clone(),
            self.s.vals.drain(from..).map(|t| t.into_tree(doc)),
        );
        self.s.memo[pc] = Some(elem.clone());
        elem
    }

    /// The interned id of a `cmp.const` constant, resolved once per
    /// execution of the opcode (`None` when no document carries the
    /// label).
    fn const_id(op: &OpCode) -> Option<LabelId> {
        match op {
            OpCode::CmpConst(_, a, _) => LabelId::lookup(a.as_str()),
            _ => None,
        }
    }

    /// Evaluates a `cmp.var`/`cmp.const` on borrowed operands: `x` is
    /// looked up before `y`, and only then does `=mon` raise — the
    /// interpreter's error order. `konst` is [`Machine::const_id`] of `op`.
    fn compare(&self, op: &OpCode, konst: Option<LabelId>) -> Result<bool, XqError> {
        match op {
            OpCode::CmpVars(x, y, mode) => {
                let (vx, vy) = (self.view(x)?, self.view(y)?);
                match mode {
                    EqMode::Deep => Ok(self.deep_eq(vx, vy)),
                    EqMode::Atomic => Ok(self.atomic_eq(vx, vy)),
                    EqMode::Mon => Err(XqError::BadEqualityMode),
                }
            }
            // Against the constant leaf `<a/>`, without building it.
            OpCode::CmpConst(x, a, mode) => {
                let vx = self.view(x)?;
                match mode {
                    EqMode::Deep => Ok(match vx {
                        View::Node(n) => self.doc.is_leaf(n) && Some(self.doc.label_id(n)) == konst,
                        View::Tree(t) => t.is_leaf() && t.label() == a,
                    }),
                    EqMode::Atomic => Ok(match vx {
                        View::Node(n) => Some(self.doc.label_id(n)) == konst,
                        View::Tree(t) => t.label() == a,
                    }),
                    EqMode::Mon => Err(XqError::BadEqualityMode),
                }
            }
            _ => unreachable!("compare on a non-comparison opcode"),
        }
    }

    /// `=deep`: the arena's preorder compare between nodes, the node's
    /// shared subtree against a tree.
    fn deep_eq(&self, x: View<'_>, y: View<'_>) -> bool {
        match (x, y) {
            (View::Node(a), View::Node(b)) => self.doc.deep_eq(a, b),
            (View::Node(n), View::Tree(t)) | (View::Tree(t), View::Node(n)) => {
                self.doc.shared_node(n) == t
            }
            (View::Tree(s), View::Tree(t)) => s == t,
        }
    }

    /// `=atomic`: Figure 1's root-label equality, on any two values.
    fn atomic_eq(&self, x: View<'_>, y: View<'_>) -> bool {
        match (x, y) {
            (View::Node(a), View::Node(b)) => self.doc.label_id(a) == self.doc.label_id(b),
            (View::Node(n), View::Tree(t)) | (View::Tree(t), View::Node(n)) => {
                self.doc.shared_node(n).label() == t.label()
            }
            (View::Tree(s), View::Tree(t)) => s.label() == t.label(),
        }
    }

    /// Runs the rest of the innermost quantifier frame whose body is the
    /// single comparison `cmp` (see [`fused_quant_body`]): per candidate,
    /// bind, tick, compare, decide — the charges `quant.next`, `tick.c`,
    /// the comparison and `quant.check` make one instruction at a time.
    /// Returns the quantifier's verdict.
    fn fused_quant(&mut self, slot: u16, some: bool, cmp: &OpCode) -> Result<bool, XqError> {
        let konst = Self::const_id(cmp);
        let frame = self.s.frames.last().expect("open quantifier frame");
        // Exhausted without a decision: `some` is false, `every`
        // vacuously true.
        let mut verdict = !some;
        for i in frame.next..self.s.srcs.len() {
            self.s.locals[slot as usize] = Some(take(&mut self.s.srcs[i]));
            self.step()?;
            if self.compare(cmp, konst)? == some {
                // true decides `some`; false decides `every`.
                verdict = some;
                break;
            }
        }
        self.close_frame();
        Ok(verdict)
    }

    /// Scans `axis` from the constructed tree `base` in document order,
    /// charging one step per scanned node and one item per match; each
    /// match is cloned out of `base`.
    fn scan(&mut self, base: &Tree, axis: Axis, test: &NodeTest) -> Result<(), XqError> {
        match axis {
            Axis::SelfAxis => self.visit(base, test),
            Axis::Child => base.children().iter().try_for_each(|c| self.visit(c, test)),
            Axis::Descendant => self.descend(base, test),
            Axis::DescendantOrSelf => {
                self.visit(base, test)?;
                self.descend(base, test)
            }
        }
    }

    /// Visits the proper descendants of `t` in preorder, on an explicit
    /// stack so a deep document costs heap, not call stack.
    fn descend(&mut self, t: &Tree, test: &NodeTest) -> Result<(), XqError> {
        let mut stack: Vec<std::slice::Iter<'_, Tree>> = recycle(std::mem::take(&mut self.s.walk));
        stack.push(t.children().iter());
        while let Some(it) = stack.last_mut() {
            match it.next() {
                Some(c) => {
                    self.visit(c, test)?;
                    if !c.is_leaf() {
                        stack.push(c.children().iter());
                    }
                }
                None => {
                    stack.pop();
                }
            }
        }
        self.s.walk = recycle(stack);
        Ok(())
    }

    fn visit(&mut self, s: &Tree, test: &NodeTest) -> Result<(), XqError> {
        self.step()?;
        if test.matches(s.label()) {
            self.emit(Item::Built(s.clone()))?;
        }
        Ok(())
    }

    /// [`Machine::scan`] from a document node: a child slice or a
    /// preorder id range, in document order, with the same charges.
    fn scan_node(&mut self, base: NodeId, axis: Axis, test: IdTest) -> Result<(), XqError> {
        let doc = self.doc;
        match axis {
            Axis::SelfAxis => self.visit_node(doc, base, test),
            Axis::Child => doc
                .children(base)
                .iter()
                .try_for_each(|&c| self.visit_node(doc, c, test)),
            Axis::Descendant => doc
                .descendants(base)
                .try_for_each(|c| self.visit_node(doc, c, test)),
            Axis::DescendantOrSelf => {
                self.visit_node(doc, base, test)?;
                doc.descendants(base)
                    .try_for_each(|c| self.visit_node(doc, c, test))
            }
        }
    }

    fn visit_node(&mut self, doc: &ArenaDoc, n: NodeId, test: IdTest) -> Result<(), XqError> {
        self.step()?;
        if test.matches(doc.label_id(n)) {
            self.emit(Item::Node(Node::new(n)))?;
        }
        Ok(())
    }

    /// `step`: the bases move to the source stack, and the matches of
    /// each, in order, replace them as the top list.
    fn axis_step(&mut self, axis: Axis, test: &NodeTest) -> Result<(), XqError> {
        let first = self.s.srcs.len();
        let from = self.top();
        self.s.srcs.extend(self.s.vals.drain(from..));
        // Resolved at the first document base, once per step.
        let mut ids = None;
        for i in first..self.s.srcs.len() {
            match take(&mut self.s.srcs[i]) {
                Item::Node(n) => {
                    let ids = *ids.get_or_insert_with(|| IdTest::of(test));
                    self.scan_node(n.id(), axis, ids)?
                }
                Item::Built(t) => self.scan(&t, axis, test)?,
            }
        }
        self.s.srcs.truncate(first);
        Ok(())
    }

    fn run(&mut self, ops: &[OpCode]) -> Result<(), XqError> {
        let mut pc = 0usize;
        while pc < ops.len() {
            match &ops[pc] {
                OpCode::TickQ(d) => {
                    self.step()?;
                    // Static scope depths count from `$root`'s scope.
                    self.stats.max_env_depth = self.stats.max_env_depth.max(1 + *d as usize);
                }
                OpCode::TickC => self.step()?,
                OpCode::PushUnit => self.push_mark(),
                OpCode::Load(r) => {
                    let t = self.load(r)?;
                    self.push_mark();
                    self.emit(t)?;
                }
                OpCode::MakeElem(a) => {
                    // Charged before it is built; the outcome is the same.
                    self.charge_items(1)?;
                    let elem = self.make_elem(pc, a);
                    self.s.vals.push(Item::Built(elem));
                }
                // Both lists are already in place: the right one is
                // charged again, one item per tree.
                OpCode::Concat => {
                    let rest = self.pop_mark();
                    self.charge_items(self.s.vals.len() - rest)?;
                }
                OpCode::AxisStep(axis, test) => self.axis_step(*axis, test)?,
                OpCode::IterInit => self.open_frame(),
                OpCode::IterNext { slot, exit, .. } => {
                    // An exhausted loop leaves its accumulator on top.
                    if !self.bind_next(*slot) {
                        pc = *exit as usize;
                        continue;
                    }
                }
                // The body's result sits directly on the accumulator.
                OpCode::IterAccum { back } => {
                    let body = self.pop_mark();
                    self.charge_items(self.s.vals.len() - body)?;
                    pc = *back as usize;
                    continue;
                }
                OpCode::PushBool(b) => self.s.bools.push(*b),
                cmp @ (OpCode::CmpVars(..) | OpCode::CmpConst(..)) => {
                    let verdict = self.compare(cmp, Self::const_id(cmp))?;
                    self.s.bools.push(verdict);
                }
                OpCode::NonEmpty => {
                    let from = self.pop_mark();
                    self.s.bools.push(self.s.vals.len() > from);
                    self.s.vals.truncate(from);
                }
                OpCode::NotBool => {
                    let b = self.pop_bool();
                    self.s.bools.push(!b);
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
                    if *self.s.bools.last().expect("boolean operand") {
                        self.s.bools.pop();
                    } else {
                        pc = *t as usize;
                        continue;
                    }
                }
                OpCode::OrJump(t) => {
                    if *self.s.bools.last().expect("boolean operand") {
                        pc = *t as usize;
                        continue;
                    } else {
                        self.s.bools.pop();
                    }
                }
                // A quantifier accumulates nothing: its source's mark goes.
                OpCode::QuantInit => {
                    self.open_frame();
                    self.pop_mark();
                }
                OpCode::QuantNext {
                    slot, some, exit, ..
                } => {
                    if let Some(cmp) = fused_quant_body(ops, pc) {
                        let verdict = self.fused_quant(*slot, *some, cmp)?;
                        self.s.bools.push(verdict);
                        pc = *exit as usize;
                        continue;
                    }
                    if !self.bind_next(*slot) {
                        // Exhausted without a decision: `some` is false,
                        // `every` vacuously true.
                        self.s.bools.push(!*some);
                        pc = *exit as usize;
                        continue;
                    }
                }
                OpCode::QuantCheck { some, back, exit } => {
                    let verdict = self.pop_bool();
                    if verdict == *some {
                        // true decides `some`; false decides `every`.
                        self.close_frame();
                        self.s.bools.push(*some);
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
    /// past the full run — where both runs must also have polled the flag
    /// the same number of times.
    fn sweep(q: &Query, doc: &str) {
        let tree = parse_tree(doc).unwrap();
        let arena = ArenaDoc::from_tree(&tree);
        let env = Env::with_root(tree);
        let plan = compile_query(q);
        let run = |budget: Budget| {
            let want = outcome(eval_with(q, &env, budget.clone()));
            let got = outcome(exec_doc(&plan, &arena, budget));
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
            let trip = || Budget::default().with_cancel(CancelFlag::tripping_at(k));
            let (bi, bv) = (trip(), trip());
            let want = outcome(eval_with(q, &env, bi.clone()));
            let got = outcome(exec_doc(&plan, &arena, bv.clone()));
            assert_eq!(got, want, "{q}: trip at {k}");
            let polls = |b: &Budget| b.cancel.as_ref().map(CancelFlag::polls);
            assert_eq!(polls(&bv), polls(&bi), "{q}: polls when tripping at {k}");
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
        let arena = ArenaDoc::parse(DOC).unwrap();
        let got = exec_doc(&compile_query(&q), &arena, Budget::default()).unwrap_err();
        assert_eq!(got, XqError::BadEqualityMode);
    }

    #[test]
    fn document_node_comparisons_match_the_interpreter() {
        for src in [
            // `=atomic` is root-label equality, on inner nodes too; `=deep`
            // compares whole subtrees (`<a><b/></a>` vs `<a/>`).
            "for $x in $root/* return for $y in $root//* return \
             if ($x =atomic $y) then <t>{ $y }</t>",
            "for $x in $root/* return for $y in $root//* return if ($x = $y) then <t>{ $y }</t>",
            "if ($root =atomic $root) then <r/>",
            "for $x in $root//* return if ($x =atomic <a/>) then $x",
            "for $x in $root//* return if ($x = <b/>) then $x",
            "for $x in $root//* return if ($x = <zzz/>) then $x",
            // Nodes against constructed trees holding document subtrees,
            // in both operand orders, inside and outside fused loops.
            "let $w := <w>{ $root/a }</w> return for $y in $w/* return \
             for $x in $root//a return if ($y = $x) then <eq>{ $x }</eq>",
            "let $w := <w>{ $root/a }</w> return for $y in $w/* return \
             for $x in $root//* return if ($x =atomic $y) then <eq/>",
            "let $w := <w>{ $root/b }</w> return for $x in $root//* return \
             if (some $y in $w/* satisfies $y = $x) then <hit>{ $x }</hit>",
            "let $w := <w>{ ($root/k, <a/>) }</w> return for $x in $root//* return \
             if (every $y in $w//a satisfies $x =atomic $y) then <all>{ $x }</all>",
            "let $w := <w>{ $root }</w> return if ($w/r = $root) then <same/>",
        ] {
            sweep_text(src, DOC);
        }
    }

    #[test]
    fn foreign_query_tags_match_nothing_and_stay_uninterned() {
        // Tags that appear nowhere else: serving them must not intern them.
        let (tag, konst) = ("never-interned-vm-tag", "never-interned-vm-const");
        for src in [
            format!("($root//{tag}, $root/dos::{tag}, $root/{tag}, $root/self::{tag})"),
            format!("for $x in $root//* return if ($x =atomic <{konst}/>) then $x"),
            format!("if (some $y in $root//* satisfies $y = <{konst}/>) then <hit/>"),
        ] {
            let arena = ArenaDoc::parse(DOC).unwrap();
            let plan = compile_query_text(&src).unwrap();
            let (out, stats) = exec_doc(&plan, &arena, Budget::default()).unwrap();
            assert!(out.is_empty(), "{src}");
            // Every scanned node is still charged.
            assert!(stats.steps >= arena.len() as u64, "{src}");
            sweep_text(&src, DOC);
        }
        assert_eq!(LabelId::lookup(tag), None);
        assert_eq!(LabelId::lookup(konst), None);
    }

    /// Loops whose lists merge in place on the value stack, and
    /// constructors the per-run memo may answer: each must match the
    /// interpreter under every cap and trip point.
    const CONSTRUCTOR_LOOPS: [&str; 16] = [
        // Leaf and nested constructors in nested loops: built once per run.
        "for $x in $root//* return for $y in $x/* return <k/>",
        "for $x in $root/* return for $y in $root//* return <x>{ <k/> }</x>",
        "for $v0 in $root//* return if (not($v0 =atomic <a/>)) then \
         for $v1 in $root/dos::* return <k/>",
        "for $v0 in (($root//*)//a)/* return (<x>{ <k/> }</x>, \
         for $v1 in $root/dos::b return $v1/a)",
        // New children on every iteration: rebuilt every time.
        "for $v in $root//* return <w>{ $v }</w>",
        "for $x in $root/* return for $y in $x/* return <w>{ ($x, $y, <k/>) }</w>",
        // Over matches scanned out of a constructed tree.
        "for $x in $root/* return let $z := <a><b/><c><b/></c></a> return \
         for $y in $z//* return <m>{ $y }</m>",
        "let $w := <w>{ $root/* }</w> return for $x in $root/* return <m>{ $w/* }</m>",
        // Concatenation in a loop body.
        "for $x in $root/* return ($x, <k/>, $x/*)",
        // Empty bodies, alone and inside a constructor.
        "for $x in $root//* return ()",
        "for $x in $root//* return for $y in $x/zzz return <k/>",
        "<e>{ for $x in $root/* return () }</e>",
        // A quantifier in a `for` body, fused and not.
        "for $x in $root//* return if (every $y in $x/* satisfies $y =atomic <b/>) then <all/>",
        "for $x in $root/* return \
         if (some $y in $x//* satisfies ($y =atomic <b/> and $y/c)) then <hit>{ $x }</hit>",
        // A `for` in a quantifier body.
        "if (some $y in $root/* satisfies for $z in $y/* return <k/>) then <hit/>",
        "for $x in $root/* return \
         if (every $y in $x/* satisfies for $w in $y/* return <k/>) then <all>{ $x }</all>",
    ];

    #[test]
    fn loops_and_memoized_constructors_match_the_interpreter() {
        for src in CONSTRUCTOR_LOOPS {
            sweep_text(src, DOC);
        }
    }

    #[test]
    fn memoized_constructors_share_their_trees_within_a_run_only() {
        let arena = ArenaDoc::parse(DOC).unwrap();
        let plan = compile_query_text("for $x in $root//* return <x>{ <k/> }</x>").unwrap();
        let run = || exec_doc(&plan, &arena, Budget::default()).unwrap().0;
        let (first, second) = (run(), run());
        assert_eq!(first.len(), 8);
        assert!(first.iter().all(|t| t.ptr_eq(&first[0])));
        assert!(!first[0].ptr_eq(&second[0]), "shared across runs");
        // Different children: a tree per iteration.
        let plan = compile_query_text("for $x in $root//* return <w>{ $x }</w>").unwrap();
        let out = exec_doc(&plan, &arena, Budget::default()).unwrap().0;
        assert!(out.windows(2).all(|w| !w[0].ptr_eq(&w[1])));
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

    #[test]
    fn exec_with_forwards_its_root_to_exec_doc() {
        let tree = parse_tree(DOC).unwrap();
        let arena = ArenaDoc::from_tree(&tree);
        let env = Env::with_root(tree);
        for src in ["$root//a", "<a/>", "$nope"]
            .iter()
            .chain(&CONSTRUCTOR_LOOPS)
        {
            let plan = compile_query_text(src).unwrap();
            let want = outcome(exec_doc(&plan, &arena, Budget::default()));
            let got = outcome(exec_with(&plan, &env, Budget::default()));
            assert_eq!(got, want, "{src}");
        }
        let plan = compile_query_text("<a/>").unwrap();
        let got = exec_with(&plan, &Env::new(), Budget::default()).unwrap_err();
        assert_eq!(got, XqError::UnboundVariable("root".into()));
    }
}
