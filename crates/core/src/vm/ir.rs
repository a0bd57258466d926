//! The instruction set of the bytecode VM.
//!
//! A compiled query is a flat [`InstrSeq`] of [`OpCode`]s over three
//! stacks (lists of trees, booleans, loop frames) plus a static array of
//! local binding slots — the `CompiledXPath`/`InstrSeq`/`OpCode` shape of
//! the platynui exemplar, specialized to Figure 1's semantics. `for`/`let`
//! loops and quantifiers compile to jump-backed loops; short-circuit
//! `and`/`or` compile to conditional jumps that *keep* the deciding
//! operand on the stack.
//!
//! Budget accounting is part of the instruction set, not a side effect:
//! [`OpCode::TickQ`]/[`OpCode::TickC`] reproduce the interpreter's
//! per-node `step()` exactly (one tick per `eval`/`eval_cond` entry), and
//! the list-producing opcodes charge `items` exactly where the
//! interpreter's `emit` does — including its idiosyncrasies (`Seq`
//! re-counts the right branch, loops re-count body results). The
//! `vm_diff` suite holds the VM to byte- and counter-identical results.

use crate::ast::{EqMode, Var};
use cv_xtree::{Axis, Label, NodeTest};
use std::fmt;

/// A compile-time-resolved variable reference.
///
/// Binders (`for`/`let`/`some`/`every`) are lexically scoped and the
/// language is nonrecursive, so every bound reference resolves statically
/// to a slot indexed by scope depth. References the query does not bind
/// ([`VarRef::Free`] — `$root`, a variable the caller binds, or a
/// genuinely unbound name) resolve against the executor's bindings
/// ([`exec_bound`](super::exec_bound)) at execution time, so
/// unbound-variable errors surface at exactly the interpreter's point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VarRef {
    /// A query-bound variable: slot index (= static scope depth of its
    /// binder) plus the surface name for disassembly.
    Local(u16, Var),
    /// Resolved in the runtime environment by name.
    Free(Var),
}

impl fmt::Display for VarRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarRef::Local(slot, v) => write!(f, "%{slot}({v})"),
            VarRef::Free(v) => write!(f, "free({v})"),
        }
    }
}

/// One VM instruction. Jump targets are absolute instruction indices.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpCode {
    /// The `eval()` entry tick of a query node at static scope depth `d`:
    /// charge one step and record `caller depth + d` as the environment
    /// depth (matching the interpreter's `max_env_depth` bookkeeping,
    /// which only query entries update).
    TickQ(u16),
    /// The `eval_cond()` entry tick of a condition node: charge one step.
    TickC,
    /// Push the empty list (`()`).
    PushUnit,
    /// Look the variable up, charge one item, push it as a singleton list.
    Load(VarRef),
    /// Pop the children list, charge one item, push the constructed
    /// `⟨a⟩…⟨/a⟩` node as a singleton list.
    MakeElem(Label),
    /// Pop `y` then `x`; append `y`'s trees to `x` charging one item
    /// each (Figure 1 `Seq` re-counts the right branch); push the result.
    Concat,
    /// Pop the base list; for each base node scan the axis, charging one
    /// step per scanned node and one item per match; push the matches.
    AxisStep(Axis, NodeTest),
    /// Pop a list and open a loop frame over it with an empty accumulator.
    IterInit,
    /// Bind the frame's next item into `slot` and fall through, or — when
    /// exhausted — close the frame, push its accumulator, and jump to
    /// `exit`.
    IterNext {
        /// Destination slot of the loop variable.
        slot: u16,
        /// Surface name, for disassembly.
        var: Var,
        /// Jump target once the work list is exhausted.
        exit: u32,
    },
    /// Pop the body's result list, append it to the innermost frame's
    /// accumulator charging one item per tree, and jump back to `back`
    /// (the loop's `IterNext`).
    IterAccum {
        /// The loop head to continue at.
        back: u32,
    },
    /// Push a boolean constant.
    PushBool(bool),
    /// `$x = $y`: look both up (x first, matching interpreter error
    /// order), compare under the mode, push the verdict. `=mon` errors.
    CmpVars(VarRef, VarRef, EqMode),
    /// `$x = ⟨a/⟩`: look `x` up, compare against the constant leaf.
    CmpConst(VarRef, Label, EqMode),
    /// Pop a list, push whether it was nonempty (query-as-condition).
    NonEmpty,
    /// Pop a boolean, push its negation.
    NotBool,
    /// Pop a boolean; jump to the target when it was false.
    JumpIfFalse(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Short-circuit `and`: if the top boolean is false, *keep* it and
    /// jump (the right operand is never evaluated — no ticks); otherwise
    /// pop it and fall through.
    AndJump(u32),
    /// Short-circuit `or`: if the top boolean is true, keep it and jump;
    /// otherwise pop it and fall through.
    OrJump(u32),
    /// Pop a list and open a quantifier frame over it (no accumulator).
    QuantInit,
    /// Bind the frame's next item into `slot` and fall through, or — when
    /// exhausted — close the frame, push the quantifier's vacuous verdict
    /// (`some` ⇒ false, `every` ⇒ true), and jump to `exit`.
    QuantNext {
        /// Destination slot of the quantified variable.
        slot: u16,
        /// Surface name, for disassembly.
        var: Var,
        /// True for `some`, false for `every`.
        some: bool,
        /// Jump target once candidates are exhausted.
        exit: u32,
    },
    /// Pop the satisfaction verdict; short-circuit (push the decided
    /// verdict, close the frame, jump to `exit`) when it decides the
    /// quantifier, else jump back to `back` for the next candidate.
    QuantCheck {
        /// True for `some` (true decides), false for `every` (false
        /// decides).
        some: bool,
        /// The loop head (`QuantNext`) to continue at.
        back: u32,
        /// Jump target on short-circuit.
        exit: u32,
    },
}

fn mode_str(mode: EqMode) -> &'static str {
    match mode {
        EqMode::Deep => "deep",
        EqMode::Atomic => "atomic",
        EqMode::Mon => "mon",
    }
}

impl fmt::Display for OpCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpCode::TickQ(d) => write!(f, "tick.q      depth={d}"),
            OpCode::TickC => f.write_str("tick.c"),
            OpCode::PushUnit => f.write_str("push.unit"),
            OpCode::Load(v) => write!(f, "load        {v}"),
            OpCode::MakeElem(a) => write!(f, "elem        <{a}>"),
            OpCode::Concat => f.write_str("concat"),
            OpCode::AxisStep(axis, test) => write!(f, "step        axis={axis} test={test}"),
            OpCode::IterInit => f.write_str("iter.init"),
            OpCode::IterNext { slot, var, exit } => {
                write!(f, "iter.next   %{slot}({var}) exit=@{exit}")
            }
            OpCode::IterAccum { back } => write!(f, "iter.accum  back=@{back}"),
            OpCode::PushBool(b) => write!(f, "push.bool   {b}"),
            OpCode::CmpVars(x, y, m) => write!(f, "cmp.var     {x}, {y} mode={}", mode_str(*m)),
            OpCode::CmpConst(x, a, m) => write!(f, "cmp.const   {x}, <{a}/> mode={}", mode_str(*m)),
            OpCode::NonEmpty => f.write_str("nonempty"),
            OpCode::NotBool => f.write_str("not"),
            OpCode::JumpIfFalse(t) => write!(f, "jump.false  @{t}"),
            OpCode::Jump(t) => write!(f, "jump        @{t}"),
            OpCode::AndJump(t) => write!(f, "and.sc      @{t}"),
            OpCode::OrJump(t) => write!(f, "or.sc       @{t}"),
            OpCode::QuantInit => f.write_str("quant.init"),
            OpCode::QuantNext {
                slot,
                var,
                some,
                exit,
            } => write!(
                f,
                "quant.next  %{slot}({var}) kind={} exit=@{exit}",
                if *some { "some" } else { "every" }
            ),
            OpCode::QuantCheck { some, back, exit } => write!(
                f,
                "quant.check kind={} back=@{back} exit=@{exit}",
                if *some { "some" } else { "every" }
            ),
        }
    }
}

/// A flat, immutable instruction sequence — the compiled form of one
/// query. Compilation is deterministic: equal queries produce equal
/// sequences (property-tested in `vm_diff`).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InstrSeq {
    ops: Vec<OpCode>,
}

impl InstrSeq {
    pub(crate) fn from_ops(ops: Vec<OpCode>) -> InstrSeq {
        InstrSeq { ops }
    }

    /// The instructions, in execution order.
    pub fn ops(&self) -> &[OpCode] {
        &self.ops
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the sequence has no instructions (never the case for a
    /// compiled query — every node emits at least its entry tick).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl fmt::Display for InstrSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  @{i:<4} {op}")?;
        }
        Ok(())
    }
}
