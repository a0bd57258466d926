//! The bytecode VM: compile a query once, execute it many times.
//!
//! The Figure 1 interpreter ([`crate::semantics`]) tree-walks the
//! [`Query`](crate::Query) AST per evaluation, chasing `Arc` nodes and
//! re-deriving scoping and the parallel-planner engagement decision on
//! every request. This module lowers the AST once into a flat instruction
//! sequence and keeps the derived facts with it:
//!
//! * [`ir`] — the [`OpCode`]/[`InstrSeq`] instruction set;
//! * [`compile`] — AST → instructions, static slot resolution for
//!   binders, and the document-independent [`compile::par_hint`]; the
//!   monad-algebra optimizer verdict ([`MaInfo`]) is computed on demand
//!   for the disassembly, never on the compile path; each plan also keeps
//!   a small log of what it cost ([`RunCost`], exact or a lower bound:
//!   [`CostRecord`]) on the documents the serving pool ran it on, and
//!   whether it may compare constructed trees, work the step budget does
//!   not charge ([`CompiledPlan::compares_trees`]);
//! * [`exec`] — the stack executor, byte- and budget-counter-identical
//!   to [`eval_with`](crate::eval_with) (the `vm_diff` differential suite
//!   is the proof obligation);
//! * [`cache`] — the process-wide, lock-striped [`PlanCache`] keyed by
//!   query text, so hot queries skip parse + compile entirely.
//!
//! [`CompiledPlan::disasm`] renders a stable disassembly listing; the
//! `vm_golden` suite pins it for representative queries so lowering
//! changes surface as reviewable golden-file diffs.

pub mod cache;
pub mod compile;
pub mod exec;
pub mod ir;

pub use cache::PlanCache;
pub use compile::{
    compile_query, compile_query_text, par_hint, CompiledPlan, CostRecord, MaInfo, RunCost,
};
pub use exec::{exec_doc, exec_with};
pub use ir::{InstrSeq, OpCode, VarRef};
