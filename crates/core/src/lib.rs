//! Core XQuery (`XQ`) — the paper's primary contribution (Koch, PODS 2005,
//! §3): a recursion-free fragment of XQuery that captures monad algebra on
//! lists up to representation issues.
//!
//! * [`ast`] — the abstract syntax (core grammar + Prop 3.1 derived forms);
//! * [`parser`] — a parser for the surface syntax used in the paper's
//!   examples, with a nesting cap ([`MAX_QUERY_DEPTH`]) that keeps deep
//!   texts from overflowing a worker's stack;
//! * [`semantics`] — the Figure 1 denotational semantics (environments of
//!   trees → lists of trees), with resource budgets;
//! * [`plan`] — the parallel planner: a recursive analysis producing a
//!   [`ParPlan`] of shardable loops (`Seq` branches, flattened `for`-nests,
//!   hoisted `let` sources, predicate-filtered sources);
//! * [`par`] — data-parallel evaluation over the arena store: every loop
//!   the planner proves shardable split across threads with an
//!   order-preserving interned-token splice merge;
//! * [`service`] — a supervised worker pool batching many (query,
//!   document) pairs, the serve-heavy-traffic shape, with per-request
//!   panic containment, evaluating over each document's tree
//!   materialized once per process;
//! * [`fault`] — seeded, deterministic fault injection (named fault
//!   points, `XQ_FAULT_SPEC`/`XQ_FAULT_SEED`) for chaos-testing the
//!   serving stack;
//! * [`vm`] — the bytecode VM: queries lower once to a flat instruction
//!   sequence (static slots and a baked planner hint; the optimizer
//!   verdict is computed on demand, off the compile path) held in a
//!   process-wide lock-striped plan cache, executed on a stack machine
//!   byte-identical to the Figure 1 interpreter;
//! * [`fragments`] — feature analysis and the composition-free fragments
//!   `XQ⁻`/`XQ∼` of §7, with the Prop 7.1 interconversions;
//! * [`translate`] — the Figure 2/3 translations to and from monad algebra
//!   on lists and the `C`/`C′`/`T` data encodings (Lemmas 3.2 and 3.3).

pub mod ast;
pub mod fault;
pub mod fragments;
pub mod par;
pub mod parser;
pub mod plan;
pub mod semantics;
pub mod service;
pub mod translate;
pub mod vm;

pub use ast::{cond_as_query, Cond, EqMode, Query, Var};
pub use fault::{FaultPoint, FaultSpecError, Faults};
pub use fragments::{
    free_vars, is_composition_free, is_strict_core, is_xq_tilde, to_composition_free, to_xq_tilde,
    Features,
};
pub use par::{eval_compiled_par, eval_query_par, outer_for_split, resolve_node_source, ParStats};
pub use parser::{parse_query, QueryParseError, MAX_QUERY_DEPTH};
pub use plan::{ParPlan, ShardPlan};
pub use semantics::{
    boolean_result, eval_cond_with, eval_query, eval_with, Budget, CancelFlag, Env, EvalStats,
    Threads, XqError,
};
pub use service::{
    CompletionSink, Handoff, Inline, PoolConfig, QueryService, Request, ServiceError,
};
pub use translate::{
    c_forest, c_tree, c_tree_inverse, ma_env, ma_invariant_holds, ma_query, ma_query_optimized,
    t_value, t_value_inverse, value_query, xq_invariant_holds, xq_of_ma, TranslateError,
};
pub use vm::{compile_query, compile_query_text, CompiledPlan, InstrSeq, OpCode, PlanCache};
