//! Monad algebra on sets, lists, and bags (Koch, PODS 2005, §2.2–§2.3).
//!
//! This crate implements the functional query language `M` of Tannen,
//! Buneman & Wong as presented in the paper: a variable-free, compositional
//! algebra whose expressions denote functions from complex values to
//! complex values. The *positive* language `M∪` adds union; *full monad
//! algebra* adds any one of deep equality, selection, difference,
//! intersection, `⊆`, `∈`, or nesting — all interexpressible (Theorem 2.2),
//! and all provided here both as built-ins and as derived forms so the
//! equivalences can be tested and benchmarked.
//!
//! The same expression syntax is interpreted over all three collection
//! monads ([`CollectionKind`]): `∪` is set union, list concatenation, or
//! additive bag union; `flatten` likewise. Bags additionally support
//! `unique` and `monus` (§2.3, after Libkin & Wong). Lists support the
//! `true` operation collapsing a truth value to `[⟨⟩]`.
//!
//! * [`Expr`] — the algebra's abstract syntax, with a pretty-printer and
//!   size metrics (used by the Lemma 5.7 reduction-size experiments);
//! * [`eval`](fn@eval)/[`Evaluator`] — a materializing reference evaluator with
//!   resource budgets (the paper's queries can build doubly-exponential
//!   values, Prop 4.2, so the engine must fail gracefully);
//! * [`typecheck`](fn@typecheck) — a structural type checker for `Expr : τ → τ′`;
//! * [`derived`] — the paper's derived forms: Cartesian product
//!   (Example 2.1), Boolean connectives, `σ_γ`, `⊆`, `∩` (Example 2.3),
//!   difference (Example 2.4), `=mon` expansion (Proposition 5.1), and the
//!   `all_equal` predicate from Theorem 5.11;
//! * [`opt`] — the optimizer: a peephole/normalization pass rewriting the
//!   derived constructions back to the built-in operators (with a rule
//!   [`Trace`] shared with `xq_rewrite`'s Theorem 7.9 eliminator), enabled
//!   on the evaluator via [`Evaluator::with_optimizer`].

pub mod derived;
mod eval;
mod expr;
pub mod opt;
mod trace;
mod typecheck;

pub use cv_value::CollectionKind;
pub use eval::{eval, eval_optimized, eval_with, Budget, EvalError, EvalStats, Evaluator};
pub use expr::{Cond, EqMode, Expr, Operand};
pub use trace::{Trace, TraceStep};
pub use typecheck::{typecheck, TypeError};

#[cfg(test)]
mod tests {
    use super::*;
    use cv_value::Value;

    #[test]
    fn smoke_identity() {
        let v = Value::set([Value::atom("x")]);
        let got = eval(&Expr::Id, CollectionKind::Set, &v).unwrap();
        assert_eq!(got, v);
    }
}
