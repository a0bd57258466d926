//! The cancellation differential suite — `vm_diff`'s counterpart for the
//! serving layer's abort paths.
//!
//! Cooperative cancellation is only trustworthy if it is *deterministic*:
//! a request aborted at budget tick `k` must stop at the same evaluation
//! point every time, on every engine. The witness is the
//! [`CancelFlag`] poll counter: `charge_step` polls the flag exactly
//! once per tick (before the deadline and the step cap), so `polls()`
//! after a run names the tick where evaluation stopped. Over the seeded
//! `coverage_corpus` this suite pins, for interpreter and VM alike:
//!
//! * **Cap/trip equivalence** — a run with step cap `k` fails
//!   `Budget{steps}` at tick `k+1`, and a run with a flag fused to trip
//!   at poll `k+1` fails `Cancelled` at the *same* tick: same poll
//!   count, engines agree with each other on both.
//! * **Passivity** — a cancel flag that never trips changes nothing:
//!   byte-identical output, identical `EvalStats`, and exactly one poll
//!   per step (the flag is checked at every tick, no more, no fewer).
//!
//! `XQ_RANDOM_CASES` scales the corpus (CI pins 16; local default 64);
//! the `#[ignore]`d full-size variant (weekly `scheduled.yml` run)
//! sweeps a 256-query corpus over bigger documents.

use cv_xtree::{random_tree, Tree, TreeGen};
use xq_core::ast::Query;
use xq_core::vm::{compile_query, exec_with};
use xq_core::{eval_with, Budget, CancelFlag, Env, XqError};

/// Cases per property: `XQ_RANDOM_CASES` if set (CI uses 16), else 64.
fn cases() -> usize {
    std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn corpus() -> Vec<Query> {
    xq_bench::coverage_corpus(cases())
}

fn docs() -> Vec<Tree> {
    let repr = xq_core::DocRepr::from_env();
    (0..2u64)
        .map(|seed| {
            let mut g = TreeGen::new(seed);
            repr.roundtrip(&random_tree(&mut g, 10, &["a", "b", "k"]))
        })
        .collect()
}

fn bytes(trees: &[Tree]) -> Vec<u8> {
    trees
        .iter()
        .map(Tree::to_xml)
        .collect::<String>()
        .into_bytes()
}

/// A run's outcome: serialized result bytes, steps and items.
type Outcome = Result<(Vec<u8>, u64, u64), XqError>;

/// Runs `q` on the given engine with a counting (never-tripping) flag,
/// returning the outcome and the number of ticks the run polled.
fn run_counted(q: &Query, env: &Env, budget: Budget, vm: bool) -> (Outcome, u64) {
    let flag = CancelFlag::counting();
    let budget = budget.with_cancel(flag.clone());
    let r = if vm {
        exec_with(&compile_query(q), env, budget)
    } else {
        eval_with(q, env, budget)
    };
    (
        r.map(|(out, stats)| (bytes(&out), stats.steps, stats.items)),
        flag.polls(),
    )
}

/// Runs `q` with a flag fused to trip at poll `n`, returning the outcome
/// and the polls actually taken.
fn run_tripping(
    q: &Query,
    env: &Env,
    budget: Budget,
    n: u64,
    vm: bool,
) -> (Result<(), XqError>, u64) {
    let flag = CancelFlag::tripping_at(n);
    let budget = budget.with_cancel(flag.clone());
    let r = if vm {
        exec_with(&compile_query(q), env, budget)
    } else {
        eval_with(q, env, budget)
    };
    (r.map(|_| ()), flag.polls())
}

/// The differential body: cap-k and trip-at-(k+1) runs abort at the same
/// tick with their distinct errors, identically across engines.
fn assert_cancel_point_is_deterministic(q: &Query, doc: &Tree) {
    let env = Env::with_root(doc.clone());
    let Ok((_, full_steps, _)) =
        eval_with(q, &env, Budget::default()).map(|(out, s)| (out, s.steps, s.items))
    else {
        return; // corpus queries that exceed even the default budget
    };
    let caps = [0, 1, full_steps / 2, full_steps.saturating_sub(1)];
    for cap in caps {
        if cap >= full_steps {
            continue; // a cap that never bites has no abort point
        }
        let tight = Budget {
            max_steps: cap,
            ..Budget::default()
        };
        for vm in [false, true] {
            let engine = if vm { "vm" } else { "interp" };
            // The step cap fails at tick cap+1, having polled cap+1 times.
            let (capped, cap_polls) = run_counted(q, &env, tight.clone(), vm);
            assert_eq!(
                capped.clone().err(),
                Some(XqError::Budget { which: "steps" }),
                "{engine}: cap {cap} must exhaust on {q}"
            );
            assert_eq!(
                cap_polls,
                cap + 1,
                "{engine}: cap {cap} run must stop at tick {} on {q}",
                cap + 1
            );
            // A flag tripping at that same tick cancels at the same
            // point — the same number of polls — with the distinct error.
            let (cancelled, trip_polls) = run_tripping(q, &env, Budget::default(), cap + 1, vm);
            assert_eq!(
                cancelled.err(),
                Some(XqError::Cancelled),
                "{engine}: trip at {} must cancel on {q}",
                cap + 1
            );
            assert_eq!(
                trip_polls, cap_polls,
                "{engine}: cancel and cap must abort at the same tick on {q}"
            );
        }
        // Cross-engine: the abort tick is an engine-independent quantity
        // (both engines share one charge path and one tick placement).
        let (_, interp_polls) = run_tripping(q, &env, Budget::default(), cap + 1, false);
        let (_, vm_polls) = run_tripping(q, &env, Budget::default(), cap + 1, true);
        assert_eq!(
            interp_polls, vm_polls,
            "engines disagree on the abort tick for cap {cap} on {q}"
        );
    }
}

/// The passivity body: carrying a never-tripping flag is invisible —
/// same bytes, same counters as the flagless run — and polls once per
/// step.
fn assert_untripped_flag_is_invisible(q: &Query, doc: &Tree) {
    let env = Env::with_root(doc.clone());
    for vm in [false, true] {
        let engine = if vm { "vm" } else { "interp" };
        let plain = if vm {
            exec_with(&compile_query(q), &env, Budget::default())
        } else {
            eval_with(q, &env, Budget::default())
        }
        .map(|(out, stats)| (bytes(&out), stats.steps, stats.items));
        let (flagged, polls) = run_counted(q, &env, Budget::default(), vm);
        assert_eq!(
            flagged, plain,
            "{engine}: an untripped flag changed the run of {q}"
        );
        if let Ok((_, steps, _)) = plain {
            assert_eq!(polls, steps, "{engine}: one poll per tick on {q}");
        }
    }
}

#[test]
fn cancel_at_tick_k_matches_budget_cap_k_across_engines() {
    for doc in &docs() {
        for q in corpus() {
            assert_cancel_point_is_deterministic(&q, doc);
        }
    }
}

#[test]
fn unset_cancel_flag_is_byte_identical_to_seed_behavior() {
    for doc in &docs() {
        for q in corpus() {
            assert_untripped_flag_is_invisible(&q, doc);
        }
    }
}

/// Deadlines share the abort discipline: an already-expired deadline
/// rejects at the very first tick on both engines, and a generous one is
/// invisible.
#[test]
fn deadlines_abort_deterministically_at_the_first_tick() {
    use std::time::{Duration, Instant};
    let doc = &docs()[0];
    let env = Env::with_root(doc.clone());
    for q in corpus().into_iter().take(8) {
        let expired = Budget::default().with_deadline(Instant::now() - Duration::from_secs(1));
        let want = eval_with(&q, &env, expired.clone());
        let got = exec_with(&compile_query(&q), &env, expired);
        assert_eq!(want.clone().err(), Some(XqError::DeadlineExceeded), "{q}");
        assert_eq!(
            got.err(),
            Some(XqError::DeadlineExceeded),
            "engines disagree on expired deadline for {q}"
        );
        let generous = Budget::default().with_deadline_in(Duration::from_secs(3600));
        let plain = eval_with(&q, &env, Budget::default()).map(|(o, _)| bytes(&o));
        let dl = eval_with(&q, &env, generous).map(|(o, _)| bytes(&o));
        assert_eq!(dl, plain, "a distant deadline changed the run of {q}");
    }
}

/// The weekly full-size pass: a 256-query corpus against bigger random
/// documents. Run explicitly with `cargo test --release -p xq_core --
/// --ignored` (scheduled.yml does).
#[test]
#[ignore = "full-size cancellation differential; runs in the weekly scheduled workflow"]
fn cancel_diff_full_size() {
    let repr = xq_core::DocRepr::from_env();
    let full: Vec<Tree> = (0..2u64)
        .map(|seed| {
            let mut g = TreeGen::new(seed);
            repr.roundtrip(&random_tree(&mut g, 48, &["a", "b", "k"]))
        })
        .collect();
    for doc in &full {
        for q in xq_bench::coverage_corpus(256) {
            assert_cancel_point_is_deterministic(&q, doc);
            assert_untripped_flag_is_invisible(&q, doc);
        }
    }
}
