//! The cancellation differential suite — `vm_diff`'s counterpart for the
//! serving layer's abort paths.
//!
//! Cooperative cancellation is only trustworthy if it is *deterministic*:
//! a request aborted at budget tick `k` must stop at the same evaluation
//! point every time, on every engine. The witness is the
//! [`CancelFlag`] poll counter: `charge_step` polls the flag exactly
//! once per tick (before the deadline and the step cap), so `polls()`
//! after a run names the tick where evaluation stopped. Over the seeded
//! `coverage_corpus` this suite pins, for the interpreter and the VM
//! over the arena (the served route) alike:
//!
//! * **Cap/trip equivalence** — a run with step cap `k` fails
//!   `Budget{steps}` at tick `k+1`, and a run with a flag fused to trip
//!   at poll `k+1` fails `Cancelled` at the *same* tick: same poll
//!   count, engines agree with each other on both.
//! * **Every abort tick** — a flag tripping at any poll `k` gives every
//!   engine the same outcome after the same number of polls.
//! * **Passivity** — a cancel flag that never trips changes nothing:
//!   byte-identical output, identical `EvalStats`, and exactly one poll
//!   per step (the flag is checked at every tick, no more, no fewer).
//!
//! `XQ_RANDOM_CASES` scales the corpus (CI pins 16; local default 64);
//! the `#[ignore]`d full-size variant (weekly `scheduled.yml` run)
//! sweeps a 256-query corpus over bigger documents.

use cv_xtree::{random_tree, ArenaDoc, Tree, TreeGen};
use xq_core::ast::Query;
use xq_core::vm::{compile_query, exec_doc};
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

fn docs() -> Vec<Doc> {
    (0..2u64)
        .map(|seed| Doc::new(&random_tree(&mut TreeGen::new(seed), 10, &["a", "b", "k"])))
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

/// The engines under test: the interpreter, and the VM over the arena
/// document (the served route).
#[derive(Clone, Copy, Debug)]
enum Engine {
    Interp,
    Vm,
}

const ENGINES: [Engine; 2] = [Engine::Interp, Engine::Vm];

/// A document in both forms the engines read.
struct Doc {
    env: Env,
    arena: ArenaDoc,
}

impl Doc {
    fn new(tree: &Tree) -> Doc {
        Doc {
            env: Env::with_root(tree.clone()),
            arena: ArenaDoc::from_tree(tree),
        }
    }
}

impl Engine {
    fn run(self, q: &Query, doc: &Doc, budget: Budget) -> Outcome {
        match self {
            Engine::Interp => eval_with(q, &doc.env, budget),
            Engine::Vm => exec_doc(&compile_query(q), &doc.arena, budget),
        }
        .map(|(out, stats)| (bytes(&out), stats.steps, stats.items))
    }
}

/// Runs `q` on the given engine with a counting (never-tripping) flag,
/// returning the outcome and the number of ticks the run polled.
fn run_counted(q: &Query, doc: &Doc, budget: Budget, engine: Engine) -> (Outcome, u64) {
    let flag = CancelFlag::counting();
    let r = engine.run(q, doc, budget.with_cancel(flag.clone()));
    (r, flag.polls())
}

/// Runs `q` with a flag fused to trip at poll `n`, returning the outcome
/// and the polls actually taken.
fn run_tripping(q: &Query, doc: &Doc, budget: Budget, n: u64, engine: Engine) -> (Outcome, u64) {
    let flag = CancelFlag::tripping_at(n);
    let r = engine.run(q, doc, budget.with_cancel(flag.clone()));
    (r, flag.polls())
}

/// The differential body: cap-k and trip-at-(k+1) runs abort at the same
/// tick with their distinct errors, identically across engines.
fn assert_cancel_point_is_deterministic(q: &Query, doc: &Doc) {
    let Ok((_, full_steps, _)) = Engine::Interp.run(q, doc, Budget::default()) else {
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
        for engine in ENGINES {
            // The step cap fails at tick cap+1, having polled cap+1 times.
            let (capped, cap_polls) = run_counted(q, doc, tight.clone(), engine);
            assert_eq!(
                capped.clone().err(),
                Some(XqError::Budget { which: "steps" }),
                "{engine:?}: cap {cap} must exhaust on {q}"
            );
            assert_eq!(
                cap_polls,
                cap + 1,
                "{engine:?}: cap {cap} run must stop at tick {} on {q}",
                cap + 1
            );
            // A flag tripping at that same tick cancels at the same
            // point — the same number of polls — with the distinct error.
            let (cancelled, trip_polls) = run_tripping(q, doc, Budget::default(), cap + 1, engine);
            assert_eq!(
                cancelled.err(),
                Some(XqError::Cancelled),
                "{engine:?}: trip at {} must cancel on {q}",
                cap + 1
            );
            assert_eq!(
                trip_polls, cap_polls,
                "{engine:?}: cancel and cap must abort at the same tick on {q}"
            );
        }
    }
}

/// Every abort tick: a flag tripping at poll `k`, for every `k` up to
/// one past the full run, gives every engine the same outcome after the
/// same number of polls — the abort tick is an engine-independent
/// quantity (all engines share one charge path and one tick placement).
fn assert_every_trip_point_agrees(q: &Query, doc: &Doc) {
    let (_, polls) = run_counted(q, doc, Budget::default(), Engine::Interp);
    for k in 1..=polls + 1 {
        let want = run_tripping(q, doc, Budget::default(), k, Engine::Interp);
        let got = run_tripping(q, doc, Budget::default(), k, Engine::Vm);
        assert_eq!(got, want, "trip at {k} on {q}");
    }
}

/// The passivity body: carrying a never-tripping flag is invisible —
/// same bytes, same counters as the flagless run — and polls once per
/// step.
fn assert_untripped_flag_is_invisible(q: &Query, doc: &Doc) {
    for engine in ENGINES {
        let plain = engine.run(q, doc, Budget::default());
        let (flagged, polls) = run_counted(q, doc, Budget::default(), engine);
        assert_eq!(
            flagged, plain,
            "{engine:?}: an untripped flag changed the run of {q}"
        );
        if let Ok((_, steps, _)) = plain {
            assert_eq!(polls, steps, "{engine:?}: one poll per tick on {q}");
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
fn every_trip_point_agrees_across_engines() {
    for doc in &docs() {
        for q in corpus() {
            assert_every_trip_point_agrees(&q, doc);
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

/// Loops whose lists the VM merges in place on its value stack, and
/// constructors its per-run memo may answer with the tree it built last
/// (the texts of `vm::exec`'s `CONSTRUCTOR_LOOPS` sweep).
const CONSTRUCTOR_LOOPS: [&str; 16] = [
    "for $x in $root//* return for $y in $x/* return <k/>",
    "for $x in $root/* return for $y in $root//* return <x>{ <k/> }</x>",
    "for $v0 in $root//* return if (not($v0 =atomic <a/>)) then \
     for $v1 in $root/dos::* return <k/>",
    "for $v0 in (($root//*)//a)/* return (<x>{ <k/> }</x>, \
     for $v1 in $root/dos::b return $v1/a)",
    "for $v in $root//* return <w>{ $v }</w>",
    "for $x in $root/* return for $y in $x/* return <w>{ ($x, $y, <k/>) }</w>",
    "for $x in $root/* return let $z := <a><b/><c><b/></c></a> return \
     for $y in $z//* return <m>{ $y }</m>",
    "let $w := <w>{ $root/* }</w> return for $x in $root/* return <m>{ $w/* }</m>",
    "for $x in $root/* return ($x, <k/>, $x/*)",
    "for $x in $root//* return ()",
    "for $x in $root//* return for $y in $x/zzz return <k/>",
    "<e>{ for $x in $root/* return () }</e>",
    "for $x in $root//* return if (every $y in $x/* satisfies $y =atomic <b/>) then <all/>",
    "for $x in $root/* return \
     if (some $y in $x//* satisfies ($y =atomic <b/> and $y/c)) then <hit>{ $x }</hit>",
    "if (some $y in $root/* satisfies for $z in $y/* return <k/>) then <hit/>",
    "for $x in $root/* return \
     if (every $y in $x/* satisfies for $w in $y/* return <k/>) then <all>{ $x }</all>",
];

#[test]
fn constructor_loops_cancel_deterministically() {
    for doc in &docs() {
        for src in CONSTRUCTOR_LOOPS {
            let q = xq_core::parse_query(src).unwrap();
            assert_cancel_point_is_deterministic(&q, doc);
            assert_every_trip_point_agrees(&q, doc);
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
    for q in corpus().into_iter().take(8) {
        let expired = Budget::default().with_deadline(Instant::now() - Duration::from_secs(1));
        for engine in ENGINES {
            assert_eq!(
                engine.run(&q, doc, expired.clone()).err(),
                Some(XqError::DeadlineExceeded),
                "{engine:?}: expired deadline on {q}"
            );
        }
        let generous = Budget::default().with_deadline_in(Duration::from_secs(3600));
        let plain = eval_with(&q, &doc.env, Budget::default()).map(|(o, _)| bytes(&o));
        let dl = eval_with(&q, &doc.env, generous).map(|(o, _)| bytes(&o));
        assert_eq!(dl, plain, "a distant deadline changed the run of {q}");
    }
}

/// The weekly full-size pass: a 256-query corpus against bigger random
/// documents. Run explicitly with `cargo test --release -p xq_core --
/// --ignored` (scheduled.yml does).
#[test]
#[ignore = "full-size cancellation differential; runs in the weekly scheduled workflow"]
fn cancel_diff_full_size() {
    let full: Vec<Doc> = (0..2u64)
        .map(|seed| Doc::new(&random_tree(&mut TreeGen::new(seed), 48, &["a", "b", "k"])))
        .collect();
    for doc in &full {
        for q in xq_bench::coverage_corpus(256) {
            assert_cancel_point_is_deterministic(&q, doc);
            assert_untripped_flag_is_invisible(&q, doc);
        }
    }
}
