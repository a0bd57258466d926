//! Fault-containment contracts for the supervised pool, driven through
//! the seeded registry in `xq_core::fault`:
//!
//! * a panicking evaluation is *contained* — answered
//!   [`ServiceError::Internal`] with the worker surviving;
//! * a worker lost mid-delivery is *replaced* — the supervisor joins the
//!   corpse and respawns under its restart budget;
//! * a pool that exhausts the budget *degrades* — every job still gets
//!   an answer, nothing hangs;
//! * every gauge (`queued`/`in_flight`) returns to zero on every one of
//!   those paths — the RAII-guard regression suite;
//! * an injected admission refusal sheds `run_batch` requests in
//!   position, before any worker sees them, replayably under a seed.

use std::sync::Arc;
use std::time::{Duration, Instant};
use xq_core::{Faults, PoolConfig, QueryService, Request, ServiceError};

use cv_xtree::{parse_tree, ArenaDoc};

fn doc() -> Arc<ArenaDoc> {
    Arc::new(ArenaDoc::from_tree(
        &parse_tree("<r><a/><b><k/></b><k/></r>").unwrap(),
    ))
}

fn service_with(spec: &str, seed: u64, workers: usize) -> QueryService {
    QueryService::with_config(PoolConfig {
        workers,
        faults: Some(Arc::new(Faults::from_spec(spec, seed).unwrap())),
        ..PoolConfig::default()
    })
}

/// Spins until `probe` holds (schedule-independent waiting).
fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn gauges_zero(service: &QueryService) -> bool {
    service.queue_depth() == 0 && service.in_flight() == 0
}

#[test]
fn contained_panic_answers_internal_and_keeps_the_worker() {
    let d = doc();
    // Exactly the first two evaluations panic; the pool must answer
    // them `Internal` and serve the rest normally, with no worker lost.
    let service = service_with("worker-panic=1x2", 7, 2);
    let got = service.run_batch((0..4).map(|_| Request::new("$root/*", d.clone())).collect());
    let internal = got
        .iter()
        .filter(|r| matches!(r, Err(ServiceError::Internal(_))))
        .count();
    let ok = got.iter().filter(|r| r.is_ok()).count();
    assert_eq!((internal, ok), (2, 2), "got {got:?}");
    assert_eq!(service.contained_panics(), 2);
    assert_eq!(service.worker_deaths(), 0, "the fence held: nobody died");
    assert_eq!(service.restarts(), 0);
    assert_eq!(service.alive_workers(), 2);
    wait_for("gauges settle", || gauges_zero(&service));
}

#[test]
fn internal_answers_carry_the_panic_message() {
    let d = doc();
    let service = service_with("worker-panic=1x1", 7, 1);
    let got = service.run_batch(vec![Request::new("$root/*", d)]);
    match &got[0] {
        Err(ServiceError::Internal(m)) => {
            assert!(m.contains("injected fault: worker-panic"), "message: {m}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
}

#[test]
fn crashed_worker_is_respawned_and_the_job_still_answered() {
    let d = doc();
    // completion-drop panics *outside* the unwind fence, mid-delivery:
    // the worker thread dies. The Delivery guard's destructor must still
    // answer the job, and the supervisor must bring the pool back to
    // strength.
    let service = service_with("completion-drop=1x1", 7, 2);
    let got = service.run_batch(vec![Request::new("$root/*", d.clone())]);
    assert!(
        matches!(&got[0], Err(ServiceError::Internal(m)) if m.contains("abandoned")),
        "the dying worker's job must be answered: {:?}",
        got[0]
    );
    // The Delivery guard answers from the unwinding thread *before* the
    // death sentinel runs, so the reply can beat the counter — wait.
    wait_for("death observed and worker respawned", || {
        service.worker_deaths() == 1 && service.restarts() == 1 && service.alive_workers() == 2
    });
    // The healed pool serves normally.
    let got = service.run_batch(vec![Request::new("$root/*", d)]);
    assert!(got[0].is_ok());
    wait_for("gauges settle", || gauges_zero(&service));
}

#[test]
fn exhausted_restart_budget_degrades_instead_of_hanging() {
    let d = doc();
    // Every delivery kills its worker; with 1 worker and a budget of 2
    // respawns, the third death leaves nobody — the supervisor must
    // switch to answering jobs itself rather than letting callers hang.
    let service = QueryService::with_config(PoolConfig {
        workers: 1,
        faults: Some(Arc::new(Faults::from_spec("completion-drop=1", 7).unwrap())),
        restart_budget: 2,
    });
    let got = service.run_batch((0..6).map(|_| Request::new("$root/*", d.clone())).collect());
    assert_eq!(got.len(), 6, "every job answered, none hang");
    for r in &got {
        assert!(
            matches!(r, Err(ServiceError::Internal(_))),
            "collapsed pool answers Internal: {r:?}"
        );
    }
    assert_eq!(service.worker_deaths(), 3, "1 original + 2 respawns died");
    assert_eq!(service.restarts(), 2, "budget spent exactly");
    assert_eq!(service.alive_workers(), 0);
    wait_for("gauges settle", || gauges_zero(&service));
    // Drop must not hang either: the supervisor's degraded drain exits
    // when the job channel closes.
    drop(service);
}

#[test]
fn admission_slot_survives_neither_panic_nor_worker_death() {
    let d = doc();
    // The RAII regression: a worker dying between admit() and
    // completion used to leak the admission slot forever, shrinking the
    // pool's effective capacity with every crash. With capacity 1, one
    // leak would make every later run_batch shed.
    let service = QueryService::with_config(PoolConfig {
        workers: 1,
        faults: Some(Arc::new(
            // The first request hits *both* leak paths at once: its
            // evaluation panics (contained), and the delivery of that
            // Internal answer then panics too, killing the worker.
            Faults::from_spec("worker-panic=1x1,completion-drop=1x1", 7).unwrap(),
        )),
        ..PoolConfig::default()
    })
    .with_queue_capacity(1);
    for (round, expect) in ["panic+death", "healthy", "healthy"].iter().enumerate() {
        wait_for("pool ready", || service.alive_workers() == 1);
        let got = service.run_batch(vec![Request::new("$root/*", d.clone())]);
        assert!(
            !matches!(got[0], Err(ServiceError::Overloaded)),
            "round {round} ({expect}): a leaked slot would shed here: {:?}",
            got[0]
        );
        match *expect {
            "healthy" => assert!(got[0].is_ok(), "round {round}: {:?}", got[0]),
            _ => assert!(matches!(got[0], Err(ServiceError::Internal(_)))),
        }
        wait_for("admission slot released", || gauges_zero(&service));
    }
    assert_eq!(service.contained_panics(), 1);
    assert_eq!(service.worker_deaths(), 1);
    wait_for("worker respawned", || {
        service.restarts() == 1 && service.alive_workers() == 1
    });
}

#[test]
fn slow_eval_fault_delays_measurably() {
    let d = doc();
    let service = service_with("slow-eval=1@40", 7, 1);
    let start = Instant::now();
    let got = service.run_batch(vec![
        Request::new("$root/*", d.clone()),
        Request::new("$root/*", d),
    ]);
    assert!(got.iter().all(Result::is_ok));
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(80),
        "two injected 40ms delays on one worker, finished in {elapsed:?}"
    );
}

#[test]
fn same_seed_replays_the_same_outcome_sequence() {
    let d = doc();
    // One worker + sequential submission ⇒ fault draws happen in job
    // order, so the per-request outcome sequence is a pure function of
    // (spec, seed) — the replayability contract chaos debugging needs.
    let spec = "worker-panic=0.3,slow-eval=0.2@1";
    let outcomes = |seed: u64| -> Vec<bool> {
        let service = service_with(spec, seed, 1);
        (0..40)
            .map(|_| {
                let got = service.run_batch(vec![Request::new("$root/*", d.clone())]);
                got[0].is_ok()
            })
            .collect()
    };
    let a = outcomes(2005);
    let b = outcomes(2005);
    assert_eq!(a, b, "identical seed must replay identically");
    assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok));
    let c = outcomes(9999);
    assert_ne!(a, c, "a different seed should explore a different path");
}

#[test]
fn certain_submit_refusal_sheds_every_batch_slot_in_position() {
    let d = doc();
    // Every admission refused: each slot answers `Overloaded` where it
    // was submitted and nothing reaches a worker — a certain
    // `worker-panic` would be contained (and counted) if anything did.
    let service = service_with("submit-refusal=1,worker-panic=1", 7, 2);
    let got = service.run_batch((0..5).map(|_| Request::new("$root/*", d.clone())).collect());
    assert_eq!(got, vec![Err(ServiceError::Overloaded); 5]);
    assert!(gauges_zero(&service), "refused requests hold no gauge");
    assert_eq!(
        service.contained_panics(),
        0,
        "no worker evaluated anything"
    );
}

#[test]
fn seeded_submit_refusal_sheds_the_same_positions_on_fresh_services() {
    let d = doc();
    let shed_positions = || -> Vec<usize> {
        let service = service_with("submit-refusal=0.5", 2005, 2);
        let got = service.run_batch(
            (0..40)
                .map(|_| Request::new("$root/*", d.clone()))
                .collect(),
        );
        assert!(got
            .iter()
            .all(|r| r.is_ok() || *r == Err(ServiceError::Overloaded)));
        (0..got.len())
            .filter(|&i| got[i] == Err(ServiceError::Overloaded))
            .collect()
    };
    let a = shed_positions();
    assert_eq!(a, shed_positions(), "identical seed must shed identically");
    assert!(
        !a.is_empty() && a.len() < 40,
        "a coin flip sheds some, not all: {a:?}"
    );
}
