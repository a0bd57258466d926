//! The chaos soak: pipelined clients against a live reactor server
//! while the seeded fault registry injects worker panics, dropped
//! completions, evaluation delays, and admission refusals.
//!
//! The contracts under fault:
//!
//! * **Zero lost or duplicated responses** — every query id gets exactly
//!   one answer, in pipeline order, whatever faults fired around it.
//! * **Closed outcome vocabulary** — every answer is `ok`,
//!   `internal_error`, or `overloaded`; faults never leak as hangs,
//!   malformed frames, or dropped connections.
//! * **Self-healing** — workers lost to injected crashes are respawned;
//!   the pool is back at full strength by the end of the soak.
//! * **Gauge integrity** — `queued`/`in_flight` both return to zero; a
//!   leaked admission slot would starve later admissions.
//! * **Replayability** — the same `(spec, seed)` drives the same fault
//!   decisions: under a deterministic schedule the entire outcome
//!   sequence is identical run over run.
//!
//! The default soak is sized for CI; the `#[ignore]`d randomized soak
//! (run by the scheduled workflow) turns the volume up and takes its
//! seed from `XQ_CHAOS_SEED` or the clock, printing it for replay.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cv_xtree::{parse_tree, ArenaDoc};
use xq_core::Faults;
use xq_server::{Server, ServerConfig};

/// The soak spec: every fault point engaged at once.
const SOAK_SPEC: &str =
    "worker-panic=0.08,completion-drop=0.04,slow-eval=0.3@1,submit-refusal=0.05";
const SOAK_SEED: u64 = 0xC0FFEE;

fn docs() -> HashMap<String, Arc<ArenaDoc>> {
    let tree = parse_tree("<r><a/><b><k/></b><k/></r>").unwrap();
    let mut m = HashMap::new();
    m.insert("d0".to_string(), Arc::new(ArenaDoc::from_tree(&tree)));
    m
}

fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One pipelined client: fire `count` queries, then read exactly
/// `count` answers and check ids arrive in submission order with an
/// allowed code. Returns the outcome transcript, one byte per query:
/// `o` (ok), `i` (internal_error), `s` (overloaded).
fn pipelined_conn(server: &Server, count: u64) -> String {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut w = &stream;
    for id in 1..=count {
        let line = format!(r#"{{"op":"query","id":{id},"doc":"d0","query":"$root/*"}}"#);
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
    }
    w.flush().unwrap();
    let mut reader = BufReader::new(&stream);
    let mut transcript = String::with_capacity(count as usize);
    for id in 1..=count {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed before id {id} answered");
        let frame = xq_server::Frame::parse(line.trim_end()).expect("well-formed frame");
        assert_eq!(
            frame.get_uint("id"),
            Some(id),
            "responses out of order (or lost/duplicated): {line:?}"
        );
        if frame.get_bool("ok") == Some(true) {
            transcript.push('o');
            continue;
        }
        match frame.get_str("code") {
            Some("internal_error") => transcript.push('i'),
            Some("overloaded") => {
                // Injected submit-refusals must still carry the real
                // shed shape, retry hint included.
                assert!(frame.get_uint("retry_after_ms").is_some());
                transcript.push('s');
            }
            other => panic!("unexpected code {other:?} in {line:?}"),
        }
    }
    transcript
}

/// Runs one soak: `conns` sequential pipelined connections of `per_conn`
/// queries against a faulted server; asserts the integrity contracts and
/// returns the concatenated outcome transcript for replay comparison.
fn run_soak(spec: &str, seed: u64, workers: usize, conns: usize, per_conn: u64) -> String {
    let total = conns as u64 * per_conn;
    let server = Server::start(ServerConfig {
        workers,
        docs: docs(),
        faults: Some(Arc::new(Faults::from_spec(spec, seed).unwrap())),
        // Every query can in principle kill a worker (completion-drop);
        // the soak's self-healing contract needs budget to cover that.
        restart_budget: total as u32,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut transcript = String::new();
    for _ in 0..conns {
        transcript.push_str(&pipelined_conn(&server, per_conn));
    }
    let count = |c| transcript.bytes().filter(|&b| b == c).count() as u64;
    let (ok, internal, shed) = (count(b'o'), count(b'i'), count(b's'));
    assert_eq!(ok + internal + shed, total, "every query answered once");
    // The server-side counters agree with the client-side tally.
    let stats = server.stats();
    assert_eq!(
        stats.served.load(std::sync::atomic::Ordering::Relaxed),
        ok,
        "served counter"
    );
    assert_eq!(
        stats
            .internal_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        internal,
        "internal_errors counter"
    );
    assert_eq!(
        stats.shed.load(std::sync::atomic::Ordering::Relaxed),
        shed,
        "shed counter"
    );
    // Gauge integrity + self-healing, then a clean drain.
    wait_for("gauges back to zero", || {
        server.queue_depth() == 0 && server.in_flight() == 0
    });
    wait_for("pool back to full strength", || {
        server.alive_workers() == workers
    });
    let mut server = server;
    server.shutdown();
    transcript
}

#[test]
fn seeded_soak_holds_every_integrity_contract() {
    let t = run_soak(SOAK_SPEC, SOAK_SEED, 3, 4, 30);
    // The pinned seed is chosen to actually exercise the machinery: the
    // soak must contain real failures, not coast through a lucky run.
    assert!(t.contains('i'), "no injected failure surfaced ({t})");
    assert!(t.contains('s'), "no injected refusal surfaced ({t})");
    assert!(t.contains('o'), "everything failed — spec miscalibrated");
}

#[test]
fn seeded_soak_replays_exactly_under_a_deterministic_schedule() {
    // One worker + one connection at a time ⇒ draws happen in a fixed
    // order, so two runs with the same (spec, seed) must agree not just
    // statistically but *exactly*, outcome by outcome.
    let a = run_soak(SOAK_SPEC, SOAK_SEED, 1, 1, 60);
    let b = run_soak(SOAK_SPEC, SOAK_SEED, 1, 1, 60);
    assert_eq!(a, b, "same seed, same faults, same outcome transcript");
    let c = run_soak(SOAK_SPEC, SOAK_SEED + 1, 1, 1, 60);
    assert_ne!(a, c, "a different seed explores a different failure path");
}

/// The long randomized soak for the scheduled workflow: a fresh seed per
/// run (printed for replay via `XQ_FAULT_SEED`/`XQ_CHAOS_SEED`), more
/// traffic, every contract still held.
#[test]
#[ignore = "long-running; exercised by the scheduled workflow"]
fn randomized_seed_soak() {
    let seed = std::env::var("XQ_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos() as u64
        });
    println!("chaos seed: {seed} (replay with XQ_CHAOS_SEED={seed})");
    let t = run_soak(SOAK_SPEC, seed, 3, 8, 200);
    let count = |c| t.bytes().filter(|&b| b == c).count();
    println!(
        "ok={} internal={} shed={}",
        count(b'o'),
        count(b'i'),
        count(b's')
    );
    // With 1600 queries the engaged spec makes a zero-failure run
    // astronomically unlikely under any seed.
    assert!(t.contains('o'), "seed {seed}: everything failed");
    assert!(
        count(b'i') + count(b's') > 0,
        "seed {seed}: no fault fired across 1600 queries"
    );
}
