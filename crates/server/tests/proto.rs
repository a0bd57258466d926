//! Protocol golden tests and the malformed-frame fuzz loop.
//!
//! The golden half pins the wire conversation byte-for-byte: a fixed
//! script of frames (ok / parse error / eval error / unknown doc /
//! bad request / overload / deadline / cancel) runs against live
//! servers and the full `>`/`<` transcript must match
//! `tests/golden/proto.golden`. Regenerate after an intentional
//! protocol change with
//!
//! ```text
//! XQ_UPDATE_GOLDEN=1 cargo test -p xq_server --test proto
//! ```
//!
//! and review the diff like any other code change.
//!
//! The fuzz half throws seeded-splitmix64 garbage at a live server —
//! random bytes, mutated frames, truncations, raw control characters —
//! and holds the crate's totality promise: the server never panics,
//! answers every line it can read (or drops the connection on invalid
//! UTF-8, which counts as shedding), and keeps serving fresh
//! connections afterwards.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use cv_xtree::{parse_tree, ArenaDoc, TreeGen};
use xq_core::{Budget, Threads};
use xq_server::{RateLimit, Server, ServerConfig};

/// The fixed golden document: small, hand-written, engine-independent.
fn golden_docs() -> HashMap<String, Arc<ArenaDoc>> {
    let tree = parse_tree("<r><a/><b><k/></b><k/></r>").unwrap();
    let mut docs = HashMap::new();
    docs.insert("d0".to_string(), Arc::new(ArenaDoc::from_tree(&tree)));
    docs
}

/// A line-oriented test client with a read timeout (so a protocol bug
/// fails the test instead of hanging it).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches('\n').to_string()
    }
}

/// One golden scenario: a named server setup plus a scripted exchange.
/// `send` lines are written verbatim; after each, the listed number of
/// response lines is read. The transcript records both directions.
fn run_script(transcript: &mut String, title: &str, server: &Server, script: &[(&str, usize)]) {
    transcript.push_str(&format!("=== {title} ===\n"));
    let mut client = Client::connect(server);
    for (line, replies) in script {
        transcript.push_str(&format!("> {line}\n"));
        client.send(line);
        for _ in 0..*replies {
            let got = client.recv();
            transcript.push_str(&format!("< {got}\n"));
        }
    }
}

/// Builds the full golden transcript across the scenario servers.
fn render_transcript() -> String {
    let mut t = String::new();

    // Plain server: happy path and the per-frame error codes.
    let basic = Server::start(ServerConfig {
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    run_script(
        &mut t,
        "basic",
        &basic,
        &[
            (r#"{"op":"hello","tenant":"acme"}"#, 1),
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (
                r#"{"op":"query","id":2,"doc":"d0","query":"<out>{ $root//k }</out>"}"#,
                1,
            ),
            (r#"{"op":"query","id":3,"doc":"d0","query":"for $x in"}"#, 1),
            (r#"{"op":"query","id":4,"doc":"d0","query":"$nope"}"#, 1),
            (
                r#"{"op":"query","id":5,"doc":"missing","query":"$root"}"#,
                1,
            ),
            (r#"{"op":"query","doc":"d0","query":"$root"}"#, 1),
            (r#"{"op":"flush"}"#, 1),
            (r#"{"op":"query","id":6,"#, 1),
            (r#"not json at all"#, 1),
            (r#"{"op":"query","id":7,"doc":"d0","query":"$root/b/k"}"#, 1),
        ],
    );

    // Zero-capacity server: every query is shed at admission.
    let overloaded = Server::start(ServerConfig {
        queue_capacity: 0,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    run_script(
        &mut t,
        "overload (queue_capacity=0)",
        &overloaded,
        &[
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (r#"{"op":"query","id":2,"doc":"d0","query":"<x/>"}"#, 1),
        ],
    );

    // Deadline: deadline_ms=0 is expired by its first budget tick.
    run_script(
        &mut t,
        "deadline (deadline_ms=0)",
        &basic,
        &[(
            r#"{"op":"query","id":1,"doc":"d0","query":"$root/*","deadline_ms":0}"#,
            1,
        )],
    );

    // Cancellation: the "slow" tenant gets an effectively unlimited
    // budget and a query whose full run is astronomically long (3^20
    // loop iterations), so the cancel frame always lands mid-run. The
    // ack is written before the flag is set, so the order ack-then-
    // cancelled is deterministic.
    let mut tenants = HashMap::new();
    tenants.insert(
        "slow".to_string(),
        Budget {
            max_steps: u64::MAX,
            max_items: u64::MAX,
            threads: Threads::One,
            ..Budget::default()
        },
    );
    let cancel_server = Server::start(ServerConfig {
        tenants,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let nested: String = (1..=20)
        .map(|i| format!("for $v{i} in $root//* return "))
        .collect::<String>()
        + "<t/>";
    let query_frame = format!(r#"{{"op":"query","id":1,"doc":"d0","query":"{nested}"}}"#);
    run_script(
        &mut t,
        "cancel (tenant quota, in-flight abort)",
        &cancel_server,
        &[
            (r#"{"op":"hello","tenant":"slow"}"#, 1),
            (query_frame.as_str(), 0),
            // A second query reusing the in-flight id is rejected
            // outright (it used to clobber the first's cancel-flag
            // registration); the original query and its flag are
            // untouched, so the cancel below still lands.
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (r#"{"op":"cancel","id":1}"#, 2),
        ],
    );

    // Rate limit: tenant "acme" gets a two-token bucket that never
    // refills (per_sec=0), so exactly the first two queries are served
    // and the third answers `rate_limited` — deterministically, because
    // refusals flow through the same ordered FIFO as results.
    let mut rates = HashMap::new();
    rates.insert(
        "acme".to_string(),
        RateLimit {
            per_sec: 0.0,
            burst: 2,
        },
    );
    let limited = Server::start(ServerConfig {
        rates,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    run_script(
        &mut t,
        "rate limit (acme: burst 2, no refill)",
        &limited,
        &[
            (r#"{"op":"hello","tenant":"acme"}"#, 1),
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (r#"{"op":"query","id":2,"doc":"d0","query":"<x/>"}"#, 1),
            (r#"{"op":"query","id":3,"doc":"d0","query":"$root/b"}"#, 1),
        ],
    );

    // Rate limit with a refilling bucket: the refusal carries a
    // `retry_after_ms` hint of one token's refill time —
    // ceil(1000 / 0.01) = 100000 ms, slow enough that no CI stall can
    // refill the bucket mid-scenario and perturb the transcript.
    let mut rates = HashMap::new();
    rates.insert(
        "acme".to_string(),
        RateLimit {
            per_sec: 0.01,
            burst: 1,
        },
    );
    let hinted = Server::start(ServerConfig {
        rates,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    run_script(
        &mut t,
        "rate limit retry hint (acme: burst 1, 0.01/s)",
        &hinted,
        &[
            (r#"{"op":"hello","tenant":"acme"}"#, 1),
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (r#"{"op":"query","id":2,"doc":"d0","query":"<x/>"}"#, 1),
        ],
    );

    // Fault injection: a certain worker-panic is contained by the
    // pool's unwind fence and answered `internal_error` — the panic
    // message is fixed by the injection, so the frame is deterministic.
    let panicky = Server::start(ServerConfig {
        docs: golden_docs(),
        faults: Some(Arc::new(
            xq_core::Faults::from_spec("worker-panic=1", 2005).unwrap(),
        )),
        ..ServerConfig::default()
    })
    .unwrap();
    run_script(
        &mut t,
        "fault injection (worker-panic=1)",
        &panicky,
        &[
            (r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#, 1),
            (r#"{"op":"query","id":2,"doc":"d0","query":"<x/>"}"#, 1),
        ],
    );

    t
}

#[test]
fn protocol_matches_the_golden_transcript() {
    let got = render_transcript();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/proto.golden");
    if std::env::var_os("XQ_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — run with XQ_UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "wire protocol drifted from tests/golden/proto.golden; \
         if intentional, regenerate with XQ_UPDATE_GOLDEN=1"
    );
}

/// Disconnecting mid-evaluation cancels the in-flight request: the
/// server-side cancelled counter ticks up even though no response can be
/// delivered — the abandoned work stops within one budget tick.
#[test]
fn disconnect_cancels_in_flight_work() {
    let mut tenants = HashMap::new();
    tenants.insert(
        "slow".to_string(),
        Budget {
            max_steps: u64::MAX,
            max_items: u64::MAX,
            ..Budget::default()
        },
    );
    let server = Server::start(ServerConfig {
        workers: 1,
        tenants,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let nested: String = (1..=20)
        .map(|i| format!("for $v{i} in $root//* return "))
        .collect::<String>()
        + "<t/>";
    let mut client = Client::connect(&server);
    client.send(r#"{"op":"hello","tenant":"slow"}"#);
    let _ = client.recv();
    client.send(&format!(
        r#"{{"op":"query","id":1,"doc":"d0","query":"{nested}"}}"#
    ));
    // Give the pool a moment to pick the query up, then vanish.
    std::thread::sleep(Duration::from_millis(100));
    drop(client);
    // The cancelled counter must tick as the abandoned run aborts; the
    // worker must come back (a fresh request is served promptly).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server
        .stats()
        .cancelled
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "abandoned request was never cancelled"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut probe = Client::connect(&server);
    probe.send(r#"{"op":"query","id":9,"doc":"d0","query":"$root/*"}"#);
    let resp = probe.recv();
    assert!(
        resp.contains(r#""ok":true"#),
        "pool wedged after disconnect: {resp}"
    );
}

/// A deep query text used to overflow a worker's stack — an abort that
/// took the whole server down, since no unwind fence catches it. A
/// 40 KB path of 20,000 steps (well under the frame size limit) now
/// answers `parse`, and the same connection keeps being served.
#[test]
fn deep_query_is_a_parse_error_and_the_server_keeps_serving() {
    let server = Server::start(ServerConfig {
        workers: 1,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let deep = format!("$root{}", "/a".repeat(20_000));
    assert!(deep.len() > 40_000);
    let mut client = Client::connect(&server);
    client.send(&format!(
        r#"{{"op":"query","id":1,"doc":"d0","query":"{deep}"}}"#
    ));
    let resp = client.recv();
    assert!(
        resp.contains(r#""ok":false"#) && resp.contains(r#""code":"parse""#),
        "deep query not answered as a parse error: {resp}"
    );
    assert!(resp.contains("nests deeper"), "{resp}");
    client.send(r#"{"op":"query","id":2,"doc":"d0","query":"$root/*"}"#);
    let resp = client.recv();
    assert!(
        resp.contains(r#""ok":true"#),
        "server stopped serving after a deep query: {resp}"
    );
}

/// Regression for the PR 8 cancel-registry bugfix: a duplicate query id
/// used to `insert` over the first request's cancel flag, and the
/// duplicate's completion then `remove`d the registration, leaving the
/// still-running original uncancellable. Now the duplicate is rejected
/// with `bad_request` and the original's cancel still lands.
#[test]
fn duplicate_id_is_rejected_and_does_not_clobber_cancellation() {
    let mut tenants = HashMap::new();
    tenants.insert(
        "slow".to_string(),
        Budget {
            max_steps: u64::MAX,
            max_items: u64::MAX,
            threads: Threads::One,
            ..Budget::default()
        },
    );
    let server = Server::start(ServerConfig {
        workers: 1,
        tenants,
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let nested: String = (1..=20)
        .map(|i| format!("for $v{i} in $root//* return "))
        .collect::<String>()
        + "<t/>";
    let mut client = Client::connect(&server);
    client.send(r#"{"op":"hello","tenant":"slow"}"#);
    let _ = client.recv();
    client.send(&format!(
        r#"{{"op":"query","id":1,"doc":"d0","query":"{nested}"}}"#
    ));
    // Wait for the original to be picked up, so the duplicate arrives
    // while it is genuinely in flight.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.in_flight() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "query was never picked up"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    client.send(r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#);
    let dup = client.recv();
    assert!(
        dup.contains(r#""code":"bad_request""#) && dup.contains("already in flight"),
        "duplicate id was not rejected: {dup}"
    );
    // Pre-fix, this cancel would no-op (the registration was clobbered
    // then stripped) and the recv below would hang until the timeout.
    client.send(r#"{"op":"cancel","id":1}"#);
    let ack = client.recv();
    assert!(
        ack.contains(r#""op":"cancel""#),
        "missing cancel ack: {ack}"
    );
    let resp = client.recv();
    assert!(
        resp.contains(r#""code":"cancelled""#),
        "original query was not cancelled: {resp}"
    );
}

/// Seeded garbage generator for the fuzz loop: random mutations of a
/// valid frame, random ASCII, random bytes (possibly invalid UTF-8).
fn garbage(g: &mut TreeGen) -> Vec<u8> {
    const VALID: &str = r#"{"op":"query","id":7,"doc":"d0","query":"$root/*","deadline_ms":50}"#;
    match g.below(4) {
        // Mutate a valid frame: flip, delete, or insert a few bytes.
        0 => {
            let mut b = VALID.as_bytes().to_vec();
            for _ in 0..=g.below(4) {
                if b.is_empty() {
                    break;
                }
                let i = g.below(b.len());
                match g.below(3) {
                    0 => b[i] = (g.next_u64() % 256) as u8,
                    1 => {
                        b.remove(i);
                    }
                    _ => b.insert(i, (g.next_u64() % 128) as u8),
                }
            }
            b
        }
        // Truncate a valid frame.
        1 => VALID.as_bytes()[..g.below(VALID.len())].to_vec(),
        // Random printable ASCII with JSON punctuation bias.
        2 => {
            let alphabet = br#"{}[]":,abtfn0 "#;
            (0..g.below(60)).map(|_| *g.choose(alphabet)).collect()
        }
        // Raw random bytes (newline excluded so each case is one line).
        _ => (0..g.below(40))
            .map(|_| match (g.next_u64() % 256) as u8 {
                b'\n' => b' ',
                b => b,
            })
            .collect(),
    }
}

/// The fuzz loop: every line is either answered or the connection is
/// dropped (invalid UTF-8) — never a hang, never a panic, and the
/// server serves fresh connections afterwards.
#[test]
fn malformed_frames_never_kill_the_server() {
    let server = Server::start(ServerConfig {
        docs: golden_docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut g = TreeGen::new(0x5eed_2005);
    let cases: usize = std::env::var("XQ_RANDOM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    for _ in 0..cases * 4 {
        let line = garbage(&mut g);
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Writes tolerate failure: garbage that makes the server drop
        // the connection (invalid UTF-8) races our next write into a
        // broken pipe, which is exactly the "shed" outcome.
        let mut w = &stream;
        let _ = w.write_all(&line);
        let _ = w.write_all(b"\n");
        // A sentinel the server must still answer if the garbage didn't
        // (legitimately) drop the connection.
        let _ = w.write_all(br#"{"op":"hello","tenant":"t"}"#);
        let _ = w.write_all(b"\n");
        // Half-close: the server sees EOF after our two lines.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut all = String::new();
        let mut reader = BufReader::new(stream);
        // Read to EOF: the server answers what it accepted, then closes.
        let _ = reader.read_to_string(&mut all);
        if !all.is_empty() {
            assert!(
                all.ends_with('\n'),
                "partial response line for {line:?}: {all:?}"
            );
            for resp in all.lines() {
                assert!(
                    xq_server::Frame::parse(resp).is_ok(),
                    "server emitted an unparseable frame: {resp:?}"
                );
            }
        }
    }
    // The server survived all of it.
    let mut probe = Client::connect(&server);
    probe.send(r#"{"op":"query","id":1,"doc":"d0","query":"$root/*"}"#);
    let resp = probe.recv();
    assert!(
        resp.contains(r#""ok":true"#),
        "server wedged after fuzzing: {resp}"
    );
}
