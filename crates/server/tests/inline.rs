//! The inline route over live sockets: every single-threaded request
//! starts on the reactor thread, and only what a bounded run proves
//! heavy reaches the pool.
//!
//! * **Routing** — a cheap request is answered inline (the `inline`
//!   counter) on its first sighting and every repeat, byte-for-byte as
//!   the pool answers it, on a plan-cache miss and on a document built
//!   afresh too; an expensive pair escalates once (the `escalated`
//!   counter) and then goes straight to the pool, and a threaded tenant
//!   always goes to the pool.
//! * **Ordering** — on one pipelined connection, cheap requests queued
//!   behind a slow pool request wait for it and answer in id order,
//!   while another connection's cheap requests are answered inline in
//!   the meantime.
//! * **Fault points** — a seeded fault registry yields the same answer
//!   sequence, and draws each point as often, whichever route serves the
//!   requests: inline, escalated, or the pool alone.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cv_xtree::{parse_tree, ArenaDoc};
use xq_core::{Budget, FaultPoint, Faults, Threads};
use xq_server::{Frame, Server, ServerConfig};

const DOC: &str = "<r><a/><b><k/></b><k/></r>";

fn doc() -> Arc<ArenaDoc> {
    Arc::new(ArenaDoc::from_tree(&parse_tree(DOC).unwrap()))
}

fn start(doc: &Arc<ArenaDoc>, config: ServerConfig) -> Server {
    let mut docs = HashMap::new();
    docs.insert("d0".to_string(), Arc::clone(doc));
    Server::start(ServerConfig { docs, ..config }).unwrap()
}

fn inline_count(server: &Server) -> u64 {
    server.stats().inline.load(Ordering::Relaxed)
}

fn escalated_count(server: &Server) -> u64 {
    server.stats().escalated.load(Ordering::Relaxed)
}

/// Six nested loops over the document's four elements: tens of thousands
/// of steps, far past the reactor bound, and an empty answer.
fn costly_query() -> String {
    (1..=6)
        .map(|i| format!("for $c{i} in $root//* return "))
        .collect::<String>()
        + "$root/never"
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
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

    fn hello(&mut self, tenant: &str) {
        self.send(&format!(r#"{{"op":"hello","tenant":"{tenant}"}}"#));
        assert!(self.recv().contains(r#""ok":true"#));
    }

    fn query(&mut self, id: u64, text: &str) {
        let frame = Frame::new()
            .str("op", "query")
            .uint("id", id)
            .str("doc", "d0")
            .str("query", text);
        self.send(&frame.encode());
    }

    /// One query, answered before the next is sent.
    fn ask(&mut self, id: u64, text: &str) -> String {
        self.query(id, text);
        self.recv()
    }
}

fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A query whose full run is ~3^20 loop iterations: only cancellation
/// ends it.
fn infinite_query() -> String {
    (1..=20)
        .map(|i| format!("for $v{i} in $root//* return "))
        .collect::<String>()
        + "<t/>"
}

fn unlimited(threads: Threads) -> Budget {
    Budget {
        max_steps: u64::MAX,
        max_items: u64::MAX,
        threads,
        ..Budget::default()
    }
}

#[test]
fn a_cheap_request_is_answered_inline_with_the_pool_bytes() {
    let doc = doc();
    let mut tenants = HashMap::new();
    tenants.insert("par".to_string(), unlimited(Threads::N(2)));
    let server = start(
        &doc,
        ServerConfig {
            tenants,
            ..ServerConfig::default()
        },
    );
    let text = "for $x in $root/* return <repeat>{ $x }</repeat>";
    let mut threaded = Client::connect(&server);
    threaded.hello("par");
    let pooled = threaded.ask(1, text);
    assert!(pooled.starts_with(r#"{"ok":true,"id":1,"#), "{pooled}");
    assert_eq!(
        inline_count(&server),
        0,
        "a threaded tenant's run is the pool's"
    );
    let mut c = Client::connect(&server);
    let first = c.ask(1, text);
    assert_eq!(
        inline_count(&server),
        1,
        "the first sighting is probed inline"
    );
    let inline = c.ask(1, text);
    assert_eq!(inline_count(&server), 2, "the repeat is answered inline");
    assert_eq!(first, pooled, "same frame, byte for byte");
    assert_eq!(inline, pooled, "same frame, byte for byte");
    assert_eq!(server.stats().served.load(Ordering::Relaxed), 3);
    assert_eq!(escalated_count(&server), 0);
    assert_eq!((server.queue_depth(), server.in_flight()), (0, 0));
}

#[test]
fn expensive_pairs_escalate_once_and_threaded_requests_stay_with_the_pool() {
    let doc = doc();
    let mut tenants = HashMap::new();
    tenants.insert("par".to_string(), unlimited(Threads::N(2)));
    let server = start(
        &doc,
        ServerConfig {
            tenants,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&server);
    // A plan-cache miss: a text never seen before is compiled and probed
    // on the reactor.
    let cheap = "for $x in $root/* return <routed>{ $x }</routed>";
    let want = c.ask(1, cheap);
    assert_eq!(inline_count(&server), 1, "plan-cache miss");
    // An expensive pair: its probe crosses the step bound and escalates,
    // and the pool answers; its record then sends every repeat straight
    // to the pool.
    let costly = costly_query();
    for id in 2..5 {
        assert_eq!(
            c.ask(id, &costly),
            format!(r#"{{"ok":true,"id":{id},"result":""}}"#)
        );
    }
    assert_eq!(inline_count(&server), 1, "expensive pair");
    assert_eq!(escalated_count(&server), 1, "one probe, then the record");
    // A threaded tenant, on the pair that is cheap for everyone else.
    let mut threaded = Client::connect(&server);
    threaded.hello("par");
    for id in 1..3 {
        assert_eq!(
            threaded.ask(id, cheap),
            want.replace(r#""id":1"#, &format!(r#""id":{id}"#))
        );
    }
    assert_eq!(inline_count(&server), 1, "threads > 1");
    // The same cheap text on a document built afresh from the same tree:
    // nothing is inherited, and its first request is probed inline.
    let rebuilt = doc_rebuilt(&doc);
    let other = start(&rebuilt, ServerConfig::default());
    let mut o = Client::connect(&other);
    assert_eq!(o.ask(1, cheap), want);
    assert_eq!(inline_count(&other), 1, "fresh document");
    o.ask(2, cheap);
    assert_eq!(inline_count(&other), 2, "measured now");
    // And the original pair was cheap all along.
    c.ask(9, cheap);
    assert_eq!(inline_count(&server), 2);
    assert_eq!(escalated_count(&server), 1);
    wait_for("gauges back to zero", || {
        server.queue_depth() == 0 && server.in_flight() == 0
    });
}

fn doc_rebuilt(doc: &ArenaDoc) -> Arc<ArenaDoc> {
    let rebuilt = Arc::new(ArenaDoc::from_tree(&doc.to_tree()));
    assert_ne!(rebuilt.id(), doc.id());
    rebuilt
}

#[test]
fn pipelined_answers_keep_id_order_around_a_slow_pool_request() {
    let doc = doc();
    let mut tenants = HashMap::new();
    tenants.insert("slow".to_string(), unlimited(Threads::One));
    let server = start(
        &doc,
        ServerConfig {
            tenants,
            ..ServerConfig::default()
        },
    );
    let cheap = "for $x in $root/* return <ordered>{ $x }</ordered>";
    let mut warm = Client::connect(&server);
    let want = warm.ask(1, cheap);
    let mut a = Client::connect(&server);
    a.hello("slow");
    // Two cheap requests, a slow one, two more cheap ones — one burst.
    let burst: String = [
        (1, cheap.to_string()),
        (2, cheap.to_string()),
        (3, infinite_query()),
        (4, cheap.to_string()),
        (5, cheap.to_string()),
    ]
    .iter()
    .map(|(id, text)| {
        Frame::new()
            .str("op", "query")
            .uint("id", *id)
            .str("doc", "d0")
            .str("query", text)
            .encode()
            + "\n"
    })
    .collect();
    a.writer.write_all(burst.as_bytes()).unwrap();
    assert_eq!(a.recv(), want);
    assert_eq!(a.recv(), want.replace(r#""id":1"#, r#""id":2"#));
    // The warm-up and the first two were answered inline; the slow one
    // escalated, and the two after it went to the pool behind it.
    wait_for("the burst handled", || server.in_flight() == 1);
    wait_for("4 and 5 answered by the pool", || {
        server.stats().served.load(Ordering::Relaxed) == 5
    });
    assert_eq!(inline_count(&server), 3);
    assert_eq!(escalated_count(&server), 1);
    // Another connection is answered inline while the slow one runs.
    let mut b = Client::connect(&server);
    assert_eq!(b.ask(1, cheap), want);
    assert_eq!(inline_count(&server), 4);
    assert_eq!(server.in_flight(), 1, "the slow request is still running");
    // Release it: 3, 4, 5 answer in id order after the cancel ack.
    a.send(r#"{"op":"cancel","id":3}"#);
    assert!(a.recv().contains(r#""op":"cancel""#));
    assert!(a
        .recv()
        .starts_with(r#"{"ok":false,"id":3,"code":"cancelled""#));
    assert_eq!(a.recv(), want.replace(r#""id":1"#, r#""id":4"#));
    assert_eq!(a.recv(), want.replace(r#""id":1"#, r#""id":5"#));
    wait_for("gauges back to zero", || {
        server.queue_depth() == 0 && server.in_flight() == 0
    });
}

/// `texts` as pipelined requests, answered in order; the overload retry
/// hint is masked (it follows measured pool latency, which inline
/// requests do not feed).
fn transcript(server: &Server, texts: &[String]) -> Vec<String> {
    let mut c = Client::connect(server);
    for (id, text) in (1..).zip(texts) {
        c.query(id, text);
    }
    texts
        .iter()
        .map(|_| {
            let line = c.recv();
            match line.find(r#","retry_after_ms":"#) {
                Some(at) => format!("{},\"retry_after_ms\":_}}", &line[..at]),
                None => line,
            }
        })
        .collect()
}

#[test]
fn seeded_faults_answer_the_same_on_either_route() {
    const SPEC: &str = "worker-panic=0.2,completion-drop=0.2,slow-eval=0.2@1,submit-refusal=0.2";
    const SEED: u64 = 7;
    const POINTS: [FaultPoint; 4] = [
        FaultPoint::SubmitRefusal,
        FaultPoint::WorkerPanic,
        FaultPoint::SlowEval,
        FaultPoint::CompletionDrop,
    ];
    let text = "for $x in $root/* return <faulted>{ $x }</faulted>";
    // A cheap text, fresh texts (first sightings, each compiled once) and
    // an over-bound text that escalates on its first request and goes to
    // the pool after.
    let texts: Vec<String> = (0..40)
        .map(|i| match i % 10 {
            3 => format!("let $fresh{i} := <f/> return ({text})"),
            7 if i < 20 => costly_query(),
            _ => text.to_string(),
        })
        .collect();
    // One worker on both servers, so pool requests draw their fault
    // points in request order, as the reactor does.
    let config = |faults: &Arc<Faults>, default_budget: Budget| ServerConfig {
        workers: 1,
        faults: Some(Arc::clone(faults)),
        restart_budget: 1000,
        default_budget,
        ..ServerConfig::default()
    };
    // The pool alone: a threaded budget never runs inline.
    let pool_faults = Arc::new(Faults::from_spec(SPEC, SEED).unwrap());
    let pool = start(&doc(), config(&pool_faults, unlimited(Threads::N(2))));
    let pooled = transcript(&pool, &texts);
    // Inline first: every route the reactor takes.
    let inline_faults = Arc::new(Faults::from_spec(SPEC, SEED).unwrap());
    let inline = start(&doc(), config(&inline_faults, Budget::default()));
    let inlined = transcript(&inline, &texts);
    assert_eq!(inline_count(&pool), 0, "the pool served everything");
    assert!(inline_count(&inline) > 0, "the reactor served some");
    assert!(escalated_count(&inline) > 0, "a probe escalated");
    assert_eq!(inlined, pooled, "same seed, same answers, either route");
    let has = |needle: &str| inlined.iter().any(|l| l.contains(needle));
    assert!(has(r#""ok":true"#));
    assert!(has(
        r#""code":"overloaded","error":"overloaded","retry_after_ms":_"#
    ));
    assert!(has("internal error: injected fault: worker-panic"));
    assert!(has("request abandoned before completion"));
    // Each point is drawn at most once per request, as often on either
    // route; every request draws the admission point.
    let n = texts.len() as u64;
    for point in POINTS {
        let drawn = inline_faults.drawn(point);
        assert_eq!(drawn, pool_faults.drawn(point), "{point:?}");
        assert!(drawn <= n, "{point:?} drawn {drawn} times");
    }
    assert_eq!(inline_faults.drawn(FaultPoint::SubmitRefusal), n);
    for server in [&pool, &inline] {
        wait_for("gauges back to zero", || {
            server.queue_depth() == 0 && server.in_flight() == 0
        });
    }
}
