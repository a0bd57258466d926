//! The inline route over live sockets: a repeat request the pool has
//! measured as cheap is answered on the reactor thread.
//!
//! * **Routing** — a second identical cheap request is answered inline
//!   (the `inline` counter), byte-for-byte as the pool answered the
//!   first; an expensive pair, a document built afresh, a threaded
//!   tenant and a plan-cache miss all go to the pool.
//! * **Ordering** — on one pipelined connection, cheap requests queued
//!   behind a slow pool request wait for it and answer in id order,
//!   while another connection's cheap requests are answered inline in
//!   the meantime.
//! * **Fault points** — a seeded fault registry yields the same answer
//!   sequence whichever route serves the requests.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cv_xtree::{parse_tree, ArenaDoc};
use xq_core::{Budget, Faults, Threads};
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
fn a_repeat_cheap_request_is_answered_inline_with_the_pool_bytes() {
    let doc = doc();
    let server = start(&doc, ServerConfig::default());
    let mut c = Client::connect(&server);
    let text = "for $x in $root/* return <repeat>{ $x }</repeat>";
    let pooled = c.ask(1, text);
    assert!(pooled.starts_with(r#"{"ok":true,"id":1,"#), "{pooled}");
    assert_eq!(inline_count(&server), 0, "the first run is the pool's");
    let inline = c.ask(1, text);
    assert_eq!(inline_count(&server), 1, "the repeat is answered inline");
    assert_eq!(inline, pooled, "same frame, byte for byte");
    assert_eq!(server.stats().served.load(Ordering::Relaxed), 2);
    assert_eq!((server.queue_depth(), server.in_flight()), (0, 0));
}

#[test]
fn expensive_fresh_threaded_and_uncached_requests_stay_with_the_pool() {
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
    // A plan-cache miss: a text never seen before goes to the pool.
    let cheap = "for $x in $root/* return <routed>{ $x }</routed>";
    c.ask(1, cheap);
    assert_eq!(inline_count(&server), 0, "plan-cache miss");
    // An expensive pair: ~4^3 loop iterations over the document's 5
    // nodes, hundreds of steps, however often it runs.
    let costly = "for $p in $root//* return for $q in $root//* return \
                  for $s in $root//* return <c/>";
    for id in 2..5 {
        assert!(c.ask(id, costly).contains(r#""ok":true"#));
    }
    assert_eq!(inline_count(&server), 0, "expensive pair");
    // A threaded tenant, on the pair that is cheap for everyone else.
    let mut threaded = Client::connect(&server);
    threaded.hello("par");
    for id in 1..3 {
        threaded.ask(id, cheap);
    }
    assert_eq!(inline_count(&server), 0, "threads > 1");
    // The same cheap text on a document built afresh from the same tree:
    // nothing is inherited, so its first request is the pool's.
    let rebuilt = doc_rebuilt(&doc);
    let other = start(&rebuilt, ServerConfig::default());
    let mut o = Client::connect(&other);
    o.ask(1, cheap);
    assert_eq!(inline_count(&other), 0, "fresh document");
    o.ask(2, cheap);
    assert_eq!(inline_count(&other), 1, "measured now");
    // And the original pair was cheap all along.
    c.ask(9, cheap);
    assert_eq!(inline_count(&server), 1);
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
    // The first two were answered inline; the three after them went to
    // the pool, behind the slow request.
    wait_for("the burst handled", || server.in_flight() == 1);
    wait_for("4 and 5 answered by the pool", || {
        server.stats().served.load(Ordering::Relaxed) == 5
    });
    assert_eq!(inline_count(&server), 2);
    // Another connection is answered inline while the slow one runs.
    let mut b = Client::connect(&server);
    assert_eq!(b.ask(1, cheap), want);
    assert_eq!(inline_count(&server), 3);
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

/// `n` pipelined requests for `text`, answered in order; the overload
/// retry hint is masked (it follows measured pool latency, which inline
/// requests do not feed).
fn transcript(server: &Server, text: &str, n: u64) -> Vec<String> {
    let mut c = Client::connect(server);
    for id in 1..=n {
        c.query(id, text);
    }
    (1..=n)
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
    let text = "for $x in $root/* return <faulted>{ $x }</faulted>";
    let faults = || Some(Arc::new(Faults::from_spec(SPEC, SEED).unwrap()));
    // Pool first: a fresh document, so nothing is measured until the
    // first request succeeds. One worker, so pool requests draw their
    // fault points in request order, as the reactor does.
    let fresh = doc();
    let pool = start(
        &fresh,
        ServerConfig {
            workers: 1,
            faults: faults(),
            restart_budget: 1000,
            ..ServerConfig::default()
        },
    );
    let pooled = transcript(&pool, text, 40);
    // Inline: a document measured beforehand on an unfaulted server.
    let measured = doc();
    let warm = start(&measured, ServerConfig::default());
    assert!(Client::connect(&warm).ask(1, text).contains(r#""ok":true"#));
    let inline = start(
        &measured,
        ServerConfig {
            faults: faults(),
            ..ServerConfig::default()
        },
    );
    let inlined = transcript(&inline, text, 40);
    assert_eq!(inline_count(&inline), 40, "every request served inline");
    assert!(inline_count(&pool) < 40, "the pool served some");
    assert_eq!(inlined, pooled, "same seed, same answers, either route");
    let has = |needle: &str| inlined.iter().any(|l| l.contains(needle));
    assert!(has(r#""ok":true"#));
    assert!(has(
        r#""code":"overloaded","error":"overloaded","retry_after_ms":_"#
    ));
    assert!(has("internal error: injected fault: worker-panic"));
    assert!(has("request abandoned before completion"));
    assert_eq!(
        inline.worker_deaths(),
        0,
        "a dropped completion kills nothing"
    );
    wait_for("pool gauges back to zero", || {
        pool.queue_depth() == 0 && pool.in_flight() == 0
    });
    assert_eq!((inline.queue_depth(), inline.in_flight()), (0, 0));
}
