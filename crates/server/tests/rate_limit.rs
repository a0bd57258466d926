//! Per-tenant request-rate limiting: token buckets keyed by the `hello`
//! tenant, spending one token per well-formed `query` frame and
//! answering `rate_limited` (through the ordered response FIFO) when the
//! bucket is empty. Rate limits are orthogonal to budget quotas — a
//! refused frame never touches the pool, its admission gauge, or the
//! shed counter.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use cv_xtree::{parse_tree, ArenaDoc};
use xq_server::{RateLimit, Server, ServerConfig};

fn docs() -> HashMap<String, Arc<ArenaDoc>> {
    let tree = parse_tree("<r><a/><b><k/></b><k/></r>").unwrap();
    let mut docs = HashMap::new();
    docs.insert("d0".to_string(), Arc::new(ArenaDoc::from_tree(&tree)));
    docs
}

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
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        line.trim_end_matches('\n').to_string()
    }

    fn query(&mut self, id: u64) -> String {
        self.send(&format!(
            r#"{{"op":"query","id":{id},"doc":"d0","query":"$root/b/k"}}"#
        ));
        self.recv()
    }
}

/// A pipelined burst against a no-refill bucket: exactly `burst`
/// queries are served, the rest answer `rate_limited`, and the
/// responses come back in submission order (refusals share the FIFO).
#[test]
fn empty_bucket_refuses_in_submission_order() {
    let mut rates = HashMap::new();
    rates.insert(
        "acme".to_string(),
        RateLimit {
            per_sec: 0.0,
            burst: 2,
        },
    );
    let server = Server::start(ServerConfig {
        rates,
        docs: docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    client.send(r#"{"op":"hello","tenant":"acme"}"#);
    let _ = client.recv();
    // Pipeline all four before reading anything.
    for id in 1..=4u64 {
        client.send(&format!(
            r#"{{"op":"query","id":{id},"doc":"d0","query":"$root/b/k"}}"#
        ));
    }
    for id in 1..=4u64 {
        let resp = client.recv();
        assert!(
            resp.contains(&format!(r#""id":{id}"#)),
            "responses out of order: got {resp} for id {id}"
        );
        if id <= 2 {
            assert!(resp.contains(r#""ok":true"#), "burst query refused: {resp}");
        } else {
            assert!(
                resp.contains(r#""code":"rate_limited""#),
                "over-burst query not refused: {resp}"
            );
        }
    }
    assert_eq!(server.stats().rate_limited.load(Ordering::Relaxed), 2);
    assert_eq!(server.stats().shed.load(Ordering::Relaxed), 0);
}

/// The bucket refills continuously at `per_sec`: after a refusal, a
/// short wait earns a fresh token. At 2 tokens/s the refused query has
/// 500 ms to reach the reactor, so a slow scheduler cannot refill the
/// bucket under it; the refill arithmetic itself is unit-tested with
/// pinned clock readings in `server.rs`.
#[test]
fn bucket_refills_at_the_configured_rate() {
    let mut rates = HashMap::new();
    rates.insert(
        "acme".to_string(),
        RateLimit {
            per_sec: 2.0,
            burst: 1,
        },
    );
    let server = Server::start(ServerConfig {
        rates,
        docs: docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    client.send(r#"{"op":"hello","tenant":"acme"}"#);
    let _ = client.recv();
    assert!(client.query(1).contains(r#""ok":true"#));
    assert!(client.query(2).contains(r#""code":"rate_limited""#));
    // 2 tokens/sec: 700 ms earns one (500 ms would do; headroom for CI).
    std::thread::sleep(Duration::from_millis(700));
    assert!(
        client.query(3).contains(r#""ok":true"#),
        "bucket never refilled"
    );
}

/// Buckets are per tenant (shared across a tenant's connections), and
/// `default_rate` covers tenants without an explicit entry — including
/// connections that never sent `hello`.
#[test]
fn buckets_are_per_tenant_and_default_rate_applies() {
    let mut rates = HashMap::new();
    rates.insert(
        "roomy".to_string(),
        RateLimit {
            per_sec: 0.0,
            burst: 100,
        },
    );
    let server = Server::start(ServerConfig {
        rates,
        default_rate: Some(RateLimit {
            per_sec: 0.0,
            burst: 1,
        }),
        docs: docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    // The "roomy" tenant has its own deep bucket.
    let mut roomy = Client::connect(&server);
    roomy.send(r#"{"op":"hello","tenant":"roomy"}"#);
    let _ = roomy.recv();
    for id in 1..=5 {
        assert!(roomy.query(id).contains(r#""ok":true"#));
    }
    // An anonymous connection falls under default_rate (tenant
    // "default", one token, no refill)…
    let mut anon1 = Client::connect(&server);
    assert!(anon1.query(1).contains(r#""ok":true"#));
    assert!(anon1.query(2).contains(r#""code":"rate_limited""#));
    // …and the bucket is shared with every other anonymous connection.
    let mut anon2 = Client::connect(&server);
    assert!(
        anon2.query(1).contains(r#""code":"rate_limited""#),
        "anonymous connections must share the default-tenant bucket"
    );
    // The roomy tenant is unaffected throughout.
    assert!(roomy.query(6).contains(r#""ok":true"#));
}

/// A rate refusal is decided before pool admission: with a zero-token
/// bucket *and* a zero-capacity queue, the answer is `rate_limited`,
/// not `overloaded`, and the shed counter stays untouched.
#[test]
fn rate_refusal_never_reaches_the_admission_queue() {
    let server = Server::start(ServerConfig {
        queue_capacity: 0,
        default_rate: Some(RateLimit {
            per_sec: 0.0,
            burst: 0,
        }),
        docs: docs(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(&server);
    let resp = client.query(1);
    assert!(
        resp.contains(r#""code":"rate_limited""#),
        "expected rate_limited ahead of admission: {resp}"
    );
    assert_eq!(server.stats().rate_limited.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().shed.load(Ordering::Relaxed), 0);
}
