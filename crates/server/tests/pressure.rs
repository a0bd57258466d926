//! Degradation under pressure: write-side backpressure and idle-timeout
//! reaping, observed through live sockets.
//!
//! * A connection that requests faster than it reads gets **corked**:
//!   once its write buffer passes the high-water mark the reactor stops
//!   reading it (and stops handling its already-buffered lines), so the
//!   slow reader can't force unbounded buffering — and other
//!   connections keep getting served while it's corked. Uncorking is
//!   automatic as the client drains, and nothing is lost: every
//!   pipelined query is still answered exactly once, in order.
//! * A connection with no traffic for the idle timeout is closed by the
//!   timer wheel; one that keeps talking is not.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cv_xtree::{parse_tree, ArenaDoc};
use xq_server::{Server, ServerConfig};

/// A document whose `$root/*` result is ~80 KiB — big enough that a few
/// hundred pipelined responses overflow any kernel socket buffering and
/// force the server's own write buffer to absorb the difference.
fn wide_docs(children: usize) -> HashMap<String, Arc<ArenaDoc>> {
    let mut xml = String::with_capacity(children * 4 + 16);
    xml.push_str("<r>");
    for _ in 0..children {
        xml.push_str("<a/>");
    }
    xml.push_str("</r>");
    let tree = parse_tree(&xml).unwrap();
    let mut m = HashMap::new();
    m.insert("wide".to_string(), Arc::new(ArenaDoc::from_tree(&tree)));
    m
}

fn wait_for(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn send_queries(stream: &TcpStream, doc: &str, ids: std::ops::RangeInclusive<u64>) {
    let mut w = stream;
    for id in ids {
        let line = format!(r#"{{"op":"query","id":{id},"doc":"{doc}","query":"$root/*"}}"#);
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
    }
    w.flush().unwrap();
}

#[test]
fn backpressure_corks_a_slow_reader_without_losing_responses() {
    let server = Server::start(ServerConfig {
        workers: 2,
        docs: wide_docs(20_000),
        // Tiny water marks so the cork engages as soon as the kernel
        // stops absorbing our ~80 KiB responses.
        write_high_water: 4 * 1024,
        write_low_water: 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let stats = server.stats();

    // Wave 1: ~24 MiB of responses pipelined by a client that reads
    // nothing. Loopback absorbs a few MiB at most; the rest lands in
    // the server's write buffer and must trip the high-water mark.
    let slow = TcpStream::connect(server.addr()).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    send_queries(&slow, "wide", 1..=300);
    // The reactor admits wave 1 far faster than the pool can answer it,
    // so the cork engages only as completions pile up. It may engage
    // and release a few times while kernel socket buffers autotune;
    // once all 300 responses (~24 MiB) are written, though, the ~20 MiB
    // the kernel can't hold sits in the server's write buffer and the
    // cork is stuck until the client deigns to read.
    wait_for("wave 1 fully answered and the cork engaged", || {
        stats.served.load(Relaxed) == 300 && stats.backpressured.load(Relaxed) > 0
    });
    assert!(
        stats.peak_write_buffer.load(Relaxed) as usize >= 4 * 1024,
        "cork implies the buffer crossed the mark"
    );

    // Wave 2 arrives while corked: the reactor must not read it — the
    // whole point is that a slow reader stops generating new work.
    send_queries(&slow, "wide", 301..=350);

    // Fairness: a well-behaved connection is served while the slow one
    // is corked; the reactor is parked on readiness, not on the cork.
    let brisk = TcpStream::connect(server.addr()).expect("connect");
    brisk
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    send_queries(&brisk, "wide", 9001..=9001);
    let mut brisk_r = BufReader::new(&brisk);
    let mut line = String::new();
    brisk_r.read_line(&mut line).unwrap();
    let frame = xq_server::Frame::parse(line.trim_end()).unwrap();
    assert_eq!(frame.get_uint("id"), Some(9001));
    assert_eq!(frame.get_bool("ok"), Some(true));

    // With the cork stuck, wave 2 stays deferred: nothing beyond wave 1
    // and brisk's single query may be served while the client reads
    // nothing.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        stats.served.load(Relaxed),
        301,
        "corked connection must not generate new work"
    );

    // Now drain: reading uncorks the connection, the deferred lines get
    // handled, and all 350 answers arrive in order with nothing lost or
    // duplicated.
    let mut slow_r = BufReader::new(&slow);
    for id in 1..=350u64 {
        let mut line = String::new();
        let n = slow_r.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed before id {id} answered");
        let frame = xq_server::Frame::parse(line.trim_end()).unwrap();
        assert_eq!(frame.get_uint("id"), Some(id), "order broken at {line:?}");
        assert_eq!(frame.get_bool("ok"), Some(true), "failed: {line:?}");
    }
    assert_eq!(stats.served.load(Relaxed), 351);
    wait_for("gauges settle", || {
        server.queue_depth() == 0 && server.in_flight() == 0
    });
    drop(slow_r);
    drop(slow);
    drop(brisk_r);
    drop(brisk);
    let mut server = server;
    server.shutdown();
}

#[test]
fn idle_timeout_reaps_only_quiet_connections() {
    let server = Server::start(ServerConfig {
        workers: 1,
        docs: wide_docs(2),
        idle_timeout: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    })
    .unwrap();
    let stats = server.stats();

    let quiet = TcpStream::connect(server.addr()).expect("connect");
    quiet
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let chatty = TcpStream::connect(server.addr()).expect("connect");
    chatty
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut chatty_r = BufReader::new(&chatty);

    // The chatty connection heartbeats well inside the timeout while the
    // quiet one says nothing; only the quiet one may be reaped.
    let opened = Instant::now();
    for id in 1..=8u64 {
        send_queries(&chatty, "wide", id..=id);
        let mut line = String::new();
        chatty_r.read_line(&mut line).unwrap();
        let frame = xq_server::Frame::parse(line.trim_end()).unwrap();
        assert_eq!(frame.get_uint("id"), Some(id));
        assert_eq!(frame.get_bool("ok"), Some(true));
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        opened.elapsed() >= Duration::from_millis(800),
        "heartbeats must outlive the idle timeout for the test to mean anything"
    );

    // The quiet connection observed EOF (a clean server-side close).
    let mut buf = [0u8; 1];
    match (&quiet).read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes on the idle connection"),
        // A reaped connection may also surface as a reset, depending on
        // timing; either way it is closed, which is what's asserted.
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF on the idle connection, got {e}"),
    }
    assert!(stats.idle_closed.load(Relaxed) >= 1);

    // Once the chatty connection goes quiet it gets reaped too.
    let mut line = String::new();
    match chatty_r.read_line(&mut line) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected frame after going quiet: {line:?}"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected EOF after going quiet, got {e}"),
    }
    wait_for("both idle closes counted", || {
        stats.idle_closed.load(Relaxed) == 2
    });
    let mut server = server;
    server.shutdown();
}
