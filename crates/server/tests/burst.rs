//! A pipelined burst over a live socket: one client writes tens of
//! thousands of request lines in a single `write_all`, and every one is
//! answered, exactly once and in order. Line extraction is linear in the
//! bytes buffered (the `LineBuf` unit tests pin the byte counts), so the
//! burst costs time proportional to its size rather than its square.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use xq_server::{Frame, Server, ServerConfig};

#[test]
fn an_80k_line_burst_is_answered_completely_and_in_order() {
    const LINES: usize = 80_000;
    let mut server = Server::start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let burst: String = (0..LINES)
        .map(|i| format!("{{\"op\":\"hello\",\"tenant\":\"t{i}\"}}\n"))
        .collect();
    // Write from a second thread: the responses must be read while the
    // burst is still going out, or both sides' socket buffers fill.
    let sender = std::thread::spawn(move || {
        writer.write_all(burst.as_bytes()).expect("send burst");
        writer.flush().expect("flush");
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for i in 0..LINES {
        line.clear();
        let n = reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection after {i} responses");
        let frame = Frame::parse(line.trim_end_matches('\n')).expect("server frames parse");
        assert_eq!(frame.get_str("op"), Some("hello"), "response {i}: {line}");
        assert_eq!(
            frame.get_str("tenant"),
            Some(format!("t{i}").as_str()),
            "response {i} out of order"
        );
    }
    sender.join().unwrap();
    server.shutdown();
}
