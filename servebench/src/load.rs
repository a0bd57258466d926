//! Set-up, the closed-loop socket clients, and the end-to-end run.
//!
//! Load shape: one client thread per host thread, each on its own
//! connection, each sending its next request only after the previous
//! answer has been read and parsed (no pipelining). The server runs
//! `ServerConfig::default()`: two pool workers, one reactor, unbounded
//! admission and no rate limits — so any refusal is a failure.

use crate::report::{median, metric, quantile, Outcome};
use crate::trace::Tracer;
use crate::workload::{self, HotSet, Stream, Workload};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xq_server::{Frame, Server, ServerConfig};

/// Closed-loop segments per run. Each segment sets up a fresh server
/// and measures `1/SEGMENTS` of the run, so `setup_s` is a median over
/// several set-ups and no one server's life is the whole run.
pub const SEGMENTS: usize = 5;

/// The end-to-end throughput and latency figures are taken over the
/// run's fastest quarter of windows of about this much timed wall time,
/// ranked by median latency. The host's speed moves in steps of a second
/// or more, and the share of slow steps in a run drifts from minute to
/// minute; a slow step only ever adds time, so the fastest windows read
/// the program's own speed, while a change that slows every request
/// slows them too. `README.md` gives the measurements behind this.
const WINDOW_S: f64 = 0.5;
/// The share of windows kept: the fastest quarter still holds thousands
/// of samples, so tens lie beyond p99 on every workload.
pub const FAST_SHARE: f64 = 0.25;

/// Longest a client waits for one answer; the slowest answer of any
/// workload takes milliseconds.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One blocking client connection speaking the line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// One request/answer exchange and its client-side timestamps.
pub struct Exchange {
    /// Just before the request line was written.
    pub sent: Instant,
    /// The answer line has been read.
    pub received: Instant,
    /// The answer line has been parsed.
    pub parsed: Instant,
    /// The parsed answer (a frame the client cannot parse is an error).
    pub reply: Result<Frame, String>,
}

impl Client {
    /// Connects to `addr` with Nagle off, as the server's own sockets are.
    /// A read that waits longer than `REPLY_TIMEOUT` fails the request,
    /// so a server that stops answering ends the run instead of hanging it.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
            line: String::new(),
        })
    }

    /// Writes one request line (newline included) and reads its answer.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<Exchange> {
        let sent = Instant::now();
        self.writer.write_all(request)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let received = Instant::now();
        let reply = Frame::parse(self.line.trim_end_matches('\n'));
        Ok(Exchange {
            sent,
            received,
            parsed: Instant::now(),
            reply,
        })
    }
}

/// The request line for query `id` of `text` against document `doc`.
pub fn request_line(id: u64, doc: &str, text: &str) -> String {
    let mut line = Frame::new()
        .str("op", "query")
        .uint("id", id)
        .str("doc", doc)
        .str("query", text)
        .encode();
    line.push('\n');
    line
}

/// The `result` of an `ok` answer to query `id`, or why there is none.
pub fn answer(reply: &Result<Frame, String>, id: u64) -> Result<&str, String> {
    let frame = reply
        .as_ref()
        .map_err(|e| format!("unparsable answer: {e}"))?;
    if frame.get_uint("id") != Some(id) {
        return Err(format!(
            "answer for id {:?}, expected {id}",
            frame.get_uint("id")
        ));
    }
    match (frame.get_bool("ok"), frame.get_str("result")) {
        (Some(true), Some(result)) => Ok(result),
        _ => Err(format!(
            "code {:?}: {:?}",
            frame.get_str("code"),
            frame.get_str("error")
        )),
    }
}

/// One set-up: build and register the served documents, start the
/// server, and send one warm-up pass over the hot set (filling the plan
/// cache and the workers' document caches). Returns the server, the
/// time all of that took, and how many warm-up answers — checked after
/// the clock stops — differed from the oracle.
pub fn setup(workload: Workload, seed: u64, hot: &HotSet) -> (Server, Duration, u64) {
    let started = Instant::now();
    let docs: HashMap<String, Arc<cv_xtree::ArenaDoc>> = workload::documents(workload, seed)
        .into_iter()
        .enumerate()
        .map(|(i, doc)| (workload::doc_name(i), Arc::new(doc)))
        .collect();
    let server = Server::start(ServerConfig {
        docs,
        ..ServerConfig::default()
    })
    .expect("the server binds a loopback port");
    let mut client = Client::connect(server.addr()).expect("warm-up client connects");
    let replies: Vec<(usize, u64, Result<Frame, String>)> = hot
        .warm_pairs()
        .zip(0u64..)
        .map(|(pair, id)| {
            let p = &hot.pairs[pair];
            let line = request_line(id, &workload::doc_name(p.doc), &hot.texts[p.text]);
            let reply = client
                .exchange(line.as_bytes())
                .map_or_else(|e| Err(e.to_string()), |x| x.reply);
            (pair, id, reply)
        })
        .collect();
    let took = started.elapsed();
    let failed = replies
        .iter()
        .filter(|(pair, id, reply)| answer(reply, *id) != Ok(hot.pairs[*pair].expected.as_str()))
        .count() as u64;
    (server, took, failed)
}

/// What one closed-loop client saw in one segment.
#[derive(Default)]
pub struct Tally {
    /// The client's index (its stream and its fresh-text namespace).
    pub client: usize,
    /// Client-observed latency of every attempted request, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests was sent.
    pub sent: Vec<Instant>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered wrongly or not at all.
    pub failed: u64,
    /// Fresh requests whose answer matched their base pair: `(seq,
    /// pair)`, for the interpreter replay after the run.
    pub fresh: Vec<(u64, usize)>,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Spans, when the segment is traced.
    pub tracer: Option<Tracer>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Runs client `client`'s closed loop on `stream` until `deadline`,
/// checking every answer against the oracle. With `span_prefix`, each
/// request is traced under request id `span_prefix | id`.
pub fn drive(
    addr: SocketAddr,
    hot: &HotSet,
    client: usize,
    stream: &mut Stream,
    deadline: Instant,
    span_prefix: Option<u64>,
) -> Tally {
    let mut tally = Tally {
        client,
        tracer: span_prefix.map(|_| Tracer::new()),
        ..Tally::default()
    };
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted = 1;
            tally.fail(format!("connect: {e}"));
            return tally;
        }
    };
    let names: Vec<String> = (0..workload::MANY_DOCS).map(workload::doc_name).collect();
    for id in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let request = stream.next().expect("streams are endless");
        let pair = &hot.pairs[request.pair];
        let line = request_line(id, &names[pair.doc], &hot.text(client, request));
        tally.attempted += 1;
        let ex = match conn.exchange(line.as_bytes()) {
            Ok(ex) => ex,
            Err(e) => {
                tally.fail(format!("connection: {e}"));
                break;
            }
        };
        tally
            .latencies_ms
            .push((ex.parsed - ex.sent).as_secs_f64() * 1e3);
        tally.sent.push(ex.sent);
        if let (Some(tracer), Some(prefix)) = (&mut tally.tracer, span_prefix) {
            let root = tracer.open("socket.request", None, prefix | id, ex.sent);
            tracer.record(
                "socket.response_parse",
                Some(root),
                prefix | id,
                ex.received,
                ex.parsed,
            );
            tracer.close(root, ex.parsed);
        }
        match answer(&ex.reply, id) {
            Ok(result) if result == pair.expected => {
                if let Some(seq) = request.fresh {
                    tally.fresh.push((seq, request.pair));
                }
            }
            Ok(result) => tally.fail(format!(
                "answer to {:?} differs from the oracle ({} bytes, expected {})",
                hot.text(client, request),
                result.len(),
                pair.expected.len()
            )),
            Err(e) => tally.fail(e),
        }
    }
    tally
}

/// The server counters a segment reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Largest write buffer of any connection, in bytes.
    pub peak_write_buffer: u64,
    /// Times a connection was corked by write backpressure.
    pub backpressured: u64,
    /// Queries refused: shed, rate-limited, or answered `internal_error`.
    pub refused: u64,
}

/// One closed-loop segment on its own freshly set-up server.
pub struct Segment {
    /// How long set-up took, in seconds.
    pub setup_s: f64,
    /// Warm-up requests sent.
    pub warm_sent: u64,
    /// Warm-up answers that differed from the oracle.
    pub warm_failed: u64,
    /// Start of the timed region.
    pub started: Instant,
    /// Planned length of the timed region, in seconds.
    pub length_s: f64,
    /// One tally per client.
    pub tallies: Vec<Tally>,
    /// The server's counters at the end of the segment.
    pub counters: Counters,
}

impl Segment {
    /// The segment's timed region cut into windows of about `WINDOW_S`,
    /// each with the latencies of the requests sent in it.
    pub fn windows(&self) -> Vec<Window> {
        let count = (self.length_s / WINDOW_S).round().max(1.0) as usize;
        let seconds = self.length_s / count as f64;
        let mut windows: Vec<Window> = (0..count)
            .map(|_| Window {
                latencies_ms: Vec::new(),
                seconds,
            })
            .collect();
        for t in &self.tallies {
            for (&latency, &sent) in t.latencies_ms.iter().zip(&t.sent) {
                let w = ((sent - self.started).as_secs_f64() / seconds) as usize;
                windows[w.min(count - 1)].latencies_ms.push(latency);
            }
        }
        for w in &mut windows {
            w.latencies_ms.sort_by(f64::total_cmp);
        }
        windows
    }
}

/// A stretch of timed wall time and the latencies of the requests sent in
/// it, ascending, in ms.
#[derive(Default)]
pub struct Window {
    /// Latencies, ascending.
    pub latencies_ms: Vec<f64>,
    /// Length of the stretch, in seconds.
    pub seconds: f64,
}

impl Window {
    /// Requests sent per second.
    pub fn rate(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.seconds
    }
}

/// The fastest `share` of the segments' windows, ranked by median
/// latency, pooled into one; `share` 1 pools the whole run.
pub fn fastest_windows(segments: &[Segment], share: f64) -> Window {
    let mut windows: Vec<Window> = segments
        .iter()
        .flat_map(Segment::windows)
        .filter(|w| !w.latencies_ms.is_empty())
        .collect();
    windows
        .sort_by(|a, b| quantile(&a.latencies_ms, 0.5).total_cmp(&quantile(&b.latencies_ms, 0.5)));
    let keep = ((windows.len() as f64 * share).ceil() as usize).max(1);
    let mut pooled = Window::default();
    for w in windows.into_iter().take(keep) {
        pooled.latencies_ms.extend(w.latencies_ms);
        pooled.seconds += w.seconds;
    }
    pooled.latencies_ms.sort_by(f64::total_cmp);
    pooled
}

/// Runs `SEGMENTS` segments of `seconds / SEGMENTS` each, one client per
/// stream; the streams continue from segment to segment. Each server is
/// set up, measured, then drained and dropped outside the timed region.
pub fn segments(
    workload: Workload,
    seed: u64,
    hot: &HotSet,
    streams: &mut [Stream],
    seconds: f64,
    traced: bool,
) -> Vec<Segment> {
    let clients = streams.len();
    (0..SEGMENTS)
        .map(|segment| {
            let (server, took, warm_failed) = setup(workload, seed, hot);
            let addr = server.addr();
            let started = Instant::now();
            let length_s = seconds / SEGMENTS as f64;
            let deadline = started + Duration::from_secs_f64(length_s);
            let tallies = std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(client, stream)| {
                        let prefix =
                            traced.then_some(((segment * clients + client + 1) as u64) << 32);
                        scope.spawn(move || drive(addr, hot, client, stream, deadline, prefix))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client threads do not panic"))
                    .collect()
            });
            let stats = server.stats();
            let counters = Counters {
                peak_write_buffer: stats.peak_write_buffer.load(Ordering::Relaxed),
                backpressured: stats.backpressured.load(Ordering::Relaxed),
                refused: [&stats.shed, &stats.rate_limited, &stats.internal_errors]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .sum(),
            };
            drop(server);
            Segment {
                setup_s: took.as_secs_f64(),
                warm_sent: hot.warm_pairs().count() as u64,
                warm_failed,
                started,
                length_s,
                tallies,
                counters,
            }
        })
        .collect()
}

/// Replays every fresh request the clients saw answered correctly
/// through the interpreter; returns how many disagree with the oracle.
pub fn check_fresh(workload: Workload, seed: u64, hot: &HotSet, segments: &[Segment]) -> u64 {
    let tallies = || segments.iter().flat_map(|s| &s.tallies);
    if tallies().all(|t| t.fresh.is_empty()) {
        return 0;
    }
    let trees: Vec<cv_xtree::Tree> = workload::documents(workload, seed)
        .iter()
        .map(cv_xtree::ArenaDoc::to_tree)
        .collect();
    tallies()
        .flat_map(|t| {
            t.fresh
                .iter()
                .map(move |&(seq, pair)| (t.client, seq, pair))
        })
        .filter(|&(client, seq, pair)| !hot.fresh_agrees(&trees, client, seq, pair))
        .count() as u64
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Failure accounting over a run's segments: `(attempted, failed)` with
/// warm-up requests included, a failed fresh-text replay counting its
/// request as failed, and the first failure seen.
pub fn failures(segments: &[Segment], fresh_failed: u64) -> (u64, u64, Option<String>) {
    let tallies = || segments.iter().flat_map(|s| &s.tallies);
    let attempted = tallies().map(|t| t.attempted).sum::<u64>()
        + segments.iter().map(|s| s.warm_sent).sum::<u64>();
    let failed = tallies().map(|t| t.failed).sum::<u64>()
        + segments.iter().map(|s| s.warm_failed).sum::<u64>()
        + fresh_failed;
    let first = tallies().find_map(|t| t.first_error.clone());
    (attempted, failed, first)
}

/// The end-to-end run: the oracle, then `SEGMENTS` closed-loop segments
/// over `seconds` in all, then the fresh-text replay.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let hot = HotSet::build(workload, &workload::documents(workload, seed));
    let clients = crate::host_threads();
    let mut streams: Vec<Stream> = (0..clients)
        .map(|c| Stream::new(workload, seed, c, hot.pairs.len()))
        .collect();
    let segs = segments(workload, seed, &hot, &mut streams, seconds, false);
    let fresh_failed = check_fresh(workload, seed, &hot, &segs);
    let (attempted, failed, first_error) = failures(&segs, fresh_failed);

    let fast = fastest_windows(&segs, FAST_SHARE);
    let whole = fastest_windows(&segs, 1.0);
    let (p50, p99) = (
        quantile(&fast.latencies_ms, 0.5),
        quantile(&fast.latencies_ms, 0.99),
    );
    let mut setups: Vec<f64> = segs.iter().map(|s| s.setup_s).collect();
    let mut out = Outcome {
        metrics: vec![
            metric("throughput_rps", fast.rate()),
            metric("latency_p50_ms", p50),
            metric("latency_p99_ms", p99),
            metric("setup_s", median(&mut setups)),
            metric("peak_rss_mb", peak_rss_mb()),
        ],
        attempted,
        failed,
        notes: Vec::new(),
    };
    out.notes.push(format!(
        "host_threads {} clients {clients} workers {} segments {} of {:.2} s",
        crate::host_threads(),
        ServerConfig::default().workers,
        segs.len(),
        seconds / SEGMENTS as f64
    ));
    let beyond = |w: &Window, q: f64| w.latencies_ms.iter().filter(|&&x| x > q).count();
    out.notes.push(format!(
        "fastest quarter of windows: {:.1} of {:.1} s, {} latency samples, {} beyond p99",
        fast.seconds,
        whole.seconds,
        fast.latencies_ms.len(),
        beyond(&fast, p99),
    ));
    let (wl, wp99) = (&whole.latencies_ms, quantile(&whole.latencies_ms, 0.99));
    out.notes.push(format!(
        "whole run: throughput_rps {:.6} latency_p50_ms {:.6} latency_p99_ms {:.6} \
         ({} latency samples, {} beyond p99)",
        whole.rate(),
        quantile(wl, 0.5),
        wp99,
        wl.len(),
        beyond(&whole, wp99),
    ));
    out.notes.push(format!(
        "error_rate {} ratio (failed {failed} of {attempted} requests, warm-up included; \
         {} fresh texts replayed through the interpreter)",
        failed as f64 / attempted.max(1) as f64,
        segs.iter()
            .flat_map(|s| &s.tallies)
            .map(|t| t.fresh.len())
            .sum::<usize>()
    ));
    if let Some(e) = first_error {
        out.notes.push(format!("first failure: {e}"));
    }
    out
}
