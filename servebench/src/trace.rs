//! The traced run: spans around calls into each layer's public
//! functions, made from outside the program, and the per-layer metrics
//! derived from them.
//!
//! Three phases, each on the same seeded request streams:
//!
//! 1. **Layer replay** — the first `Workload::replay_requests` requests,
//!    one at a time on this thread, through the functions a served
//!    request passes: `Frame::parse` (request), a private
//!    `PlanCache::new()` (`get`, then `get_or_compile` on a miss),
//!    `ArenaDoc::to_tree`, `vm::exec_with`, `Tree::to_xml`, and
//!    `Frame::encode`/`Frame::parse` (response).
//! 2. **Pool round trip** — the same requests through a
//!    `QueryService` with the server's default pool, `try_submit` to
//!    `CompletionSink` delivery, one request in flight per host thread
//!    and no sockets.
//! 3. **Socket** — the closed loop of the end-to-end run against a real
//!    server, continuing the streams past the replayed head, with a span
//!    per request.
//!
//! Every timing is a median of span self times: a span's duration minus
//! the part of it its child spans cover.

use crate::load::{self, Counters};
use crate::report::{median, metric, quantile, Outcome};
use crate::workload::{self, HotSet, Request, Stream, Workload};
use cv_xtree::{ArenaDoc, Tree};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xq_core::{Budget, CompletionSink, Env, PlanCache, PoolConfig, QueryService};
use xq_server::Frame;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call it times.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned (equal to `start` while the span is open).
    pub end: Instant,
    /// Index of the enclosing span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// The request this span belongs to; shared by all its spans.
    pub request: u64,
}

/// An in-memory span log, written out when the run ends.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty log.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span at `start`; [`Tracer::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
    ) -> usize {
        self.record(name, parent, request, start, start)
    }

    /// Ends span `id` at `end`.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Appends `other`'s spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time in µs: its duration minus the union of its
    /// children's intervals within it.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        (
                            self.spans[k].start.max(s.start),
                            self.spans[k].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort();
                let mut busy = Duration::ZERO;
                let mut reach = s.start;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        busy += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(busy).as_secs_f64() * 1e6
            })
            .collect()
    }

    /// Writes the spans as tab-separated lines (`name start_ns end_ns
    /// parent request self_us`, times from `epoch`, parent `-` at a root).
    pub fn write_tsv(&self, path: &std::path::Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\trequest\tself_us")?;
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos();
        for (s, self_us) in self.spans.iter().zip(self.self_times_us()) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}\t{self_us:.3}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.request
            )?;
        }
        out.flush()
    }
}

/// The in-worker layers a pool round trip contains, as replayed.
const IN_WORKER: [&str; 5] = [
    "plan_cache.probe",
    "plan_cache.compile",
    "materialize.to_tree",
    "eval.exec",
    "serialize.to_xml",
];

/// Counts the layer replay makes besides its spans.
#[derive(Default)]
struct ReplayCounts {
    probes: u64,
    hits: u64,
    steps: u64,
    items: u64,
    xml_bytes: u64,
    response_bytes: u64,
    failed: u64,
}

/// Phase 1: each request through the layers' public functions, in the
/// order a served request meets them.
fn replay(
    hot: &HotSet,
    docs: &[Arc<ArenaDoc>],
    head: &[(usize, Request)],
    tracer: &mut Tracer,
) -> ReplayCounts {
    // The set-up warm-up's compiles are timed too, under request ids past
    // the replayed ones, so every workload has compile samples.
    let cache = PlanCache::new();
    for (i, text) in hot.texts.iter().enumerate() {
        let warm_id = (head.len() + i) as u64;
        tracer
            .time("plan_cache.compile", None, warm_id, || {
                cache.get_or_compile(text)
            })
            .expect("hot texts compile");
    }
    let mut counts = ReplayCounts::default();
    for (r, &(client, request)) in head.iter().enumerate() {
        let r = r as u64;
        let pair = &hot.pairs[request.pair];
        let line = load::request_line(r, &workload::doc_name(pair.doc), &hot.text(client, request));
        let root = tracer.open("replay.request", None, r, Instant::now());
        let parent = Some(root);
        let frame = tracer.time("protocol.request_parse", parent, r, || {
            Frame::parse(line.trim_end_matches('\n'))
        });
        let frame = frame.expect("request lines parse");
        let text = frame.get_str("query").expect("request lines carry a query");
        counts.probes += 1;
        let plan = match tracer.time("plan_cache.probe", parent, r, || cache.get(text)) {
            Some(plan) => {
                counts.hits += 1;
                plan
            }
            None => tracer
                .time("plan_cache.compile", parent, r, || {
                    cache.get_or_compile(text)
                })
                .expect("stream texts compile"),
        };
        let doc = &docs[pair.doc];
        let tree = tracer.time("materialize.to_tree", parent, r, || doc.to_tree());
        let (out, stats) = tracer
            .time("eval.exec", parent, r, || {
                xq_core::vm::exec_with(&plan, &Env::with_root(tree), Budget::default())
            })
            .expect("stream requests evaluate");
        counts.steps += stats.steps;
        counts.items += stats.items;
        let xml: String = tracer.time("serialize.to_xml", parent, r, || {
            out.iter().map(Tree::to_xml).collect()
        });
        counts.xml_bytes += xml.len() as u64;
        let encoded = tracer.time("protocol.response_encode", parent, r, || {
            Frame::new()
                .bool("ok", true)
                .uint("id", r)
                .str("result", xml)
                .encode()
        });
        counts.response_bytes += encoded.len() as u64 + 1;
        let reply = tracer.time("protocol.response_parse", parent, r, || {
            Frame::parse(&encoded)
        });
        if load::answer(&reply, r) != Ok(pair.expected.as_str()) {
            counts.failed += 1;
        }
        tracer.close(root, Instant::now());
    }
    counts
}

/// Phase 2: the replayed requests through the pool with `in_flight`
/// outstanding, timed from `try_submit` to delivery. Returns how many
/// answers differed from the oracle.
fn pool_round_trips(
    hot: &HotSet,
    docs: &[Arc<ArenaDoc>],
    head: &[(usize, Request)],
    in_flight: usize,
    tracer: &mut Tracer,
) -> u64 {
    let service = QueryService::with_config(PoolConfig::default());
    let (tx, rx) = channel();
    let sink = CompletionSink::new(tx, Arc::new(|| {}));
    let request = |client: usize, request: Request| {
        let pair = &hot.pairs[request.pair];
        xq_core::Request::new(hot.text(client, request), Arc::clone(&docs[pair.doc]))
    };
    // The set-up warm-up, without sockets: fill the shared plan cache and
    // the workers' document caches.
    let mut failed = 0;
    for (tag, pair) in hot.warm_pairs().enumerate() {
        let warm = request(0, Request { pair, fresh: None });
        assert!(
            service.try_submit(tag as u64, warm, &sink),
            "unbounded pool admits"
        );
        let (_, result) = rx.recv().expect("the pool answers");
        if result.as_deref() != Ok(hot.pairs[pair].expected.as_str()) {
            failed += 1;
        }
    }
    let mut submitted = HashMap::new();
    let mut next = 0;
    while next < head.len() || !submitted.is_empty() {
        while next < head.len() && submitted.len() < in_flight {
            let (client, req) = head[next];
            let job = request(client, req);
            submitted.insert(next as u64, (Instant::now(), req.pair));
            assert!(
                service.try_submit(next as u64, job, &sink),
                "unbounded pool admits"
            );
            next += 1;
        }
        let (tag, result) = rx.recv().expect("the pool answers");
        let done = Instant::now();
        let (start, pair) = submitted.remove(&tag).expect("one answer per submission");
        tracer.record("service.roundtrip", None, tag, start, done);
        if result.as_deref() != Ok(hot.pairs[pair].expected.as_str()) {
            failed += 1;
        }
    }
    failed
}

/// Median self time (µs) of the spans named `name`.
fn median_of(tracer: &Tracer, self_us: &[f64], name: &str) -> f64 {
    let mut v: Vec<f64> = tracer
        .spans
        .iter()
        .zip(self_us)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect();
    median(&mut v)
}

/// Where the span log of `workload` goes: beside this package, in `out/`.
pub fn spans_path(workload: Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", workload.name()))
}

/// The traced run: the three phases, then every per-layer metric.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let arenas = workload::documents(workload, seed);
    let hot = HotSet::build(workload, &arenas);
    let docs: Vec<Arc<ArenaDoc>> = arenas.into_iter().map(Arc::new).collect();
    let clients = crate::host_threads();
    let mut streams: Vec<Stream> = (0..clients)
        .map(|c| Stream::new(workload, seed, c, hot.pairs.len()))
        .collect();
    let head: Vec<(usize, Request)> = (0..workload.replay_requests())
        .map(|i| {
            let c = i % clients;
            (c, streams[c].next().expect("streams are endless"))
        })
        .collect();

    let epoch = Instant::now();
    let mut tracer = Tracer::new();
    // On a thread of its own, as a pool worker would run it, so the
    // replay allocates from a thread arena rather than the main one.
    let counts = std::thread::scope(|scope| {
        scope
            .spawn(|| replay(&hot, &docs, &head, &mut tracer))
            .join()
            .expect("the replay does not panic")
    });
    let pool_failed = pool_round_trips(&hot, &docs, &head, clients, &mut tracer);

    let segs = load::segments(workload, seed, &hot, &mut streams, seconds, true);
    let fresh_failed = load::check_fresh(workload, seed, &hot, &segs);
    let (socket_attempted, socket_failed, first_error) = load::failures(&segs, fresh_failed);
    let counters: Vec<Counters> = segs.iter().map(|s| s.counters).collect();
    // `trace.latency_p50_ms` uses the end-to-end run's own estimator, so
    // the two compare. The shares and the unattributed time divide by the
    // whole run's socket p50 instead, in µs: the layer medians they are
    // set against are taken over every replayed request, not the fastest.
    let median_ms = |share| quantile(&load::fastest_windows(&segs, share).latencies_ms, 0.5);
    let traced_p50_ms = median_ms(load::FAST_SHARE);
    let socket_p50 = median_ms(1.0) * 1e3;
    for tally in segs.into_iter().flat_map(|s| s.tallies) {
        if let Some(t) = tally.tracer {
            tracer.absorb(t);
        }
    }

    let self_us = tracer.self_times_us();
    let med = |name: &str| median_of(&tracer, &self_us, name);
    let n = head.len() as f64;
    let request_parse = med("protocol.request_parse");
    let response_encode = med("protocol.response_encode");
    let response_parse = med("protocol.response_parse");
    let exec = med("eval.exec");
    let to_xml = med("serialize.to_xml");
    let roundtrip = med("service.roundtrip");
    // Per request: the pool round trip minus the in-worker work the
    // replay timed for that same request.
    let mut work: HashMap<u64, f64> = HashMap::new();
    let mut trips: HashMap<u64, f64> = HashMap::new();
    for (s, &t) in tracer.spans.iter().zip(&self_us) {
        if IN_WORKER.contains(&s.name) {
            *work.entry(s.request).or_default() += t;
        } else if s.name == "service.roundtrip" {
            trips.insert(s.request, t);
        }
    }
    let mut overheads: Vec<f64> = trips
        .iter()
        .map(|(r, trip)| trip - work.get(r).copied().unwrap_or(0.0))
        .collect();
    let share_eval = exec / socket_p50;
    let share_output = (to_xml + response_encode + response_parse) / socket_p50;

    let path = spans_path(workload);
    let written = tracer.write_tsv(&path, epoch);
    let mut out = Outcome {
        metrics: vec![
            metric("protocol.request_parse_us", request_parse),
            metric("protocol.response_encode_us", response_encode),
            metric("protocol.response_parse_us", response_parse),
            metric("protocol.response_bytes", counts.response_bytes as f64 / n),
            metric("plan_cache.probe_us", med("plan_cache.probe")),
            metric("plan_cache.compile_us", med("plan_cache.compile")),
            metric(
                "plan_cache.hit_ratio",
                counts.hits as f64 / counts.probes as f64,
            ),
            metric("materialize.to_tree_us", med("materialize.to_tree")),
            metric("eval.exec_us", exec),
            metric("eval.steps", counts.steps as f64 / n),
            metric("eval.items", counts.items as f64 / n),
            metric("serialize.to_xml_us", to_xml),
            metric("serialize.bytes", counts.xml_bytes as f64 / n),
            metric("service.roundtrip_us", roundtrip),
            metric("service.overhead_us", median(&mut overheads)),
            metric(
                "server.unattributed_us",
                socket_p50 - roundtrip - request_parse - response_encode - response_parse,
            ),
            metric(
                "server.peak_write_buffer_bytes",
                counters
                    .iter()
                    .map(|c| c.peak_write_buffer)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            metric(
                "server.backpressured",
                counters.iter().map(|c| c.backpressured).sum::<u64>() as f64,
            ),
            metric(
                "server.refused",
                counters.iter().map(|c| c.refused).sum::<u64>() as f64,
            ),
            metric("trace.latency_p50_ms", traced_p50_ms),
            metric("share.eval", share_eval),
            metric("share.output", share_output),
            metric("share.fixed", 1.0 - share_eval - share_output),
        ],
        attempted: 2 * head.len() as u64 + hot.warm_pairs().count() as u64 + socket_attempted,
        failed: counts.failed + pool_failed + socket_failed,
        notes: Vec::new(),
    };
    out.notes.push(format!(
        "host_threads {} replayed {} requests; plan_cache probes {} hits {}; \
         socket requests {socket_attempted}; spans {}",
        crate::host_threads(),
        head.len(),
        counts.probes,
        counts.hits,
        tracer.spans.len()
    ));
    match written {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    if let Some(e) = first_error {
        out.notes.push(format!("first failure: {e}"));
    }
    out
}
