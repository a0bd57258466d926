//! The TCP front door: a readiness-driven reactor multiplexing every
//! connection over a **fixed thread count**, bridging wire frames to the
//! [`QueryService`] pool.
//!
//! ## Architecture
//!
//! PR 7's server spawned two threads per connection (reader + eval) —
//! fine for hundreds of clients, fatal for the ROADMAP's "millions of
//! users" north star. This rewrite serves *all* connections from **one
//! reactor thread**:
//!
//! * The reactor owns an epoll instance ([`crate::reactor::Poller`]) and
//!   every socket: the (nonblocking) listener, one nonblocking
//!   `TcpStream` per connection with in-reactor read/write line buffers,
//!   and an eventfd ([`crate::reactor::WakeFd`]) the eval pool writes to
//!   announce completions. One `epoll_wait` therefore observes client
//!   I/O *and* pool completions; the thread count is `1 + workers`
//!   regardless of connection count.
//! * Complete request lines parse in the reactor and hand off through
//!   [`QueryService::try_submit`] — admission control included — with a
//!   reactor-chosen ticket. The pool worker evaluates and pushes
//!   `(ticket, result)` onto the completion queue
//!   ([`xq_core::CompletionSink`]), then wakes the eventfd.
//! * Every single-threaded request starts on the reactor instead:
//!   [`QueryService::try_serve_inline`] runs it there within the reactor
//!   bound — at most [`xq_core::service::INLINE_MAX_STEPS`] steps and
//!   [`xq_core::service::INLINE_MAX_BYTES`] bytes of answer — with no
//!   ticket, no cancel flag and no eventfd wake, compiling a plan-cache
//!   miss first. Only what a bounded run proves heavy reaches the pool:
//!   a run that crosses the bound is *escalated*
//!   ([`QueryService::hand_off`], counted in [`ServerStats::escalated`]),
//!   and a pair recorded as heavy, a threaded budget, or a plan that may
//!   compare constructed trees is submitted without running. Only a
//!   connection with no pool answer outstanding is served inline, so an
//!   inline answer never waits behind a pool one.
//! * Responses to `query` frames flow through a per-connection FIFO
//!   (`pending` ids + out-of-order `done` results), so a pipelining
//!   client reads answers in the order it sent queries — exactly the
//!   PR 7 contract, now without a thread parked per connection. Frame
//!   errors (`bad_request`, `unknown_doc`) are still answered
//!   immediately, ahead of in-flight queries, as before.
//!
//! Per-connection fairness: at most [`ServerConfig::batch_max`] buffered
//! lines are handled per connection per reactor round, so one pipelining
//! firehose cannot starve its neighbours.
//!
//! ## Cancellation and deadlines
//!
//! Unchanged contracts from PR 7, relocated into the reactor: a `query`
//! frame's [`Budget`] starts from the connection tenant's quota, gains a
//! fresh [`CancelFlag`] *registered before submission* (so a `cancel`
//! racing ahead of evaluation still finds its flag), and an optional
//! `deadline_ms` deadline. A `cancel` frame acks first, then trips the
//! flag — the ack's position in the response stream stays deterministic.
//! Client EOF trips every flag the connection still has in flight, after
//! any already-buffered lines have been handled (matching the old
//! reader's `lines()`-then-cleanup order). Duplicate in-flight query ids
//! are rejected with `bad_request` — previously a duplicate *clobbered*
//! the first request's flag registration and the first completion
//! stripped protection from the still-running second, so a later
//! `cancel`/EOF silently no-opped (the PR 8 cancel-registry bugfix).
//!
//! ## Rate limits vs budget quotas
//!
//! Tenant **budget quotas** ([`ServerConfig::tenants`]) bound how much
//! work one request may do; tenant **rate limits**
//! ([`ServerConfig::rates`]) bound how many requests per second a tenant
//! may submit — a token bucket per tenant, shared across all of the
//! tenant's connections, refilled continuously at
//! [`RateLimit::per_sec`] up to a burst of [`RateLimit::burst`]. A query
//! arriving on an empty bucket is answered with the `rate_limited` wire
//! code (through the ordered FIFO, like `overloaded`) without consuming
//! any pool capacity.
//!
//! ## Shedding
//!
//! Admission is the pool's compare-and-swap of its queue gauge against
//! [`ServerConfig::queue_capacity`]: a frame that arrives past the
//! high-water mark is answered `overloaded` without ever queueing.
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] (also run by `Drop`): stop accepting, refuse
//! late `query` frames with the `shutting_down` code, let queued and
//! in-flight work finish and flush its answers, cancel whatever is still
//! running once [`ServerConfig::drain_deadline`] passes, then close
//! every connection and join every thread — the reactor and, via the
//! pool's own drop, every worker. A server with an idle connected client
//! shuts down promptly (pre-reactor, the blocking reader thread leaked).

use crate::protocol::Frame;
use crate::reactor::{Event, Poller, TimerWheel, WakeFd};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xq_core::{
    Budget, CancelFlag, CompletionSink, Faults, Inline, PoolConfig, QueryService, Request,
    ServiceError,
};

use cv_xtree::ArenaDoc;

/// A per-tenant request-rate limit: a token bucket holding at most
/// `burst` tokens, refilled continuously at `per_sec` tokens per second.
/// Each `query` frame spends one token; an empty bucket answers
/// `rate_limited`. This bounds *request frequency* — orthogonal to the
/// per-request *work* bound of the tenant's [`Budget`] quota.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Sustained requests per second (fractional rates are fine: `0.5`
    /// is one request every two seconds; `0.0` never refills — useful
    /// for deterministic tests).
    pub per_sec: f64,
    /// Bucket capacity: the largest instantaneous burst admitted. New
    /// buckets start full.
    pub burst: u32,
}

/// Server configuration; see the field docs. `Default` gives two
/// workers, an effectively unbounded queue, no rate limits, a one-second
/// drain deadline, and no documents — tests and embedders override what
/// they need.
#[derive(Clone)]
pub struct ServerConfig {
    /// Pool worker threads. Total server threads are `workers + 1` (the
    /// reactor), independent of connection count.
    pub workers: usize,
    /// Admission high-water mark: frames arriving while this many
    /// requests are queued (accepted, unserved) are shed with an
    /// `overloaded` response.
    pub queue_capacity: usize,
    /// Most buffered frames the reactor handles per connection per
    /// round — the pipelining-fairness bound.
    pub batch_max: usize,
    /// Budget quota (per-request *work* cap) for connections that never
    /// identify a tenant, and for unknown tenant ids.
    pub default_budget: Budget,
    /// Per-tenant budget quotas, keyed by the `hello` frame's tenant id.
    pub tenants: HashMap<String, Budget>,
    /// Per-tenant request-*rate* limits (requests/sec token buckets),
    /// keyed like [`ServerConfig::tenants`]. One bucket per tenant,
    /// shared by all of the tenant's connections. Tenants without an
    /// entry fall back to [`ServerConfig::default_rate`].
    pub rates: HashMap<String, RateLimit>,
    /// Rate limit for tenants with no [`ServerConfig::rates`] entry
    /// (including connections that never sent `hello`, which count as
    /// tenant `"default"`). `None` means unlimited.
    pub default_rate: Option<RateLimit>,
    /// How long [`Server::shutdown`] lets queued and in-flight work run
    /// before cancelling it. Queued work that finishes earlier is
    /// answered in full and the server exits as soon as it drains.
    pub drain_deadline: Duration,
    /// The served documents, keyed by the name `query` frames cite.
    pub docs: HashMap<String, Arc<ArenaDoc>>,
    /// Seeded fault registry for the pool (chaos testing). `None` — the
    /// default — falls back to the `XQ_FAULT_SPEC`/`XQ_FAULT_SEED`
    /// environment ([`xq_core::Faults::from_env`]); absent there too,
    /// injection is off and costs nothing.
    pub faults: Option<Arc<Faults>>,
    /// Write-side backpressure high-water mark: a connection whose write
    /// buffer reaches this many bytes stops being polled readable (no
    /// new frames are read, so no new work is created) until the buffer
    /// drains to [`ServerConfig::write_low_water`]. Bounds per-connection
    /// buffering by roughly `high_water + one response`, instead of "as
    /// fast as the pool can answer a reader that never reads".
    pub write_high_water: usize,
    /// Where a corked connection resumes reading (hysteresis: well below
    /// the high-water mark, so resume isn't immediately re-corked).
    pub write_low_water: usize,
    /// Close connections with no traffic in this long (`None` — the
    /// default — never). Enforced by a coarse timer wheel; precision is
    /// a quarter of the timeout, at worst. A connection with work still
    /// pending or unflushed output is not idle.
    pub idle_timeout: Option<Duration>,
    /// Worker respawns the pool supervisor may spend over the server's
    /// lifetime before degrading ([`xq_core::PoolConfig::restart_budget`]).
    /// Long chaos soaks raise this above the expected crash count.
    pub restart_budget: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: usize::MAX,
            batch_max: 32,
            default_budget: Budget::default(),
            tenants: HashMap::new(),
            rates: HashMap::new(),
            default_rate: None,
            drain_deadline: Duration::from_secs(1),
            docs: HashMap::new(),
            faults: None,
            write_high_water: 256 * 1024,
            write_low_water: 64 * 1024,
            idle_timeout: None,
            restart_budget: PoolConfig::default().restart_budget,
        }
    }
}

/// Monotonic counters the server exposes for tests and the harness.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Query frames answered `ok`.
    pub served: AtomicU64,
    /// Query frames answered `overloaded` (shed at admission).
    pub shed: AtomicU64,
    /// Query frames answered `rate_limited` (tenant bucket empty).
    pub rate_limited: AtomicU64,
    /// Query frames answered `cancelled` or `deadline`.
    pub cancelled: AtomicU64,
    /// Query frames answered `internal_error` (a contained panic, a
    /// crashed worker, or an exhausted restart budget).
    pub internal_errors: AtomicU64,
    /// Query frames answered on the reactor thread by the inline route
    /// ([`QueryService::try_serve_inline`]), whatever the outcome. Every
    /// other query frame that passed validation and the rate limit went
    /// to the pool.
    pub inline: AtomicU64,
    /// Query frames the inline route started and escalated to the pool:
    /// their run crossed the reactor bound. Counted apart from `inline`.
    pub escalated: AtomicU64,
    /// Times a connection hit the write high-water mark and was corked
    /// (stopped being polled readable until its buffer drained).
    pub backpressured: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_closed: AtomicU64,
    /// High-water mark of any single connection's write buffer, in bytes
    /// — what backpressure is bounding.
    pub peak_write_buffer: AtomicU64,
}

/// A running front door bound to a loopback port. [`Server::shutdown`]
/// (or drop) drains gracefully: accepting stops, outstanding work
/// finishes or is cancelled at the drain deadline, and every thread —
/// reactor and pool workers — is joined.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    service: Option<Arc<QueryService>>,
    shutdown: Arc<AtomicBool>,
    wake: Arc<WakeFd>,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:0` (the OS picks a free port — [`Server::addr`]
    /// says which), spawns the reactor thread, and starts accepting.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let faults = match &config.faults {
            Some(f) => Some(Arc::clone(f)),
            // A malformed XQ_FAULT_SPEC is a startup error, not a
            // silently-uninjected chaos run.
            None => Faults::from_env()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?
                .map(Arc::new),
        };
        let service = Arc::new(
            QueryService::with_config(PoolConfig {
                workers: config.workers,
                faults,
                restart_budget: config.restart_budget,
                ..PoolConfig::default()
            })
            .with_queue_capacity(config.queue_capacity),
        );
        let wake = Arc::new(WakeFd::new()?);
        let (completion_tx, completion_rx) = channel();
        let sink = {
            let wake = Arc::clone(&wake);
            CompletionSink::new(completion_tx, Arc::new(move || wake.wake()))
        };
        let poller = Poller::new()?;
        poller.add(wake.raw(), TOKEN_WAKE, true, false)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        // Wheel resolution: a quarter of the timeout (clamped sane), so
        // expiry is at most ~25% late and the reactor never wakes more
        // than ~4x per timeout just to mind the clock.
        let wheel = config.idle_timeout.map(|d| {
            TimerWheel::new(
                (d / 4).clamp(Duration::from_millis(1), Duration::from_millis(250)),
                64,
            )
        });
        let reactor = Reactor {
            poller,
            wake: Arc::clone(&wake),
            listener: Some(listener),
            config: Arc::new(config),
            service: Arc::clone(&service),
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
            completions: completion_rx,
            sink,
            conns: HashMap::new(),
            routes: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            next_ticket: 0,
            buckets: HashMap::new(),
            drain_deadline: None,
            drain_cancelled: false,
            wheel,
            ewma_us: 0.0,
            tokens: Vec::new(),
            chunk: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        let handle = std::thread::spawn(move || reactor.run());
        Ok(Server {
            addr,
            stats,
            service: Some(service),
            shutdown,
            wake,
            reactor: Some(handle),
        })
    }

    /// The bound address (always loopback, ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's monotonic counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Requests accepted into the pool queue but not yet being
    /// evaluated: the admission slots `queue_capacity` bounds.
    pub fn queue_depth(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.queue_depth())
    }

    /// Requests a pool worker is evaluating right now.
    pub fn in_flight(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.in_flight())
    }

    /// Pool workers running right now (dips while the supervisor
    /// respawns a crashed worker).
    pub fn alive_workers(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.alive_workers())
    }

    /// Worker respawns the pool supervisor has performed, ever.
    pub fn restarts(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.restarts())
    }

    /// Worker threads lost to panics escaping the unwind fence, ever.
    pub fn worker_deaths(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.worker_deaths())
    }

    /// Panics the pool's per-request unwind fence contained, ever.
    pub fn contained_panics(&self) -> usize {
        self.service.as_ref().map_or(0, |s| s.contained_panics())
    }

    /// Drains and stops the server: stop accepting, refuse late `query`
    /// frames (`shutting_down`), finish queued and in-flight work —
    /// cancelling whatever outlives [`ServerConfig::drain_deadline`] —
    /// flush and close every connection, and join the reactor and every
    /// pool worker. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        if let Some(service) = self.service.take() {
            // The reactor's clone is gone (thread joined), so this is
            // the last Arc and dropping it joins the worker pool.
            drop(Arc::try_unwrap(service).map(drop));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const TOKEN_WAKE: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Longest accepted request line; a connection exceeding it without a
/// newline is dropped (the pre-reactor `BufReader` had no such guard —
/// one hostile connection could balloon memory without bound).
const MAX_LINE: usize = 1 << 20;
/// Bytes one socket read asks for.
const READ_CHUNK: usize = 16 * 1024;

/// A per-tenant token bucket (see [`RateLimit`]).
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    fn full(limit: &RateLimit, now: Instant) -> Bucket {
        Bucket {
            tokens: limit.burst as f64,
            last: now,
        }
    }

    /// Refills for the time since the last call, up to `burst`, then
    /// spends one token if there is one. `now` is the caller's clock
    /// reading, so the arithmetic is a pure function of the readings.
    fn take(&mut self, limit: &RateLimit, now: Instant) -> bool {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * limit.per_sec).min(limit.burst as f64);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// What [`LineBuf::take_line`] found in the read buffer.
enum LineStep {
    /// No complete line buffered.
    None,
    /// One complete line, UTF-8 validated, `\n` (and any `\r`) stripped.
    Line(String),
    /// Invalid UTF-8 or an over-long line: drop the connection (the
    /// pre-reactor `BufReader::lines` path did the same for bad UTF-8).
    Fatal,
}

/// A connection's read buffer: bytes read but not yet consumed as
/// lines. Consuming a line advances a read offset instead of shifting
/// the buffer, and the newline search resumes where it last stopped, so
/// a pipelined burst costs time linear in its bytes: each byte is
/// scanned once and moved at most once, by [`LineBuf::compact`].
#[derive(Default)]
struct LineBuf {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    start: usize,
    /// Where the newline search resumes: `buf[start..scan]` holds no
    /// newline.
    scan: usize,
    /// Bytes examined by the newline search and bytes moved by
    /// compaction — the work counters the linearity test pins.
    scanned: u64,
    moved: u64,
}

impl LineBuf {
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes.
    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scan = 0;
    }

    /// The index of the next newline, resuming the search at `scan`.
    fn newline(&mut self) -> Option<usize> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.scanned += i as u64 + 1;
                self.scan += i;
                Some(self.scan)
            }
            None => {
                self.scanned += (self.buf.len() - self.scan) as u64;
                self.scan = self.buf.len();
                None
            }
        }
    }

    /// Whether a complete line is buffered.
    fn has_line(&mut self) -> bool {
        self.newline().is_some()
    }

    /// Consumes the next complete line, mirroring `BufRead::lines`
    /// (strips `\n` and a trailing `\r`; invalid UTF-8 is fatal to the
    /// connection, and so is more than [`MAX_LINE`] bytes without a
    /// newline).
    fn take_line(&mut self) -> LineStep {
        let Some(nl) = self.newline() else {
            return if self.len() > MAX_LINE {
                LineStep::Fatal
            } else {
                LineStep::None
            };
        };
        let mut line = &self.buf[self.start..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let step = match std::str::from_utf8(line) {
            Ok(s) => LineStep::Line(s.to_owned()),
            Err(_) => LineStep::Fatal,
        };
        self.start = nl + 1;
        self.scan = self.start;
        step
    }

    /// Drops the consumed prefix once it is at least as long as what
    /// remains (or is everything), so the bytes moved over any sequence
    /// of rounds add up to at most the bytes consumed.
    fn compact(&mut self) {
        let live = self.len();
        if self.start == 0 || live > self.start {
            return;
        }
        self.moved += live as u64;
        self.buf.drain(..self.start);
        self.scan -= self.start;
        self.start = 0;
    }
}

/// Per-connection state, owned entirely by the reactor thread — no
/// locks anywhere on the serving path.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as lines.
    rbuf: LineBuf,
    /// Encoded response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// The tenant named by `hello` (`"default"` until then) — the rate
    /// bucket key.
    tenant: String,
    /// The tenant's budget quota, template for each request's budget.
    budget: Budget,
    /// Cancel flags of requests submitted and not yet completed — what
    /// `cancel` frames, EOF, and the drain deadline trip.
    flags: HashMap<u64, CancelFlag>,
    /// Query ids awaiting responses, in submission order — the FIFO
    /// that keeps pipelined responses ordered.
    pending: VecDeque<u64>,
    /// Out-of-order completions waiting for their turn at the FIFO head.
    done: HashMap<u64, Frame>,
    /// The socket returned EOF; remaining buffered lines still run.
    eof_seen: bool,
    /// EOF fully processed (buffered lines handled, flags tripped).
    read_closed: bool,
    /// Write side failed: discard output, tear down.
    dead: bool,
    /// Backpressured: the write buffer passed the high-water mark, so
    /// the read side is paused (no epoll read interest, no buffered-line
    /// processing) until the buffer drains to the low-water mark.
    /// Responses for work already in flight still append — the cork
    /// stops *new* work, which is the only side the reactor controls.
    corked: bool,
    /// Last socket traffic in either direction — the idle-timeout clock.
    last_activity: Instant,
    /// Current epoll interest pair, to make re-registration a no-op
    /// when nothing changed.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream, budget: Budget) -> Conn {
        Conn {
            stream,
            rbuf: LineBuf::default(),
            wbuf: Vec::new(),
            tenant: "default".to_string(),
            budget,
            flags: HashMap::new(),
            pending: VecDeque::new(),
            done: HashMap::new(),
            eof_seen: false,
            read_closed: false,
            dead: false,
            corked: false,
            last_activity: Instant::now(),
            interest: (true, false),
        }
    }

    /// Whether a complete buffered line is waiting (drives zero-timeout
    /// polling so fairness-deferred lines are handled promptly). A
    /// corked connection's lines don't count — they are deliberately
    /// deferred, and spinning on them would busy-loop the reactor for
    /// exactly as long as the backpressure lasts.
    fn has_buffered_line(&mut self) -> bool {
        !self.read_closed && !self.dead && !self.corked && self.rbuf.has_line()
    }

    /// Trips every in-flight flag (EOF, fatal line, write failure, or
    /// the drain deadline).
    fn trip_flags(&self) {
        for flag in self.flags.values() {
            flag.cancel();
        }
    }

    /// Done serving: reaped once nothing remains to deliver.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.pending.is_empty() && self.wbuf.is_empty())
    }
}

/// The reactor: owns the poller, the listener, every connection, and the
/// pool handoff. Runs until shutdown + drain complete.
struct Reactor {
    poller: Poller,
    wake: Arc<WakeFd>,
    listener: Option<TcpListener>,
    config: Arc<ServerConfig>,
    service: Arc<QueryService>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    completions: Receiver<(u64, Result<String, ServiceError>)>,
    sink: CompletionSink,
    conns: HashMap<u64, Conn>,
    /// Submission ticket → (connection token, request id, submit time).
    /// Entries outlive their connection so completions for torn-down
    /// connections still reach the stats counters; the submit time feeds
    /// the latency EWMA behind `retry_after_ms` hints.
    routes: HashMap<u64, (u64, u64, Instant)>,
    next_token: u64,
    next_ticket: u64,
    /// Per-tenant rate-limit buckets (reactor-owned: no locking).
    buckets: HashMap<String, Bucket>,
    /// Set when shutdown is observed: the moment outstanding work gets
    /// cancelled.
    drain_deadline: Option<Instant>,
    /// The deadline cancellation has fired.
    drain_cancelled: bool,
    /// Idle-timeout deadlines (present iff `config.idle_timeout` is).
    wheel: Option<TimerWheel>,
    /// Exponentially-weighted mean submit→completion latency in
    /// microseconds (0 until the first sample) — the `overloaded`
    /// frame's `retry_after_ms` hint: "one request's worth of time from
    /// now" is when a slot has plausibly freed.
    ewma_us: f64,
    /// Connection tokens of the current turn; one buffer, refilled each turn.
    tokens: Vec<u64>,
    /// The buffer every socket read lands in before `Conn::rbuf`.
    chunk: Box<[u8]>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.poll_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                break; // unrecoverable poller failure
            }
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.drain_completions();
            // The token list is taken off `self` so the loop may borrow it.
            let mut tokens = std::mem::take(&mut self.tokens);
            tokens.clear();
            tokens.extend(self.conns.keys().copied());
            for &token in &tokens {
                self.process_buffered(token);
            }
            if self.shutdown.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
                self.begin_drain();
            }
            if let Some(deadline) = self.drain_deadline {
                if !self.drain_cancelled && Instant::now() >= deadline {
                    self.drain_cancelled = true;
                    for conn in self.conns.values() {
                        conn.trip_flags();
                    }
                }
            }
            self.check_idle();
            tokens.clear();
            tokens.extend(self.conns.keys().copied());
            for &token in &tokens {
                self.post_io(token);
            }
            self.tokens = tokens;
            self.reap();
            if self.drain_deadline.is_some() && self.drained() {
                break; // dropping self closes every remaining socket
            }
        }
    }

    /// Zero while fairness-deferred lines wait, the time to the drain
    /// deadline while draining, otherwise block until an event — capped
    /// at the timer wheel's granularity while idle deadlines are live,
    /// so expiry is checked on schedule even with no I/O.
    fn poll_timeout(&mut self) -> i32 {
        if self.conns.values_mut().any(Conn::has_buffered_line) {
            return 0;
        }
        let base = match self.drain_deadline {
            Some(d) if !self.drain_cancelled => {
                let ms = d.saturating_duration_since(Instant::now()).as_millis();
                ms.min(i32::MAX as u128) as i32
            }
            // Draining past cancellation: only completions remain, and
            // they arrive via the wake fd.
            _ => -1,
        };
        match &self.wheel {
            Some(w) if !self.conns.is_empty() => {
                let gran = w.granularity().as_millis().clamp(1, i32::MAX as u128) as i32;
                if base < 0 {
                    gran
                } else {
                    base.min(gran)
                }
            }
            _ => base,
        }
    }

    /// Sweeps the idle wheel: a connection whose deadline passed with no
    /// traffic since — and nothing pending or unflushed, which would
    /// make "idle" a misnomer — is torn down; everything else re-arms at
    /// its next plausible expiry.
    fn check_idle(&mut self) {
        let Some(timeout) = self.config.idle_timeout else {
            return;
        };
        // Taken out for the sweep so re-arming can borrow `conns`
        // alongside it.
        let Some(mut wheel) = self.wheel.take() else {
            return;
        };
        let now = Instant::now();
        let mut due = Vec::new();
        wheel.expire(now, &mut due);
        for token in due {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // already reaped
            };
            if conn.dead {
                continue;
            }
            let busy = !conn.pending.is_empty() || !conn.wbuf.is_empty() || conn.corked;
            let deadline = conn.last_activity + timeout;
            if !busy && deadline <= now {
                self.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                conn.dead = true;
                conn.trip_flags();
            } else {
                // Saw traffic (or is mid-work): re-arm for when it could
                // next actually be idle-expired.
                let gran = wheel.granularity();
                wheel.insert(token, deadline.max(now + gran));
            }
        }
        self.wheel = Some(wheel);
    }

    /// Everything outstanding is delivered (or undeliverable): exit.
    fn drained(&self) -> bool {
        let pendings_done =
            self.routes.is_empty() && self.conns.values().all(|c| c.dead || c.pending.is_empty());
        let flushed = self.conns.values().all(|c| c.dead || c.wbuf.is_empty());
        // Before the deadline, wait for clients to take their flushed
        // answers; past it, a stalled reader no longer delays exit.
        pendings_done && (flushed || self.drain_cancelled)
    }

    /// Shutdown observed: close the door and start the drain clock.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
            // Dropping the listener closes it: connection attempts from
            // here on are refused at the TCP layer.
        }
        self.drain_deadline = Some(Instant::now() + self.config.drain_deadline);
    }

    /// Accepts until the backlog is empty (level-triggered listener).
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Line-delimited request/response RPC is exactly the
                    // small-write pattern Nagle + delayed ACK punish with
                    // ~40ms stalls; every response must go out now.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.stats.connections.fetch_add(1, Ordering::Relaxed);
                    self.conns
                        .insert(token, Conn::new(stream, self.config.default_budget.clone()));
                    if let (Some(wheel), Some(timeout)) =
                        (&mut self.wheel, self.config.idle_timeout)
                    {
                        wheel.insert(token, Instant::now() + timeout);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection failures (ECONNABORTED …).
                Err(_) => return,
            }
        }
    }

    /// A connection's readiness event: drain the socket into `rbuf`
    /// and/or retry the write buffer. Line handling happens afterwards
    /// in [`Reactor::process_buffered`].
    fn conn_ready(&mut self, token: u64, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if ev.readable || ev.hangup {
            // A corked connection is not read at all — the kernel socket
            // buffer (and eventually the peer's send path) absorbs the
            // pressure, which is the whole point of backpressure.
            while !conn.eof_seen && !conn.dead && !conn.corked {
                match conn.stream.read(&mut self.chunk) {
                    Ok(0) => conn.eof_seen = true,
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.rbuf.extend(&self.chunk[..n]);
                        // Stop pulling once a hostile line is over-long;
                        // process_buffered turns that into a teardown.
                        if conn.rbuf.len() > MAX_LINE {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Read side gone without clean EOF: same
                        // teardown as EOF, nothing more will arrive.
                        conn.eof_seen = true;
                    }
                }
            }
        }
        if ev.writable || ev.hangup {
            Self::try_write(conn);
        }
    }

    /// Handles up to `batch_max` buffered lines for one connection (the
    /// pipelining-fairness bound), then finalizes EOF once the buffer
    /// holds no complete line.
    fn process_buffered(&mut self, token: u64) {
        let limit = self.config.batch_max.max(1);
        for _ in 0..limit {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.read_closed || conn.dead || conn.corked {
                    // Corked: already-buffered lines wait too — handling
                    // them would create new work while the connection is
                    // exactly the one we're trying to slow down.
                    return;
                }
                conn.rbuf.take_line()
            };
            match step {
                LineStep::Line(line) => self.handle_line(token, &line),
                LineStep::Fatal => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        // Matches the old reader: the connection is
                        // dropped, its outstanding work cancelled, but
                        // already-written responses still flush.
                        conn.read_closed = true;
                        conn.rbuf.clear();
                        conn.trip_flags();
                    }
                    return;
                }
                LineStep::None => break,
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.eof_seen && !conn.read_closed && !conn.rbuf.has_line() {
                // EOF, and every complete line has been handled: the old
                // reader's post-loop cleanup — cancel what's in flight.
                conn.read_closed = true;
                conn.rbuf.clear();
                conn.trip_flags();
            }
            conn.rbuf.compact();
        }
    }

    /// One request line: parse, dispatch by op. Protocol-level errors
    /// answer immediately (ahead of in-flight queries, as PR 7 did);
    /// query outcomes flow through the ordered FIFO.
    fn handle_line(&mut self, token: u64, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let frame = match Frame::parse(line) {
            Ok(f) => f,
            Err(e) => {
                self.respond(token, bad_request(e));
                return;
            }
        };
        match frame.get_str("op") {
            Some("hello") => {
                let tenant = frame.get_str("tenant").unwrap_or("default").to_string();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.budget = self
                        .config
                        .tenants
                        .get(&tenant)
                        .cloned()
                        .unwrap_or_else(|| self.config.default_budget.clone());
                    conn.tenant = tenant.clone();
                }
                let resp = Frame::new()
                    .bool("ok", true)
                    .str("op", "hello")
                    .str("tenant", tenant);
                self.respond(token, resp);
            }
            Some("cancel") => {
                let Some(id) = frame.get_uint("id") else {
                    self.respond(token, bad_request("cancel needs a numeric id"));
                    return;
                };
                // Ack first, then trip the flag: the ack's position in
                // the response stream is deterministic (before the
                // cancelled query's own response), which the golden
                // suite pins.
                let resp = Frame::new()
                    .bool("ok", true)
                    .str("op", "cancel")
                    .uint("id", id);
                self.respond(token, resp);
                if let Some(conn) = self.conns.get(&token) {
                    if let Some(flag) = conn.flags.get(&id) {
                        flag.cancel();
                    }
                }
            }
            Some("query") => self.handle_query(token, &frame),
            _ => self.respond(token, bad_request("op must be hello, query, or cancel")),
        }
    }

    /// A `query` frame: validate, rate-limit, then answer it inline or
    /// register its cancel flag and hand it off to the pool.
    fn handle_query(&mut self, token: u64, frame: &Frame) {
        let Some(id) = frame.get_uint("id") else {
            self.respond(token, bad_request("query needs a numeric id"));
            return;
        };
        if self.drain_deadline.is_some() {
            // Late frame during drain: refused, never queued.
            let resp = Frame::new()
                .bool("ok", false)
                .uint("id", id)
                .str("code", "shutting_down")
                .str("error", "server is draining");
            self.respond(token, resp);
            return;
        }
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.pending.contains(&id) {
            // The duplicate-id bugfix: a second in-flight `query` with
            // the same id used to clobber the first's cancel-flag
            // registration; now it is rejected outright.
            let resp = bad_request(format!("id {id} is already in flight")).uint("id", id);
            self.respond(token, resp);
            return;
        }
        let Some(query) = frame.get_str("query") else {
            self.respond(token, bad_request("query needs query text").uint("id", id));
            return;
        };
        let Some(doc_name) = frame.get_str("doc") else {
            self.respond(token, bad_request("query needs a doc name").uint("id", id));
            return;
        };
        let Some(doc) = self.config.docs.get(doc_name) else {
            let resp = Frame::new()
                .bool("ok", false)
                .uint("id", id)
                .str("code", "unknown_doc")
                .str("error", format!("no document named {doc_name:?}"));
            self.respond(token, resp);
            return;
        };
        // Rate limit: one token per well-formed query, from the
        // tenant's shared bucket. Refusals take the ordered FIFO (like
        // `overloaded`) so pipelined responses stay in submission order.
        let tenant = conn.tenant.clone();
        let limit = self
            .config
            .rates
            .get(&tenant)
            .or(self.config.default_rate.as_ref());
        if let Some(limit) = limit {
            let now = Instant::now();
            let bucket = self
                .buckets
                .entry(tenant)
                .or_insert_with(|| Bucket::full(limit, now));
            if !bucket.take(limit, now) {
                self.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                let mut resp = Frame::new()
                    .bool("ok", false)
                    .uint("id", id)
                    .str("code", "rate_limited")
                    .str("error", "rate limit exceeded");
                // When the bucket refills at all, one token is
                // ceil(1000/per_sec) ms out — the soonest a retry can
                // succeed. A never-refilling bucket has no honest hint.
                if limit.per_sec > 0.0 {
                    resp = resp.uint("retry_after_ms", (1000.0 / limit.per_sec).ceil() as u64);
                }
                // The conn re-borrow: `respond`-style paths look the
                // connection up again because `handle_line` may have
                // invalidated earlier borrows; a connection torn down
                // mid-line simply drops the response.
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                conn.pending.push_back(id);
                conn.done.insert(id, resp);
                return;
            }
        }
        // The `overloaded` hint, taken while no connection is borrowed.
        let retry_ms = self.overload_retry_ms();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut request = Request::new(query, Arc::clone(doc));
        request.budget = conn.budget.clone();
        if let Some(ms) = frame.get_uint("deadline_ms") {
            request.budget = request.budget.with_deadline_in(Duration::from_millis(ms));
        }
        // The inline route: the request starts here, and its answer takes
        // the FIFO slot a pool completion would fill. Only while this
        // connection waits on no pool answer: an inline answer queued
        // behind one would gain nothing, and serving in request order
        // keeps each fault point's draws in request order on a
        // connection, so a seeded run replays exactly.
        let mut handoff = None;
        if conn.flags.is_empty() {
            match self.service.try_serve_inline(&request) {
                Inline::Served(result) => {
                    self.stats.inline.fetch_add(1, Ordering::Relaxed);
                    let shed = matches!(result, Err(ServiceError::Overloaded));
                    let mut frame = render(&self.stats, id, result);
                    if shed {
                        frame = frame.uint("retry_after_ms", retry_ms);
                    }
                    conn.pending.push_back(id);
                    conn.done.insert(id, frame);
                    return;
                }
                Inline::Escalated(h) => {
                    self.stats.escalated.fetch_add(1, Ordering::Relaxed);
                    handoff = Some(h);
                }
                Inline::Declined => {}
            }
        }
        let flag = CancelFlag::new();
        request.budget = request.budget.with_cancel(flag.clone());
        // Register before submitting: a cancel (or EOF) racing the
        // evaluation must still reach the flag.
        conn.pending.push_back(id);
        conn.flags.insert(id, flag);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.routes.insert(ticket, (token, id, Instant::now()));
        if let Some(handoff) = handoff {
            // Admitted already, by the inline run.
            self.service.hand_off(ticket, request, handoff, &self.sink);
        } else if !self.service.try_submit(ticket, request, &self.sink) {
            // Shed at admission: the result is known now; it still takes
            // the FIFO so responses stay ordered. The retry hint is one
            // EWMA-request's worth of time out — when a slot has
            // plausibly freed.
            self.routes.remove(&ticket);
            let frame = render(&self.stats, id, Err(ServiceError::Overloaded))
                .uint("retry_after_ms", retry_ms);
            conn.flags.remove(&id);
            conn.done.insert(id, frame);
        }
    }

    /// The `overloaded` frame's retry hint: the smoothed per-request
    /// latency, rounded up to a millisecond. Before any sample exists
    /// the hint is the 1ms floor — deterministic, which the golden
    /// transcripts rely on (their overload scenarios shed from a fresh
    /// server).
    fn overload_retry_ms(&self) -> u64 {
        ((self.ewma_us / 1000.0).ceil() as u64).clamp(1, 60_000)
    }

    /// Routes every queued pool completion to its connection's FIFO
    /// (counting stats even when the connection is already gone).
    fn drain_completions(&mut self) {
        while let Ok((ticket, result)) = self.completions.try_recv() {
            let Some((token, id, submitted)) = self.routes.remove(&ticket) else {
                continue;
            };
            // Feed the latency EWMA (α = 0.2): smooth enough to ride out
            // one slow query, fresh enough to track load shifts.
            let sample_us = submitted.elapsed().as_micros().min(u64::MAX as u128) as f64;
            self.ewma_us = if self.ewma_us == 0.0 {
                sample_us
            } else {
                0.8 * self.ewma_us + 0.2 * sample_us
            };
            let frame = render(&self.stats, id, result);
            if let Some(conn) = self.conns.get_mut(&token) {
                if !conn.dead {
                    conn.flags.remove(&id);
                    conn.done.insert(id, frame);
                }
            }
            // Connection torn down: the answer is undeliverable, but the
            // counters above still observed it (the disconnect-cancels
            // contract is tested through exactly this path).
        }
    }

    /// An immediate (non-FIFO) response: protocol errors, hello/cancel
    /// acks — written ahead of in-flight query answers, like the PR 7
    /// reader thread did.
    fn respond(&mut self, token: u64, frame: Frame) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if !conn.dead {
                let mut line = frame.encode();
                line.push('\n');
                conn.wbuf.extend_from_slice(line.as_bytes());
            }
        }
    }

    /// Moves ready FIFO-ordered answers into the write buffer, flushes
    /// what the socket will take, and refreshes epoll interest.
    fn post_io(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(front) = conn.pending.front() {
            let Some(frame) = conn.done.remove(front) else {
                break;
            };
            conn.pending.pop_front();
            if !conn.dead {
                let mut line = frame.encode();
                line.push('\n');
                conn.wbuf.extend_from_slice(line.as_bytes());
            }
        }
        self.stats
            .peak_write_buffer
            .fetch_max(conn.wbuf.len() as u64, Ordering::Relaxed);
        Self::try_write(conn);
        // Backpressure with hysteresis: cork at the high-water mark
        // (stop reading → stop creating work), uncork only once the
        // buffer has drained to the low-water mark, so a slow reader
        // doesn't flap between states every round.
        if !conn.corked && conn.wbuf.len() >= self.config.write_high_water {
            conn.corked = true;
            self.stats.backpressured.fetch_add(1, Ordering::Relaxed);
        } else if conn.corked && conn.wbuf.len() <= self.config.write_low_water {
            conn.corked = false;
        }
        let want = (
            !conn.eof_seen && !conn.read_closed && !conn.dead && !conn.corked,
            !conn.wbuf.is_empty() && !conn.dead,
        );
        if want != conn.interest {
            conn.interest = want;
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want.0, want.1);
        }
    }

    /// Writes as much of `wbuf` as the socket takes right now. A write
    /// failure kills the connection and cancels its outstanding work.
    fn try_write(conn: &mut Conn) {
        let mut written = 0;
        while written < conn.wbuf.len() && !conn.dead {
            match conn.stream.write(&conn.wbuf[written..]) {
                Ok(0) => conn.dead = true,
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => conn.dead = true,
            }
        }
        conn.wbuf.drain(..written);
        if conn.dead {
            conn.wbuf.clear();
            conn.trip_flags();
        }
    }

    /// Deregisters and drops finished connections (dropping the stream
    /// closes it). Their `routes` entries stay until the completions
    /// arrive, so stats never lose a result.
    fn reap(&mut self) {
        let goners: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.finished())
            .map(|(t, _)| *t)
            .collect();
        for token in goners {
            if let Some(conn) = self.conns.remove(&token) {
                let _ = self.poller.delete(conn.stream.as_raw_fd());
            }
        }
    }
}

/// A frame-level `bad_request` answer.
fn bad_request(error: impl Into<String>) -> Frame {
    Frame::new()
        .bool("ok", false)
        .str("code", "bad_request")
        .str("error", error.into())
}

/// Maps a pool result to its wire frame, bumping the stats counters —
/// the one place query outcomes are counted, deliverable or not.
fn render(stats: &ServerStats, id: u64, result: Result<String, ServiceError>) -> Frame {
    match result {
        Ok(xml) => {
            stats.served.fetch_add(1, Ordering::Relaxed);
            Frame::new()
                .bool("ok", true)
                .uint("id", id)
                .str("result", xml)
        }
        Err(e) => {
            let code = match &e {
                ServiceError::Parse(_) => "parse",
                ServiceError::Eval(_) => "eval",
                ServiceError::Overloaded => "overloaded",
                ServiceError::Cancelled => "cancelled",
                ServiceError::DeadlineExceeded => "deadline",
                ServiceError::Internal(_) => "internal_error",
            };
            match &e {
                ServiceError::Overloaded => {
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                }
                ServiceError::Cancelled | ServiceError::DeadlineExceeded => {
                    stats.cancelled.fetch_add(1, Ordering::Relaxed);
                }
                ServiceError::Internal(_) => {
                    stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            Frame::new()
                .bool("ok", false)
                .uint("id", id)
                .str("code", code)
                .str("error", e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limit(per_sec: f64, burst: u32) -> RateLimit {
        RateLimit { per_sec, burst }
    }

    #[test]
    fn a_spent_bucket_refills_one_token_per_period() {
        let rate = limit(20.0, 1);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut b = Bucket::full(&rate, t0);
        assert!(b.take(&rate, t0), "a new bucket starts full");
        // One token takes 1/20 s = 50 ms to earn.
        assert!(!b.take(&rate, at(10)), "refused well before 1/per_sec");
        assert!(!b.take(&rate, at(40)), "refused well before 1/per_sec");
        assert!(b.take(&rate, at(91)), "admitted once 1/per_sec has passed");
        assert!(!b.take(&rate, at(92)));
    }

    #[test]
    fn a_long_idle_refills_to_burst_and_no_further() {
        let rate = limit(20.0, 3);
        let t0 = Instant::now();
        let mut b = Bucket::full(&rate, t0);
        for _ in 0..3 {
            assert!(b.take(&rate, t0));
        }
        assert!(!b.take(&rate, t0));
        let later = t0 + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(b.take(&rate, later), "an hour idle refills to burst");
        }
        assert!(!b.take(&rate, later), "and no further");
    }

    #[test]
    fn a_zero_rate_never_refills() {
        let rate = limit(0.0, 2);
        let t0 = Instant::now();
        let mut b = Bucket::full(&rate, t0);
        assert!(b.take(&rate, t0) && b.take(&rate, t0));
        for secs in [0, 1, 3600, 86_400 * 365] {
            assert!(!b.take(&rate, t0 + Duration::from_secs(secs)), "{secs}s");
        }
    }

    /// `lines` pipelined hello frames, the way a client writes a burst.
    fn burst(lines: usize) -> Vec<u8> {
        (0..lines)
            .flat_map(|i| format!("{{\"op\":\"hello\",\"tenant\":\"t{i}\"}}\n").into_bytes())
            .collect()
    }

    #[test]
    fn a_pipelined_burst_is_scanned_and_moved_linearly() {
        for lines in [5_000, 20_000, 80_000] {
            let bytes = burst(lines);
            let mut buf = LineBuf::default();
            let (mut fed, mut taken) = (0, 0);
            // Reactor rounds: read one 16 KiB chunk, handle up to 32
            // lines (the default `batch_max`), probe for a waiting line
            // as `poll_timeout` does, compact.
            while taken < lines {
                let chunk = &bytes[fed..bytes.len().min(fed + 16 * 1024)];
                buf.extend(chunk);
                fed += chunk.len();
                for _ in 0..32 {
                    match buf.take_line() {
                        LineStep::Line(l) => {
                            assert_eq!(l, format!("{{\"op\":\"hello\",\"tenant\":\"t{taken}\"}}"));
                            taken += 1;
                        }
                        LineStep::None => break,
                        LineStep::Fatal => panic!("well-formed line refused"),
                    }
                }
                buf.has_line();
                buf.compact();
            }
            assert_eq!((buf.len(), fed), (0, bytes.len()));
            // Each byte is scanned once, plus one re-probe of a found
            // newline per round; each byte moves at most once.
            let (total, rounds) = (bytes.len() as u64, (lines / 32 + 1) as u64);
            assert!(
                buf.scanned <= total + rounds,
                "{lines} lines: scanned {}",
                buf.scanned
            );
            assert!(buf.moved <= total, "{lines} lines: moved {}", buf.moved);
        }
    }

    #[test]
    fn an_over_long_line_is_fatal_and_a_long_partial_one_is_not() {
        let mut buf = LineBuf::default();
        buf.extend(&vec![b'x'; MAX_LINE]);
        assert!(matches!(buf.take_line(), LineStep::None));
        buf.extend(b"x");
        assert!(matches!(buf.take_line(), LineStep::Fatal));
        // A complete line ahead of a partial one is still handed out.
        let mut buf = LineBuf::default();
        buf.extend(b"{}\r\n\xff\n{\"op\"");
        assert!(matches!(buf.take_line(), LineStep::Line(l) if l == "{}"));
        assert!(matches!(buf.take_line(), LineStep::Fatal));
        assert!(matches!(buf.take_line(), LineStep::None));
        assert_eq!(buf.len(), 5);
    }
}
