//! A batching query service over a supervised worker pool — the
//! serve-heavy-traffic shape of the ROADMAP north star.
//!
//! [`QueryService`] owns `N` long-lived worker threads. A batch of
//! [`Request`]s (query text + shared [`ArenaDoc`] + [`Budget`]) is fanned
//! out over one shared job channel; workers evaluate and send back
//! `(index, result)` pairs, and [`QueryService::run_batch`] reassembles
//! them in submission order. Documents cross threads as
//! `Arc<ArenaDoc>` — the sharded global interner is what makes that legal
//! — so a corpus is loaded once and served by every worker without
//! copying.
//!
//! Besides the synchronous batch collectors there is an asynchronous
//! handoff for event-loop callers: [`QueryService::try_submit`] admits
//! (or sheds) one tagged request and returns immediately; the worker
//! later pushes `(tag, result)` onto the caller's [`CompletionSink`] and
//! runs its waker — how the reactor front door in `xq_server` gets
//! completions back into an `epoll_wait` loop without parking a thread
//! per connection.
//!
//! On the default route ([`ServeMode::CachedVm`]) workers do not parse at
//! all: query text resolves through the process-wide
//! [`PlanCache`] to a [`CompiledPlan`](crate::vm::CompiledPlan) —
//! compiled exactly once per process, however many workers race on it —
//! and runs on the bytecode VM. [`ServeMode::Interp`] preserves the
//! parse-per-request interpreter route as a baseline.
//!
//! ## Fault containment
//!
//! Koch05's completeness result means a legitimately adversarial query
//! can demand exponential resources — and an engine bug it tickles can
//! panic. Three layers keep one bad request from taking the pool down:
//!
//! * **The unwind fence.** Each evaluation runs under
//!   [`std::panic::catch_unwind`]: a panicking query is answered
//!   [`ServiceError::Internal`] and the worker serves the next job.
//! * **RAII accounting and delivery.** Every gauge increment is held by
//!   a guard (`GaugeGuard`) and every job owns a `Delivery` that
//!   answers `Internal` on drop if nothing was delivered — so *any*
//!   exit path (normal, panic, worker death, service shutdown with jobs
//!   still queued) returns the gauges to zero and sends exactly one
//!   reply per job. The batch collectors and the reactor's FIFO rely on
//!   exactly-once replies; the guards make that invariant hold even
//!   under injected worker crashes.
//! * **Supervision.** A panic that escapes the fence (delivery-path
//!   failures, injected via [`FaultPoint::CompletionDrop`]) kills the
//!   worker thread; a supervisor thread observes the death through a
//!   drop sentinel and respawns the worker under a bounded restart
//!   budget with exponential backoff. A pool whose budget is exhausted
//!   degrades instead of hanging: the supervisor itself drains the job
//!   channel, answering `Internal` — callers always get replies.
//!
//! Failure paths are exercised deterministically through the seeded
//! [`Faults`] registry in [`crate::fault`];
//! with no registry configured every hook is a single `None` test.
//!
//! Workers keep a small per-document cache of the materialized [`Tree`]
//! (the Figure 1 evaluator's input form), keyed by the `Arc` pointer
//! identity, so serving many queries against the same hot document pays
//! the arena → tree conversion once per worker, not once per request.

use crate::fault::{FaultPoint, Faults, INJECTED_PANIC_PREFIX};
use crate::semantics::{eval_with, Budget, Env, XqError};
use crate::vm::PlanCache;
use crate::Query;
use cv_xtree::{ArenaDoc, Tree};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work for the service: evaluate `query` (surface syntax)
/// against `doc` under `budget`.
#[derive(Clone)]
pub struct Request {
    /// The query in the paper's surface syntax (parsed by the worker).
    pub query: Arc<str>,
    /// The document, shared across workers without copying.
    pub doc: Arc<ArenaDoc>,
    /// Per-request resource limits. A `threads` knob above 1 routes the
    /// request through the parallel planner
    /// ([`eval_query_par`](crate::eval_query_par)), sharding the query's
    /// loops across that many scoped workers *inside* the pool worker —
    /// intra-query parallelism on top of the pool's inter-query
    /// parallelism. The default ([`Threads::One`](crate::Threads)) keeps
    /// requests on the cached-tree sequential path.
    pub budget: Budget,
}

impl Request {
    /// A request with the default budget.
    pub fn new(query: impl AsRef<str>, doc: Arc<ArenaDoc>) -> Request {
        Request {
            query: Arc::from(query.as_ref()),
            doc,
            budget: Budget::default(),
        }
    }
}

/// Why a request failed. Carries rendered messages (not the source
/// errors) so results stay `Send` and comparable in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The query text did not parse.
    Parse(String),
    /// Evaluation failed (unbound variable, budget exhaustion, …).
    Eval(String),
    /// Shed at admission: the bounded queue was at its high-water mark.
    /// The request was never queued and consumed no evaluation work.
    Overloaded,
    /// The request's [`CancelFlag`](crate::CancelFlag) was set — either
    /// before evaluation started (preflight) or mid-evaluation at a
    /// budget tick.
    Cancelled,
    /// The request's deadline passed — before evaluation started
    /// (preflight) or mid-evaluation at a budget tick.
    DeadlineExceeded,
    /// The engine failed the request, not the request the engine: the
    /// evaluation panicked (contained by the worker's unwind fence), the
    /// worker died before delivering, or the service shut down with the
    /// job still queued. The message says which. Answered on the wire as
    /// `internal_error`.
    Internal(String),
}

impl ServiceError {
    /// Maps an evaluation error to the service vocabulary: cancellation
    /// and deadline expiry keep their identity (the front door answers
    /// them with distinct protocol codes); everything else renders as a
    /// generic evaluation failure.
    pub fn from_eval(e: &XqError) -> ServiceError {
        match e {
            XqError::Cancelled => ServiceError::Cancelled,
            XqError::DeadlineExceeded => ServiceError::DeadlineExceeded,
            other => ServiceError::Eval(other.to_string()),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(m) => write!(f, "parse error: {m}"),
            ServiceError::Eval(m) => write!(f, "evaluation error: {m}"),
            ServiceError::Overloaded => write!(f, "overloaded"),
            ServiceError::Cancelled => write!(f, "evaluation cancelled"),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Which evaluation route the pool workers take.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ServeMode {
    /// Parse every request and tree-walk the Figure 1 interpreter — the
    /// pre-VM behavior, kept as the T18 baseline and for mode-differential
    /// tests. This is the latent per-request re-parse the plan cache
    /// fixes.
    Interp,
    /// Compile through the process-wide [`PlanCache`] and run the
    /// bytecode VM: a hot query parses and compiles once per process,
    /// not once per request per worker. The default.
    #[default]
    CachedVm,
}

/// Construction-time pool configuration: everything the workers and the
/// supervisor need fixed before the first thread spawns.
/// [`QueryService::new`]/[`QueryService::with_mode`] cover the common
/// cases; chaos tests and the front door use the full struct.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Evaluation route (VM by default).
    pub mode: ServeMode,
    /// Seeded fault registry; `None` (the default) disables injection
    /// entirely — each hook is then a single pointer test.
    pub faults: Option<Arc<Faults>>,
    /// Total worker respawns the supervisor will perform over the
    /// service's lifetime. Exhausting it with no workers left switches
    /// the supervisor to degraded draining (every job answered
    /// [`ServiceError::Internal`]) rather than hanging callers.
    pub restart_budget: u32,
    /// Backoff before the first respawn; doubles per respawn up to
    /// [`PoolConfig::MAX_BACKOFF`], resetting after a calm second.
    pub restart_backoff: Duration,
}

impl PoolConfig {
    /// Backoff ceiling for crash-looping pools.
    pub const MAX_BACKOFF: Duration = Duration::from_millis(100);
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            mode: ServeMode::default(),
            faults: None,
            restart_budget: 32,
            restart_backoff: Duration::from_millis(1),
        }
    }
}

/// Where a finished job's result goes.
enum JobSink {
    /// A synchronous batch collector ([`QueryService::run_batch`] /
    /// [`QueryService::try_run_batch`]): per-batch channels (rather than
    /// one shared receiver) are what make the batch methods take `&self` —
    /// any number of callers can have batches in flight on the same pool
    /// concurrently, each collecting exactly its own replies.
    Batch(Sender<Reply>),
    /// An asynchronous completion queue ([`QueryService::try_submit`]):
    /// the reply lands on the sink's channel and the sink's waker runs,
    /// so a reactor blocked in `epoll_wait` learns a completion exists.
    Queue(CompletionSink),
}

/// Holds one unit of a gauge, releasing it on drop — the RAII fix for
/// the admission-slot leak: a worker dying (or any early return) between
/// claiming a slot and completing can no longer leave `queued`,
/// `admitted`, or `in_flight` permanently elevated, because the
/// decrement rides the guard's destructor through every exit path,
/// unwinding included.
struct GaugeGuard(Arc<AtomicUsize>);

impl GaugeGuard {
    /// Claims one unit (increments) and guards it.
    fn claim(gauge: &Arc<AtomicUsize>) -> GaugeGuard {
        gauge.fetch_add(1, Ordering::SeqCst);
        GaugeGuard(Arc::clone(gauge))
    }

    /// Guards a unit something else already claimed (the admission CAS).
    fn adopt(gauge: Arc<AtomicUsize>) -> GaugeGuard {
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Owns a job's reply obligation: exactly one reply reaches the sink,
/// on every path. [`Delivery::deliver`] sends the real result; if the
/// guard drops still armed — the worker panicked mid-delivery, or the
/// service shut down with the job still queued — the destructor sends
/// [`ServiceError::Internal`] instead. This is what lets the batch
/// collector's "every slot filled" invariant and the reactor's
/// one-response-per-id FIFO survive worker crashes.
struct Delivery {
    tag: u64,
    sink: Option<JobSink>,
}

impl Delivery {
    fn new(tag: u64, sink: JobSink) -> Delivery {
        Delivery {
            tag,
            sink: Some(sink),
        }
    }

    /// Sends the result (exactly once — disarms the destructor).
    /// `faults` hosts the `completion-drop` point: an injected panic
    /// *here* is outside the worker's unwind fence, killing the thread
    /// mid-delivery — precisely the failure the destructor then absorbs.
    fn deliver(mut self, result: Result<String, ServiceError>, faults: Option<&Faults>) {
        if let Some(f) = faults {
            if f.fires(FaultPoint::CompletionDrop) {
                panic!("{INJECTED_PANIC_PREFIX} completion-drop");
            }
        }
        self.send(result);
    }

    fn send(&mut self, result: Result<String, ServiceError>) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        // Losing the reply means the collector hung up; that's its
        // business (mirrors the original batch-path contract).
        match sink {
            JobSink::Batch(reply) => {
                let _ = reply.send((self.tag, result));
            }
            JobSink::Queue(sink) => sink.deliver(self.tag, result),
        }
    }
}

impl Drop for Delivery {
    fn drop(&mut self) {
        if self.sink.is_some() {
            self.send(Err(ServiceError::Internal(
                "request abandoned before completion (worker crash or service shutdown)"
                    .to_string(),
            )));
        }
    }
}

struct Job {
    request: Request,
    /// The reply obligation; carries the caller's correlation tag (batch
    /// paths use the request's position, `try_submit` callers route
    /// whatever ticket they chose).
    delivery: Delivery,
    /// Held while the job sits in the queue; released at worker pickup —
    /// or by the job being dropped unserved at shutdown.
    queued: GaugeGuard,
    /// The admission slot, if this job came through an
    /// admission-controlled path; released at pickup like `queued`.
    admission: Option<GaugeGuard>,
}

type Reply = (u64, Result<String, ServiceError>);

/// The delivery end of [`QueryService::try_submit`]: a completion channel
/// plus a wake callback, bundled so pool workers can hand results back to
/// an event loop that is not blocked on a channel. The worker sends
/// `(tag, result)` on the channel **then** runs the waker — a waker that
/// (say) writes an eventfd therefore never fires before its completion is
/// observable.
#[derive(Clone)]
pub struct CompletionSink {
    tx: Sender<Reply>,
    wake: Arc<dyn Fn() + Send + Sync>,
}

impl CompletionSink {
    /// Bundles a completion channel with the waker that announces sends.
    pub fn new(tx: Sender<Reply>, wake: Arc<dyn Fn() + Send + Sync>) -> CompletionSink {
        CompletionSink { tx, wake }
    }

    fn deliver(&self, tag: u64, result: Result<String, ServiceError>) {
        // Losing the reply means the consumer hung up; that's its
        // business (mirrors the batch paths).
        let _ = self.tx.send((tag, result));
        (self.wake)();
    }
}

/// What a worker's drop sentinel tells the supervisor.
enum Notice {
    /// The worker thread is unwinding from an escaped panic: join the
    /// corpse, consider a respawn.
    Died(usize),
    /// The worker exited cleanly (jobs channel closed — shutdown).
    Exited(usize),
    /// The service is dropping: join everything and return.
    Shutdown,
}

/// Announces the owning worker's fate to the supervisor from the one
/// place that observes every exit path: the thread's stack unwinding or
/// returning. `thread::panicking()` distinguishes a crash from a clean
/// shutdown exit.
struct Sentinel {
    id: usize,
    notices: Sender<Notice>,
    alive: Arc<AtomicUsize>,
    deaths: Arc<AtomicUsize>,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        self.alive.fetch_sub(1, Ordering::SeqCst);
        if std::thread::panicking() {
            self.deaths.fetch_add(1, Ordering::SeqCst);
            let _ = self.notices.send(Notice::Died(self.id));
        } else {
            let _ = self.notices.send(Notice::Exited(self.id));
        }
    }
}

/// State shared by the workers, the supervisor, and the service handle.
struct Pool {
    /// The shared job queue. Living inside the pool (which the service
    /// handle keeps alive), the receiver cannot drop while the service
    /// exists — the invariant that makes `enqueue`'s send infallible.
    jobs_rx: Mutex<Receiver<Job>>,
    mode: ServeMode,
    faults: Option<Arc<Faults>>,
    /// Jobs accepted but not yet picked up by a worker — *all* of them,
    /// whichever path enqueued them. Pure observability.
    queued: Arc<AtomicUsize>,
    /// The admission-controlled subset of `queued`: only jobs that came
    /// through [`QueryService::admit`] (`try_run_batch` / `try_submit`)
    /// count here, so an un-admission-controlled `run_batch` can never
    /// eat admission slots and force spurious sheds (the PR 8 gauge
    /// bugfix — both paths account consistently: each claims the gauges
    /// it owns, and the claims release by RAII at pickup).
    admitted: Arc<AtomicUsize>,
    /// Jobs a worker is currently evaluating.
    in_flight: Arc<AtomicUsize>,
    /// Worker threads currently running.
    alive: Arc<AtomicUsize>,
    /// Worker threads lost to escaped panics, ever.
    deaths: Arc<AtomicUsize>,
    /// Respawns the supervisor performed, ever.
    restarts: Arc<AtomicUsize>,
    /// Panics the unwind fence caught (answered `Internal`), ever.
    contained: Arc<AtomicUsize>,
}

/// The panic payload rendered for an `Internal` answer.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// The worker body: receive, evaluate under the unwind fence, deliver.
fn worker_loop(pool: &Pool) {
    let mut cache = HashMap::new();
    loop {
        // Lock only around the receive so idle workers never block a
        // busy one. A poisoned mutex is recovered, not propagated: the
        // critical section is a single `recv()` (no data structure to
        // half-update), so the receiver is still sound after a panic —
        // and propagating would crash-loop every worker in turn.
        let job = match pool
            .jobs_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => break, // service dropped: shut down
        };
        run_job(pool, job, &mut cache);
    }
}

/// Serves one job with full RAII accounting; see the guard type docs.
fn run_job(pool: &Pool, job: Job, cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>) {
    let Job {
        request,
        delivery,
        queued,
        admission,
    } = job;
    // Leaving the queue: release the queue gauge and the admission slot
    // (the slot bounds *accepted-unserved* work, exactly as before).
    drop(queued);
    drop(admission);
    let in_flight = GaugeGuard::claim(&pool.in_flight);
    let faults = pool.faults.as_deref();
    // The unwind fence. `AssertUnwindSafe` is justified by audit:
    // * `request` is shared immutable state (Arc'd query text, document,
    //   budget clone) — nothing to corrupt.
    // * `cache` (the worker's doc-tree map) mutates only via
    //   `entry().or_insert_with(build)`: a panic inside `build` inserts
    //   nothing, leaving the map consistent.
    // * The process-wide plan cache and label interner are lock-striped;
    //   their locks recover from poisoning (`PoisonError::into_inner`)
    //   and every write is insert-after-construct, so a panic under a
    //   write lock at worst loses the entry being inserted.
    let result = catch_unwind(AssertUnwindSafe(|| {
        serve(&request, cache, pool.mode, faults)
    }));
    // Gauge before reply: a collected batch implies `in_flight` has
    // already been released for each of its requests (tests assert the
    // gauges are zero immediately after `run_batch` returns).
    drop(in_flight);
    match result {
        Ok(result) => delivery.deliver(result, faults),
        Err(payload) => {
            pool.contained.fetch_add(1, Ordering::SeqCst);
            delivery.deliver(
                Err(ServiceError::Internal(panic_message(payload.as_ref()))),
                faults,
            );
        }
    }
}

/// Spawns one worker thread. The `alive` gauge counts the worker before
/// the spawn, so it is exact as soon as this returns — even if the new
/// thread has not been scheduled yet. A failed spawn undoes the count;
/// otherwise the thread's sentinel pairs it with the decrement.
fn spawn_worker(
    pool: &Arc<Pool>,
    id: usize,
    notices: Sender<Notice>,
) -> std::io::Result<JoinHandle<()>> {
    pool.alive.fetch_add(1, Ordering::SeqCst);
    let worker_pool = Arc::clone(pool);
    std::thread::Builder::new()
        .name(format!("xq-worker-{id}"))
        .spawn(move || {
            let _sentinel = Sentinel {
                id,
                notices,
                alive: Arc::clone(&worker_pool.alive),
                deaths: Arc::clone(&worker_pool.deaths),
            };
            worker_loop(&worker_pool);
        })
        .inspect_err(|_| {
            pool.alive.fetch_sub(1, Ordering::SeqCst);
        })
}

/// The supervisor body: join the fallen, respawn under budget, and when
/// the pool is gone for good, degrade into answering jobs directly so
/// callers never hang on a dead pool.
fn supervise(
    pool: Arc<Pool>,
    notices_rx: Receiver<Notice>,
    notices_tx: Sender<Notice>,
    mut handles: HashMap<usize, JoinHandle<()>>,
    mut budget: u32,
    base_backoff: Duration,
) {
    /// A death this long after the previous one resets the backoff
    /// ladder — the pool was healthy in between.
    const CALM: Duration = Duration::from_secs(1);
    let mut next_id = handles.len();
    let mut backoff = base_backoff;
    let mut last_death: Option<Instant> = None;
    loop {
        match notices_rx.recv() {
            // The service handle holds the other sender, so disconnect
            // means it dropped without a Shutdown notice — treat as one.
            Err(_) | Ok(Notice::Shutdown) => break,
            Ok(Notice::Exited(id)) => {
                // Clean exits only happen once the jobs channel closed:
                // shutdown is underway, stop supervising as the pool
                // winds down.
                if let Some(h) = handles.remove(&id) {
                    let _ = h.join();
                }
                if handles.is_empty() {
                    break;
                }
            }
            Ok(Notice::Died(id)) => {
                if let Some(h) = handles.remove(&id) {
                    let _ = h.join();
                }
                if last_death.is_none_or(|t| t.elapsed() >= CALM) {
                    backoff = base_backoff;
                }
                last_death = Some(Instant::now());
                let respawned = budget > 0 && {
                    budget -= 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(PoolConfig::MAX_BACKOFF);
                    let id = next_id;
                    next_id += 1;
                    match spawn_worker(&pool, id, notices_tx.clone()) {
                        Ok(h) => {
                            pool.restarts.fetch_add(1, Ordering::SeqCst);
                            handles.insert(id, h);
                            true
                        }
                        // Spawn failure (resource exhaustion) burns the
                        // budget like a failed restart.
                        Err(_) => false,
                    }
                };
                if !respawned && handles.is_empty() && pool.alive.load(Ordering::SeqCst) == 0 {
                    // Budget exhausted and nobody left: degrade. Jobs
                    // keep getting *answers* (Internal), just no
                    // evaluation — the no-hang guarantee.
                    degraded_drain(&pool);
                    break;
                }
            }
        }
    }
    // Shutdown (or total collapse): join whatever is still running —
    // workers exit when the jobs channel closes.
    for (_, h) in handles.drain() {
        let _ = h.join();
    }
}

/// The dead pool's answering service: drain the job channel, answering
/// every job `Internal`, until the service drops. Runs on the
/// supervisor thread; injection is off here (`faults: None`) so a
/// certain `completion-drop` can't crash-loop the last line of defense.
fn degraded_drain(pool: &Pool) {
    loop {
        let job = match pool
            .jobs_rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => break,
        };
        let Job {
            request: _,
            delivery,
            queued,
            admission,
        } = job;
        drop(queued);
        drop(admission);
        delivery.deliver(
            Err(ServiceError::Internal(
                "worker pool exhausted its restart budget".to_string(),
            )),
            None,
        );
    }
}

/// A supervised pool of evaluation workers serving batches of requests;
/// see the module docs for the data flow and the containment story.
pub struct QueryService {
    jobs: Option<Sender<Job>>,
    notices: Sender<Notice>,
    supervisor: Option<JoinHandle<()>>,
    pool: Arc<Pool>,
    /// Configured pool size (the live count is [`Pool::alive`]).
    worker_count: usize,
    /// High-water mark for the admission-controlled paths: requests
    /// arriving while `admitted` ≥ capacity are shed.
    queue_capacity: usize,
}

/// How many materialized documents each worker keeps (eviction is a full
/// clear — requests batches are expected to cycle few distinct docs).
const DOC_CACHE_CAP: usize = 32;

/// The worker's materialized view of a request's document: one tree per
/// (worker, document), whatever route the request takes. `build` supplies
/// the tree on a miss (usually `doc.to_tree()`, or a build the planner
/// already made).
fn cached_tree_or(
    request: &Request,
    cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>,
    build: impl FnOnce() -> Tree,
) -> Tree {
    let key = Arc::as_ptr(&request.doc) as usize;
    if cache.len() >= DOC_CACHE_CAP && !cache.contains_key(&key) {
        cache.clear();
    }
    cache
        .entry(key)
        // Holding the Arc in the cache keeps the pointer identity stable.
        .or_insert_with(|| (request.doc.clone(), build()))
        .1
        .clone()
}

fn cached_tree(request: &Request, cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>) -> Tree {
    cached_tree_or(request, cache, || request.doc.to_tree())
}

fn serve(
    request: &Request,
    cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>,
    mode: ServeMode,
    faults: Option<&Faults>,
) -> Result<String, ServiceError> {
    if let Some(f) = faults {
        // Inside the unwind fence: this is the "a query panicked the
        // engine" simulation — contained, answered `internal_error`.
        if f.fires(FaultPoint::WorkerPanic) {
            panic!("{INJECTED_PANIC_PREFIX} worker-panic");
        }
        if f.fires(FaultPoint::SlowEval) {
            std::thread::sleep(f.delay(FaultPoint::SlowEval));
        }
    }
    // A request that is already doomed — pre-set cancel flag, expired
    // deadline, zero step cap — is rejected before any evaluation
    // starts (the zero-cap contract extended to the new Budget fields).
    request
        .budget
        .preflight()
        .map_err(|e| ServiceError::from_eval(&e))?;
    match mode {
        ServeMode::Interp => serve_interp(request, cache),
        ServeMode::CachedVm => serve_cached_vm(request, cache),
    }
}

/// The compiled route: one shared [`PlanCache`] probe replaces the
/// worker-side per-request parse (and re-derives nothing — scoping, the
/// planner hint, and the optimizer verdict are baked into the plan).
fn serve_cached_vm(
    request: &Request,
    cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>,
) -> Result<String, ServiceError> {
    let plan = PlanCache::global()
        .get_or_compile(&request.query)
        .map_err(|e| ServiceError::Parse(e.to_string()))?;
    let threads = request.budget.threads.count();
    // The baked hint proves most non-shardable queries out of the planner
    // without walking the AST; hinted queries plan as before.
    if threads > 1 && plan.par_hint() {
        let key = Arc::as_ptr(&request.doc) as usize;
        let seed = cache.get(&key).map(|(_, t)| t.clone());
        let (par_plan, planner_root) = crate::ParPlan::of_with_root_cache(
            plan.query(),
            &request.doc,
            request.budget.clone(),
            seed,
        );
        if let Some(t) = &planner_root {
            let _ = cached_tree_or(request, cache, || t.clone());
        }
        if par_plan.engages() {
            let root = match planner_root {
                Some(t) => Some(t),
                None if par_plan.needs_root() => Some(cached_tree(request, cache)),
                None => None,
            };
            let (out, _) = crate::par::eval_plan(
                &par_plan,
                &request.doc,
                request.budget.clone(),
                threads,
                root,
            )
            .map_err(|e| ServiceError::from_eval(&e))?;
            return Ok(out.iter().map(Tree::to_xml).collect());
        }
    }
    let tree = cached_tree(request, cache);
    let (out, _) = crate::vm::exec_with(&plan, &Env::with_root(tree), request.budget.clone())
        .map_err(|e| ServiceError::from_eval(&e))?;
    Ok(out.iter().map(Tree::to_xml).collect())
}

/// The pre-VM route, unchanged: parse per request, tree-walk Figure 1.
fn serve_interp(
    request: &Request,
    cache: &mut HashMap<usize, (Arc<ArenaDoc>, Tree)>,
) -> Result<String, ServiceError> {
    let query: Query =
        crate::parse_query(&request.query).map_err(|e| ServiceError::Parse(e.to_string()))?;
    let threads = request.budget.threads.count();
    if threads > 1 {
        // Intra-query parallelism: plan-driven sharding over the arena
        // (byte-identical to the sequential path — par_diff's contract).
        // Only when the plan actually engages — otherwise fall through to
        // the cached-tree route below, so non-shardable threaded requests
        // still hit the per-worker document cache instead of paying a
        // fresh to_tree() per request.
        // Seed the planner with the worker's cached tree (lookup only —
        // no eager build), so $root-referencing filter predicates reuse
        // it; whatever build the planning session ends with is folded
        // back into the cache, so later requests for the same document
        // never rebuild it either.
        let key = Arc::as_ptr(&request.doc) as usize;
        let seed = cache.get(&key).map(|(_, t)| t.clone());
        let (plan, planner_root) =
            crate::ParPlan::of_with_root_cache(&query, &request.doc, request.budget.clone(), seed);
        if let Some(t) = &planner_root {
            let _ = cached_tree_or(request, cache, || t.clone());
        }
        if plan.engages() {
            // Root-needing plans draw the tree from the same cache the
            // sequential route uses — no per-request rebuild.
            let root = match planner_root {
                Some(t) => Some(t),
                None if plan.needs_root() => Some(cached_tree(request, cache)),
                None => None,
            };
            let (out, _) =
                crate::par::eval_plan(&plan, &request.doc, request.budget.clone(), threads, root)
                    .map_err(|e| ServiceError::from_eval(&e))?;
            return Ok(out.iter().map(Tree::to_xml).collect());
        }
    }
    let tree = cached_tree(request, cache);
    let (out, _) = eval_with(&query, &Env::with_root(tree), request.budget.clone())
        .map_err(|e| ServiceError::from_eval(&e))?;
    Ok(out.iter().map(Tree::to_xml).collect())
}

impl QueryService {
    /// Spawns a pool of `workers` evaluation threads (at least 1) on the
    /// default route ([`ServeMode::CachedVm`]).
    pub fn new(workers: usize) -> QueryService {
        QueryService::with_config(PoolConfig {
            workers,
            ..PoolConfig::default()
        })
    }

    /// [`QueryService::new`] with an explicit evaluation route.
    pub fn with_mode(workers: usize, mode: ServeMode) -> QueryService {
        QueryService::with_config(PoolConfig {
            workers,
            mode,
            ..PoolConfig::default()
        })
    }

    /// The full construction surface: workers, route, fault registry,
    /// and supervision parameters.
    pub fn with_config(config: PoolConfig) -> QueryService {
        let workers = config.workers.max(1);
        let (jobs_tx, jobs_rx) = channel::<Job>();
        let pool = Arc::new(Pool {
            jobs_rx: Mutex::new(jobs_rx),
            mode: config.mode,
            faults: config.faults,
            queued: Arc::new(AtomicUsize::new(0)),
            admitted: Arc::new(AtomicUsize::new(0)),
            in_flight: Arc::new(AtomicUsize::new(0)),
            alive: Arc::new(AtomicUsize::new(0)),
            deaths: Arc::new(AtomicUsize::new(0)),
            restarts: Arc::new(AtomicUsize::new(0)),
            contained: Arc::new(AtomicUsize::new(0)),
        });
        let (notices_tx, notices_rx) = channel::<Notice>();
        // Construction-time spawn failure is unrecoverable resource
        // exhaustion (no pool exists to degrade into) — panicking here
        // matches `std::thread::spawn`'s own convention.
        let handles: HashMap<usize, JoinHandle<()>> = (0..workers)
            .map(|id| {
                let h = spawn_worker(&pool, id, notices_tx.clone())
                    .expect("spawning an initial pool worker");
                (id, h)
            })
            .collect();
        let supervisor = {
            let pool = Arc::clone(&pool);
            let notices_tx_sup = notices_tx.clone();
            std::thread::Builder::new()
                .name("xq-supervisor".to_string())
                .spawn(move || {
                    supervise(
                        pool,
                        notices_rx,
                        notices_tx_sup,
                        handles,
                        config.restart_budget,
                        config.restart_backoff,
                    )
                })
                .expect("spawning the pool supervisor")
        };
        QueryService {
            jobs: Some(jobs_tx),
            notices: notices_tx,
            supervisor: Some(supervisor),
            pool,
            worker_count: workers,
            queue_capacity: usize::MAX,
        }
    }

    /// Sets the admission high-water mark: [`QueryService::try_run_batch`]
    /// sheds any request arriving while the accepted-but-unserved queue
    /// holds `capacity` jobs. `run_batch` ignores the mark (it always
    /// admits). The default is effectively unbounded.
    pub fn with_queue_capacity(mut self, capacity: usize) -> QueryService {
        self.queue_capacity = capacity;
        self
    }

    /// Configured number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Worker threads running right now, counted from the moment each is
    /// spawned (so this equals [`QueryService::workers`] as soon as the
    /// service is constructed). Below it transiently while the
    /// supervisor respawns a crashed worker, permanently once the
    /// restart budget is spent.
    pub fn alive_workers(&self) -> usize {
        self.pool.alive.load(Ordering::SeqCst)
    }

    /// Worker threads lost to escaped panics, ever.
    pub fn worker_deaths(&self) -> usize {
        self.pool.deaths.load(Ordering::SeqCst)
    }

    /// Respawns the supervisor has performed, ever.
    pub fn restarts(&self) -> usize {
        self.pool.restarts.load(Ordering::SeqCst)
    }

    /// Panics the per-request unwind fence caught (each answered
    /// [`ServiceError::Internal`] with the worker surviving), ever.
    pub fn contained_panics(&self) -> usize {
        self.pool.contained.load(Ordering::SeqCst)
    }

    /// Jobs accepted but not yet picked up by a worker, right now —
    /// whichever path enqueued them.
    pub fn queue_depth(&self) -> usize {
        self.pool.queued.load(Ordering::SeqCst)
    }

    /// The admission-controlled subset of [`QueryService::queue_depth`]:
    /// jobs holding one of the `queue_capacity` admission slots right
    /// now. This — not the total queue — is what the admission
    /// compare-and-swap bounds, so `run_batch` traffic can never cause admission sheds.
    pub fn admitted_depth(&self) -> usize {
        self.pool.admitted.load(Ordering::SeqCst)
    }

    /// Jobs being evaluated by a worker, right now.
    pub fn in_flight(&self) -> usize {
        self.pool.in_flight.load(Ordering::SeqCst)
    }

    /// The admission high-water mark (`usize::MAX` when unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Atomically claims an admission slot: increments `admitted` unless
    /// it is already at the high-water mark. This is the entire shedding
    /// decision — one compare-and-swap, no lock, so concurrent
    /// connections can never overshoot the mark. The claim comes back as
    /// a [`GaugeGuard`], so however the job ends the slot frees.
    ///
    /// Hosts the `submit-refusal` fault point: an injected refusal is a
    /// shed with no slot ever claimed — the reactor handoff's
    /// `overloaded` path under a seed instead of a traffic spike.
    fn admit(&self) -> Option<GaugeGuard> {
        if let Some(f) = &self.pool.faults {
            if f.fires(FaultPoint::SubmitRefusal) {
                return None;
            }
        }
        self.pool
            .admitted
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < self.queue_capacity).then_some(q + 1)
            })
            .ok()
            .map(|_| GaugeGuard::adopt(Arc::clone(&self.pool.admitted)))
    }

    /// Enqueues one job, accounting the gauges it claims: every job
    /// counts toward `queued`; only admission-controlled ones hold an
    /// `admitted` slot (already claimed by [`QueryService::admit`]).
    fn enqueue(&self, tag: u64, request: Request, sink: JobSink, admission: Option<GaugeGuard>) {
        // Invariant (documented survivor): `jobs` is only taken in
        // `Drop`, which consumes the service — no call can race it.
        let jobs = self.jobs.as_ref().expect("service not shut down");
        let queued = GaugeGuard::claim(&self.pool.queued);
        jobs.send(Job {
            request,
            delivery: Delivery::new(tag, sink),
            queued,
            admission,
        })
        // Invariant (documented survivor): the send fails only if the
        // receiver dropped, and the receiver lives in `self.pool` — it
        // cannot drop while `&self` exists. Worker deaths don't matter:
        // the channel outlives them, and even a fully-collapsed pool
        // leaves the supervisor draining it.
        .expect("job receiver owned by the service's own pool");
    }

    /// Runs a batch: fans the requests out over the pool and returns the
    /// results in submission order (failures stay positional — one bad
    /// request never poisons its batch). Always admits, ignoring the
    /// queue capacity — and, since it never claims admission slots, a
    /// concurrent `run_batch` cannot make [`QueryService::try_run_batch`]
    /// shed below its real high-water mark. Takes `&self`: batches from
    /// different threads interleave on the pool, each collecting its own
    /// replies.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<String, ServiceError>> {
        let n = requests.len();
        let (reply_tx, reply_rx) = channel::<Reply>();
        for (index, request) in requests.into_iter().enumerate() {
            self.enqueue(
                index as u64,
                request,
                JobSink::Batch(reply_tx.clone()),
                None,
            );
        }
        drop(reply_tx);
        Self::collect(reply_rx, vec![None; n])
    }

    /// [`QueryService::run_batch`] with admission control: each request
    /// is individually admitted or shed. A shed request is answered
    /// `Err(Overloaded)` in place — still positional, still in
    /// submission order — without ever touching the queue or a worker.
    pub fn try_run_batch(&self, requests: Vec<Request>) -> Vec<Result<String, ServiceError>> {
        let (reply_tx, reply_rx) = channel::<Reply>();
        let mut out: Vec<Option<Result<String, ServiceError>>> = vec![None; requests.len()];
        for (index, request) in requests.into_iter().enumerate() {
            match self.admit() {
                Some(slot) => self.enqueue(
                    index as u64,
                    request,
                    JobSink::Batch(reply_tx.clone()),
                    Some(slot),
                ),
                None => out[index] = Some(Err(ServiceError::Overloaded)),
            }
        }
        drop(reply_tx);
        Self::collect(reply_rx, out)
    }

    /// Asynchronous, admission-controlled submission — the reactor front
    /// door's handoff. On admission the request is queued and `true`
    /// returned immediately; the result arrives later as `(tag, result)`
    /// on the sink's channel, followed by the sink's waker. Returns
    /// `false` (shed) without queueing anything when the admission queue
    /// is at its high-water mark — the caller renders the `overloaded`
    /// answer itself, keeping shed responses on its own ordered path.
    pub fn try_submit(&self, tag: u64, request: Request, sink: &CompletionSink) -> bool {
        match self.admit() {
            Some(slot) => {
                self.enqueue(tag, request, JobSink::Queue(sink.clone()), Some(slot));
                true
            }
            None => false,
        }
    }

    /// Fills the unanswered slots of `out` from the batch's private reply
    /// channel. Exactly one reply arrives per submitted job — the
    /// [`Delivery`] guard sends on every path, crashed workers and
    /// shutdown included — so this terminates when every sender is
    /// dropped, and the final `expect` documents that invariant rather
    /// than handling a reachable case.
    fn collect(
        reply_rx: Receiver<Reply>,
        mut out: Vec<Option<Result<String, ServiceError>>>,
    ) -> Vec<Result<String, ServiceError>> {
        while let Ok((index, result)) = reply_rx.recv() {
            let index = index as usize;
            debug_assert!(out[index].is_none(), "one reply per job");
            out[index] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("Delivery guarantees one reply per job"))
            .collect()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // Closing the job channel is the workers' shutdown signal; the
        // explicit notice is the supervisor's (it can't watch the
        // channel — it waits on death notices).
        self.jobs.take();
        let _ = self.notices.send(Notice::Shutdown);
        if let Some(s) = self.supervisor.take() {
            // The supervisor joins every worker before returning.
            let _ = s.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_query;
    use cv_xtree::{random_tree, TreeGen};

    fn corpus() -> Vec<Arc<ArenaDoc>> {
        (0..3u64)
            .map(|seed| {
                let mut g = TreeGen::new(seed);
                Arc::new(ArenaDoc::from_tree(&random_tree(
                    &mut g,
                    20,
                    &["a", "b", "k"],
                )))
            })
            .collect()
    }

    #[test]
    fn batch_results_match_direct_evaluation_in_order() {
        let docs = corpus();
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "$root/*",
            "<out>{ for $x in $root/* return if ($x =atomic <k/>) then $x }</out>",
        ];
        let service = QueryService::new(4);
        assert_eq!(service.workers(), 4);
        let requests: Vec<Request> = docs
            .iter()
            .flat_map(|d| queries.iter().map(|q| Request::new(q, d.clone())))
            .collect();
        let want: Vec<String> = requests
            .iter()
            .map(|r| {
                eval_query(&crate::parse_query(&r.query).unwrap(), &r.doc.to_tree())
                    .unwrap()
                    .iter()
                    .map(Tree::to_xml)
                    .collect()
            })
            .collect();
        let got = service.run_batch(requests);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_ref().expect("request succeeds"), w);
        }
    }

    #[test]
    fn failures_stay_positional() {
        let docs = corpus();
        let service = QueryService::new(2);
        let got = service.run_batch(vec![
            Request::new("$root", docs[0].clone()),
            Request::new("for $x in", docs[0].clone()), // parse error
            Request::new("$nope", docs[1].clone()),     // unbound variable
            Request::new("<ok/>", docs[2].clone()),
        ]);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(ServiceError::Parse(_))));
        assert!(matches!(got[2], Err(ServiceError::Eval(_))));
        assert_eq!(got[3].as_deref(), Ok("<ok/>"));
    }

    #[test]
    fn budget_is_enforced_per_request() {
        let docs = corpus();
        let mut tight = Request::new(
            "for $a in $root//* return for $b in $root//* return \
             for $c in $root//* return <t/>",
            docs[0].clone(),
        );
        tight.budget = Budget {
            max_steps: 50,
            max_items: 50,
            ..Budget::default()
        };
        let service = QueryService::new(2);
        let got = service.run_batch(vec![tight]);
        assert!(matches!(got[0], Err(ServiceError::Eval(_))));
    }

    #[test]
    fn threaded_requests_agree_with_sequential_serving() {
        use crate::semantics::Threads;
        let docs = corpus();
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "(for $x in $root/a return <w>{ $x }</w>, for $y in $root/b return $y)",
            "for $x in $root/* return for $y in $x/* return <p>{ $y }</p>",
            // Not planner-shardable: a threaded request falls through to
            // the cached-tree route and must still serve identical bytes.
            "$root/*",
        ];
        let service = QueryService::new(2);
        let make = |threads: Threads| -> Vec<Request> {
            docs.iter()
                .flat_map(|d| {
                    queries.iter().map(move |q| {
                        let mut r = Request::new(q, d.clone());
                        r.budget = r.budget.with_threads(threads);
                        r
                    })
                })
                .collect()
        };
        let seq = service.run_batch(make(Threads::One));
        let par = service.run_batch(make(Threads::N(4)));
        assert_eq!(seq, par, "plan-driven requests must serve identical bytes");
    }

    #[test]
    fn repeated_query_batch_compiles_exactly_once() {
        // The latent-issue regression: workers used to re-parse the query
        // text per request. Routed through the shared PlanCache, a batch
        // of identical requests fanned over 4 workers must compile the
        // text exactly once (the compile-count hook observes duplicates).
        // The text is unique to this test so other suites sharing the
        // process-wide cache can't pre-warm it.
        let text = "for $svc_once in $root/* return <compiled_once>{ $svc_once }</compiled_once>";
        assert_eq!(crate::PlanCache::global().compile_count(text), 0);
        let docs = corpus();
        let service = QueryService::new(4);
        let requests: Vec<Request> = (0..32)
            .map(|i| Request::new(text, docs[i % docs.len()].clone()))
            .collect();
        let got = service.run_batch(requests);
        assert!(got.iter().all(Result::is_ok));
        assert_eq!(
            crate::PlanCache::global().compile_count(text),
            1,
            "a repeated-query batch must hit one cached compilation"
        );
    }

    #[test]
    fn serve_modes_agree_byte_for_byte() {
        use crate::semantics::Threads;
        let docs = corpus();
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "$root/*",
            "<out>{ for $x in $root/* return if ($x =atomic <k/>) then $x }</out>",
            "for $x in", // parse error: identical rendering on both routes
            "$nope",     // eval error: identical rendering on both routes
        ];
        let make = |threads: Threads| -> Vec<Request> {
            docs.iter()
                .flat_map(|d| {
                    queries.iter().map(move |q| {
                        let mut r = Request::new(q, d.clone());
                        r.budget = r.budget.with_threads(threads);
                        r
                    })
                })
                .collect()
        };
        let interp = QueryService::with_mode(2, ServeMode::Interp);
        let vm = QueryService::with_mode(2, ServeMode::CachedVm);
        for threads in [Threads::One, Threads::N(4)] {
            let want = interp.run_batch(make(threads));
            let got = vm.run_batch(make(threads));
            assert_eq!(got, want, "modes diverged at {threads:?}");
        }
    }

    #[test]
    fn zero_capacity_sheds_everything_and_run_batch_still_admits() {
        let docs = corpus();
        let service = QueryService::new(2).with_queue_capacity(0);
        assert_eq!(service.queue_capacity(), 0);
        let make = || {
            vec![
                Request::new("$root/*", docs[0].clone()),
                Request::new("<ok/>", docs[1].clone()),
            ]
        };
        // try_run_batch: every request shed at admission, positionally.
        let got = service.try_run_batch(make());
        assert_eq!(got, vec![Err(ServiceError::Overloaded); 2]);
        assert_eq!(service.queue_depth(), 0, "shed requests never queue");
        // run_batch bypasses admission — same pool still serves.
        let got = service.run_batch(make());
        assert!(got.iter().all(Result::is_ok));
    }

    #[test]
    fn doomed_requests_are_rejected_before_evaluation() {
        use crate::CancelFlag;
        let docs = corpus();
        let service = QueryService::new(2);
        let flag = CancelFlag::new();
        flag.cancel();
        let mut cancelled = Request::new("$root/*", docs[0].clone());
        cancelled.budget = cancelled.budget.with_cancel(flag);
        let mut expired = Request::new("$root/*", docs[0].clone());
        expired.budget = expired
            .budget
            .with_deadline(Instant::now() - Duration::from_secs(1));
        let got = service.run_batch(vec![cancelled, expired]);
        assert_eq!(got[0], Err(ServiceError::Cancelled));
        assert_eq!(got[1], Err(ServiceError::DeadlineExceeded));
    }

    #[test]
    fn concurrent_batches_share_the_pool() {
        // The &self contract: batches submitted from different threads
        // interleave on one pool, and each collects exactly its own
        // replies (per-batch channels — no cross-batch bleed).
        let docs = corpus();
        let service = QueryService::new(2);
        let want: Vec<String> = docs
            .iter()
            .map(|d| {
                eval_query(&crate::parse_query("$root/*").unwrap(), &d.to_tree())
                    .unwrap()
                    .iter()
                    .map(Tree::to_xml)
                    .collect()
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let reqs: Vec<Request> = docs
                            .iter()
                            .map(|d| Request::new("$root/*", d.clone()))
                            .collect();
                        let got = service.run_batch(reqs);
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!(g.as_ref().expect("request succeeds"), w);
                        }
                    }
                });
            }
        });
        assert_eq!(service.queue_depth(), 0);
        assert_eq!(service.in_flight(), 0);
    }

    /// Spins until `probe` holds (schedule-independent waiting).
    fn wait_for(what: &str, probe: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !probe() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A query whose full run is ~3^20 loop iterations: never finishes
    /// inside a test, aborts within one tick of its cancel flag.
    fn infinite_query() -> String {
        (1..=20)
            .map(|i| format!("for $v{i} in $root//* return "))
            .collect::<String>()
            + "<t/>"
    }

    #[test]
    fn run_batch_never_eats_admission_slots() {
        // The PR 8 gauge regression: run_batch used to bump the same
        // gauge admit() CAS-es against, so a concurrent un-admission-
        // controlled batch made try_run_batch shed below its real
        // high-water mark. The two paths now account separately: with a
        // run_batch of 4 infinite queries parked on a capacity-2 pool,
        // try_run_batch must still admit exactly 2 and shed exactly 1.
        use crate::CancelFlag;
        let docs = corpus();
        let service = QueryService::new(1).with_queue_capacity(2);
        let flags: Vec<CancelFlag> = (0..4).map(|_| CancelFlag::new()).collect();
        let parked: Vec<Request> = flags
            .iter()
            .map(|f| {
                let mut r = Request::new(infinite_query(), docs[0].clone());
                r.budget = Budget {
                    max_steps: u64::MAX,
                    max_items: u64::MAX,
                    ..Budget::default()
                }
                .with_cancel(f.clone());
                r
            })
            .collect();
        std::thread::scope(|scope| {
            let uncontrolled = scope.spawn(|| service.run_batch(parked));
            wait_for("worker pinned, rest queued", || {
                service.in_flight() == 1 && service.queue_depth() == 3
            });
            assert_eq!(
                service.admitted_depth(),
                0,
                "run_batch must not hold admission slots"
            );
            let controlled = scope.spawn(|| {
                service.try_run_batch(vec![
                    Request::new("$root/*", docs[0].clone()),
                    Request::new("<ok/>", docs[1].clone()),
                    Request::new("$root/*", docs[2].clone()),
                ])
            });
            wait_for("both admission slots claimed", || {
                service.admitted_depth() == 2
            });
            // Release the parked queries; everything drains.
            for f in &flags {
                f.cancel();
            }
            let got = controlled.join().expect("controlled batch");
            assert!(
                got[0].is_ok(),
                "first admitted request served: {:?}",
                got[0]
            );
            assert!(got[1].is_ok(), "second admitted request served");
            assert_eq!(
                got[2],
                Err(ServiceError::Overloaded),
                "exactly the over-capacity request sheds"
            );
            let parked_results = uncontrolled.join().expect("uncontrolled batch");
            assert!(parked_results
                .iter()
                .all(|r| matches!(r, Err(ServiceError::Cancelled))));
        });
        wait_for("gauges settle", || {
            service.queue_depth() == 0 && service.admitted_depth() == 0 && service.in_flight() == 0
        });
    }

    #[test]
    fn try_submit_delivers_tagged_completions_and_wakes() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc::channel;
        let docs = corpus();
        let service = QueryService::new(2);
        let (tx, rx) = channel();
        let woken = Arc::new(AtomicUsize::new(0));
        let sink = {
            let woken = Arc::clone(&woken);
            CompletionSink::new(
                tx,
                Arc::new(move || {
                    woken.fetch_add(1, Ordering::SeqCst);
                }),
            )
        };
        assert!(service.try_submit(7, Request::new("<ok/>", docs[0].clone()), &sink));
        assert!(service.try_submit(9, Request::new("for $x in", docs[1].clone()), &sink));
        let mut got: Vec<Reply> = (0..2)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("completion")
            })
            .collect();
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(got[0].0, 7);
        assert_eq!(got[0].1.as_deref(), Ok("<ok/>"));
        assert_eq!(got[1].0, 9);
        assert!(matches!(got[1].1, Err(ServiceError::Parse(_))));
        // The waker runs *after* its send, so it may trail our recv by an
        // instant — wait for both rather than asserting instantaneously.
        wait_for("one wake per delivery", || {
            woken.load(Ordering::SeqCst) >= 2
        });
        // At capacity 0 the submission sheds without queueing or waking.
        let shed_service = QueryService::new(1).with_queue_capacity(0);
        let before = woken.load(Ordering::SeqCst);
        assert!(!shed_service.try_submit(1, Request::new("<ok/>", docs[0].clone()), &sink));
        assert_eq!(shed_service.queue_depth(), 0);
        assert_eq!(shed_service.admitted_depth(), 0);
        assert_eq!(woken.load(Ordering::SeqCst), before);
    }

    #[test]
    fn reusable_across_batches() {
        let docs = corpus();
        let service = QueryService::new(3);
        for _ in 0..3 {
            let got = service.run_batch(vec![
                Request::new("$root/*", docs[0].clone()),
                Request::new("$root/*", docs[1].clone()),
            ]);
            assert!(got.iter().all(Result::is_ok));
        }
        // An empty batch is fine too.
        assert!(service.run_batch(Vec::new()).is_empty());
    }
}
