//! A batching query service over a supervised worker pool — the
//! serve-heavy-traffic shape of the ROADMAP north star.
//!
//! [`QueryService`] owns `N` long-lived worker threads fed by one shared
//! job queue (a mutex-guarded deque and a condition variable, so each
//! job wakes exactly one idle worker). [`QueryService::try_submit`] is
//! the one way in: it admits (or sheds) one tagged [`Request`] (query
//! text + shared [`ArenaDoc`] + [`Budget`]) and returns immediately; the
//! worker later pushes `(tag, result)` onto the caller's
//! [`CompletionSink`] and runs its waker — how the reactor front door in
//! `xq_server` gets completions back into an `epoll_wait` loop without
//! parking a thread per connection. [`QueryService::run_batch`] is the
//! blocking collector over it: it submits a batch tagged by position and
//! reassembles the results in submission order. Documents cross threads as `Arc<ArenaDoc>` — the
//! sharded global interner is what makes that legal — so a corpus is
//! loaded once and served by every worker without copying.
//!
//! Workers do not parse per request: query text resolves through the
//! process-wide [`PlanCache`] to a [`CompiledPlan`] — compiled once
//! while it stays cached, however many workers race on it — and runs on
//! the bytecode VM via [`eval_compiled_par`](crate::eval_compiled_par),
//! which also decides whether a threaded request shards.
//!
//! ## The cost record and the inline route
//!
//! Figure 1 is deterministic: a fixed query on a fixed document charges
//! the same steps and yields the same answer on every run. So when a
//! request succeeds sequentially, its exact cost — steps and answer
//! bytes — is recorded on the compiled plan, keyed by the document's
//! process-unique [`ArenaDoc::id`]
//! ([`CompiledPlan::record_cost`](crate::CompiledPlan::record_cost)).
//!
//! A request's cost cannot be read from its text (Core XQuery's
//! combined complexity is TA\[2^O(n), O(n)\]), but a bounded run's
//! answer is final. So [`QueryService::try_serve_inline`] starts every
//! single-threaded request on the *calling* thread — under the same
//! unwind fence, fault points and budget a worker applies, with no queue
//! handoff and no wake — and within the *reactor bound*: at most
//! [`INLINE_MAX_STEPS`] steps and [`INLINE_MAX_BYTES`] bytes of XML.
//!
//! * A plan-cache miss is compiled there, unless the text is longer
//!   than [`INLINE_MAX_BYTES`].
//! * A pair with no record is *probed*: run with its step cap lowered to
//!   [`INLINE_MAX_STEPS`]. A probe that finishes within the bound is the
//!   answer and records its exact cost. A probe that crosses it records
//!   a lower bound ([`CostRecord::AtLeast`]) and *escalates*: the caller
//!   passes it to [`QueryService::hand_off`], which queues it with its
//!   admission slot and fault draws already taken, and the pool's run
//!   records the exact cost. When the request's own cap is at or below
//!   [`INLINE_MAX_STEPS`], the probe is the real run, and its error is
//!   the answer.
//! * A pair recorded as costing more than the bound is declined without
//!   running, and so is a plan that may compare two constructed trees
//!   with `=deep` ([`CompiledPlan::compares_trees`]): that comparison
//!   is charged one step however large the trees are. A declined
//!   request goes to [`QueryService::try_submit`].
//!
//! [`INLINE_MAX_STEPS`] is the one knob, sized to the handoff it saves.
//! On a 2-vCPU host T18's `inline_handoff` rows price the in-process
//! handoff (a queue push, a worker wake, a caller wake) at about 10 µs,
//! some 1,300 VM steps; through the socket reactor and its eventfd it is
//! about 20 µs. Of the ceilings 256, 2,048, 4,096 and 8,192, 4,096 is
//! the smallest that brings the serving benchmark's `many-small` p99 to
//! its floor (DESIGN.md).
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
//!   reply per job. The batch collector and the reactor's FIFO rely on
//!   exactly-once replies; the guards make that invariant hold even
//!   under injected worker crashes.
//! * **Supervision.** A panic that escapes the fence (delivery-path
//!   failures, injected via [`FaultPoint::CompletionDrop`]) kills the
//!   worker thread; a supervisor thread observes the death through a
//!   drop sentinel and respawns the worker under a bounded restart
//!   budget with exponential backoff. A pool whose budget is exhausted
//!   degrades instead of hanging: the supervisor itself drains the job
//!   queue, answering `Internal` — callers always get replies.
//!
//! Failure paths are exercised deterministically through the seeded
//! [`Faults`] registry in [`crate::fault`];
//! with no registry configured every hook is a single `None` test.
//!
//! The VM runs over the [`ArenaDoc`] itself
//! ([`exec_doc`](crate::vm::exec_doc)): node ids, preorder-range axis
//! scans and interned-label compares; threaded requests shard the same
//! VM ([`eval_compiled_par`](crate::eval_compiled_par)). Results borrow
//! from the document's node table ([`ArenaDoc::shared_node`]), built
//! once per document and shared by every worker, so a document is
//! converted to trees at most once per process, not once per request or
//! per worker. Workers hold no per-worker state.

use crate::fault::{FaultPoint, Faults, INJECTED_PANIC_PREFIX};
use crate::semantics::{Budget, XqError};
use crate::vm::{CompiledPlan, CostRecord, PlanCache, RunCost};
use cv_xtree::ArenaDoc;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work for the service: evaluate `query` (surface syntax)
/// against `doc` under `budget`.
#[derive(Clone)]
pub struct Request {
    /// The query in the paper's surface syntax (compiled through the
    /// process-wide [`PlanCache`]).
    pub query: Arc<str>,
    /// The document, shared across workers without copying.
    pub doc: Arc<ArenaDoc>,
    /// Per-request resource limits. A `threads` knob above 1 routes the
    /// request through the parallel planner
    /// ([`eval_compiled_par`](crate::eval_compiled_par)), sharding the
    /// query's loops across that many scoped workers *inside* the pool
    /// worker — intra-query parallelism on top of the pool's inter-query
    /// parallelism. The default ([`Threads::One`](crate::Threads)) keeps
    /// requests on the sequential VM path over the arena.
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

/// Construction-time pool configuration: everything the workers and the
/// supervisor need fixed before the first thread spawns.
/// [`QueryService::new`] covers the common case; chaos tests and the
/// front door use the full struct.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Seeded fault registry; `None` (the default) disables injection
    /// entirely — each hook is then a single pointer test.
    pub faults: Option<Arc<Faults>>,
    /// Total worker respawns the supervisor will perform over the
    /// service's lifetime. Exhausting it with no workers left switches
    /// the supervisor to degraded draining (every job answered
    /// [`ServiceError::Internal`]) rather than hanging callers.
    pub restart_budget: u32,
}

impl PoolConfig {
    /// Backoff before the first respawn; doubles per respawn up to
    /// [`PoolConfig::MAX_BACKOFF`], resetting after a calm second.
    pub const RESTART_BACKOFF: Duration = Duration::from_millis(1);
    /// Backoff ceiling for crash-looping pools.
    pub const MAX_BACKOFF: Duration = Duration::from_millis(100);
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 2,
            faults: None,
            restart_budget: 32,
        }
    }
}

/// Holds one unit of a gauge, releasing it on drop — the RAII fix for
/// the admission-slot leak: a worker dying (or any early return) between
/// claiming a slot and completing can no longer leave `queued` or
/// `in_flight` permanently elevated, because the decrement rides the
/// guard's destructor through every exit path, unwinding included.
#[derive(Debug)]
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
    sink: Option<CompletionSink>,
}

impl Delivery {
    fn new(tag: u64, sink: CompletionSink) -> Delivery {
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
        if let Some(sink) = self.sink.take() {
            sink.deliver(self.tag, result);
        }
    }
}

/// The `Internal` message of a request whose reply was never delivered.
const ABANDONED: &str = "request abandoned before completion (worker crash or service shutdown)";

impl Drop for Delivery {
    fn drop(&mut self) {
        if self.sink.is_some() {
            self.send(Err(ServiceError::Internal(ABANDONED.to_string())));
        }
    }
}

struct Job {
    request: Request,
    /// Set for a request an inline probe escalated: the plan the probe
    /// ran, whose `worker-panic` and `slow-eval` points it already drew.
    escalated: Option<Arc<CompiledPlan>>,
    /// The reply obligation; carries the caller's correlation tag
    /// (`run_batch` uses the request's position, other `try_submit`
    /// callers route whatever ticket they chose).
    delivery: Delivery,
    /// The admission slot, held while the job sits in the queue; released
    /// at worker pickup — or by the job being dropped unserved at
    /// shutdown.
    queued: GaugeGuard,
}

type Reply = (u64, Result<String, ServiceError>);

/// The shared job queue: a deque under a mutex plus a condition variable.
/// A push wakes one parked worker (`notify_one`); a worker holds the lock
/// only to pop, and parks on the condition variable, not on the mutex, so
/// handing over a job wakes one thread once.
#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Set when the service drops: poppers drain what is left, then stop.
    closed: bool,
}

impl JobQueue {
    /// A poisoned lock is recovered, not propagated: every critical
    /// section is one deque operation or one flag store, so the state is
    /// sound after a panic — and propagating would crash-loop every
    /// worker in turn.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        self.lock().jobs.push_back(job);
        self.ready.notify_one();
    }

    /// The next job, parking while the queue is empty; `None` once the
    /// queue is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: jobs already in it are still handed out, then
    /// every parked popper wakes to `None`.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

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
        // business.
        let _ = self.tx.send((tag, result));
        (self.wake)();
    }
}

/// What a worker's drop sentinel tells the supervisor.
enum Notice {
    /// The worker thread is unwinding from an escaped panic: join the
    /// corpse, consider a respawn.
    Died(usize),
    /// The worker exited cleanly (job queue closed — shutdown).
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
    /// The shared job queue, closed when the service drops.
    jobs: JobQueue,
    faults: Option<Arc<Faults>>,
    /// Jobs admitted but not yet picked up by a worker: each holds one of
    /// the `queue_capacity` admission slots, claimed by
    /// [`QueryService::admit`]'s compare-and-swap and released by RAII at
    /// pickup.
    queued: Arc<AtomicUsize>,
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

/// The worker body: pop, evaluate under the unwind fence, deliver —
/// until the service drops and the queue drains.
fn worker_loop(pool: &Pool) {
    while let Some(job) = pool.jobs.pop() {
        run_job(pool, job);
    }
}

/// Serves one job with full RAII accounting; see the guard type docs.
fn run_job(pool: &Pool, job: Job) {
    let Job {
        request,
        escalated,
        delivery,
        queued,
    } = job;
    // Leaving the queue releases the admission slot: the slot bounds
    // *accepted-unserved* work.
    drop(queued);
    let in_flight = GaugeGuard::claim(&pool.in_flight);
    let faults = pool.faults.as_deref();
    // An escalated request drew its evaluation's fault points inline.
    let draws = if escalated.is_some() { None } else { faults };
    let result = match fenced_serve(pool, &request, escalated.map(Ok), draws, Route::Pool) {
        Served::Answer(result) => result,
        Served::Escalate(_) => unreachable!("a pool run is not bounded"),
    };
    // Gauge before reply: a collected batch implies `in_flight` has
    // already been released for each of its requests (tests assert the
    // gauges are zero immediately after `run_batch` returns).
    drop(in_flight);
    delivery.deliver(result, faults);
}

/// [`serve`] under the unwind fence: a panic is counted and answered
/// `Internal`. `AssertUnwindSafe` is justified by audit:
/// * `request` is shared immutable state (Arc'd query text, document,
///   budget clone) — nothing to corrupt.
/// * The document's shared tree is a `OnceLock`: a panic inside its
///   build leaves it uninitialized, and the next caller builds again.
/// * The process-wide plan cache and label interner are lock-striped;
///   their locks recover from poisoning (`PoisonError::into_inner`)
///   and every write is insert-after-construct, so a panic under a
///   write lock at worst loses the entry being inserted. A plan's cost
///   log recovers the same way, and its one write is a single store.
fn fenced_serve(
    pool: &Pool,
    request: &Request,
    plan: Option<Result<Arc<CompiledPlan>, ServiceError>>,
    faults: Option<&Faults>,
    route: Route,
) -> Served {
    catch_unwind(AssertUnwindSafe(|| serve(request, plan, faults, route))).unwrap_or_else(
        |payload| {
            pool.contained.fetch_add(1, Ordering::SeqCst);
            Served::Answer(Err(ServiceError::Internal(panic_message(payload.as_ref()))))
        },
    )
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
) {
    /// A death this long after the previous one resets the backoff
    /// ladder — the pool was healthy in between.
    const CALM: Duration = Duration::from_secs(1);
    let mut next_id = handles.len();
    let mut backoff = PoolConfig::RESTART_BACKOFF;
    let mut last_death: Option<Instant> = None;
    loop {
        match notices_rx.recv() {
            // The service handle holds the other sender, so disconnect
            // means it dropped without a Shutdown notice — treat as one.
            Err(_) | Ok(Notice::Shutdown) => break,
            Ok(Notice::Exited(id)) => {
                // Clean exits only happen once the job queue closed:
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
                    backoff = PoolConfig::RESTART_BACKOFF;
                }
                last_death = Some(Instant::now());
                let respawned = budget > 0 && {
                    budget -= 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(PoolConfig::MAX_BACKOFF);
                    let id = next_id;
                    next_id += 1;
                    // Count the restart before the spawn counts the new
                    // worker in `alive`, so a reader that sees the pool
                    // back at full strength also sees every restart.
                    pool.restarts.fetch_add(1, Ordering::SeqCst);
                    match spawn_worker(&pool, id, notices_tx.clone()) {
                        Ok(h) => {
                            handles.insert(id, h);
                            true
                        }
                        // Spawn failure (resource exhaustion) burns the
                        // budget like a failed restart.
                        Err(_) => {
                            pool.restarts.fetch_sub(1, Ordering::SeqCst);
                            false
                        }
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
    // workers exit when the job queue closes.
    for (_, h) in handles.drain() {
        let _ = h.join();
    }
}

/// The dead pool's answering service: drain the job queue, answering
/// every job `Internal`, until the service drops. Runs on the
/// supervisor thread; injection is off here (`faults: None`) so a
/// certain `completion-drop` can't crash-loop the last line of defense.
fn degraded_drain(pool: &Pool) {
    while let Some(job) = pool.jobs.pop() {
        let Job {
            delivery, queued, ..
        } = job;
        drop(queued);
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
    notices: Sender<Notice>,
    supervisor: Option<JoinHandle<()>>,
    pool: Arc<Pool>,
    /// Configured pool size (the live count is [`Pool::alive`]).
    worker_count: usize,
    /// Admission high-water mark: requests arriving while `queued` ≥
    /// capacity are shed.
    queue_capacity: usize,
}

/// Where [`serve`] runs a request, which decides its bound and what it
/// records.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A pool worker: the request's own budget; a sequential success
    /// records its exact cost.
    Pool,
    /// The calling thread, within the reactor bound, for a pair whose
    /// exact cost is recorded and within it: the run records nothing.
    Recorded,
    /// The calling thread, within the reactor bound, for a pair with no
    /// record: the run records its exact cost, or a lower bound when it
    /// crosses the bound.
    Probe,
}

/// What [`serve`] produced.
enum Served {
    /// The request's answer.
    Answer(Result<String, ServiceError>),
    /// An inline run of this plan crossed the reactor bound: the pool
    /// must run it.
    Escalate(Arc<CompiledPlan>),
}

/// Serves one request on the calling thread. `plan` is the request's
/// plan (or the error compiling it) when the caller resolved it; a pool
/// worker with a fresh job passes `None`, and the text resolves through
/// the [`PlanCache`] (compiling on a miss) after preflight. `faults` is
/// the registry to draw `worker-panic` and `slow-eval` from (`None` when
/// injection is off, or when an inline probe already drew them).
fn serve(
    request: &Request,
    plan: Option<Result<Arc<CompiledPlan>, ServiceError>>,
    faults: Option<&Faults>,
    route: Route,
) -> Served {
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
    if let Err(e) = request.budget.preflight() {
        return Served::Answer(Err(ServiceError::from_eval(&e)));
    }
    let plan = match plan.unwrap_or_else(|| resolve(&request.query)) {
        Ok(plan) => plan,
        Err(e) => return Served::Answer(Err(e)),
    };
    let doc = request.doc.id();
    let bounded = route != Route::Pool;
    let mut budget = request.budget.clone();
    // The reactor bound's step cap; it is the request's own cap when
    // that is lower, and then a tripped cap is the request's answer.
    let capped = bounded && budget.max_steps > INLINE_MAX_STEPS;
    if capped {
        budget.max_steps = INLINE_MAX_STEPS;
    }
    let (out, stats) = match crate::eval_compiled_par(&plan, &request.doc, budget) {
        Ok(run) => run,
        Err(XqError::Budget { which: "steps" }) if capped => {
            if route == Route::Probe {
                let floor = RunCost {
                    steps: INLINE_MAX_STEPS + 1,
                    bytes: 0,
                };
                plan.record_cost(doc, CostRecord::AtLeast(floor));
            }
            return Served::Escalate(plan);
        }
        Err(e) => return Served::Answer(Err(ServiceError::from_eval(&e))),
    };
    let limit = if bounded {
        INLINE_MAX_BYTES as usize
    } else {
        usize::MAX
    };
    let mut xml = String::new();
    if !out
        .iter()
        .all(|tree| tree.write_xml_within(&mut xml, limit))
    {
        if route == Route::Probe {
            let floor = RunCost {
                steps: stats.steps,
                bytes: INLINE_MAX_BYTES + 1,
            };
            plan.record_cost(doc, CostRecord::AtLeast(floor));
        }
        return Served::Escalate(plan);
    }
    // A sharded run charges its own step count; only the sequential VM's
    // is the pair's exact cost.
    if route != Route::Recorded && !stats.parallelized {
        let cost = RunCost {
            steps: stats.steps,
            bytes: xml.len() as u64,
        };
        plan.record_cost(doc, CostRecord::Exact(cost));
    }
    Served::Answer(Ok(xml))
}

/// The plan of `text`, through the [`PlanCache`].
fn resolve(text: &str) -> Result<Arc<CompiledPlan>, ServiceError> {
    PlanCache::global()
        .get_or_compile(text)
        .map_err(|e| ServiceError::Parse(e.to_string()))
}

/// The reactor bound's step ceiling: an inline run stops after this many
/// steps and, unless the request's own cap is this low, escalates to the
/// pool. Sized to one pool handoff (see the module docs).
pub const INLINE_MAX_STEPS: u64 = 4096;

/// The reactor bound's answer-size ceiling, in bytes of XML: an inline
/// run writes at most this much and escalates when its answer is longer.
/// Also the longest text the inline route compiles.
pub const INLINE_MAX_BYTES: u64 = 16 * 1024;

/// What [`QueryService::try_serve_inline`] did with a request.
#[derive(Debug)]
#[must_use]
pub enum Inline {
    /// Answered on the calling thread.
    Served(Result<String, ServiceError>),
    /// Not run, and nothing drawn or claimed: submit it with
    /// [`QueryService::try_submit`].
    Declined,
    /// Run on the calling thread until it crossed the reactor bound:
    /// pass it to [`QueryService::hand_off`].
    Escalated(Handoff),
}

/// An escalated request's claim on the pool: its admission slot and the
/// plan its probe ran. Dropping it unused releases the slot.
#[derive(Debug)]
pub struct Handoff {
    queued: GaugeGuard,
    plan: Arc<CompiledPlan>,
}

impl QueryService {
    /// Spawns a pool of `workers` evaluation threads (at least 1).
    pub fn new(workers: usize) -> QueryService {
        QueryService::with_config(PoolConfig {
            workers,
            ..PoolConfig::default()
        })
    }

    /// The full construction surface: workers, fault registry, and
    /// supervision parameters.
    pub fn with_config(config: PoolConfig) -> QueryService {
        let workers = config.workers.max(1);
        let pool = Arc::new(Pool {
            jobs: JobQueue::default(),
            faults: config.faults,
            queued: Arc::new(AtomicUsize::new(0)),
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
                    )
                })
                .expect("spawning the pool supervisor")
        };
        QueryService {
            notices: notices_tx,
            supervisor: Some(supervisor),
            pool,
            worker_count: workers,
            queue_capacity: usize::MAX,
        }
    }

    /// Sets the admission high-water mark: every submission sheds while
    /// the accepted-but-unserved queue holds `capacity` jobs. The default
    /// is effectively unbounded.
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

    /// Jobs accepted but not yet picked up by a worker, right now: the
    /// admission slots in use, which the admission compare-and-swap
    /// bounds by [`QueryService::queue_capacity`].
    pub fn queue_depth(&self) -> usize {
        self.pool.queued.load(Ordering::SeqCst)
    }

    /// Jobs being evaluated by a worker, right now.
    pub fn in_flight(&self) -> usize {
        self.pool.in_flight.load(Ordering::SeqCst)
    }

    /// The admission high-water mark (`usize::MAX` when unbounded).
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Atomically claims an admission slot: increments `queued` unless
    /// it is already at the high-water mark. This is the entire shedding
    /// decision — one compare-and-swap, no lock, so concurrent
    /// connections can never overshoot the mark. The claim comes back as
    /// a [`GaugeGuard`], so however the job ends the slot frees.
    ///
    /// Hosts the `submit-refusal` fault point: an injected refusal is a
    /// shed with no slot ever claimed — the `overloaded` path under a
    /// seed instead of a traffic spike.
    fn admit(&self) -> Option<GaugeGuard> {
        if let Some(f) = &self.pool.faults {
            if f.fires(FaultPoint::SubmitRefusal) {
                return None;
            }
        }
        self.pool
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                (q < self.queue_capacity).then_some(q + 1)
            })
            .ok()
            .map(|_| GaugeGuard::adopt(Arc::clone(&self.pool.queued)))
    }

    /// Submits one request — the only way new work enters the pool. On
    /// admission the request is queued and `true` returned immediately;
    /// the result arrives later as `(tag, result)` on the sink's channel,
    /// followed by the sink's waker. Returns `false` (shed) without
    /// queueing anything when the queue is at its high-water mark — the
    /// caller renders the `overloaded` answer itself, keeping shed
    /// responses on its own ordered path.
    pub fn try_submit(&self, tag: u64, request: Request, sink: &CompletionSink) -> bool {
        let Some(queued) = self.admit() else {
            return false;
        };
        self.enqueue(tag, request, None, queued, sink);
        true
    }

    /// Queues a request [`QueryService::try_serve_inline`] escalated. Its
    /// admission slot is already claimed, so this never sheds, and the
    /// worker draws only the `completion-drop` point: the probe drew the
    /// others. The request may differ from the probed one only in its
    /// cancel flag; the result arrives as for [`QueryService::try_submit`].
    pub fn hand_off(&self, tag: u64, request: Request, handoff: Handoff, sink: &CompletionSink) {
        let Handoff { queued, plan } = handoff;
        self.enqueue(tag, request, Some(plan), queued, sink);
    }

    fn enqueue(
        &self,
        tag: u64,
        request: Request,
        escalated: Option<Arc<CompiledPlan>>,
        queued: GaugeGuard,
        sink: &CompletionSink,
    ) {
        // The queue closes only in `Drop`, which consumes the service, so
        // every pushed job is popped — by a worker, or by the supervisor
        // draining a collapsed pool — or dropped with the pool, which
        // answers it `Internal`.
        self.pool.jobs.push(Job {
            request,
            escalated,
            delivery: Delivery::new(tag, sink.clone()),
            queued,
        });
    }

    /// Starts `request` on the calling thread within the reactor bound
    /// (see the module docs): answers it there, declines it without doing
    /// anything, or escalates it to the pool.
    ///
    /// A request is declined when its budget is threaded, its text misses
    /// the plan cache and is longer than [`INLINE_MAX_BYTES`], its plan may
    /// compare constructed trees, or its pair's record says it costs more
    /// than the bound. Otherwise it is admitted and run as a worker would
    /// run it: the admission decision (with its `submit-refusal` point)
    /// answers [`ServiceError::Overloaded`] when it sheds; evaluation runs
    /// under the unwind fence (`worker-panic`, `slow-eval`); and a fired
    /// `completion-drop` answers the same `Internal` a worker dying
    /// mid-delivery leaves behind — without unwinding the caller. The
    /// admission slot is held while the run lasts, and `in_flight` counts
    /// it, so the gauges read as they would for a pool request. An
    /// escalated request keeps its slot in the [`Handoff`] and has drawn
    /// every point but `completion-drop`, so each point is drawn at most
    /// once per request, in the same order on either route.
    pub fn try_serve_inline(&self, request: &Request) -> Inline {
        if request.budget.threads.count() > 1 {
            return Inline::Declined;
        }
        let plan = match PlanCache::global().get(&request.query) {
            Some(plan) => Ok(plan),
            None if request.query.len() as u64 > INLINE_MAX_BYTES => return Inline::Declined,
            None => resolve(&request.query),
        };
        let route = match &plan {
            // A parse error is the whole answer.
            Err(_) => Route::Recorded,
            Ok(plan) if plan.compares_trees() => return Inline::Declined,
            Ok(plan) => match plan.cost_record(request.doc.id()) {
                None => Route::Probe,
                Some(CostRecord::Exact(cost))
                    if cost.steps <= INLINE_MAX_STEPS && cost.bytes <= INLINE_MAX_BYTES =>
                {
                    Route::Recorded
                }
                Some(_) => return Inline::Declined,
            },
        };
        let Some(queued) = self.admit() else {
            return Inline::Served(Err(ServiceError::Overloaded));
        };
        let faults = self.pool.faults.as_deref();
        let in_flight = GaugeGuard::claim(&self.pool.in_flight);
        let served = fenced_serve(&self.pool, request, Some(plan), faults, route);
        drop(in_flight);
        let result = match served {
            Served::Answer(result) => result,
            Served::Escalate(plan) => return Inline::Escalated(Handoff { queued, plan }),
        };
        drop(queued);
        if let Some(f) = faults {
            if f.fires(FaultPoint::CompletionDrop) {
                return Inline::Served(Err(ServiceError::Internal(ABANDONED.to_string())));
            }
        }
        Inline::Served(result)
    }

    /// Runs a batch: submits each request through
    /// [`QueryService::try_submit`], tagged by its position, and blocks
    /// until every admitted one is answered. Results come back in
    /// submission order; failures stay positional — one bad request never
    /// poisons its batch, and a shed request is answered
    /// `Err(Overloaded)` in place without touching the queue or a worker.
    /// Takes `&self`: each batch has its own completion channel, so
    /// batches from different threads interleave on the pool, each
    /// collecting exactly its own replies.
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Result<String, ServiceError>> {
        let (reply_tx, reply_rx) = channel::<Reply>();
        let sink = CompletionSink::new(reply_tx, Arc::new(|| {}));
        let mut out: Vec<Option<Result<String, ServiceError>>> = vec![None; requests.len()];
        for (index, request) in requests.into_iter().enumerate() {
            if !self.try_submit(index as u64, request, &sink) {
                out[index] = Some(Err(ServiceError::Overloaded));
            }
        }
        drop(sink);
        // Exactly one reply arrives per admitted job — the `Delivery`
        // guard sends on every path, crashed workers and shutdown
        // included — so this loop ends once every job's sink clone has
        // dropped, and the final `expect` documents that invariant
        // rather than handling a reachable case.
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
        // Closing the job queue is the workers' shutdown signal (they
        // drain it first); the explicit notice is the supervisor's (it
        // can't watch the queue — it waits on death notices).
        self.pool.jobs.close();
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
    use cv_xtree::{random_tree, Tree, TreeGen};

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
    fn many_documents_serve_interpreter_bytes_on_every_route() {
        // More documents than any per-worker cache ever held, cycled so
        // each one is served several times by either worker: sequential
        // and sharded requests must read the same bytes off the
        // document's shared tree.
        use crate::semantics::Threads;
        let docs: Vec<Arc<ArenaDoc>> = (0..64u64)
            .map(|seed| {
                let mut g = TreeGen::new(1000 + seed);
                Arc::new(ArenaDoc::from_tree(&random_tree(&mut g, 12, &["a", "b"])))
            })
            .collect();
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "for $x in (for $w in $root/* where $w = $root/a return $w) return <f>{ $x }</f>",
            "($root, $root//b)",
        ];
        let make = |threads: Threads| -> Vec<Request> {
            (0..4 * docs.len())
                .map(|i| {
                    let mut r =
                        Request::new(queries[i % queries.len()], docs[(i * 7) % 64].clone());
                    r.budget = r.budget.with_threads(threads);
                    r
                })
                .collect()
        };
        let want: Vec<Result<String, ServiceError>> = make(Threads::One)
            .iter()
            .map(|r| {
                let out = eval_query(&crate::parse_query(&r.query).unwrap(), &r.doc.to_tree());
                Ok(out.unwrap().iter().map(Tree::to_xml).collect())
            })
            .collect();
        let service = QueryService::new(2);
        for threads in [Threads::One, Threads::N(2)] {
            assert_eq!(service.run_batch(make(threads)), want, "at {threads:?}");
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
            // the sequential route and must still serve identical bytes.
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
        // The pool against the reference it replaced as a serving route:
        // the Figure 1 interpreter over the document's tree form. Bytes
        // and error renderings must match at 1 and 4 threads.
        use crate::semantics::{eval_with, Env, Threads};
        let docs = corpus();
        let queries = [
            "for $x in $root//a return <w>{ $x/* }</w>",
            "$root/*",
            "<out>{ for $x in $root/* return if ($x =atomic <k/>) then $x }</out>",
            "for $x in", // parse error: identical rendering to the interpreter's
            "$nope",     // eval error: identical rendering to the interpreter's
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
        let service = QueryService::new(2);
        for threads in [Threads::One, Threads::N(4)] {
            let requests = make(threads);
            let want: Vec<Result<String, ServiceError>> = requests
                .iter()
                .map(|r| {
                    let query = crate::parse_query(&r.query)
                        .map_err(|e| ServiceError::Parse(e.to_string()))?;
                    let env = Env::with_root(r.doc.to_tree());
                    let (out, _) = eval_with(&query, &env, r.budget.clone())
                        .map_err(|e| ServiceError::from_eval(&e))?;
                    Ok(out.iter().map(Tree::to_xml).collect())
                })
                .collect();
            assert!(want
                .iter()
                .any(|r| matches!(r, Err(ServiceError::Parse(_)))));
            assert!(want.iter().any(|r| matches!(r, Err(ServiceError::Eval(_)))));
            let got = service.run_batch(requests.clone());
            assert_eq!(
                got, want,
                "pool diverged from the interpreter at {threads:?}"
            );
            // A cheap single-threaded request is served inline — with the
            // same bytes.
            let mut inline = 0;
            for (request, want) in requests.iter().zip(&want) {
                if let Some(got) = served(service.try_serve_inline(request)) {
                    assert_eq!(&got, want, "inline diverged on {}", request.query);
                    inline += 1;
                }
            }
            assert_eq!(
                inline > 0,
                threads == Threads::One,
                "{inline} inline answers at {threads:?}"
            );
        }
    }

    /// A service whose every request draws `spec` at certainty.
    fn faulted(spec: &str) -> QueryService {
        QueryService::with_config(PoolConfig {
            workers: 1,
            faults: Some(Arc::new(Faults::from_spec(spec, 0).unwrap())),
            ..PoolConfig::default()
        })
    }

    /// The answer, if the request was answered inline.
    fn served(inline: Inline) -> Option<Result<String, ServiceError>> {
        match inline {
            Inline::Served(result) => Some(result),
            Inline::Declined | Inline::Escalated(_) => None,
        }
    }

    /// A pool answer to `request` handed off by an inline escalation.
    fn hand_off(service: &QueryService, request: &Request, handoff: Handoff) -> Reply {
        let (tx, rx) = channel();
        let sink = CompletionSink::new(tx, Arc::new(|| {}));
        service.hand_off(5, request.clone(), handoff, &sink);
        rx.recv_timeout(Duration::from_secs(60))
            .expect("completion")
    }

    /// Three nested loops over every element: thousands of steps on a
    /// 20-node document, and no answer.
    const COSTLY: &str = "for $p in $root//* return for $q in $root//* return \
                          for $s in $root//* return $s/never";

    #[test]
    fn inline_route_serves_cheap_pairs_and_escalates_heavy_ones() {
        use crate::semantics::Threads;
        let docs = corpus();
        let service = QueryService::new(2);
        let cheap = "for $inl in $root/* return <cheap>{ $inl }</cheap>";
        let request = Request::new(cheap, docs[0].clone());
        let want = QueryService::new(1).run_batch(vec![request.clone()]);
        // A first sighting is compiled and probed inline, and the probe
        // is the answer.
        assert_eq!(
            served(service.try_serve_inline(&request)),
            Some(want[0].clone())
        );
        assert_eq!(PlanCache::global().compile_count(cheap), 1);
        // The repeat is served inline, same bytes.
        assert_eq!(
            served(service.try_serve_inline(&request)),
            Some(want[0].clone())
        );
        // Another document and a document built afresh: probed inline.
        for doc in [
            docs[1].clone(),
            Arc::new(ArenaDoc::from_tree(&docs[0].to_tree())),
        ] {
            let other = Request::new(cheap, doc);
            let want = QueryService::new(1).run_batch(vec![other.clone()]);
            assert_eq!(
                served(service.try_serve_inline(&other)),
                Some(want[0].clone())
            );
        }
        // A threaded budget always goes to the pool, untouched.
        let mut threaded = request.clone();
        threaded.budget = threaded.budget.with_threads(Threads::N(2));
        assert!(matches!(
            service.try_serve_inline(&threaded),
            Inline::Declined
        ));
        // A heavy pair escalates once, leaving a lower bound; the pool's
        // run replaces it with the exact cost, and the pair then goes
        // to the pool without running inline.
        let costly = Request::new(COSTLY, docs[0].clone());
        let Inline::Escalated(handoff) = service.try_serve_inline(&costly) else {
            panic!("a heavy first sighting escalates");
        };
        let plan = PlanCache::global().get(COSTLY).unwrap();
        let floor = RunCost {
            steps: INLINE_MAX_STEPS + 1,
            bytes: 0,
        };
        assert_eq!(
            plan.cost_record(docs[0].id()),
            Some(CostRecord::AtLeast(floor))
        );
        assert_eq!(
            service.queue_depth(),
            1,
            "the handoff holds its admission slot"
        );
        let pooled = service.run_batch(vec![costly.clone()]);
        assert_eq!(hand_off(&service, &costly, handoff), (5, pooled[0].clone()));
        let exact = plan
            .recorded_cost(docs[0].id())
            .expect("the pool recorded it");
        assert!(exact.steps > INLINE_MAX_STEPS, "{exact:?}");
        assert!(matches!(
            service.try_serve_inline(&costly),
            Inline::Declined
        ));
        assert_eq!((service.queue_depth(), service.in_flight()), (0, 0));
    }

    #[test]
    fn an_own_step_cap_under_the_bound_is_answered_inline_exactly() {
        // Across the inline ceiling, the request's own caps decide: at or
        // below it the inline run is the real run, errors included; above
        // it the run escalates and the pool answers. Either way the bytes
        // are the pool's.
        let docs = corpus();
        let service = QueryService::new(1);
        for cap in [
            1,
            60,
            INLINE_MAX_STEPS - 1,
            INLINE_MAX_STEPS,
            INLINE_MAX_STEPS + 1,
            u64::MAX,
        ] {
            for (steps, items) in [(cap, u64::MAX), (u64::MAX, cap)] {
                // A document of its own per budget: no record carries over.
                let doc = Arc::new(ArenaDoc::from_tree(&docs[2].to_tree()));
                let mut request = Request::new(COSTLY, doc);
                request.budget = Budget {
                    max_steps: steps,
                    max_items: items,
                    ..Budget::default()
                };
                let got = match service.try_serve_inline(&request) {
                    Inline::Served(got) => {
                        assert!(steps <= INLINE_MAX_STEPS || items <= INLINE_MAX_STEPS);
                        got
                    }
                    Inline::Escalated(handoff) => {
                        assert!(steps > INLINE_MAX_STEPS);
                        hand_off(&service, &request, handoff).1
                    }
                    Inline::Declined => panic!("declined at {steps}/{items}"),
                };
                let want = QueryService::new(1).run_batch(vec![request]);
                assert_eq!(got, want[0], "steps {steps}, items {items}");
            }
        }
    }

    /// `let $x1 := <d>{ ($x0, $x0) }</d> return …` to depth `depth`, over
    /// the leaf `$x0 := <d/>` (`var` names the chain): a tree whose text
    /// doubles per binding.
    fn doubling(var: &str, depth: usize) -> String {
        let mut text = format!("let ${var}0 := <d/> return ");
        for i in 1..=depth {
            text += &format!(
                "let ${var}{i} := <d>{{ (${var}{p}, ${var}{p}) }}</d> return ",
                p = i - 1
            );
        }
        text
    }

    #[test]
    fn a_long_answer_escalates_and_the_pool_writes_it() {
        let docs = corpus();
        let service = QueryService::new(1);
        // About a hundred steps and a 48 KiB answer.
        let text = doubling("w", 12) + "$w12";
        let request = Request::new(&text, docs[0].clone());
        let Inline::Escalated(handoff) = service.try_serve_inline(&request) else {
            panic!("an answer over the bound escalates");
        };
        let plan = PlanCache::global().get(&text).unwrap();
        let Some(CostRecord::AtLeast(floor)) = plan.cost_record(docs[0].id()) else {
            panic!("the probe leaves a lower bound");
        };
        assert_eq!(floor.bytes, INLINE_MAX_BYTES + 1);
        let (_, answer) = hand_off(&service, &request, handoff);
        let xml = answer.expect("the pool answers");
        assert!(xml.len() as u64 > 2 * INLINE_MAX_BYTES, "{}", xml.len());
        let exact = plan.recorded_cost(docs[0].id()).unwrap();
        assert_eq!((exact.steps, exact.bytes), (floor.steps, xml.len() as u64));
        assert!(matches!(
            service.try_serve_inline(&request),
            Inline::Declined
        ));
    }

    #[test]
    fn a_plan_that_compares_constructed_trees_never_runs_inline() {
        // Two let chains of depth 20 compared with `=deep`: a few hundred
        // steps, but the comparison unfolds both shared trees (2^20
        // leaves), work the step budget does not charge.
        let docs = corpus();
        let text = doubling("x", 20) + &doubling("y", 20) + "if ($x20 = $y20) then <deep/>";
        let request = Request::new(&text, docs[0].clone());
        let service = QueryService::new(1);
        let want = service.run_batch(vec![request.clone()]);
        assert_eq!(want[0].as_deref(), Ok("<deep/>"));
        let plan = PlanCache::global().get(&text).unwrap();
        assert!(plan.compares_trees());
        let cost = plan.recorded_cost(docs[0].id()).unwrap();
        assert!(cost.steps <= INLINE_MAX_STEPS, "{cost:?}");
        for _ in 0..3 {
            assert!(matches!(
                service.try_serve_inline(&request),
                Inline::Declined
            ));
        }
        // A comparison of document nodes stays inline.
        let nodes = "for $v0 in for $v0 in $root/a return if ($root = $root) then $v0 \
                     return for $v1 in $root/b return $v1";
        let request = Request::new(nodes, docs[0].clone());
        assert!(!PlanCache::global()
            .get_or_compile(nodes)
            .unwrap()
            .compares_trees());
        assert!(matches!(
            service.try_serve_inline(&request),
            Inline::Served(Ok(_))
        ));
        // A text longer than the bound is not compiled inline.
        let long = format!("<long>{{ {} }}</long>", vec!["$root"; 4000].join(", "));
        let request = Request::new(&long, docs[0].clone());
        assert!(matches!(
            service.try_serve_inline(&request),
            Inline::Declined
        ));
        assert_eq!(PlanCache::global().compile_count(&long), 0);
    }

    #[test]
    fn inline_requests_draw_the_pool_fault_points() {
        let docs = corpus();
        let text = "for $flt in $root/* return <fault_points>{ $flt }</fault_points>";
        let request = Request::new(text, docs[2].clone());
        let want = QueryService::new(1).run_batch(vec![request.clone()]);
        assert!(want[0].is_ok());
        // A refused admission sheds.
        let refusing = faulted("submit-refusal=1");
        assert_eq!(
            served(refusing.try_serve_inline(&request)),
            Some(Err(ServiceError::Overloaded))
        );
        // A panicking evaluation is contained, as on a worker.
        let panicking = faulted("worker-panic=1");
        match served(panicking.try_serve_inline(&request)) {
            Some(Err(ServiceError::Internal(m))) => {
                assert!(m.starts_with(INJECTED_PANIC_PREFIX), "{m}")
            }
            other => panic!("expected a contained panic, got {other:?}"),
        }
        assert_eq!(panicking.contained_panics(), 1);
        // A stalled evaluation still answers.
        let slow = faulted("slow-eval=1@1");
        assert_eq!(
            served(slow.try_serve_inline(&request)),
            Some(want[0].clone())
        );
        // A dropped completion answers what a dead worker leaves behind,
        // and kills nothing.
        let dropping = faulted("completion-drop=1");
        assert_eq!(
            served(dropping.try_serve_inline(&request)),
            Some(Err(ServiceError::Internal(ABANDONED.to_string())))
        );
        assert_eq!(dropping.worker_deaths(), 0);
        for (service, point) in [
            (&refusing, FaultPoint::SubmitRefusal),
            (&panicking, FaultPoint::WorkerPanic),
            (&slow, FaultPoint::SlowEval),
            (&dropping, FaultPoint::CompletionDrop),
        ] {
            let f = service.pool.faults.as_ref().unwrap();
            assert_eq!((f.drawn(point), f.fired(point)), (1, 1), "{point:?}");
            assert_eq!((service.queue_depth(), service.in_flight()), (0, 0));
        }
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let docs = corpus();
        let service = QueryService::new(2).with_queue_capacity(0);
        assert_eq!(service.queue_capacity(), 0);
        // Every request shed at admission, positionally.
        let got = service.run_batch(vec![
            Request::new("$root/*", docs[0].clone()),
            Request::new("<ok/>", docs[1].clone()),
        ]);
        assert_eq!(got, vec![Err(ServiceError::Overloaded); 2]);
        assert_eq!(service.queue_depth(), 0, "shed requests never queue");
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
    fn run_batch_sheds_exactly_past_the_high_water_mark() {
        // One worker pinned by a cancellable infinite query, capacity 2:
        // a batch of 3 must have exactly its first two requests admitted
        // (they wait in the queue behind the pinned worker) and exactly
        // the third shed, answered `Overloaded` in its own position.
        use crate::CancelFlag;
        let docs = corpus();
        // A point capped at zero fires never but still counts one draw
        // per admission: the fourth draw (pin + three) is taken by the
        // third request, instructions before its compare-and-swap — so
        // the worker is released only once the whole batch is in.
        let faults = Arc::new(Faults::from_spec("submit-refusal=1x0", 0).unwrap());
        let service = QueryService::with_config(PoolConfig {
            workers: 1,
            faults: Some(Arc::clone(&faults)),
            ..PoolConfig::default()
        })
        .with_queue_capacity(2);
        let flag = CancelFlag::new();
        let mut pin = Request::new(infinite_query(), docs[0].clone());
        pin.budget = Budget {
            max_steps: u64::MAX,
            max_items: u64::MAX,
            ..Budget::default()
        }
        .with_cancel(flag.clone());
        std::thread::scope(|scope| {
            let pinned = scope.spawn(|| service.run_batch(vec![pin]));
            wait_for("worker pinned", || {
                service.in_flight() == 1 && service.queue_depth() == 0
            });
            let batch = scope.spawn(|| {
                service.run_batch(vec![
                    Request::new("$root/*", docs[0].clone()),
                    Request::new("<ok/>", docs[1].clone()),
                    Request::new("$root/*", docs[2].clone()),
                ])
            });
            wait_for("all three admission decisions taken", || {
                faults.drawn(FaultPoint::SubmitRefusal) == 4
            });
            assert_eq!(service.queue_depth(), 2, "both admission slots claimed");
            flag.cancel();
            let got = batch.join().expect("batch");
            assert!(
                got[0].is_ok(),
                "first admitted request served: {:?}",
                got[0]
            );
            assert_eq!(
                got[1].as_deref(),
                Ok("<ok/>"),
                "second admitted request served"
            );
            assert_eq!(
                got[2],
                Err(ServiceError::Overloaded),
                "exactly the over-capacity request sheds"
            );
            let pinned = pinned.join().expect("pinned batch");
            assert_eq!(pinned, vec![Err(ServiceError::Cancelled)]);
        });
        wait_for("gauges settle", || {
            service.queue_depth() == 0 && service.in_flight() == 0
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
