//! Deterministic, seeded fault injection for the serving stack.
//!
//! Production failure modes — a panicking evaluation, a worker dying
//! mid-delivery, a stalled evaluation, a refused admission — are rare by
//! construction, which is exactly why the paths that contain them rot
//! unexercised. This module makes failure an *input*: a [`Faults`]
//! registry holds a per-[`FaultPoint`] firing probability, and the code
//! hosting each point asks [`Faults::fires`] at the moment the fault
//! would occur.
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(seed, point, occurrence)`:
//! the `n`-th draw at a given point hashes the seed, a per-point salt,
//! and `n` through SplitMix64 and compares the result against the
//! point's probability. Two registries built from the same spec and
//! seed therefore produce *identical decision sequences*, whichever
//! threads consume them — so a chaos-soak failure replays exactly by
//! re-running with the same `XQ_FAULT_SEED`/`XQ_FAULT_SPEC` pair, and
//! when the number of draws is itself schedule-independent (it is in
//! the soak: one draw per request per point), the *number of injected
//! faults* is a constant of the configuration, not of thread timing.
//!
//! ## Cost when disabled
//!
//! Faults are off by default: the service holds an
//! `Option<Arc<Faults>>` that is `None` unless explicitly configured,
//! so the entire facility costs one pointer test (`if let Some(_)`) per
//! hosting site on the production path — no atomics, no hashing, no
//! branches inside evaluation.
//!
//! ## Spec grammar
//!
//! ```text
//! spec      := point ("," point)*
//! point     := name "=" prob [ "@" delay_ms ] [ "x" limit ]
//! name      := "worker-panic" | "completion-drop" | "slow-eval" | "submit-refusal"
//! prob      := float in [0, 1]
//! delay_ms  := integer (slow-eval's injected sleep; default 1)
//! limit     := integer (fire at most this many times; default unlimited)
//! ```
//!
//! e.g. `XQ_FAULT_SPEC="worker-panic=0.05,slow-eval=0.2@3,completion-drop=1.0x1"`
//! panics 5% of evaluations, delays 20% of them by 3 ms, and kills
//! exactly one delivery. Each point may appear at most once. Malformed
//! specs are rejected with a typed [`FaultSpecError`] — never silently
//! ignored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The named places the serving stack can inject a failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Panic inside a worker's evaluation — *inside* the service's
    /// `catch_unwind` fence, so firing it proves a panicking query is
    /// answered `internal_error` without killing the worker.
    WorkerPanic,
    /// Panic during result delivery — *outside* the fence, so firing it
    /// kills the worker thread and proves the delivery guard still
    /// answers the request and the supervisor respawns the worker.
    CompletionDrop,
    /// Sleep before evaluation (the delay is the point's `@ms` field) —
    /// models a stalled evaluation without cooking the CPU.
    SlowEval,
    /// Refuse admission at the reactor → pool handoff, as if the queue
    /// were at its high-water mark — exercises the `overloaded` path.
    SubmitRefusal,
}

impl FaultPoint {
    const ALL: [FaultPoint; 4] = [
        FaultPoint::WorkerPanic,
        FaultPoint::CompletionDrop,
        FaultPoint::SlowEval,
        FaultPoint::SubmitRefusal,
    ];

    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "worker-panic",
            FaultPoint::CompletionDrop => "completion-drop",
            FaultPoint::SlowEval => "slow-eval",
            FaultPoint::SubmitRefusal => "submit-refusal",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultPoint::WorkerPanic => 0,
            FaultPoint::CompletionDrop => 1,
            FaultPoint::SlowEval => 2,
            FaultPoint::SubmitRefusal => 3,
        }
    }

    /// Per-point salt so two points never share a decision stream.
    fn salt(self) -> u64 {
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.index() as u64 + 1)
    }
}

/// Why a fault spec was rejected. Carries a rendered message; the spec
/// text is untrusted operator input, so rejection must be a value, not
/// a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// One configured fault point: probability, parameters, counters.
#[derive(Debug)]
struct Point {
    /// Firing probability in [0, 1].
    prob: f64,
    /// `slow-eval`'s injected sleep (parsed for every point, consumed
    /// only by `slow-eval`).
    delay: Duration,
    /// Fire at most this many times (`u64::MAX` = unlimited).
    limit: u64,
    /// Draws taken at this point (the occurrence counter the hash
    /// consumes).
    drawn: AtomicU64,
    /// Draws that fired.
    fired: AtomicU64,
}

impl Point {
    fn off() -> Point {
        Point {
            prob: 0.0,
            delay: Duration::from_millis(1),
            limit: u64::MAX,
            drawn: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }
}

/// A seeded fault registry; see the module docs. Shared as
/// `Arc<Faults>` between the service pool and the front door so one
/// seed governs the whole serving stack.
#[derive(Debug)]
pub struct Faults {
    seed: u64,
    spec: String,
    points: [Point; 4],
}

/// SplitMix64: the standard 64-bit finalizer — full avalanche, so
/// consecutive occurrence indices decorrelate completely.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Faults {
    /// Parses `spec` (see the module-level grammar) under `seed`.
    /// Rejects unknown point names, repeated points, out-of-range
    /// probabilities, and malformed numbers with a typed
    /// [`FaultSpecError`].
    pub fn from_spec(spec: &str, seed: u64) -> Result<Faults, FaultSpecError> {
        let mut points = [Point::off(), Point::off(), Point::off(), Point::off()];
        let mut seen = [false; 4];
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(FaultSpecError(format!(
                    "empty clause in {spec:?} (trailing or doubled comma?)"
                )));
            }
            let (name, mut rest) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("clause {part:?} is not name=prob")))?;
            let point = FaultPoint::ALL
                .iter()
                .copied()
                .find(|p| p.name() == name.trim())
                .ok_or_else(|| {
                    FaultSpecError(format!(
                        "unknown fault point {:?} (expected one of worker-panic, \
                         completion-drop, slow-eval, submit-refusal)",
                        name.trim()
                    ))
                })?;
            // A second clause for the same point would silently override
            // the first (last clause wins) — reject it instead.
            if std::mem::replace(&mut seen[point.index()], true) {
                return Err(FaultSpecError(format!(
                    "fault point {:?} appears more than once in {spec:?}",
                    point.name()
                )));
            }
            // Suffixes bind right to left: prob[@delay_ms][xlimit].
            let mut limit = u64::MAX;
            if let Some((head, lim)) = rest.split_once('x') {
                limit = lim
                    .parse()
                    .map_err(|_| FaultSpecError(format!("bad limit {lim:?} in {part:?}")))?;
                rest = head;
            }
            let mut delay = Duration::from_millis(1);
            if let Some((head, ms)) = rest.split_once('@') {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| FaultSpecError(format!("bad delay {ms:?} in {part:?}")))?;
                delay = Duration::from_millis(ms);
                rest = head;
            }
            let prob: f64 = rest
                .parse()
                .map_err(|_| FaultSpecError(format!("bad probability {rest:?} in {part:?}")))?;
            if !(0.0..=1.0).contains(&prob) {
                return Err(FaultSpecError(format!(
                    "probability {prob} in {part:?} is outside [0, 1]"
                )));
            }
            let slot = &mut points[point.index()];
            slot.prob = prob;
            slot.delay = delay;
            slot.limit = limit;
        }
        let faults = Faults {
            seed,
            spec: spec.to_string(),
            points,
        };
        // Injected panics are expected output, not bugs: keep them off
        // the test/CI stderr so real panics stay visible.
        if faults.points[FaultPoint::WorkerPanic.index()].prob > 0.0
            || faults.points[FaultPoint::CompletionDrop.index()].prob > 0.0
        {
            silence_injected_panics();
        }
        Ok(faults)
    }

    /// The `XQ_FAULT_SPEC` / `XQ_FAULT_SEED` knobs: `Ok(None)` when no
    /// spec is set (the production default), the parsed registry when it
    /// is, and an error for malformed values of either variable — a typo
    /// in a chaos knob must fail loudly, not run a faultless "soak".
    /// The seed defaults to 2005 (the paper's year) when unset.
    pub fn from_env() -> Result<Option<Faults>, FaultSpecError> {
        let Ok(spec) = std::env::var("XQ_FAULT_SPEC") else {
            return Ok(None);
        };
        let seed = match std::env::var("XQ_FAULT_SEED") {
            Ok(s) => s
                .trim()
                .parse()
                .map_err(|_| FaultSpecError(format!("XQ_FAULT_SEED {s:?} is not a u64")))?,
            Err(_) => 2005,
        };
        Faults::from_spec(&spec, seed).map(Some)
    }

    /// Draws the point's next occurrence: true iff the fault fires.
    /// Deterministic in `(seed, point, occurrence)`; see module docs.
    pub fn fires(&self, point: FaultPoint) -> bool {
        let p = &self.points[point.index()];
        if p.prob <= 0.0 {
            return false;
        }
        let n = p.drawn.fetch_add(1, Ordering::Relaxed);
        let fired = if p.prob >= 1.0 {
            true
        } else {
            // Top 53 bits → a uniform float in [0, 1).
            let h = splitmix64(self.seed ^ point.salt() ^ n);
            ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p.prob
        };
        if fired {
            // The limit bounds *fires*, not draws, so `x1` means
            // "exactly one injected fault" regardless of probability.
            let k = p.fired.fetch_add(1, Ordering::Relaxed);
            if k >= p.limit {
                return false;
            }
        }
        fired
    }

    /// `slow-eval`'s configured sleep (the point's `@ms` field).
    pub fn delay(&self, point: FaultPoint) -> Duration {
        self.points[point.index()].delay
    }

    /// Draws taken at `point` so far.
    pub fn drawn(&self, point: FaultPoint) -> u64 {
        self.points[point.index()].drawn.load(Ordering::Relaxed)
    }

    /// Draws at `point` that fired so far (capped observations included,
    /// so this can exceed the `x` limit by at most the number of
    /// concurrent over-limit draws; with `x` unset it is exact).
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.points[point.index()]
            .fired
            .load(Ordering::Relaxed)
            .min(self.points[point.index()].limit)
    }

    /// The seed the registry was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec text the registry was built from.
    pub fn spec(&self) -> &str {
        self.spec.as_str()
    }
}

/// The panic payload every injected panic carries, prefixed so the
/// silenced hook (and a human reading an `internal_error` frame) can
/// tell injected faults from real bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" stderr report for payloads carrying
/// [`INJECTED_PANIC_PREFIX`], delegating everything else to the prior
/// hook. A chaos soak injects hundreds of panics by design; their
/// backtrace spam would bury any *real* failure in the test output.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.starts_with(INJECTED_PANIC_PREFIX))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_never_fire_and_never_draw() {
        let f = Faults::from_spec("worker-panic=0.5", 7).unwrap();
        for _ in 0..100 {
            assert!(!f.fires(FaultPoint::SlowEval));
        }
        assert_eq!(f.drawn(FaultPoint::SlowEval), 0, "prob-0 points are free");
    }

    #[test]
    fn same_seed_same_decisions_different_seed_differs() {
        let spec = "worker-panic=0.3,completion-drop=0.7";
        let a = Faults::from_spec(spec, 42).unwrap();
        let b = Faults::from_spec(spec, 42).unwrap();
        let c = Faults::from_spec(spec, 43).unwrap();
        let draw = |f: &Faults| -> Vec<bool> {
            (0..256)
                .map(|i| {
                    f.fires(if i % 2 == 0 {
                        FaultPoint::WorkerPanic
                    } else {
                        FaultPoint::CompletionDrop
                    })
                })
                .collect()
        };
        let (da, db, dc) = (draw(&a), draw(&b), draw(&c));
        assert_eq!(da, db, "same (seed, spec) must replay exactly");
        assert_ne!(da, dc, "a different seed must explore differently");
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let f = Faults::from_spec("worker-panic=0.25", 9).unwrap();
        let fired = (0..4000)
            .filter(|_| f.fires(FaultPoint::WorkerPanic))
            .count();
        assert!(
            (800..=1200).contains(&fired),
            "~25% of 4000 draws should fire, got {fired}"
        );
        assert_eq!(f.drawn(FaultPoint::WorkerPanic), 4000);
        assert_eq!(f.fired(FaultPoint::WorkerPanic), fired as u64);
    }

    #[test]
    fn certain_faults_always_fire_and_limits_cap_them() {
        let f = Faults::from_spec("completion-drop=1.0x3", 1).unwrap();
        let fired = (0..50)
            .filter(|_| f.fires(FaultPoint::CompletionDrop))
            .count();
        assert_eq!(fired, 3, "x3 caps a certain fault at three fires");
        assert_eq!(f.fired(FaultPoint::CompletionDrop), 3);
    }

    #[test]
    fn delay_and_suffix_parsing() {
        let f = Faults::from_spec("slow-eval=0.5@7x9", 3).unwrap();
        assert_eq!(f.delay(FaultPoint::SlowEval), Duration::from_millis(7));
        let f = Faults::from_spec("slow-eval=1.0", 3).unwrap();
        assert_eq!(
            f.delay(FaultPoint::SlowEval),
            Duration::from_millis(1),
            "delay defaults to 1ms"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_not_ignored() {
        for bad in [
            "",
            "worker-panic",                   // no probability
            "worker-panic=",                  // empty probability
            "worker-panic=nope",              // non-numeric
            "worker-panic=1.5",               // out of range
            "worker-panic=-0.1",              // out of range
            "worker-panic=0.5,",              // trailing comma
            "worker-panics=0.5",              // unknown point
            "slow-eval=0.5@fast",             // bad delay
            "completion-drop=1.0xmany",       // bad limit
            "worker-panic=0.5 slow-eval=0.5", // missing comma
            "worker-panic=1,worker-panic=0",  // repeated point
        ] {
            assert!(
                Faults::from_spec(bad, 0).is_err(),
                "spec {bad:?} must be rejected"
            );
        }
        let err = Faults::from_spec("worker-panics=0.5", 0).unwrap_err();
        assert!(err.to_string().contains("unknown fault point"));
        let err = Faults::from_spec("worker-panic=1,slow-eval=0,worker-panic=0", 0).unwrap_err();
        assert!(
            err.to_string()
                .contains("\"worker-panic\" appears more than once"),
            "the error names the repeated point: {err}"
        );
    }

    #[test]
    fn spec_and_seed_round_trip() {
        let f = Faults::from_spec("worker-panic=0.1", 77).unwrap();
        assert_eq!(f.seed(), 77);
        assert_eq!(f.spec(), "worker-panic=0.1");
    }
}
