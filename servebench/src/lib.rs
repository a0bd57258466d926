//! Serving benchmark for the `xq_server` front door.
//!
//! Three closed-loop workloads (`large-result`, `heavy-eval`,
//! `many-small`) drive a real [`xq_server::Server`] over loopback TCP and
//! report end-to-end metrics; a traced mode replays the same seeded
//! request stream through each layer's public functions and derives
//! per-layer metrics from the recorded spans. See `README.md` beside this
//! package for the metric-to-workload mapping.
//!
//! * [`workload`] — seeded inputs: documents, the hot set, request
//!   streams, and the Figure 1 oracle's expected answers.
//! * `load` — set-up, the closed-loop socket clients, and the
//!   end-to-end metrics.
//! * `trace` — spans, the layer replay, the socket-free pool round
//!   trip, and the per-layer metrics.
//! * [`report`] — metric names, units, and the result line.

mod load;
pub mod report;
mod trace;
pub mod workload;

pub use report::Outcome;
pub use workload::Workload;

/// Runs one workload for `seconds` and returns its metrics: the
/// end-to-end set with `traced == false`, the per-layer set otherwise.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        trace::run(workload, seed, seconds)
    } else {
        load::run(workload, seed, seconds)
    }
}

/// Client connections and requests in flight: one per host thread, as
/// `nproc` reports it.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
