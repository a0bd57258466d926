//! Metric names and units, order statistics, and the result line.
//!
//! Every metric the benchmark can emit is declared here, once; `metric`
//! refuses any other name, and the package's tests check these tables
//! against `BENCHMARK.json`.

/// A declared metric: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric's name in the result line.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    def("throughput_rps", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_p99_ms", "ms"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced replay.
pub const PER_LAYER: [MetricDef; 23] = [
    def("protocol.request_parse_us", "us"),
    def("protocol.response_encode_us", "us"),
    def("protocol.response_parse_us", "us"),
    def("protocol.response_bytes", "bytes"),
    def("plan_cache.probe_us", "us"),
    def("plan_cache.compile_us", "us"),
    def("plan_cache.hit_ratio", "ratio"),
    def("materialize.to_tree_us", "us"),
    def("eval.exec_us", "us"),
    def("eval.steps", "count"),
    def("eval.items", "count"),
    def("serialize.to_xml_us", "us"),
    def("serialize.bytes", "bytes"),
    def("service.roundtrip_us", "us"),
    def("service.overhead_us", "us"),
    def("server.unattributed_us", "us"),
    def("server.peak_write_buffer_bytes", "bytes"),
    def("server.backpressured", "count"),
    def("server.refused", "count"),
    def("trace.latency_p50_ms", "ms"),
    def("share.eval", "ratio"),
    def("share.output", "ratio"),
    def("share.fixed", "ratio"),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The declared metric `name` with `value`.
///
/// # Panics
/// If `name` is not declared in [`END_TO_END`] or [`PER_LAYER`] — a bug
/// in this benchmark, not in the measured program.
pub fn metric(name: &str, value: f64) -> Metric {
    let d = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric {
        name: d.name,
        unit: d.unit,
        value,
    }
}

/// What one run measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Requests whose answers were checked.
    pub attempted: u64,
    /// Requests answered with a non-`ok` code or with bytes differing
    /// from the oracle's.
    pub failed: u64,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True iff every checked answer matched the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed`, and every metric by name with its value and unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite value is a
                // broken measurement and reads as 0 beside correct=false.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted`, by nearest rank;
/// 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}
