//! The repository benchmark: end-to-end numbers from an untraced run of
//! one workload, per-layer numbers from a traced run on the same seed.
//!
//! Workloads drive the program only through public entry points: the
//! serving workloads talk to a [`eds_scenarios::Server`] over a unix
//! socket, the sweep runs an [`eds_scenarios::Session`]. See README.md
//! for the metric tables and the rationale of each workload.

pub mod check;
pub mod client;
pub mod json;
pub mod layers;
pub mod mix;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::PathBuf;

pub use mix::Scale;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve_cold", "serve_warm", "sweep_batch"];

/// Every end-to-end metric: name, unit, better direction. Each
/// workload reports all of them (README.md says what each one means
/// per workload).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("slo_ok_frac", "fraction", "higher"),
    ("throughput_req_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, or sweep records produced).
    pub attempted: u64,
    /// Operations that returned an error frame, timed out, closed early
    /// or failed the correctness gate.
    pub failed: u64,
    /// Correctness problems found (empty when correct).
    pub problems: Vec<String>,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether the run passed the correctness gate.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Renders a float with all its digits (JSON has no NaN or infinity).
fn finite(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for sockets, sink files and span dumps.
    pub out_dir: PathBuf,
}

/// Runs one workload.
///
/// # Errors
///
/// Unknown workloads and I/O failures of the harness itself (binding a
/// socket, creating a file); correctness failures land in the
/// [`Outcome`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    match opts.workload.as_str() {
        "serve_cold" => serve::run(opts, false),
        "serve_warm" => serve::run(opts, true),
        "sweep_batch" => sweep::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Client connections and sweep shards: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// `VmHWM` of this process (peak resident set), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds a metric list from `(name, value)` pairs of a declared table.
pub fn metrics(table: &[(&str, &'static str, &str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|(name, unit, _)| Metric {
            name: (*name).to_owned(),
            value: values
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(|| panic!("metric {name} not computed"), |(_, v)| *v),
            unit,
        })
        .collect()
}
