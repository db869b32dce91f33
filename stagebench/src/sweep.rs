//! The sweep workload: one `Session` with a shard per CPU, all six
//! protocols and LP bounds, streaming JSON lines to a file. Ports and
//! the engine do the work; JSON parsing, canonical forms, the cache and
//! the request queue are not on this path at all.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use eds_scenarios::{
    ChurnPlan, ExecOptions, Family, JsonLinesSink, LpBounds, PortPolicy, RecordSink, ScenarioSpec,
    Session, SweepRecord, Tee,
};

use crate::layers::{self, Extra};
use crate::mix::{Rng, Scale};
use crate::replay::{self, Ledger};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{metrics, nproc, peak_rss_mb, Options, Outcome, END_TO_END};

/// A session run slower than this counts against `slo_ok_frac`.
const RUN_LIMIT_S: f64 = 120.0;

/// Nominal length of one session run: a run takes 1.1 to 2.4 s on two
/// cores of a shared host. The untraced run makes `--seconds / RUN_S`
/// session runs, a count fixed by the window rather than by how fast
/// the host happens to be.
const RUN_S: f64 = 2.0;

/// The sweep's specs, largest first so the shards start on the long
/// poles. Each family comes at a paired size n and 10n (the growth
/// ratios), small enough that a session run takes about a second and a
/// window holds many. Power-law stays at 30 and 300 nodes: its
/// hub degree Δ varies with the seed, and bounded-degree's O(Δ²) rounds
/// with it (0.1 to 0.5 s at 500 nodes, 0.4 to 1.9 s at 1,000, minutes
/// at 10⁴). The churn spec on a streamed cycle is a small minority of the
/// run.
pub fn specs(seed: u64, scale: Scale) -> Vec<ScenarioSpec> {
    let mut rng = Rng::new(seed, 0x5a5a);
    let mut spec =
        |family: Family| ScenarioSpec::new(family, rng.next_u64() >> 24, PortPolicy::Canonical);
    let n = |k: usize| scale.nodes(k);
    let side = |k: usize| scale.side(k);
    vec![
        spec(Family::Cycle(n(50_000))),
        spec(Family::RandomRegular { n: n(20_000), d: 3 }),
        spec(Family::Grid(side(141), side(141))),
        spec(Family::Churn {
            base: Box::new(Family::MillionCycle { n: n(5_000) }),
            plan: ChurnPlan::new(2, 2, 1),
        })
        .with_exec(ExecOptions::default()),
        spec(Family::PowerLaw { n: n(300), m: 1 }),
        spec(Family::Cycle(n(5_000))),
        spec(Family::RandomRegular { n: n(2_000), d: 3 }),
        spec(Family::Grid(side(45), side(45))),
        spec(Family::PowerLaw { n: n(30), m: 1 }),
    ]
}

/// A writer that counts bytes and, in the traced run, records a
/// `sink.write` span around every write.
struct TimedWriter<'a, W: Write> {
    inner: W,
    tracer: Option<&'a Tracer>,
    bytes: u64,
}

impl<W: Write> Write for TimedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = match self.tracer {
            Some(t) => {
                t.time("sink.write", "", 0, None, || self.inner.write(buf))
                    .0?
            }
            None => self.inner.write(buf)?,
        };
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.tracer {
            Some(t) => {
                t.time("sink.write", "flush", 0, None, || self.inner.flush())
                    .0
            }
            None => self.inner.flush(),
        }
    }
}

/// Keeps every record with the time it reached the sink, in seconds
/// since `start` (the record's latency).
struct Stamped {
    start: Instant,
    records: Vec<SweepRecord>,
    at: Vec<f64>,
}

impl RecordSink for Stamped {
    fn record(&mut self, record: SweepRecord) {
        self.at.push(self.start.elapsed().as_secs_f64());
        self.records.push(record);
    }
}

type Sink<'a> = Tee<JsonLinesSink<TimedWriter<'a, BufWriter<File>>>, Stamped>;

/// Opens the JSON-lines report file and wraps it in the sink; record
/// latencies count from the moment this returns.
fn open_sink<'a>(path: &Path, tracer: Option<&'a Tracer>) -> Result<Sink<'a>, String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(Tee::new(
        JsonLinesSink::new(TimedWriter {
            inner: BufWriter::new(file),
            tracer,
            bytes: 0,
        }),
        Stamped {
            start: Instant::now(),
            records: Vec::new(),
            at: Vec::new(),
        },
    ))
}

/// Runs sweep_batch.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let tracer = Tracer::new();
    let traced = opts.trace.then_some(&tracer);
    let shards = nproc();
    let specs = specs(opts.seed, opts.scale);
    let dir = opts.out_dir.join(format!("sweep-{}", std::process::id()));
    let report = dir.join("records.jsonl");
    let mut outcome = Outcome::default();

    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

    // Set-up: the session, repeated before measuring.
    let set_up = || {
        let start = Instant::now();
        let session = Session::new()
            .specs(specs.clone())
            .threads(shards)
            .bounds(LpBounds::default());
        (start.elapsed().as_secs_f64(), session)
    };
    let reps: usize = match (opts.trace, opts.scale) {
        (true, _) => 1,
        (false, Scale::Full) => 1001,
        (false, Scale::Tiny) => 3,
    };
    let mut setups = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        let (took, session) = set_up();
        setups.push(took);
        kept = Some(session);
    }
    let session = kept.expect("at least one set-up");

    // A fixed number of session runs (one in the traced run), each
    // streaming to a fresh report.
    let runs = if opts.trace {
        1
    } else {
        ((opts.seconds / RUN_S) as usize).max(1)
    };
    let mut walls = Vec::with_capacity(runs);
    let mut latencies = Vec::new();
    let mut clean_runs = 0;
    let mut last_records = Vec::new();
    let mut sink_bytes = 0;
    for _ in 0..runs {
        let mut sink = open_sink(&report, traced)?;
        let session_span = traced.map(|t| t.open("session.run", "", 0, None));
        let start = Instant::now();
        let result = session.run(&mut sink);
        let wall = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (traced, session_span) {
            t.close(id);
        }
        walls.push(wall);
        let Tee { first, second } = sink;
        latencies.extend(second.at.iter().map(|s| s * 1e3));
        let records = second.records;
        let flushed = first.finish().map(|mut w| {
            sink_bytes = w.bytes;
            w.inner.flush()
        });
        if let Err(e) = &result {
            outcome.problems.push(format!("session run failed: {e}"));
        }
        if !matches!(flushed, Ok(Ok(()))) {
            outcome.problems.push("the report did not flush".to_owned());
        }
        for r in records.iter().filter(|r| !r.is_clean()) {
            outcome.problems.push(format!(
                "{} on {}: violation {:?}, within_bound {:?}",
                r.protocol, r.scenario, r.violation, r.within_bound
            ));
        }
        let unclean = records.iter().filter(|r| !r.is_clean()).count();
        let good = result.is_ok()
            && matches!(flushed, Ok(Ok(())))
            && !records.is_empty()
            && check_report(&report, records.len(), &mut outcome);
        let attempted = records.len().max(1);
        outcome.attempted += attempted as u64;
        outcome.failed += (unclean + usize::from(!good)).min(attempted) as u64;
        if !last_records.is_empty() && last_records != records {
            outcome
                .problems
                .push("two runs of the same session produced different records".to_owned());
        }
        if good && unclean == 0 && wall <= RUN_LIMIT_S {
            clean_runs += 1;
        }
        last_records = records;
    }
    let _ = std::fs::remove_dir_all(&dir);

    if opts.trace {
        // Replay each spec alone: stage spans, and the per-scenario
        // times behind the parallel efficiency.
        let mut ledger = Ledger::default();
        let bounds = LpBounds::default();
        let mut per_scenario = 0u64;
        for (i, spec) in specs.iter().enumerate() {
            per_scenario += replay::sweep_spec(&tracer, &mut ledger, spec, &bounds, i as u64 + 1);
        }
        for r in &last_records {
            tracer.time("sink.json_line", r.protocol, 0, None, || r.to_json_line());
        }
        outcome.problems.extend(ledger.violations.iter().cloned());
        let reference = specs
            .iter()
            .find(|s| matches!(s.family, Family::RandomRegular { .. }))
            .expect("the sweep has a random-regular spec")
            .build()
            .map_err(|e| e.to_string())?;
        let sink_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sink.write")
            .map(|s| s.dur_ns())
            .sum();
        let extra = Extra {
            parallel_efficiency: per_scenario as f64 / 1e9 / (walls[0] * shards as f64),
            sink_write_ms: sink_ns as f64 / 1e6,
            sink_bytes: sink_bytes as f64,
            auto_over_never: replay::auto_over_never(&tracer, &reference, 3),
            overhead_frac: tracer.overhead_ns() as f64
                / run_start.elapsed().as_nanos().max(1) as f64,
            ..Extra::default()
        };
        outcome.metrics = layers::compute(&tracer.spans(), &ledger, &extra);
        let dump = opts
            .out_dir
            .join(format!("trace-{}-s{}.jsonl", opts.workload, opts.seed));
        tracer
            .write_jsonl(&dump)
            .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
    } else {
        let total: f64 = walls.iter().sum();
        outcome.metrics = metrics(
            END_TO_END,
            &[
                ("latency_p50_ms", quantile(&latencies, 0.5)),
                ("latency_p95_ms", quantile(&latencies, 0.95)),
                ("slo_ok_frac", clean_runs as f64 / walls.len() as f64),
                (
                    "throughput_req_per_s",
                    latencies.len() as f64 / total.max(1e-9),
                ),
                ("wall_s", median(&walls)),
                ("peak_rss_mb", peak_rss_mb()),
                ("setup_s", median(&setups)),
            ],
        );
    }
    Ok(outcome)
}

/// Checks the streamed report: one line per record plus a summary line
/// that counts no violations.
fn check_report(path: &Path, records: usize, outcome: &mut Outcome) -> bool {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            outcome
                .problems
                .push(format!("cannot read the report: {e}"));
            return false;
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    let summary_ok = lines.last().is_some_and(|l| {
        l.contains("\"benchmark\":\"scenario_sweep\"") && l.contains("\"violations\":0}")
    });
    if lines.len() != records + 1 || !summary_ok {
        outcome.problems.push(format!(
            "report has {} lines for {records} records, summary ok: {summary_ok}",
            lines.len()
        ));
        return false;
    }
    true
}
