//! The serving workloads, driven over a unix socket.
//!
//! * `serve_cold`: every request is a distinct instance (no cache hits),
//!   sizes from about 10³ to 5·10⁴ nodes, single protocols mixed with
//!   `all`. Graph build, port numbering and the engine do the work.
//! * `serve_warm`: instances at or below the canonical-form limit.
//!   Nine in ten requests are node-relabelled uploads of a primed base
//!   pool (PN-isomorphic, so cache hits); one in ten is a never-seen
//!   instance (a miss that inserts). Canonical form and the cache do
//!   the work.
//!
//! Each run has an open-loop phase at a fixed offered rate (latency
//! from each request's due time) and a closed-loop phase with one
//! request in flight per connection (throughput), alternating in
//! rounds.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eds_scenarios::{BoundsMode, Family, PortPolicy, Protocol, ScenarioSpec, ServeConfig, Server};

use crate::check::{check, Verdict};
use crate::client::{self, Exchange};
use crate::json::Value;
use crate::layers::{self, Extra};
use crate::mix::{edges_of, relabel, Class, Input, Kind, Request, Rng, Scale};
use crate::replay::{self, Ledger};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{metrics, nproc, peak_rss_mb, Options, Outcome, END_TO_END};

const ALL: &[Protocol] = &[];
const PO: Protocol = Protocol::PortOne;
const RO: Protocol = Protocol::RegularOdd;
const BD: Protocol = Protocol::BoundedDegree;
const VC: Protocol = Protocol::VertexCover;
const IM: Protocol = Protocol::IdMatching;
const RM: Protocol = Protocol::RandMatching;
const LP: Option<BoundsMode> = Some(BoundsMode::Lp);
const MM: Option<BoundsMode> = Some(BoundsMode::Mm);

const fn c(
    name: &'static str,
    kind: Kind,
    n: usize,
    protocols: &'static [Protocol],
    bounds: Option<BoundsMode>,
    exact: bool,
) -> Class {
    Class {
        name,
        kind,
        n,
        protocols,
        bounds,
        exact,
    }
}

/// serve_cold's core class: 12 of every 20 requests. Alike in cost (a
/// cycle just above `canonical_limit`, all six protocols), so p50 falls
/// inside this group rather than on the edge between two classes. The
/// engine does most of its work.
const COLD_CORE: Class = c("cycle-1.5k", Kind::Cycle, 1500, ALL, None, false);

/// serve_cold's other classes: 6 of every 20 requests, each row once
/// per two blocks. 10³-node instances under `canonical_limit` (full
/// canonical form) and 10⁴-node ones, single protocols and `all`.
/// `cycle-5k` and the exact `cycle-50k` are the 10× pair the growth
/// ratios come from.
const COLD_OTHERS: [Class; 12] = [
    c("cycle-1k", Kind::Cycle, 1000, ALL, None, false),
    c("cubic-1k", Kind::Cubic, 1000, ALL, None, false),
    c("tree-1k", Kind::Tree, 1000, &[BD, VC], None, false),
    c("grid-1k", Kind::Grid, 32, ALL, None, false),
    c("plaw-400", Kind::PowerLaw, 400, &[PO, VC, RM], None, false),
    c("upload-1.5k", Kind::Upload, 1500, &[PO, IM], None, false),
    c("cycle-5k", Kind::Cycle, 5_000, &[VC], None, true),
    c("cubic-10k", Kind::Cubic, 10_000, &[RO], None, false),
    c("grid-10k", Kind::Grid, 100, &[PO], None, false),
    c("tree-10k", Kind::Tree, 10_000, &[VC], None, false),
    c("upload-10k", Kind::Upload, 10_000, &[PO], MM, false),
    c("plaw-1k", Kind::PowerLaw, 1000, &[VC], None, false),
];

/// serve_cold's large class: 2 of every 20 requests, cycles of 5·10⁴
/// nodes. A tenth of the mix and alike, so p95 falls inside them. They
/// stop short of 10⁵ nodes to keep the open loop near a fifth of two
/// cores: at 10⁵ the quadratic port numbering alone takes ~0.4 s a
/// request.
const COLD_LARGE: [Class; 2] = [
    c("cycle-50k", Kind::Cycle, 50_000, &[VC], None, true),
    c("cycle-50k", Kind::Cycle, 50_000, &[VC], None, false),
];

/// Where the classes sit in a serve_cold block. Fixed positions spread
/// the expensive requests evenly over time and over the two open-loop
/// connections (position parity picks the connection); the seed picks
/// the graphs and the order of the other classes.
const COLD_LAYOUT: [Slot; 20] = {
    use Slot::{Core as C, Large as L, Other as O};
    [L, C, O, C, C, O, C, C, O, C, C, L, C, O, C, C, O, C, C, O]
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Core,
    Other,
    Large,
}

/// serve_warm's base pool, primed during set-up. Every base stays at or
/// below the default `canonical_limit` (nodes + ports ≤ 4096), so
/// relabelled copies share its cache key. Hits are spread evenly over
/// the bases, so the twelve 500-node cubic graphs (alike in canonical
/// cost) hold the middle of the hit latencies and p50 falls inside
/// them; six small bases lie below, four larger ones above. The `-lp`
/// rows (≤ 200 edges, sized so the exact-rational LP stays near 100 ms)
/// ask for LP bounds.
const WARM_BASES: [Class; 22] = [
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cubic-500", Kind::Cubic, 500, ALL, None, true),
    c("cycle-100", Kind::Cycle, 100, ALL, None, true),
    c("cycle-100-lp", Kind::Cycle, 100, ALL, LP, true),
    c("cubic-40-lp", Kind::Cubic, 40, ALL, LP, true),
    c("tree-150-lp", Kind::Tree, 150, ALL, LP, true),
    c("grid-36-lp", Kind::Grid, 6, ALL, LP, true),
    c("upload-50-lp", Kind::Upload, 50, ALL, LP, true),
    c("cycle-800", Kind::Cycle, 800, &[VC], None, true),
    c("tree-700", Kind::Tree, 700, ALL, None, true),
    c("grid-576", Kind::Grid, 24, ALL, None, true),
    c("upload-600", Kind::Upload, 600, ALL, None, true),
];

/// serve_warm's never-seen instances, one per block of ten requests, in
/// rotation: fresh random graphs, so every one misses and inserts. They
/// cost several hits each and are the slowest tenth of the mix, so p95
/// falls inside the cubic misses; the LP miss is one in eleven.
const WARM_MISSES: [Class; 11] = [
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-cubic-1k", Kind::Cubic, 1000, ALL, None, true),
    c("miss-upload-50-lp", Kind::Upload, 50, ALL, LP, true),
];

/// Fixed load parameters of a serving workload.
struct Params {
    /// Open-loop offered rate, requests per second.
    rate: f64,
    /// Latency limit behind `slo_ok_frac`.
    slo: Duration,
    /// Share of `--seconds` given to the open loop.
    open_frac: f64,
    /// Fewest open-loop requests: 200 leaves 10 beyond p95.
    min_open: usize,
    /// Sizes the closed loop: it sends the requests this rate would
    /// complete in the rest of `--seconds`, in whole blocks. A fixed
    /// amount of work rather than a time limit, so every run completes
    /// the same mix.
    closed_rate: f64,
    /// Requests sent alone and replayed in the traced run.
    trace_count: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    setup_reps: usize,
    /// Stratification block of the request mix.
    block: usize,
}

fn params(warm: bool, scale: Scale) -> Params {
    let full = scale == Scale::Full;
    Params {
        rate: match (warm, full) {
            (false, true) => 10.0,
            (true, true) => 10.0,
            (_, false) => 50.0,
        },
        // serve_cold's limit is the server's own default request timeout.
        slo: if warm {
            Duration::from_millis(250)
        } else {
            ServeConfig::default().default_timeout
        },
        open_frac: 0.7,
        min_open: if full { 210 } else { 8 },
        closed_rate: match (warm, full) {
            (false, true) => 40.0,
            (true, true) => 110.0,
            (_, false) => 20.0,
        },
        // serve_cold: two blocks, so every class (and the growth pair)
        // is replayed.
        trace_count: match (warm, full) {
            (false, true) => 40,
            (true, true) => 40,
            (_, false) => 6,
        },
        setup_reps: match (warm, full) {
            (false, true) => 101,
            (true, true) => 5,
            (_, false) => 2,
        },
        block: if warm { 10 } else { 20 },
    }
}

/// Rounds of an open-loop stretch followed by a closed-loop stretch.
const ROUNDS: usize = 4;

/// Request-id bases of the phases; ids stay unique within a run.
const TRACE_IDS: u64 = 1;
const PRIME_IDS: u64 = 90_000;
const OPEN_IDS: u64 = 100_000;
const CLOSED_IDS: u64 = 10_000_000;

/// A request's own seed: distinct per request, so no two cold requests
/// share a cache key even when their graphs coincide.
fn request_seed(seed: u64, id: u64) -> u64 {
    Rng::new(seed, id ^ 0x5eed_5eed).next_u64() >> 24
}

/// Stratified choice: the `i`-th draw from `0..n` where every run of
/// `n` draws is a seeded permutation, so each value comes up equally
/// often.
fn stratified(seed: u64, stream: u64, i: usize, n: usize) -> usize {
    let mut order: Vec<usize> = (0..n).collect();
    let round = (i / n) as u64;
    Rng::new(seed, stream.wrapping_mul(1_000_003).wrapping_add(round)).shuffle(&mut order);
    order[i % n]
}

/// Re-expresses a spec request as an upload of the same graph.
fn as_upload(mut req: Request) -> Request {
    if let Input::Spec(family) = &req.input {
        let g = family.simple(req.seed).expect("generated specs are valid");
        req.input = Input::Edges {
            nodes: g.node_count(),
            edges: edges_of(&g),
        };
    }
    req
}

/// The request generator of one workload run.
struct Mix {
    warm: bool,
    seed: u64,
    scale: Scale,
    block: usize,
    bases: Vec<Request>,
}

impl Mix {
    fn new(warm: bool, seed: u64, scale: Scale, block: usize) -> Mix {
        let bases = if warm {
            WARM_BASES
                .iter()
                .zip(PRIME_IDS..)
                .map(|(class, id)| {
                    let mut rng = Rng::new(seed, id);
                    as_upload(class.request(id, request_seed(seed, id), scale, &mut rng))
                })
                .collect()
        } else {
            Vec::new()
        };
        Mix {
            warm,
            seed,
            scale,
            block,
            bases,
        }
    }

    /// The `k`-th request of a stream, with frame id `id`.
    fn request(&self, stream: u64, k: usize, id: u64) -> Request {
        let (block, pos) = (k / self.block, k % self.block);
        let mut rng = Rng::new(self.seed, id);
        let seed = request_seed(self.seed, id);
        let lane = |i: u64| stream * 4 + i;
        if !self.warm {
            let slot = COLD_LAYOUT[pos];
            let rank = COLD_LAYOUT[..pos].iter().filter(|&&s| s == slot).count();
            let class = match slot {
                Slot::Core => &COLD_CORE,
                Slot::Other => &COLD_OTHERS[stratified(self.seed, lane(0), block * 6 + rank, 12)],
                Slot::Large => &COLD_LARGE[rank],
            };
            return class.request(id, seed, self.scale, &mut rng);
        }
        // One miss per block, alternating between its first two
        // positions (and so between the open loop's connections).
        let miss = block % 2;
        if pos == miss {
            let class = &WARM_MISSES[stratified(self.seed, lane(2), block, WARM_MISSES.len())];
            return as_upload(class.request(id, seed, self.scale, &mut rng));
        }
        let hit = block * (self.block - 1) + pos - usize::from(pos > miss);
        let b = stratified(self.seed, lane(3), hit, self.bases.len());
        let base = &self.bases[b];
        let Input::Edges { nodes, edges } = &base.input else {
            unreachable!("bases are uploads")
        };
        Request {
            id,
            class: base.class,
            input: Input::Edges {
                nodes: *nodes,
                edges: relabel(*nodes, edges, &mut rng),
            },
            protocols: base.protocols.clone(),
            bounds: base.bounds,
            seed: base.seed,
            base: Some(b),
        }
    }
}

/// Per-phase request accounting.
#[derive(Default, Debug)]
struct Tally {
    sent: u64,
    ok: u64,
    errors: BTreeMap<String, u64>,
    early_closes: u64,
    wrong: u64,
}

impl Tally {
    fn render(&self, phase: &str) -> String {
        let errors: Vec<String> = self
            .errors
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"phase\":\"{phase}\",\"sent\":{},\"ok\":{},\"errors\":{{{}}},\"timeouts\":{},\
             \"early_closes\":{},\"wrong\":{}}}",
            self.sent,
            self.ok,
            errors.join(","),
            self.errors.get("timeout").copied().unwrap_or(0),
            self.early_closes,
            self.wrong
        )
    }
}

/// Verifies every exchange of a phase against its request (and, for a
/// serve_warm hit, against the records `refs` holds for its base).
/// Returns the verified records of each exchange, `None` where it failed.
fn verify_phase(
    phase: &str,
    pairs: &[(&Request, &Exchange)],
    refs: &[Vec<Value>],
    outcome: &mut Outcome,
) -> Vec<Option<Vec<Value>>> {
    let mut tally = Tally::default();
    let mut ok = Vec::with_capacity(pairs.len());
    for (req, ex) in pairs {
        tally.sent += 1;
        let good = match &ex.response {
            None => {
                tally.early_closes += 1;
                None
            }
            Some(line) => match check(req, &req.graph(), line) {
                Verdict::Ok(records) => match req.base {
                    Some(b) if refs.get(b).is_some_and(|r| *r != records) => {
                        outcome.problems.push(format!(
                            "request {} ({}): cache hit differs from the solve that primed it",
                            req.id, req.class
                        ));
                        tally.wrong += 1;
                        None
                    }
                    _ => {
                        tally.ok += 1;
                        Some(records)
                    }
                },
                Verdict::Error(kind) => {
                    *tally.errors.entry(kind).or_default() += 1;
                    None
                }
                Verdict::Wrong(msg) => {
                    outcome.problems.push(msg);
                    tally.wrong += 1;
                    None
                }
            },
        };
        ok.push(good);
    }
    eprintln!("{}", tally.render(phase));
    outcome.attempted += tally.sent;
    outcome.failed += tally.sent - tally.ok;
    ok
}

/// Mean of the server's batch-size histogram, from its Prometheus text.
fn batch_jobs_mean(metrics: &str) -> f64 {
    let read = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    read("eds_serve_batch_jobs_sum ") / read("eds_serve_batch_jobs_count ").max(1.0)
}

fn socket(dir: &Path, workload: &str, k: usize) -> PathBuf {
    dir.join(format!("{workload}-{}-{k}.sock", std::process::id()))
}

/// Runs serve_cold (`warm = false`) or serve_warm.
pub fn run(opts: &Options, warm: bool) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let tracer = Tracer::new();
    let p = params(warm, opts.scale);
    let conns = nproc();
    let config = ServeConfig::default();
    let limit = config.canonical_limit;
    let mix = Mix::new(warm, opts.seed, opts.scale, p.block);
    let mut outcome = Outcome::default();

    // Set-up: server, socket and connections (serve_warm: and priming
    // the cache with every base, one request at a time). Repeated
    // before measuring, all in the fresh process a user would start;
    // the last set-up stays up. (Set-ups repeated after measuring ran
    // twice as fast, and a median over both straddled the two.)
    let set_up = |r: usize| -> Result<(f64, Server, PathBuf, Vec<Exchange>), String> {
        let path = socket(&opts.out_dir, &opts.workload, r);
        let start = Instant::now();
        let server = Server::new(config.clone());
        server
            .listen_unix(&path)
            .map_err(|e| format!("cannot listen on {}: {e}", path.display()))?;
        let streams = (0..conns)
            .map(|_| UnixStream::connect(&path))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect: {e}"))?;
        let primed = client::one_at_a_time(&path, &mix.bases, |_, _| {})
            .map_err(|e| format!("priming failed: {e}"))?;
        let took = start.elapsed().as_secs_f64();
        drop(streams);
        Ok((took, server, path, primed))
    };
    let reps = if opts.trace { 1 } else { p.setup_reps };
    let mut setups = Vec::with_capacity(reps);
    let mut kept = None;
    for r in 0..reps {
        let (took, server, path, primed) = set_up(r)?;
        setups.push(took);
        if let Some((old, _, _)) = kept.replace((server, path, primed)) {
            old.finish();
        }
    }
    let (server, path, primed) = kept.expect("at least one set-up");

    // The traced run first sends requests alone and replays each one.
    let mut ledger = Ledger::default();
    let trace_reqs: Vec<Request> = if opts.trace {
        (0..p.trace_count)
            .map(|k| mix.request(1, k, TRACE_IDS + k as u64))
            .collect()
    } else {
        Vec::new()
    };
    let traced = client::one_at_a_time(&path, &trace_reqs, |i, ex| {
        let req = &trace_reqs[i];
        let (Some(done), Some(line)) = (ex.done, &ex.response) else {
            return;
        };
        tracer.record(
            "serve.request",
            req.class,
            req.id,
            None,
            tracer.at_ns(ex.due),
            tracer.at_ns(done),
        );
        if line.contains("\"ok\":true") {
            let observed = done.duration_since(ex.due).as_nanos() as u64;
            replay::serve_request(
                &tracer,
                &mut ledger,
                req,
                req.base.is_some(),
                limit,
                observed,
            );
        }
    })
    .map_err(|e| format!("traced phase failed: {e}"))?;

    // Open loop at the fixed rate, then a closed loop of a fixed number
    // of requests per connection, each in whole blocks. The two
    // alternate over `ROUNDS` rounds, so both sample the whole window:
    // the host's speed drifts over seconds.
    let whole = |n: f64| (n / p.block as f64).ceil() as usize * p.block;
    let open_n = whole((p.min_open as f64).max(p.rate * opts.seconds * p.open_frac));
    let open_reqs: Vec<Request> = (0..open_n)
        .map(|k| mix.request(2, k, OPEN_IDS + k as u64))
        .collect();
    let frames: Vec<String> = open_reqs.iter().map(Request::frame).collect();
    let per_conn = whole(p.closed_rate * opts.seconds * (1.0 - p.open_frac) / conns as f64);
    let round = |n: usize, r: usize| {
        let blocks = n / p.block;
        blocks * r / ROUNDS * p.block..blocks * (r + 1) / ROUNDS * p.block
    };
    let mut open = Vec::with_capacity(open_n);
    let mut closed = Vec::new();
    let mut closed_wall = 0.0;
    for r in 0..ROUNDS {
        let start = Instant::now() + Duration::from_millis(20);
        open.extend(
            client::open_loop(&path, &frames[round(open_n, r)], p.rate, conns, start)
                .map_err(|e| format!("open loop failed: {e}"))?,
        );
        let ks = round(per_conn, r);
        let closed_start = Instant::now();
        let part = client::closed_loop(&path, conns, ks.len(), |conn, k| {
            let k = ks.start + k;
            let id = CLOSED_IDS + conn as u64 * 1_000_000 + k as u64;
            mix.request(3 + conn as u64, k, id)
        })
        .map_err(|e| format!("closed loop failed: {e}"))?;
        let closed_end = part.iter().filter_map(|(_, e)| e.done).max();
        closed_wall += closed_end.map_or(0.0, |end| {
            end.saturating_duration_since(closed_start).as_secs_f64()
        });
        closed.extend(part);
    }
    drop(frames);

    let (stats, _) = tracer.time("serve.stats", "", 0, None, || server.stats());
    let batch_mean = batch_jobs_mean(&server.render_metrics());
    server.finish();

    // The correctness gate, after measuring.
    fn pairs<'a>(reqs: &'a [Request], exs: &'a [Exchange]) -> Vec<(&'a Request, &'a Exchange)> {
        reqs.iter().zip(exs).collect()
    }
    let refs: Vec<Vec<Value>> =
        verify_phase("prime", &pairs(&mix.bases, &primed), &[], &mut outcome)
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
    let trace_ok = verify_phase("trace", &pairs(&trace_reqs, &traced), &refs, &mut outcome);
    let open_ok = verify_phase("open", &pairs(&open_reqs, &open), &refs, &mut outcome);
    let closed_pairs: Vec<(&Request, &Exchange)> = closed.iter().map(|(r, e)| (r, e)).collect();
    let closed_ok = verify_phase("closed", &closed_pairs, &refs, &mut outcome);
    let hits_ok = trace_reqs
        .iter()
        .zip(&trace_ok)
        .chain(open_reqs.iter().zip(&open_ok))
        .chain(closed_pairs.iter().map(|(r, _)| *r).zip(&closed_ok))
        .filter(|(r, ok)| ok.is_some() && r.base.is_some())
        .count() as u64;
    if stats.cache_hits != hits_ok {
        outcome.problems.push(format!(
            "server counted {} cache hits; the workload made {hits_ok} relabelled requests",
            stats.cache_hits
        ));
    }
    outcome.problems.extend(ledger.violations.iter().cloned());

    if opts.trace {
        let lags: Vec<f64> = open
            .iter()
            .filter_map(|e| Some(e.sent?.saturating_duration_since(e.due).as_secs_f64() * 1e3))
            .collect();
        let reference = if warm { 1000 } else { 10_000 };
        let scenario = ScenarioSpec::new(
            Family::RandomRegular {
                n: opts.scale.nodes(reference),
                d: 3,
            },
            opts.seed,
            PortPolicy::Canonical,
        )
        .build()
        .map_err(|e| e.to_string())?;
        let extra = Extra {
            cache_hit_frac: stats.cache_hits as f64
                / (stats.cache_hits + stats.cache_misses).max(1) as f64,
            cache_entries: stats.cache_entries as f64,
            timeouts: stats.timeouts as f64,
            batch_jobs_mean: batch_mean,
            lag_ms_p95: quantile(&lags, 0.95),
            auto_over_never: replay::auto_over_never(&tracer, &scenario, 3),
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
        let latencies: Vec<f64> = open
            .iter()
            .filter_map(|e| Some(e.latency()?.as_secs_f64() * 1e3))
            .collect();
        let within = open
            .iter()
            .zip(&open_ok)
            .filter(|(e, ok)| ok.is_some() && e.latency().is_some_and(|l| l <= p.slo))
            .count();
        let closed_done = closed_ok.iter().filter(|ok| ok.is_some()).count();
        outcome.metrics = metrics(
            END_TO_END,
            &[
                ("latency_p50_ms", quantile(&latencies, 0.5)),
                ("latency_p95_ms", quantile(&latencies, 0.95)),
                ("slo_ok_frac", within as f64 / open.len().max(1) as f64),
                (
                    "throughput_req_per_s",
                    closed_done as f64 / closed_wall.max(1e-9),
                ),
                ("wall_s", closed_wall),
                ("peak_rss_mb", peak_rss_mb()),
                ("setup_s", median(&setups)),
            ],
        );
    }
    Ok(outcome)
}
