//! The solver-as-a-service layer behind the `eds-serve` binary.
//!
//! A [`Server`] accepts **JSON-lines solve requests** — one frame per
//! line — over any byte stream ([`Server::serve_stream`], used for
//! stdin/stdout), over a unix socket ([`Server::listen_unix`]), and
//! over HTTP/1.1 ([`Server::listen_http`], the `http` module:
//! `POST /solve` carries one frame per request body and the response
//! body is byte-identical to the line the stream transports would
//! write), and answers every frame with exactly one response frame.
//! Concurrent clients multiplex onto one persistent
//! [`pn_runtime::WorkerPool`]; small instances batch into shared
//! [`Session`] runs; results are cached under a **canonical form of
//! the port-numbered graph**, so two clients submitting PN-isomorphic
//! instances (same graph up to node relabeling, ports preserved) share
//! one solve. Everything the server does is measured: a per-server
//! `eds-telemetry` [`Registry`] backs the `stats` frame and the HTTP
//! `/metrics` endpoint (frames, responses by outcome kind, cache
//! traffic, queue depth, batch sizes, request latency).
//!
//! # Wire format
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"id":"r1","edges":[[0,1],[1,2],[2,0]],"protocols":["port-one"]}
//! {"id":2,"spec":"cycle:9","protocols":"all","bounds":"lp","seed":7}
//! {"op":"ping","id":"p"}   {"op":"stats","id":"s"}   {"op":"shutdown"}
//! ```
//!
//! Solve-request fields: `id` (echoed back; string, integer or absent),
//! exactly one of `edges` (array of `[u, v]` 0-based pairs, optionally
//! with `nodes` pinning the node count) or `spec` (a family spec such as
//! `petersen`, `cycle:9`, `grid:4:3`, `gnp:20:0.3`); optional
//! `protocols` (array of names, or `"all"`, default all), `bounds`
//! (`exact`/`lp`/`mm`), `delta` (degree-bound hint), `seed` (feeds the
//! identifier/randomised baselines and the shuffled port policy),
//! `ports` (`canonical`/`shuffled`/`factorized`), `timeout_ms`.
//!
//! Responses: `{"id":...,"ok":true,"results":[...],"skipped":[...]}`
//! where each result is a full [`SweepRecord`] JSON object plus a
//! `"solution"` member mapping the witness back to the client's node
//! labels, and `skipped` lists requested protocols that are not
//! applicable to the instance (for example `regular-odd` on a
//! non-odd-regular graph). Every malformed or infeasible frame gets
//! `{"id":...,"ok":false,"kind":...,"error":...}` with `kind` one of
//! `parse`, `graph`, `unsupported`, `timeout`, `shutdown`, `overload`,
//! `internal` — never a panic, never a silently dropped frame.
//!
//! # Caching and canonical forms
//!
//! The cache key is an exact canonical encoding of the port-numbered
//! instance ([`canonical_form`]): a port-order BFS encoding minimised
//! over all start nodes, per connected component, components sorted.
//! Two instances get the same key **iff** they are PN-isomorphic (node
//! relabeling; port numbers preserved), which is precisely the
//! invariance the model grants — the port-invariance tests assert that
//! protocol executions are equivariant under exactly this relabeling.
//! The daemon always *solves on the canonical graph* and maps witnesses
//! back through the instance's own permutation, so a cached response is
//! byte-identical to a fresh solve by construction. Above
//! [`ServeConfig::canonical_limit`] the canonicalisation is skipped
//! (identity relabeling); the cache then only merges structurally
//! identical submissions.
//!
//! # Backpressure, timeouts, shutdown
//!
//! Each connection has a bounded in-flight window
//! ([`ServeConfig::client_window`]): the reader stops consuming frames
//! until responses drain. The pool queue is itself bounded
//! ([`ServeConfig::queue_capacity`]); submission blocks, propagating
//! backpressure to the sockets. Each request carries a deadline; a job
//! still queued past it is answered with a `timeout` error frame
//! instead of occupying a worker, and a job already *running* is
//! cancelled cooperatively mid-solve — the deadline arms a
//! [`CancelToken`] the simulator polls at round barriers, so oversized
//! instances under short timeouts answer `timeout` frames too instead
//! of holding a worker. Graceful shutdown (a `shutdown` frame
//! or [`Server::begin_shutdown`]) stops accepting frames and connections,
//! half-closes client sockets (read side), drains every queued and
//! in-flight solve, flushes every response, and only then returns.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use eds_telemetry::{Counter, Gauge, Histogram, Registry};
use pn_graph::{ports, Endpoint, NodeId, PortNumberedGraph, SimpleGraph};
use pn_runtime::{CancelToken, RuntimeError, SubmitError, WorkerPool};

use crate::bounds::BoundsMode;
use crate::protocol::{Protocol, Solution, SweepError};
use crate::scenario::{relabel_nodes, Family, PortPolicy, Scenario, ScenarioSpec};
use crate::session::Session;
use crate::sink::RecordSink;
use crate::sweep::{escape_json, SweepRecord};

// ---------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser. The workspace builds
// offline with no serde; frames are small and the grammar is fixed, so
// a few hundred lines of hand-rolled parser with hard depth and size
// limits is the right tool. Never panics on any input.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        match *self {
            Json::Int(i) if i >= 0 => usize::try_from(i).ok(),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the subset of values used for `id` echoing back to JSON.
    fn render(&self) -> String {
        match self {
            Json::Null => "null".to_owned(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Float(f) if f.is_finite() => f.to_string(),
            Json::Float(_) => "null".to_owned(),
            Json::Str(s) => format!("\"{}\"", escape_json(s)),
            Json::Arr(_) | Json::Obj(_) => "null".to_owned(),
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const JSON_MAX_DEPTH: usize = 32;

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > JSON_MAX_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte {:?} at offset {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: combine when a low
                            // surrogate follows, else emit U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        let combined =
                                            0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{FFFD}')
                                    } else {
                                        '\u{FFFD}'
                                    }
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim;
                    // the input is a &str so boundaries are valid.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid utf-8".to_owned())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let text = std::str::from_utf8(slice).map_err(|_| "bad \\u escape".to_owned())?;
        let cp = u32::from_str_radix(text, 16).map_err(|_| "bad \\u escape".to_owned())?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_owned())?;
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }
}

// ---------------------------------------------------------------------
// Canonical forms: the isomorphism-safe cache key.
// ---------------------------------------------------------------------

/// A canonical form of a port-numbered graph.
///
/// `perm` relates the canonical graph to the input exactly as
/// [`relabel_nodes`] does: node `v` of `graph` is node `perm[v]` of the
/// input, with port order preserved. `key` is an exact encoding of
/// `graph` — equal keys iff PN-isomorphic inputs (up to
/// [`ServeConfig::canonical_limit`]; above it the relabeling is the
/// identity and the key only merges structurally identical inputs).
#[derive(Clone, Debug)]
pub struct CanonicalForm {
    /// The canonical representative (solve on this).
    pub graph: PortNumberedGraph,
    /// `perm[canonical_node] = input_node`.
    pub perm: Vec<NodeId>,
    /// Exact encoding of `graph`; the cache key.
    pub key: String,
}

/// Encodes `g` relative to `order` (`order[new] = old`): per new node,
/// its degree then `(neighbor_new_id, far_port)` per port in port order.
/// The encoding determines the relabeled graph exactly.
fn encode_order(g: &PortNumberedGraph, order: &[NodeId], index: &[u32]) -> Vec<u32> {
    let mut enc = Vec::with_capacity(order.len() + 2 * g.port_count());
    for &old in order {
        enc.push(g.degree(old) as u32);
        for p in g.ports(old) {
            let there = g.connection(Endpoint::new(old, p));
            enc.push(index[there.node.index()]);
            enc.push(there.port.get());
        }
    }
    enc
}

/// Port-order BFS over one component from `start`; returns visit order.
/// Deterministic: neighbours are explored in port order, so the
/// traversal (hence the encoding) depends only on the PN structure.
fn bfs_order(g: &PortNumberedGraph, start: NodeId, index: &mut [u32], order: &mut Vec<NodeId>) {
    order.clear();
    order.push(start);
    index[start.index()] = 0;
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for p in g.ports(v) {
            let u = g.connection(Endpoint::new(v, p)).node;
            if index[u.index()] == u32::MAX {
                index[u.index()] = order.len() as u32;
                order.push(u);
            }
        }
    }
}

/// Computes the canonical form of a port-numbered graph.
///
/// Per connected component, the encoding is minimised over all BFS start
/// nodes (lexicographically smallest wins; ties resolve to the earliest
/// start, which leaves the key unchanged). Components are then sorted by
/// encoding and concatenated. Cost is `O(n·m)` per component, so `limit`
/// caps `node_count + port_count`: above it the identity order is used —
/// still an exact, deterministic key, just not isomorphism-merging.
pub fn canonical_form(g: &PortNumberedGraph, limit: usize) -> CanonicalForm {
    let n = g.node_count();
    let mut index = vec![u32::MAX; n];
    if n + g.port_count() > limit {
        let order: Vec<NodeId> = g.nodes().collect();
        for (i, v) in order.iter().enumerate() {
            index[v.index()] = i as u32;
        }
        let enc = encode_order(g, &order, &index);
        return CanonicalForm {
            graph: g.clone(),
            perm: order.clone(),
            key: render_key("raw", std::slice::from_ref(&enc)),
        };
    }

    // Partition into components (port-order BFS is confined to one).
    let mut component = vec![usize::MAX; n];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    {
        let mut order = Vec::new();
        for v in g.nodes() {
            if component[v.index()] != usize::MAX {
                continue;
            }
            let id = members.len();
            bfs_order(g, v, &mut index, &mut order);
            for &u in &order {
                component[u.index()] = id;
                index[u.index()] = u32::MAX; // reset scratch
            }
            members.push(order.clone());
        }
    }

    // Canonicalise each component: minimal encoding over all starts.
    let mut canon: Vec<(Vec<u32>, Vec<NodeId>)> = Vec::with_capacity(members.len());
    let mut order = Vec::new();
    for nodes in &members {
        let mut best: Option<(Vec<u32>, Vec<NodeId>)> = None;
        for &start in nodes {
            bfs_order(g, start, &mut index, &mut order);
            let enc = encode_order(g, &order, &index);
            for &u in &order {
                index[u.index()] = u32::MAX;
            }
            if best.as_ref().is_none_or(|(b, _)| enc < *b) {
                best = Some((enc, order.clone()));
            }
        }
        canon.push(best.expect("component has at least one node"));
    }

    // Deterministic component order: sort by encoding. Equal encodings
    // are isomorphic components — their relative order cannot change
    // the canonical graph, and the sort is stable.
    canon.sort_by(|a, b| a.0.cmp(&b.0));

    let mut perm = Vec::with_capacity(n);
    for (_, order) in &canon {
        perm.extend(order.iter().copied());
    }
    let graph = if n == 0 {
        g.clone()
    } else {
        relabel_nodes(g, &perm)
    };
    let encodings: Vec<Vec<u32>> = canon.into_iter().map(|(enc, _)| enc).collect();
    CanonicalForm {
        graph,
        perm,
        key: render_key("v1", &encodings),
    }
}

fn render_key(tag: &str, encodings: &[Vec<u32>]) -> String {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(16 + encodings.iter().map(|e| 3 * e.len()).sum::<usize>());
    key.push_str(tag);
    for enc in encodings {
        key.push(';');
        for (i, v) in enc.iter().enumerate() {
            if i > 0 {
                key.push(',');
            }
            let _ = write!(key, "{v}");
        }
    }
    key
}

/// FNV-1a, used only to derive short display names from cache keys (the
/// cache itself compares full keys — no collision risk there).
fn fnv64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------
// Configuration and stats.
// ---------------------------------------------------------------------

/// Tuning knobs for a [`Server`]. Every bound exists to keep a
/// long-lived daemon's memory and latency bounded under heavy or
/// hostile traffic; the defaults suit smoke-tier instances.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the persistent solve pool.
    pub solver_threads: usize,
    /// Maximum queued solve jobs; submission beyond it blocks the
    /// reader (global backpressure).
    pub queue_capacity: usize,
    /// Maximum jobs one worker batches into a shared [`Session`] run.
    pub batch_limit: usize,
    /// Per-connection in-flight frame window: the reader stops
    /// consuming once this many requests await responses.
    pub client_window: usize,
    /// Maximum cached canonical results (FIFO eviction).
    pub cache_capacity: usize,
    /// Maximum concurrent socket clients; excess connections get an
    /// `overload` reason frame and are closed.
    pub max_clients: usize,
    /// Largest accepted instance, in nodes.
    pub max_nodes: usize,
    /// Largest accepted instance, in edges.
    pub max_edges: usize,
    /// Largest accepted request frame, in bytes.
    pub max_frame_bytes: usize,
    /// `node_count + port_count` ceiling for full canonicalisation;
    /// larger instances use the identity form (exact-match caching).
    pub canonical_limit: usize,
    /// Default per-request timeout (override per frame via
    /// `timeout_ms`). A job still queued past its deadline is answered
    /// with a `timeout` error frame instead of running.
    pub default_timeout: Duration,
    /// Simulator threads per protocol run (1 = sequential engine; the
    /// pool already parallelises across requests).
    pub simulator_threads: usize,
    /// Read deadline on HTTP connections: a client that stalls
    /// mid-header or mid-body longer than this is disconnected, so a
    /// slow-loris peer cannot pin a connection slot.
    pub http_read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            solver_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 256,
            batch_limit: 8,
            client_window: 32,
            cache_capacity: 1024,
            max_clients: 64,
            max_nodes: 1 << 20,
            max_edges: 1 << 21,
            max_frame_bytes: 1 << 24,
            canonical_limit: 4096,
            default_timeout: Duration::from_secs(10),
            simulator_threads: 1,
            http_read_timeout: Duration::from_secs(30),
        }
    }
}

/// Response outcome kinds in counter-registration order: index 0 is
/// the `ok` outcome, the rest mirror the wire format's error kinds.
const OUTCOME_KINDS: [&str; 8] = [
    "ok",
    "parse",
    "graph",
    "unsupported",
    "timeout",
    "shutdown",
    "overload",
    "internal",
];

/// The server's registry-backed telemetry, exported three ways: the
/// Prometheus text of [`Server::render_metrics`], the JSON of
/// `{"op":"stats"}` frames, and the [`StatsSnapshot`] API. Each server
/// owns a private [`Registry`] (rather than sharing
/// [`eds_telemetry::global`]) so multiple servers in one process — the
/// test suites construct many — keep independent series.
pub(crate) struct ServerMetrics {
    registry: Registry,
    /// `eds_serve_frames_total`.
    pub(crate) frames: Arc<Counter>,
    /// `eds_serve_responses_total{kind=...}`, indexed as
    /// [`OUTCOME_KINDS`].
    responses: [Arc<Counter>; OUTCOME_KINDS.len()],
    /// `eds_serve_cache_{hits,misses,evictions}_total`.
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    /// `eds_serve_connections_total` / `eds_serve_rejected_connections_total`.
    pub(crate) connections: Arc<Counter>,
    pub(crate) rejected_connections: Arc<Counter>,
    /// `eds_serve_cache_entries` / `eds_serve_queue_depth`, sampled
    /// gauges refreshed by [`Core::refresh_gauges`].
    cache_entries: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    /// `eds_serve_batch_jobs` / `eds_serve_request_latency_us`.
    batch_jobs: Arc<Histogram>,
    latency: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = Registry::new();
        let responses = OUTCOME_KINDS.map(|kind| {
            registry.counter_with(
                "eds_serve_responses_total",
                "Response frames delivered, by outcome kind.",
                &[("kind", kind)],
            )
        });
        ServerMetrics {
            frames: registry.counter(
                "eds_serve_frames_total",
                "Request frames read, including malformed ones.",
            ),
            responses,
            cache_hits: registry.counter(
                "eds_serve_cache_hits_total",
                "Requests answered from the canonical-form cache.",
            ),
            cache_misses: registry.counter(
                "eds_serve_cache_misses_total",
                "Requests that went to the solve pool.",
            ),
            cache_evictions: registry.counter(
                "eds_serve_cache_evictions_total",
                "Cached canonical results dropped by FIFO eviction.",
            ),
            connections: registry.counter(
                "eds_serve_connections_total",
                "Connections accepted over the server's lifetime.",
            ),
            rejected_connections: registry.counter(
                "eds_serve_rejected_connections_total",
                "Connections refused with an overload frame at accept time.",
            ),
            cache_entries: registry.gauge(
                "eds_serve_cache_entries",
                "Canonical results currently cached.",
            ),
            queue_depth: registry.gauge(
                "eds_serve_queue_depth",
                "Solve jobs currently queued in the pool.",
            ),
            batch_jobs: registry
                .histogram("eds_serve_batch_jobs", "Jobs folded into one pool batch."),
            latency: registry.histogram(
                "eds_serve_request_latency_us",
                "Per-request latency from frame read to response, in microseconds.",
            ),
            registry,
        }
    }

    /// The response counter for one outgoing frame, picked by its
    /// `"kind"` member (`ok` when absent — success frames carry none).
    fn response_counter(&self, frame: &str) -> &Counter {
        let kind = frame
            .split_once("\"kind\":\"")
            .and_then(|(_, rest)| rest.split('"').next())
            .unwrap_or("ok");
        let at = OUTCOME_KINDS.iter().position(|&k| k == kind);
        // Unknown kinds land on `internal`; that only happens if a new
        // wire kind forgets to claim a slot above.
        &self.responses[at.unwrap_or(OUTCOME_KINDS.len() - 1)]
    }

    /// Total responses delivered for one outcome kind (0 for unknown).
    fn kind_total(&self, kind: &str) -> u64 {
        OUTCOME_KINDS
            .iter()
            .position(|&k| k == kind)
            .map_or(0, |at| self.responses[at].get())
    }

    fn responses_total(&self) -> u64 {
        self.responses.iter().map(|counter| counter.get()).sum()
    }

    fn errors_total(&self) -> u64 {
        self.responses_total() - self.kind_total("ok")
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request frames read (including malformed ones).
    pub frames: u64,
    /// Response frames delivered.
    pub responses: u64,
    /// Error frames among the responses.
    pub errors: u64,
    /// Requests answered from the canonical-form cache.
    pub cache_hits: u64,
    /// Requests that went to the solve pool.
    pub cache_misses: u64,
    /// Requests answered with a `timeout` error frame.
    pub timeouts: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Jobs currently queued in the pool.
    pub pool_pending: u64,
    /// Handler panics contained by the pool (always 0 unless a solver
    /// bug slips through; the daemon keeps serving either way).
    pub pool_panics: u64,
}

// ---------------------------------------------------------------------
// The canonical-result cache.
// ---------------------------------------------------------------------

/// One solved canonical instance: every `(record, witness)` the
/// requested protocol set produced on the canonical graph.
type CacheEntry = Arc<Vec<(SweepRecord, Solution)>>;

#[derive(Default)]
struct CacheState {
    map: HashMap<String, CacheEntry>,
    order: VecDeque<String>,
}

struct Cache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl Cache {
    fn new(capacity: usize) -> Self {
        Cache {
            state: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: &str) -> Option<CacheEntry> {
        self.state
            .lock()
            .expect("cache lock poisoned")
            .map
            .get(key)
            .cloned()
    }

    /// Inserts one entry and returns how many it FIFO-evicted.
    fn insert(&self, key: String, entry: CacheEntry) -> u64 {
        let mut state = self.state.lock().expect("cache lock poisoned");
        let mut evicted = 0;
        if state.map.insert(key.clone(), entry).is_none() {
            state.order.push_back(key);
            while state.order.len() > self.capacity {
                if let Some(victim) = state.order.pop_front() {
                    state.map.remove(&victim);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    fn len(&self) -> usize {
        self.state.lock().expect("cache lock poisoned").map.len()
    }
}

// ---------------------------------------------------------------------
// Request parsing.
// ---------------------------------------------------------------------

fn parse_protocol_name(name: &str) -> Option<Protocol> {
    match name {
        "port-one" | "port1" => Some(Protocol::PortOne),
        "regular-odd" | "thm4" => Some(Protocol::RegularOdd),
        "bounded-degree" | "adelta" => Some(Protocol::BoundedDegree),
        "vertex-cover" | "vc3" => Some(Protocol::VertexCover),
        "id-matching" | "idmm" => Some(Protocol::IdMatching),
        "rand-matching" | "randmm" => Some(Protocol::RandMatching),
        _ => None,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortChoice {
    Canonical,
    Shuffled,
    Factorized,
}

enum GraphInput {
    Edges {
        edges: Vec<(usize, usize)>,
        nodes: Option<usize>,
    },
    Spec(String),
}

enum Frame {
    Ping(String),
    Stats(String),
    Shutdown(String),
    Solve(Box<SolveRequest>),
}

struct SolveRequest {
    id_json: String,
    input: GraphInput,
    protocols: Vec<Protocol>,
    bounds: BoundsMode,
    delta: Option<usize>,
    seed: u64,
    ports: PortChoice,
    timeout: Duration,
}

/// A request-level rejection: `(kind, message)` rendered into an error
/// frame. Kinds are part of the wire format (see module docs).
type Reject = (&'static str, String);

fn id_of(value: &Json) -> String {
    value
        .get("id")
        .map_or_else(|| "null".to_owned(), Json::render)
}

fn parse_frame(value: &Json, config: &ServeConfig) -> Result<Frame, Reject> {
    let id_json = id_of(value);
    if !matches!(value, Json::Obj(_)) {
        return Err(("parse", "frame must be a JSON object".to_owned()));
    }
    if let Some(op) = value.get("op") {
        let op = op
            .as_str()
            .ok_or_else(|| ("parse", "\"op\" must be a string".to_owned()))?;
        return match op {
            "ping" => Ok(Frame::Ping(id_json)),
            "stats" => Ok(Frame::Stats(id_json)),
            "shutdown" => Ok(Frame::Shutdown(id_json)),
            other => Err(("unsupported", format!("unknown op {other:?}"))),
        };
    }

    let input = match (value.get("edges"), value.get("spec")) {
        (Some(_), Some(_)) => {
            return Err((
                "parse",
                "request carries both \"edges\" and \"spec\"; pick one".to_owned(),
            ))
        }
        (None, None) => {
            return Err((
                "parse",
                "request needs \"edges\" (list of [u,v] pairs) or \"spec\"".to_owned(),
            ))
        }
        (Some(edges), None) => {
            let Json::Arr(items) = edges else {
                return Err((
                    "parse",
                    "\"edges\" must be an array of [u,v] pairs".to_owned(),
                ));
            };
            if items.len() > config.max_edges {
                return Err((
                    "unsupported",
                    format!(
                        "{} edges exceed the server limit of {}",
                        items.len(),
                        config.max_edges
                    ),
                ));
            }
            let mut pairs = Vec::with_capacity(items.len());
            for item in items {
                let Json::Arr(pair) = item else {
                    return Err(("parse", "each edge must be a [u,v] pair".to_owned()));
                };
                let (Some(u), Some(v), true) = (pair.first(), pair.get(1), pair.len() == 2) else {
                    return Err(("parse", "each edge must be a [u,v] pair".to_owned()));
                };
                let (Some(u), Some(v)) = (u.as_usize(), v.as_usize()) else {
                    return Err((
                        "parse",
                        "edge endpoints must be non-negative integers".to_owned(),
                    ));
                };
                if u >= config.max_nodes || v >= config.max_nodes {
                    return Err((
                        "unsupported",
                        format!(
                            "node index {} exceeds the server limit of {} nodes",
                            u.max(v),
                            config.max_nodes
                        ),
                    ));
                }
                pairs.push((u, v));
            }
            let nodes = match value.get("nodes") {
                None => None,
                Some(n) => {
                    let n = n.as_usize().ok_or_else(|| {
                        (
                            "parse",
                            "\"nodes\" must be a non-negative integer".to_owned(),
                        )
                    })?;
                    if n > config.max_nodes {
                        return Err((
                            "unsupported",
                            format!(
                                "node count {n} exceeds the server limit of {} nodes",
                                config.max_nodes
                            ),
                        ));
                    }
                    Some(n)
                }
            };
            GraphInput::Edges {
                edges: pairs,
                nodes,
            }
        }
        (None, Some(spec)) => {
            let spec = spec
                .as_str()
                .ok_or_else(|| ("parse", "\"spec\" must be a string".to_owned()))?;
            GraphInput::Spec(spec.to_owned())
        }
    };

    let protocols = match value.get("protocols") {
        None => Protocol::ALL.to_vec(),
        Some(Json::Str(s)) if s == "all" => Protocol::ALL.to_vec(),
        Some(Json::Arr(names)) => {
            let mut set = [false; Protocol::ALL.len()];
            for name in names {
                let name = name
                    .as_str()
                    .ok_or_else(|| ("parse", "protocol names must be strings".to_owned()))?;
                let p = parse_protocol_name(name)
                    .ok_or_else(|| ("unsupported", format!("unknown protocol {name:?}")))?;
                set[Protocol::ALL.iter().position(|q| *q == p).expect("in ALL")] = true;
            }
            let chosen: Vec<Protocol> = Protocol::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| set[*i])
                .map(|(_, p)| *p)
                .collect();
            if chosen.is_empty() {
                return Err(("parse", "\"protocols\" must not be empty".to_owned()));
            }
            chosen
        }
        Some(_) => {
            return Err((
                "parse",
                "\"protocols\" must be \"all\" or an array of names".to_owned(),
            ))
        }
    };

    let bounds = match value.get("bounds") {
        None => BoundsMode::Exact,
        Some(b) => {
            let name = b
                .as_str()
                .ok_or_else(|| ("parse", "\"bounds\" must be a string".to_owned()))?;
            BoundsMode::parse(name).ok_or_else(|| {
                (
                    "unsupported",
                    format!(
                        "unknown bounds mode {name:?} (expected one of {})",
                        BoundsMode::NAMES.join(", ")
                    ),
                )
            })?
        }
    };

    let delta = match value.get("delta") {
        None => None,
        Some(d) => Some(d.as_usize().ok_or_else(|| {
            (
                "parse",
                "\"delta\" must be a non-negative integer".to_owned(),
            )
        })?),
    };

    let seed = match value.get("seed") {
        None => 0,
        Some(s) => s.as_u64().ok_or_else(|| {
            (
                "parse",
                "\"seed\" must be a non-negative integer".to_owned(),
            )
        })?,
    };

    let ports = match value.get("ports") {
        None => PortChoice::Canonical,
        Some(p) => match p.as_str() {
            Some("canonical") => PortChoice::Canonical,
            Some("shuffled") => PortChoice::Shuffled,
            Some("factorized") | Some("two-factor") => PortChoice::Factorized,
            _ => {
                return Err((
                    "unsupported",
                    "\"ports\" must be canonical, shuffled or factorized".to_owned(),
                ))
            }
        },
    };

    let timeout = match value.get("timeout_ms") {
        None => config.default_timeout,
        Some(t) => Duration::from_millis(t.as_u64().ok_or_else(|| {
            (
                "parse",
                "\"timeout_ms\" must be a non-negative integer".to_owned(),
            )
        })?),
    };

    Ok(Frame::Solve(Box::new(SolveRequest {
        id_json,
        input,
        protocols,
        bounds,
        delta,
        seed,
        ports,
        timeout,
    })))
}

/// Parses the `spec` grammar into a [`Family`]. Numeric arguments are
/// validated against `max_nodes` before any generator runs, so a
/// `"gnp:999999999:0.5"` frame is a structured error, not an allocation.
fn parse_spec(spec: &str, max_nodes: usize) -> Result<Family, Reject> {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or("");
    let args: Vec<&str> = parts.collect();
    let argn = |i: usize| -> Result<usize, Reject> {
        let raw = *args.get(i).ok_or_else(|| {
            (
                "parse",
                format!("spec {spec:?} is missing argument {}", i + 1),
            )
        })?;
        let n: usize = raw.parse().map_err(|_| {
            (
                "parse",
                format!("spec argument {raw:?} is not a non-negative integer"),
            )
        })?;
        if n > max_nodes {
            return Err((
                "unsupported",
                format!("spec size {n} exceeds the server limit of {max_nodes} nodes"),
            ));
        }
        Ok(n)
    };
    let argf = |i: usize| -> Result<f64, Reject> {
        let raw = *args.get(i).ok_or_else(|| {
            (
                "parse",
                format!("spec {spec:?} is missing argument {}", i + 1),
            )
        })?;
        let p: f64 = raw
            .parse()
            .map_err(|_| ("parse", format!("spec argument {raw:?} is not a number")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(("parse", format!("probability {p} is outside [0, 1]")));
        }
        Ok(p)
    };
    let arity = |want: usize| -> Result<(), Reject> {
        if args.len() == want {
            Ok(())
        } else {
            Err((
                "parse",
                format!(
                    "spec {spec:?}: expected {want} argument(s), got {}",
                    args.len()
                ),
            ))
        }
    };
    let family = match head {
        "petersen" => {
            arity(0)?;
            Family::Petersen
        }
        "path" => {
            arity(1)?;
            Family::Path(argn(0)?)
        }
        "cycle" => {
            arity(1)?;
            Family::Cycle(argn(0)?)
        }
        "complete" => {
            arity(1)?;
            Family::Complete(argn(0)?)
        }
        "star" => {
            arity(1)?;
            Family::Star(argn(0)?)
        }
        "wheel" => {
            arity(1)?;
            Family::Wheel(argn(0)?)
        }
        "ladder" => {
            arity(1)?;
            Family::Ladder(argn(0)?)
        }
        "crown" => {
            arity(1)?;
            Family::Crown(argn(0)?)
        }
        "hypercube" => {
            arity(1)?;
            let d = argn(0)?;
            if d > 20 {
                return Err((
                    "unsupported",
                    format!("hypercube dimension {d} exceeds the limit of 20"),
                ));
            }
            Family::Hypercube(d)
        }
        "grid" => {
            arity(2)?;
            Family::Grid(argn(0)?, argn(1)?)
        }
        "torus" => {
            arity(2)?;
            Family::Torus(argn(0)?, argn(1)?)
        }
        "complete-bipartite" => {
            arity(2)?;
            Family::CompleteBipartite(argn(0)?, argn(1)?)
        }
        "gnp" => {
            arity(2)?;
            Family::Gnp {
                n: argn(0)?,
                p: argf(1)?,
            }
        }
        "random-regular" => {
            arity(2)?;
            Family::RandomRegular {
                n: argn(0)?,
                d: argn(1)?,
            }
        }
        "random-tree" => {
            arity(1)?;
            Family::RandomTree { n: argn(0)? }
        }
        "power-law" => {
            arity(2)?;
            Family::PowerLaw {
                n: argn(0)?,
                m: argn(1)?,
            }
        }
        "sensor-network" => {
            arity(2)?;
            Family::SensorNetwork {
                n: argn(0)?,
                delta: argn(1)?,
            }
        }
        other => {
            return Err((
                "unsupported",
                format!("unknown family {other:?} in spec {spec:?}"),
            ))
        }
    };
    Ok(family)
}

// ---------------------------------------------------------------------
// Preparing a solve: graph construction, canonicalisation, cache key.
// ---------------------------------------------------------------------

/// A solve request resolved into a canonical scenario: the instance the
/// pool actually runs, the permutation mapping its node labels back to
/// the client's, and the full cache key.
struct Prepared {
    scenario: Scenario,
    perm: Vec<NodeId>,
    key: String,
}

fn graph_reject(err: &pn_graph::GraphError) -> Reject {
    ("graph", err.to_string())
}

fn build_graph(req: &SolveRequest, config: &ServeConfig) -> Result<PortNumberedGraph, Reject> {
    match &req.input {
        GraphInput::Edges { edges, nodes } => {
            let needed = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
            let n = match nodes {
                Some(n) => *n,
                None => needed,
            };
            let mut g = SimpleGraph::new(n);
            for &(u, v) in edges {
                g.add_edge(NodeId::new(u), NodeId::new(v))
                    .map_err(|e| graph_reject(&e))?;
            }
            apply_ports(&g, req)
        }
        GraphInput::Spec(spec) => {
            let family = parse_spec(spec, config.max_nodes)?;
            // Quadratic families can blow the edge budget with a node
            // count that passes the node cap; reject on the closed-form
            // edge count before the generator allocates anything.
            let dense_edges = match family {
                Family::Complete(n) => Some(n.saturating_mul(n.saturating_sub(1)) / 2),
                Family::CompleteBipartite(a, b) => Some(a.saturating_mul(b)),
                Family::Gnp { n, .. } => Some(n.saturating_mul(n.saturating_sub(1)) / 2),
                _ => None,
            };
            if let Some(worst) = dense_edges {
                if worst > config.max_edges {
                    return Err((
                        "unsupported",
                        format!(
                            "spec {spec:?} implies up to {worst} edges, over the \
                             server limit of {}",
                            config.max_edges
                        ),
                    ));
                }
            }
            let policy = match req.ports {
                PortChoice::Canonical => PortPolicy::Canonical,
                PortChoice::Shuffled => PortPolicy::Shuffled,
                PortChoice::Factorized => PortPolicy::TwoFactor,
            };
            let scenario = ScenarioSpec::new(family, req.seed, policy)
                .build()
                .map_err(|e| graph_reject(&e))?;
            Ok(scenario.graph)
        }
    }
}

fn apply_ports(g: &SimpleGraph, req: &SolveRequest) -> Result<PortNumberedGraph, Reject> {
    let built = match req.ports {
        PortChoice::Canonical => ports::canonical_ports(g),
        PortChoice::Shuffled => ports::shuffled_ports(g, req.seed),
        PortChoice::Factorized => ports::two_factor_ports(g),
    };
    built.map_err(|e| graph_reject(&e))
}

fn protocol_set_name(protocols: &[Protocol]) -> String {
    protocols
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join("+")
}

fn prepare(req: &SolveRequest, config: &ServeConfig) -> Result<Prepared, Reject> {
    let graph = build_graph(req, config)?;
    if graph.node_count() > config.max_nodes {
        return Err((
            "unsupported",
            format!(
                "instance has {} nodes, over the server limit of {}",
                graph.node_count(),
                config.max_nodes
            ),
        ));
    }
    if graph.edge_count() > config.max_edges {
        return Err((
            "unsupported",
            format!(
                "instance has {} edges, over the server limit of {}",
                graph.edge_count(),
                config.max_edges
            ),
        ));
    }
    let canonical = canonical_form(&graph, config.canonical_limit);
    let key = format!(
        "{}|p={}|b={:?}|d={:?}|s={}",
        canonical.key,
        protocol_set_name(&req.protocols),
        req.bounds,
        req.delta,
        req.seed,
    );
    // The scenario name is a digest of the full key, so record contents
    // depend only on the canonical request — a cache hit is
    // byte-identical to a fresh solve by construction.
    let name = format!("ext-{:016x}", fnv64(&key));
    let scenario =
        Scenario::external(name, canonical.graph, req.seed).map_err(|e| graph_reject(&e))?;
    Ok(Prepared {
        scenario,
        perm: canonical.perm,
        key,
    })
}

// ---------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------

pub(crate) fn error_frame(id_json: &str, kind: &str, message: &str) -> String {
    format!(
        "{{\"id\":{id_json},\"ok\":false,\"kind\":\"{kind}\",\"error\":\"{}\"}}",
        escape_json(message)
    )
}

/// An `overload` error frame carrying a machine-readable back-off hint:
/// `retry_ms` tells the rejected client how long to wait before
/// reconnecting (derived from the live queue depth via
/// [`Core::retry_hint_ms`]). The HTTP transport mirrors the same hint as
/// a `Retry-After` header.
pub(crate) fn overload_frame(id_json: &str, message: &str, retry_ms: u64) -> String {
    format!(
        "{{\"id\":{id_json},\"ok\":false,\"kind\":\"overload\",\"error\":\"{}\",\
         \"retry_ms\":{retry_ms}}}",
        escape_json(message)
    )
}

/// Maps a witness on the canonical graph back to the client's node
/// labels: node `v` of the canonical graph is node `perm[v]` of the
/// submitted instance.
fn render_solution(solution: &Solution, graph: &PortNumberedGraph, perm: &[NodeId]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match solution {
        Solution::Edges(edges) => {
            out.push_str("{\"edges\":[");
            for (i, e) in edges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (u, v) = graph.edge(*e).nodes();
                let (cu, cv) = (perm[u.index()].index(), perm[v.index()].index());
                let _ = write!(out, "[{},{}]", cu.min(cv), cu.max(cv));
            }
            out.push_str("]}");
        }
        Solution::Nodes(nodes) => {
            out.push_str("{\"nodes\":[");
            for (i, v) in nodes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", perm[v.index()].index());
            }
            out.push_str("]}");
        }
    }
    out
}

fn render_ok(
    id_json: &str,
    requested: &[Protocol],
    scenario: &Scenario,
    perm: &[NodeId],
    entry: &[(SweepRecord, Solution)],
) -> String {
    let mut out = format!("{{\"id\":{id_json},\"ok\":true,\"results\":[");
    for (i, (record, solution)) in entry.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let line = record.to_json_line();
        // The record renders as a complete object; splice the solution
        // in before its closing brace.
        let body = line.strip_suffix('}').unwrap_or(&line);
        out.push_str(body);
        out.push_str(",\"solution\":");
        out.push_str(&render_solution(solution, &scenario.graph, perm));
        out.push('}');
    }
    out.push_str("],\"skipped\":[");
    let mut first = true;
    for p in requested {
        if !p.applicable(scenario) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(p.name());
            out.push('"');
        }
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Per-connection state: ordered delivery with a bounded window.
// ---------------------------------------------------------------------

struct ConnState {
    /// Sequence numbers handed out to frames read so far.
    submitted: u64,
    /// Next sequence number the writer will emit.
    emitted: u64,
    /// Responses waiting for their turn, keyed by sequence number.
    ready: BTreeMap<u64, String>,
    /// When each in-flight request was read, for the latency
    /// histogram. Bounded by the client window, like `ready`.
    started: HashMap<u64, Instant>,
    reader_done: bool,
    writer_dead: bool,
}

pub(crate) struct ConnShared {
    state: Mutex<ConnState>,
    cv: Condvar,
    core: Arc<Core>,
}

impl ConnShared {
    pub(crate) fn new(core: Arc<Core>) -> Arc<ConnShared> {
        Arc::new(ConnShared {
            state: Mutex::new(ConnState {
                submitted: 0,
                emitted: 0,
                ready: BTreeMap::new(),
                started: HashMap::new(),
                reader_done: false,
                writer_dead: false,
            }),
            cv: Condvar::new(),
            core,
        })
    }

    /// Allocates the next sequence number, blocking while the in-flight
    /// window is full. Returns `None` once the writer is dead (client
    /// gone — reading further frames is pointless).
    pub(crate) fn alloc(&self, window: usize) -> Option<u64> {
        let mut state = self.state.lock().expect("conn lock poisoned");
        loop {
            if state.writer_dead {
                return None;
            }
            if state.submitted - state.emitted < window as u64 {
                let seq = state.submitted;
                state.submitted += 1;
                state.started.insert(seq, Instant::now());
                return Some(seq);
            }
            state = self.cv.wait(state).expect("conn lock poisoned");
        }
    }

    /// Blocks until the response for `seq` arrives and removes it —
    /// the synchronous delivery path the HTTP transport uses instead
    /// of a writer thread. Advances the in-flight window by one.
    pub(crate) fn await_response(&self, seq: u64) -> String {
        let mut state = self.state.lock().expect("conn lock poisoned");
        loop {
            if let Some(frame) = state.ready.remove(&seq) {
                state.emitted += 1;
                self.cv.notify_all();
                return frame;
            }
            state = self.cv.wait(state).expect("conn lock poisoned");
        }
    }

    /// Queues one response frame for ordered delivery, counting it
    /// under its outcome kind and closing the request's latency timer.
    pub(crate) fn deliver(&self, seq: u64, frame: String) {
        self.core.metrics.response_counter(&frame).inc();
        let started = {
            let mut state = self.state.lock().expect("conn lock poisoned");
            let started = state.started.remove(&seq);
            state.ready.insert(seq, frame);
            self.cv.notify_all();
            started
        };
        if let Some(at) = started {
            let micros = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.core.metrics.latency.observe(micros);
        }
    }

    fn reader_done(&self) {
        let mut state = self.state.lock().expect("conn lock poisoned");
        state.reader_done = true;
        self.cv.notify_all();
    }

    /// Appends a final frame outside the request/response pairing (the
    /// shutdown notice). Takes its own sequence number.
    fn push_notice(&self, frame: String) {
        let mut state = self.state.lock().expect("conn lock poisoned");
        if state.writer_dead {
            return;
        }
        let seq = state.submitted;
        state.submitted += 1;
        state.ready.insert(seq, frame);
        self.cv.notify_all();
    }

    /// The writer side: emits responses strictly in sequence order,
    /// returning once the reader is done and everything drained (or the
    /// sink errored).
    fn writer_loop<W: Write>(&self, mut sink: W) -> io::Result<()> {
        loop {
            let frame = {
                let mut state = self.state.lock().expect("conn lock poisoned");
                loop {
                    let next = state.emitted;
                    if let Some(frame) = state.ready.remove(&next) {
                        state.emitted += 1;
                        self.cv.notify_all();
                        break Some(frame);
                    }
                    if state.reader_done && state.emitted == state.submitted {
                        break None;
                    }
                    state = self.cv.wait(state).expect("conn lock poisoned");
                }
            };
            match frame {
                Some(frame) => {
                    let result = sink
                        .write_all(frame.as_bytes())
                        .and_then(|()| sink.write_all(b"\n"));
                    if let Err(err) = result {
                        let mut state = self.state.lock().expect("conn lock poisoned");
                        state.writer_dead = true;
                        state.ready.clear();
                        state.started.clear();
                        self.cv.notify_all();
                        return Err(err);
                    }
                }
                None => {
                    sink.flush()?;
                    return Ok(());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bounded frame reading.
// ---------------------------------------------------------------------

enum FrameRead {
    Frame(Vec<u8>),
    TooLong,
    Eof,
    /// A reader I/O error; the connection ends as if at end-of-input
    /// (every frame already read still gets its response).
    Failed,
}

/// Reads one newline-terminated frame, never buffering more than
/// `max + 1` bytes. An over-long line is consumed to its newline (in
/// constant memory) and reported as [`FrameRead::TooLong`], so a hostile
/// client cannot balloon the daemon's memory.
fn read_frame<R: BufRead>(reader: &mut R, max: usize) -> FrameRead {
    let mut buf = Vec::new();
    let mut limited = reader.take(max as u64 + 1);
    match limited.read_until(b'\n', &mut buf) {
        Err(_) => return FrameRead::Failed,
        Ok(0) => return FrameRead::Eof,
        Ok(_) => {}
    }
    let terminated = buf.last() == Some(&b'\n');
    if terminated {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max || (!terminated && buf.len() == max + 1) {
        // Discard the rest of the line without buffering it.
        if !terminated {
            loop {
                let (done, used) = match reader.fill_buf() {
                    Err(_) => return FrameRead::Failed,
                    Ok([]) => (true, 0),
                    Ok(chunk) => match chunk.iter().position(|&b| b == b'\n') {
                        Some(at) => (true, at + 1),
                        None => (false, chunk.len()),
                    },
                };
                reader.consume(used);
                if done {
                    break;
                }
            }
        }
        return FrameRead::TooLong;
    }
    FrameRead::Frame(buf)
}

// ---------------------------------------------------------------------
// The server core: shared state reachable from readers and workers.
// ---------------------------------------------------------------------

pub(crate) struct Core {
    pub(crate) config: ServeConfig,
    cache: Cache,
    pub(crate) metrics: ServerMetrics,
    shutting_down: AtomicBool,
    shutdown_lock: Mutex<()>,
    shutdown_cv: Condvar,
    pool: std::sync::OnceLock<WorkerPool<SolveJob>>,
    #[cfg(unix)]
    conns: Mutex<HashMap<u64, std::os::unix::net::UnixStream>>,
    /// Live HTTP connections, half-closed on shutdown like the unix
    /// ones (see `crate::http`).
    pub(crate) tcp_conns: Mutex<HashMap<u64, std::net::TcpStream>>,
    pub(crate) next_conn: AtomicU64,
    #[cfg(unix)]
    socket_path: Mutex<Option<std::path::PathBuf>>,
}

impl Core {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and half-closes every registered socket
    /// (read side), unblocking their readers. Idempotent; callable from
    /// connection threads (it joins nothing).
    pub(crate) fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        #[cfg(unix)]
        {
            let conns = self.conns.lock().expect("conn registry poisoned");
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
        {
            let conns = self.tcp_conns.lock().expect("tcp conn registry poisoned");
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
        let _guard = self.shutdown_lock.lock().expect("shutdown lock poisoned");
        self.shutdown_cv.notify_all();
    }

    fn pool(&self) -> &WorkerPool<SolveJob> {
        self.pool.get().expect("pool installed at construction")
    }

    /// How long an overloaded client should back off before retrying,
    /// estimated from the live solve-pool queue depth: a per-job latency
    /// allowance per queued job, floored at one allowance so an idle but
    /// client-saturated server still asks for a pause, and capped so a
    /// deep queue never tells clients to go away for minutes.
    pub(crate) fn retry_hint_ms(&self) -> u64 {
        /// Per queued job: the rough budget of one small cached solve.
        const PER_JOB_MS: u64 = 250;
        const CAP_MS: u64 = 30_000;
        (self.pool().pending() as u64 + 1)
            .saturating_mul(PER_JOB_MS)
            .min(CAP_MS)
    }

    fn snapshot(&self) -> StatsSnapshot {
        self.refresh_gauges();
        let m = &self.metrics;
        StatsSnapshot {
            frames: m.frames.get(),
            responses: m.responses_total(),
            errors: m.errors_total(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            timeouts: m.kind_total("timeout"),
            connections: m.connections.get(),
            cache_entries: self.cache.len() as u64,
            pool_pending: self.pool().pending() as u64,
            pool_panics: self.pool().panics() as u64,
        }
    }

    /// Syncs the sampled gauges (cache size, queue depth) with live
    /// state, so renders and snapshots reflect the call instant.
    fn refresh_gauges(&self) {
        self.metrics.cache_entries.set(self.cache.len() as i64);
        self.metrics.queue_depth.set(self.pool().pending() as i64);
    }

    /// This server's Prometheus series followed by the process-global
    /// registry (runtime and session series).
    pub(crate) fn render_metrics(&self) -> String {
        self.refresh_gauges();
        let mut out = self.metrics.registry.render();
        eds_telemetry::global().render_into(&mut out);
        out
    }

    pub(crate) fn stats_frame(&self, id_json: &str) -> String {
        let s = self.snapshot();
        format!(
            "{{\"id\":{id_json},\"ok\":true,\"stats\":{{\"frames\":{},\"responses\":{},\
             \"errors\":{},\"cache_hits\":{},\"cache_misses\":{},\"timeouts\":{},\
             \"connections\":{},\"cache_entries\":{},\"pool_pending\":{},\
             \"pool_panics\":{}}}}}",
            s.frames,
            s.responses,
            s.errors,
            s.cache_hits,
            s.cache_misses,
            s.timeouts,
            s.connections,
            s.cache_entries,
            s.pool_pending,
            s.pool_panics,
        )
    }
}

// ---------------------------------------------------------------------
// The solve pool: jobs, batching, shared sessions.
// ---------------------------------------------------------------------

/// One queued solve: the canonical scenario plus everything needed to
/// answer the client that asked for it.
struct SolveJob {
    key: String,
    scenario: Scenario,
    perm: Vec<NodeId>,
    requested: Vec<Protocol>,
    bounds: BoundsMode,
    delta: Option<usize>,
    deadline: Instant,
    id_json: String,
    conn: Arc<ConnShared>,
    seq: u64,
}

/// Pairs each record with the witness the session emitted just before
/// it (the sink contract: `solution` fires immediately before `record`
/// for the same measurement).
#[derive(Default)]
struct BatchSink {
    out: Vec<(SweepRecord, Solution)>,
    pending: Option<Solution>,
}

impl RecordSink for BatchSink {
    fn record(&mut self, record: SweepRecord) {
        let solution = self.pending.take().unwrap_or(Solution::Edges(Vec::new()));
        self.out.push((record, solution));
    }

    fn solution(&mut self, _record: &SweepRecord, solution: &Solution) {
        self.pending = Some(solution.clone());
    }
}

/// The pool handler: answers expired jobs, folds duplicates, re-probes
/// the cache, and runs everything left through shared [`Session`]s —
/// one per (protocol set, bounds, delta) signature.
fn solve_batch(core: &Arc<Core>, jobs: Vec<SolveJob>) {
    core.metrics.batch_jobs.observe(jobs.len() as u64);
    core.metrics.queue_depth.set(core.pool().pending() as i64);
    let now = Instant::now();
    let mut groups: HashMap<String, Vec<SolveJob>> = HashMap::new();
    for job in jobs {
        if job.deadline < now {
            let frame = error_frame(&job.id_json, "timeout", "request timed out while queued");
            job.conn.deliver(job.seq, frame);
            continue;
        }
        let signature = format!(
            "{}|{:?}|{:?}",
            protocol_set_name(&job.requested),
            job.bounds,
            job.delta
        );
        groups.entry(signature).or_default().push(job);
    }
    for (_, group) in groups {
        solve_group(core, group);
    }
}

fn solve_group(core: &Arc<Core>, group: Vec<SolveJob>) {
    // Fold jobs with the same full key: one solve answers all of them.
    let mut order: Vec<String> = Vec::new();
    let mut by_key: HashMap<String, Vec<SolveJob>> = HashMap::new();
    for job in group {
        if !by_key.contains_key(&job.key) {
            order.push(job.key.clone());
        }
        by_key.entry(job.key.clone()).or_default().push(job);
    }

    let mut to_solve: Vec<(String, Vec<SolveJob>)> = Vec::new();
    for key in order {
        let jobs = by_key.remove(&key).expect("key listed in order");
        // A sibling batch may have populated the cache since submission.
        if let Some(entry) = core.cache.get(&key) {
            for job in jobs {
                core.metrics.cache_hits.inc();
                answer_ok(&job, &entry);
            }
        } else {
            to_solve.push((key, jobs));
        }
    }
    if to_solve.is_empty() {
        return;
    }

    let lead = &to_solve[0].1[0];
    let requested = lead.requested.clone();
    let bounds = lead.bounds;
    let delta = lead.delta;
    let scenarios: Vec<Scenario> = to_solve
        .iter()
        .map(|(_, jobs)| jobs[0].scenario.clone())
        .collect();

    let mut session = Session::new()
        .sequential()
        .simulator_threads(core.config.simulator_threads)
        .protocols(&requested)
        .scenarios(scenarios);
    if let Some(d) = delta {
        session = session.delta_hint(d);
    }
    let (session, _lp) = bounds.install(session);

    // The group runs under one cooperative deadline — the latest job
    // deadline present. The simulator polls the token between rounds,
    // so a runaway instance stops mid-solve instead of holding a
    // worker until completion.
    let deadline = to_solve
        .iter()
        .flat_map(|(_, jobs)| jobs.iter().map(|job| job.deadline))
        .max()
        .expect("group is non-empty");
    let session = session.cancel_token(CancelToken::with_deadline(deadline));

    let mut sink = BatchSink::default();
    match session.run(&mut sink) {
        Ok(()) => {
            let mut per: HashMap<String, Vec<(SweepRecord, Solution)>> = HashMap::new();
            for (record, solution) in sink.out {
                per.entry(record.scenario.clone())
                    .or_default()
                    .push((record, solution));
            }
            for (key, jobs) in to_solve {
                let name = jobs[0].scenario.name();
                let entry: CacheEntry = Arc::new(per.remove(&name).unwrap_or_default());
                let evicted = core.cache.insert(key, entry.clone());
                core.metrics.cache_evictions.add(evicted);
                for job in jobs {
                    answer_ok(&job, &entry);
                }
            }
        }
        Err(err) => {
            let (kind, message) =
                if matches!(&err, SweepError::Runtime(RuntimeError::Cancelled { .. })) {
                    ("timeout", format!("request timed out mid-solve: {err}"))
                } else {
                    ("internal", format!("sweep failed: {err}"))
                };
            for (_, jobs) in to_solve {
                for job in jobs {
                    let frame = error_frame(&job.id_json, kind, &message);
                    job.conn.deliver(job.seq, frame);
                }
            }
        }
    }
}

fn answer_ok(job: &SolveJob, entry: &[(SweepRecord, Solution)]) {
    let frame = render_ok(
        &job.id_json,
        &job.requested,
        &job.scenario,
        &job.perm,
        entry,
    );
    job.conn.deliver(job.seq, frame);
}

// ---------------------------------------------------------------------
// Frame dispatch.
// ---------------------------------------------------------------------

pub(crate) fn handle_frame(core: &Arc<Core>, conn: &Arc<ConnShared>, seq: u64, line: &[u8]) {
    let Ok(text) = std::str::from_utf8(line) else {
        conn.deliver(
            seq,
            error_frame("null", "parse", "frame is not valid UTF-8"),
        );
        return;
    };
    let value = match JsonParser::parse(text) {
        Ok(value) => value,
        Err(err) => {
            conn.deliver(
                seq,
                error_frame("null", "parse", &format!("invalid JSON: {err}")),
            );
            return;
        }
    };
    let id_json = id_of(&value);
    let frame = match parse_frame(&value, &core.config) {
        Ok(frame) => frame,
        Err((kind, message)) => {
            conn.deliver(seq, error_frame(&id_json, kind, &message));
            return;
        }
    };
    match frame {
        Frame::Ping(id) => {
            conn.deliver(seq, format!("{{\"id\":{id},\"ok\":true,\"pong\":true}}"));
        }
        Frame::Stats(id) => {
            let frame = core.stats_frame(&id);
            conn.deliver(seq, frame);
        }
        Frame::Shutdown(id) => {
            core.begin_shutdown();
            conn.deliver(
                seq,
                format!("{{\"id\":{id},\"ok\":true,\"shutdown\":true}}"),
            );
        }
        Frame::Solve(req) => {
            if core.is_shutting_down() {
                conn.deliver(
                    seq,
                    error_frame(&req.id_json, "shutdown", "server is shutting down"),
                );
                return;
            }
            let prepared = match prepare(&req, &core.config) {
                Ok(prepared) => prepared,
                Err((kind, message)) => {
                    conn.deliver(seq, error_frame(&req.id_json, kind, &message));
                    return;
                }
            };
            if let Some(entry) = core.cache.get(&prepared.key) {
                core.metrics.cache_hits.inc();
                let frame = render_ok(
                    &req.id_json,
                    &req.protocols,
                    &prepared.scenario,
                    &prepared.perm,
                    &entry,
                );
                conn.deliver(seq, frame);
                return;
            }
            core.metrics.cache_misses.inc();
            let job = SolveJob {
                key: prepared.key,
                scenario: prepared.scenario,
                perm: prepared.perm,
                requested: req.protocols.clone(),
                bounds: req.bounds,
                delta: req.delta,
                deadline: Instant::now() + req.timeout,
                id_json: req.id_json.clone(),
                conn: Arc::clone(conn),
                seq,
            };
            match core.pool().submit(job) {
                Ok(()) => {
                    core.metrics.queue_depth.set(core.pool().pending() as i64);
                }
                Err(SubmitError::Closed(job) | SubmitError::Full(job)) => {
                    conn.deliver(
                        job.seq,
                        error_frame(&job.id_json, "shutdown", "solve pool is closed"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// The solver-as-a-service daemon: a persistent solve pool, a
/// canonical-form result cache, and any number of JSON-lines transports
/// ([`Server::serve_stream`] for stdio/tests, [`Server::listen_unix`]
/// for sockets).
pub struct Server {
    pub(crate) core: Arc<Core>,
    pub(crate) accept: Mutex<Vec<std::thread::JoinHandle<()>>>,
    pub(crate) conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Builds a server and starts its worker pool.
    pub fn new(config: ServeConfig) -> Server {
        let cache = Cache::new(config.cache_capacity);
        let core = Arc::new(Core {
            cache,
            metrics: ServerMetrics::new(),
            shutting_down: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            shutdown_cv: Condvar::new(),
            pool: std::sync::OnceLock::new(),
            #[cfg(unix)]
            conns: Mutex::new(HashMap::new()),
            tcp_conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            #[cfg(unix)]
            socket_path: Mutex::new(None),
            config,
        });
        let weak = Arc::downgrade(&core);
        let pool = WorkerPool::new(
            core.config.solver_threads.max(1),
            core.config.queue_capacity.max(1),
            core.config.batch_limit.max(1),
            move |jobs| {
                if let Some(core) = weak.upgrade() {
                    solve_batch(&core, jobs);
                }
            },
        );
        core.pool.set(pool).ok().expect("pool set once");
        Server {
            core,
            accept: Mutex::new(Vec::new()),
            conn_threads: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// A point-in-time snapshot of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.snapshot()
    }

    /// Renders the server's telemetry in Prometheus text exposition
    /// format: this server's request/cache series followed by the
    /// process-global registry (runtime and session series). This is
    /// the body behind the HTTP transport's `GET /metrics`.
    pub fn render_metrics(&self) -> String {
        self.core.render_metrics()
    }

    /// Whether a shutdown has been requested (frame or API).
    pub fn is_shutting_down(&self) -> bool {
        self.core.is_shutting_down()
    }

    /// Serves one JSON-lines connection on the calling thread: frames
    /// read from `reader`, responses written (in request order) to
    /// `writer`. Returns when the reader reaches end-of-input and every
    /// response has been flushed. This is the stdin/stdout transport —
    /// and the deterministic harness the tests drive.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error, if any; reader errors end the
    /// connection gracefully (every frame read so far is still
    /// answered).
    pub fn serve_stream<R, W>(&self, reader: R, writer: W) -> io::Result<()>
    where
        R: io::Read,
        W: Write + Send,
    {
        self.core.metrics.connections.inc();
        run_connection(&self.core, reader, writer)
    }

    /// Requests a graceful shutdown without blocking: stops accepting
    /// frames and connections and half-closes socket readers. Callable
    /// from anywhere (including connection threads).
    pub fn begin_shutdown(&self) {
        self.core.begin_shutdown();
    }

    /// Blocks until a shutdown has been requested (by a `shutdown`
    /// frame on any connection, or [`Server::begin_shutdown`]).
    pub fn wait_for_shutdown(&self) {
        let mut guard = self
            .core
            .shutdown_lock
            .lock()
            .expect("shutdown lock poisoned");
        while !self.core.is_shutting_down() {
            guard = self
                .core
                .shutdown_cv
                .wait(guard)
                .expect("shutdown lock poisoned");
        }
    }

    /// Drains the daemon: joins the accept loop and every socket
    /// connection, then waits for the pool to go quiescent — every
    /// accepted frame is answered and flushed before this returns. Call
    /// after [`Server::begin_shutdown`] (or let a `shutdown` frame
    /// trigger it) from the owning thread.
    pub fn finish(&self) {
        self.core.begin_shutdown();
        let handles: Vec<_> = {
            let mut accept = self.accept.lock().expect("accept lock poisoned");
            accept.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        let handles: Vec<_> = {
            let mut conns = self.conn_threads.lock().expect("conn threads poisoned");
            conns.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = self.socket_path_take().filter(|p| p.exists()) {
            let _ = std::fs::remove_file(path);
        }
        self.core.pool().drain();
    }

    #[cfg(unix)]
    fn socket_path_take(&self) -> Option<std::path::PathBuf> {
        self.core
            .socket_path
            .lock()
            .expect("socket path poisoned")
            .take()
    }
}

#[cfg(unix)]
impl Server {
    /// Binds a unix socket and accepts connections on a background
    /// thread until shutdown. Each connection gets its own reader
    /// thread; beyond [`ServeConfig::max_clients`] concurrent clients,
    /// new connections receive an `overload` reason frame and are
    /// closed (never silently dropped).
    ///
    /// # Errors
    ///
    /// Propagates bind errors (a stale socket file is removed first).
    pub fn listen_unix(&self, path: &std::path::Path) -> io::Result<()> {
        use std::os::unix::net::UnixListener;

        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        *self.core.socket_path.lock().expect("socket path poisoned") = Some(path.to_owned());

        let core = Arc::clone(&self.core);
        let conn_threads = Arc::clone(&self.conn_threads);
        let handle = std::thread::spawn(move || loop {
            if core.is_shutting_down() {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    // Reap finished connection threads so the handle
                    // list stays bounded by the live-client count.
                    let mut threads = conn_threads.lock().expect("conn threads poisoned");
                    let mut live = Vec::with_capacity(threads.len() + 1);
                    for handle in threads.drain(..) {
                        if handle.is_finished() {
                            let _ = handle.join();
                        } else {
                            live.push(handle);
                        }
                    }
                    *threads = live;

                    let active = core.conns.lock().expect("conn registry poisoned").len();
                    if active >= core.config.max_clients {
                        core.metrics.rejected_connections.inc();
                        let mut stream = stream;
                        let frame = overload_frame(
                            "null",
                            &format!(
                                "server is at its limit of {} concurrent clients",
                                core.config.max_clients
                            ),
                            core.retry_hint_ms(),
                        );
                        let _ = stream.write_all(frame.as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue;
                    }
                    let conn_id = core.next_conn.fetch_add(1, Ordering::Relaxed);
                    if let Ok(registered) = stream.try_clone() {
                        core.conns
                            .lock()
                            .expect("conn registry poisoned")
                            .insert(conn_id, registered);
                    }
                    let conn_core = Arc::clone(&core);
                    threads.push(std::thread::spawn(move || {
                        serve_socket_conn(conn_core, stream, conn_id);
                    }));
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
        self.accept
            .lock()
            .expect("accept lock poisoned")
            .push(handle);
        Ok(())
    }
}

/// The connection engine shared by every transport: a writer thread
/// draining the ordered response queue, the calling thread reading and
/// dispatching frames. Returns once the input is exhausted and every
/// response is flushed; if a shutdown was requested, a final reason
/// frame is appended before the stream closes.
fn run_connection<R, W>(core: &Arc<Core>, reader: R, writer: W) -> io::Result<()>
where
    R: io::Read,
    W: Write + Send,
{
    let conn = ConnShared::new(Arc::clone(core));
    std::thread::scope(|scope| {
        let writer_conn = Arc::clone(&conn);
        let writer_handle = scope.spawn(move || writer_conn.writer_loop(writer));
        let mut reader = BufReader::new(reader);
        loop {
            let read = read_frame(&mut reader, core.config.max_frame_bytes);
            if matches!(read, FrameRead::Eof | FrameRead::Failed) {
                break;
            }
            let Some(seq) = conn.alloc(core.config.client_window.max(1)) else {
                break;
            };
            core.metrics.frames.inc();
            match read {
                FrameRead::Eof | FrameRead::Failed => unreachable!("handled above"),
                FrameRead::TooLong => {
                    conn.deliver(
                        seq,
                        error_frame(
                            "null",
                            "parse",
                            &format!(
                                "frame exceeds the limit of {} bytes",
                                core.config.max_frame_bytes
                            ),
                        ),
                    );
                }
                FrameRead::Frame(line) => {
                    handle_frame(core, &conn, seq, &line);
                }
            }
        }
        if core.is_shutting_down() {
            conn.push_notice(
                "{\"id\":null,\"ok\":false,\"kind\":\"shutdown\",\
                 \"error\":\"server is shutting down; connection closing\"}"
                    .to_owned(),
            );
        }
        conn.reader_done();
        writer_handle.join().unwrap_or(Ok(()))
    })
}

#[cfg(unix)]
fn serve_socket_conn(core: Arc<Core>, stream: std::os::unix::net::UnixStream, conn_id: u64) {
    core.metrics.connections.inc();
    if let Ok(reader) = stream.try_clone() {
        let _ = run_connection(&core, reader, stream);
    }
    core.conns
        .lock()
        .expect("conn registry poisoned")
        .remove(&conn_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- test harness ------------------------------------------------

    /// A clonable in-memory sink, so the writer thread and the test can
    /// share one output buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            solver_threads: 2,
            ..ServeConfig::default()
        }
    }

    /// Runs one stdin-style connection and returns the response lines.
    fn serve(server: &Server, input: &str) -> Vec<String> {
        let out = SharedBuf::default();
        server
            .serve_stream(input.as_bytes(), out.clone())
            .expect("in-memory writer cannot fail");
        let bytes = out.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("responses are UTF-8")
            .lines()
            .map(str::to_owned)
            .collect()
    }

    // -- backpressure hints ------------------------------------------

    #[test]
    fn overload_frame_carries_the_retry_hint() {
        let frame = overload_frame("7", "too many clients", 1250);
        assert_eq!(
            frame,
            "{\"id\":7,\"ok\":false,\"kind\":\"overload\",\
             \"error\":\"too many clients\",\"retry_ms\":1250}"
        );
        JsonParser::parse(&frame).expect("overload frames are valid JSON");
    }

    #[test]
    fn retry_hint_grows_with_queue_depth_and_stays_capped() {
        let server = Server::new(quick_config());
        // An idle queue still asks for one slot's worth of backoff, and
        // the hint can never exceed the 30 s cap however deep the
        // backlog reports.
        let idle = server.core.retry_hint_ms();
        assert!(idle >= 250, "idle hint {idle}");
        assert!(idle <= 30_000, "hint above cap: {idle}");
    }

    // -- JSON parser -------------------------------------------------

    #[test]
    fn json_parser_handles_the_grammar() {
        let v =
            JsonParser::parse(r#"{"a":[1,-2,3.5],"b":"x\n\u00e9\ud83d\ude00","c":null,"d":true}"#)
                .unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Int(1), Json::Int(-2), Json::Float(3.5)])
        );
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\né😀");
        assert_eq!(v.get("c").unwrap(), &Json::Null);
        assert_eq!(v.get("d").unwrap(), &Json::Bool(true));
        assert!(JsonParser::parse("{\"a\":1}trailing").is_err());
        assert!(JsonParser::parse("{\"a\":").is_err());
        assert!(JsonParser::parse("\"\\q\"").is_err());
        assert!(JsonParser::parse("").is_err());
        let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
        assert!(JsonParser::parse(&deep).is_err());
    }

    // -- canonicalisation --------------------------------------------

    fn scramble(n: usize) -> Vec<NodeId> {
        // A fixed multiplicative scramble (n prime-free sizes are fine
        // as long as the map is a bijection; use a rotation + swap mix).
        let mut perm: Vec<usize> = (0..n).collect();
        perm.rotate_left(n / 3 + 1);
        perm.swap(0, n - 1);
        perm.into_iter().map(NodeId::new).collect()
    }

    #[test]
    fn canonical_form_is_invariant_under_relabeling() {
        for family in [Family::Petersen, Family::Cycle(9), Family::Path(6)] {
            let g = ScenarioSpec::new(family, 0, PortPolicy::Canonical)
                .build()
                .expect("family builds")
                .graph;
            let perm = scramble(g.node_count());
            let relabeled = relabel_nodes(&g, &perm);
            let a = canonical_form(&g, 4096);
            let b = canonical_form(&relabeled, 4096);
            assert_eq!(a.key, b.key, "canonical key must be relabeling-invariant");
            // Idempotent: canonicalising the canonical graph is a fixed
            // point of the key.
            assert_eq!(canonical_form(&a.graph, 4096).key, a.key);
        }
    }

    #[test]
    fn canonical_form_separates_non_isomorphic_graphs() {
        let build = |family| {
            ScenarioSpec::new(family, 0, PortPolicy::Canonical)
                .build()
                .expect("family builds")
                .graph
        };
        let path = canonical_form(&build(Family::Path(4)), 4096);
        let cycle = canonical_form(&build(Family::Cycle(4)), 4096);
        let cycle5 = canonical_form(&build(Family::Cycle(5)), 4096);
        assert_ne!(path.key, cycle.key);
        assert_ne!(cycle.key, cycle5.key);
    }

    #[test]
    fn oversized_graphs_fall_back_to_the_identity_form() {
        let g = ScenarioSpec::new(Family::Cycle(8), 0, PortPolicy::Canonical)
            .build()
            .expect("family builds")
            .graph;
        let raw = canonical_form(&g, 1);
        assert!(raw.key.starts_with("raw;"));
        assert_eq!(raw.perm, (0..8).map(NodeId::new).collect::<Vec<_>>());
    }

    // -- spec grammar ------------------------------------------------

    #[test]
    fn spec_grammar_parses_and_caps() {
        assert!(matches!(parse_spec("petersen", 100), Ok(Family::Petersen)));
        assert!(matches!(parse_spec("cycle:9", 100), Ok(Family::Cycle(9))));
        assert!(matches!(
            parse_spec("grid:4:3", 100),
            Ok(Family::Grid(4, 3))
        ));
        assert!(matches!(
            parse_spec("gnp:10:0.5", 100),
            Ok(Family::Gnp { n: 10, .. })
        ));
        assert!(parse_spec("cycle", 100).is_err());
        assert!(parse_spec("cycle:abc", 100).is_err());
        assert!(parse_spec("cycle:9:9", 100).is_err());
        assert!(parse_spec("gnp:10:1.5", 100).is_err());
        assert!(parse_spec("warp:3", 100).is_err());
        let (kind, _) = parse_spec("cycle:999", 100).unwrap_err();
        assert_eq!(kind, "unsupported");
    }

    // -- end-to-end over an in-memory stream -------------------------

    #[test]
    fn serve_stream_answers_every_frame_in_order() {
        let server = Server::new(quick_config());
        let input = concat!(
            "{\"id\":1,\"op\":\"ping\"}\n",
            "{\"id\":\"t\",\"edges\":[[0,1],[1,2],[2,0]],\"protocols\":[\"vertex-cover\"],\"seed\":1}\n",
            "this is not json\n",
            "{\"id\":3,\"edges\":[[0,0]]}\n",
            "{\"id\":4,\"edges\":[[0,1]],\"protocols\":[\"warp-drive\"]}\n",
            "{\"id\":5,\"spec\":\"petersen\",\"edges\":[[0,1]]}\n",
            "{\"id\":6,\"spec\":\"cycle:5\",\"protocols\":[\"port-one\",\"vc3\"]}\n",
            "{\"id\":7,\"op\":\"stats\"}\n",
        );
        let lines = serve(&server, input);
        assert_eq!(lines.len(), 8, "one response per frame: {lines:#?}");
        assert!(lines[0].contains("\"pong\":true") && lines[0].contains("\"id\":1"));
        assert!(lines[1].contains("\"ok\":true") && lines[1].contains("\"id\":\"t\""));
        assert!(lines[1].contains("\"solution\""));
        assert!(lines[1].contains("\"protocol\":\"vertex-cover\""));
        assert!(lines[2].contains("\"kind\":\"parse\""));
        assert!(lines[3].contains("\"kind\":\"graph\"") && lines[3].contains("\"id\":3"));
        assert!(lines[4].contains("\"kind\":\"unsupported\""));
        assert!(lines[5].contains("\"kind\":\"parse\""));
        assert!(lines[6].contains("\"ok\":true") && lines[6].contains("\"id\":6"));
        assert!(lines[7].contains("\"stats\"") && lines[7].contains("\"frames\":8"));
        server.finish();
    }

    #[test]
    fn solutions_are_mapped_back_to_client_labels() {
        let server = Server::new(quick_config());
        // A 4-path 7-3-9-5 among 10 labelled nodes: the witness must
        // come back in these labels, whatever the canonical order is.
        let lines = serve(
            &server,
            "{\"id\":1,\"edges\":[[7,3],[3,9],[9,5]],\"nodes\":10,\"protocols\":[\"vc3\"]}\n",
        );
        assert_eq!(lines.len(), 1);
        let frame = &lines[0];
        assert!(frame.contains("\"ok\":true"), "{frame}");
        // vc3 emits a node witness; every label must be one of the
        // path's endpoints (7, 3, 9, 5), never a canonical-space index.
        let nodes = frame
            .split("\"solution\":{\"nodes\":[")
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("node witness present");
        let labels: Vec<usize> = nodes
            .split(',')
            .map(|s| s.parse().expect("witness labels are integers"))
            .collect();
        assert!(!labels.is_empty(), "{frame}");
        for label in labels {
            assert!(
                [3, 5, 7, 9].contains(&label),
                "witness label {label} is not a submitted node: {frame}"
            );
        }
    }

    #[test]
    fn cached_responses_are_byte_identical_under_relabeling() {
        // One 7-cycle in two different labelings: 0-1-2-...-6-0 and its
        // image under a rotation-plus-swap permutation.
        let n = 7;
        let perm = scramble(n);
        let edges_of = |label: &dyn Fn(usize) -> usize| {
            let pairs: Vec<String> = (0..n)
                .map(|i| format!("[{},{}]", label(i), label((i + 1) % n)))
                .collect();
            pairs.join(",")
        };
        let original = format!(
            "{{\"id\":\"x\",\"edges\":[{}],\"protocols\":[\"vc3\",\"port-one\"]}}\n",
            edges_of(&|i| i)
        );
        let relabeled = format!(
            "{{\"id\":\"x\",\"edges\":[{}],\"protocols\":[\"vc3\",\"port-one\"]}}\n",
            edges_of(&|i| perm[i].index())
        );

        // A fresh server solving the relabeled instance directly...
        let fresh = Server::new(quick_config());
        let fresh_lines = serve(&fresh, &relabeled);
        fresh.finish();

        // ...and a warmed server answering it from cache.
        let warmed = Server::new(quick_config());
        let first = serve(&warmed, &original);
        assert!(first[0].contains("\"ok\":true"), "{}", first[0]);
        let warmed_lines = serve(&warmed, &relabeled);
        assert!(warmed.stats().cache_hits >= 1, "second solve must hit");
        warmed.finish();

        assert_eq!(
            fresh_lines, warmed_lines,
            "a cache hit must be byte-identical to a fresh solve"
        );
    }

    #[test]
    fn oversized_frames_are_rejected_and_the_stream_recovers() {
        let config = ServeConfig {
            max_frame_bytes: 64,
            ..quick_config()
        };
        let server = Server::new(config);
        let long = format!("{{\"id\":1,\"edges\":[{}]}}\n", "[0,1],".repeat(100));
        let input = format!("{long}{{\"id\":2,\"op\":\"ping\"}}\n");
        let lines = serve(&server, &input);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"parse\"") && lines[0].contains("exceeds"));
        assert!(lines[1].contains("\"pong\":true"));
        server.finish();
    }

    #[test]
    fn zero_timeout_requests_get_a_timeout_frame() {
        let server = Server::new(quick_config());
        let lines = serve(
            &server,
            "{\"id\":1,\"spec\":\"cycle:32\",\"timeout_ms\":0}\n",
        );
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("\"kind\":\"timeout\""),
            "expired-in-queue jobs must answer with a timeout frame: {}",
            lines[0]
        );
        server.finish();
    }

    #[test]
    fn long_solves_are_cancelled_mid_run() {
        let server = Server::new(quick_config());
        // id-matching needs many rounds on a long identifier-ordered
        // cycle — far beyond the 25 ms budget — so the deadline fires
        // mid-solve and the cooperative token aborts the simulator.
        let lines = serve(
            &server,
            "{\"id\":1,\"spec\":\"cycle:50000\",\"protocols\":[\"id-matching\"],\"timeout_ms\":25}\n",
        );
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("\"kind\":\"timeout\"") && lines[0].contains("timed out"),
            "over-budget solves must answer with a timeout frame: {}",
            lines[0]
        );
        let stats = server.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.errors, 1);
        server.finish();
    }

    #[test]
    fn metrics_render_tracks_request_outcomes() {
        let server = Server::new(quick_config());
        let input = concat!("{\"id\":1,\"op\":\"ping\"}\n", "not json\n");
        let lines = serve(&server, input);
        assert_eq!(lines.len(), 2);
        let text = server.render_metrics();
        assert!(
            text.contains("# TYPE eds_serve_responses_total counter"),
            "{text}"
        );
        assert!(text.contains("eds_serve_frames_total 2"), "{text}");
        assert!(
            text.contains("eds_serve_responses_total{kind=\"ok\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("eds_serve_responses_total{kind=\"parse\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("eds_serve_request_latency_us_count 2"),
            "{text}"
        );
        assert!(text.contains("eds_serve_connections_total 1"), "{text}");
        server.finish();
    }

    #[test]
    fn shutdown_frame_drains_and_appends_a_reason_frame() {
        let server = Server::new(quick_config());
        let input = concat!(
            "{\"id\":1,\"spec\":\"cycle:5\",\"protocols\":[\"vc3\"]}\n",
            "{\"id\":2,\"op\":\"shutdown\"}\n",
            "{\"id\":3,\"spec\":\"cycle:6\",\"protocols\":[\"vc3\"]}\n",
        );
        let lines = serve(&server, input);
        assert!(server.is_shutting_down());
        assert_eq!(lines.len(), 4, "3 responses + the final notice: {lines:#?}");
        assert!(lines[0].contains("\"ok\":true"), "pre-shutdown solve runs");
        assert!(lines[1].contains("\"shutdown\":true"));
        assert!(
            lines[2].contains("\"kind\":\"shutdown\""),
            "post-shutdown solve refused"
        );
        assert!(lines[3].contains("connection closing"));
        server.finish();
    }

    #[test]
    fn malformed_edge_shapes_are_structured_errors() {
        let server = Server::new(quick_config());
        let input = concat!(
            "{\"id\":1,\"edges\":[[0]]}\n",
            "{\"id\":2,\"edges\":[[0,1,2]]}\n",
            "{\"id\":3,\"edges\":[[0,-1]]}\n",
            "{\"id\":4,\"edges\":[[0,1]],\"nodes\":1}\n",
            "{\"id\":5,\"edges\":\"nope\"}\n",
            "{\"id\":6}\n",
            "[1,2,3]\n",
            "{\"id\":8,\"edges\":[[0,1]],\"protocols\":[]}\n",
        );
        let lines = serve(&server, input);
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.contains("\"ok\":false"),
                "frame {i} must be an error: {line}"
            );
        }
        assert!(lines[3].contains("\"kind\":\"graph\""), "{}", lines[3]);
        server.finish();
    }
}
