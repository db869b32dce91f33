//! Per-layer metrics of the traced run, computed from the spans' self
//! times and the replay ledger.

use std::collections::HashMap;

use eds_scenarios::Protocol;

use crate::replay::Ledger;
use crate::stats::{mean, median, quantile};
use crate::trace::{self_times, Span};
use crate::Metric;

/// Inputs the spans cannot give: server counters, session and sink
/// figures, load-generator lag and same-run engine ratios. Layers a
/// workload does not run keep their zero default.
#[derive(Clone, Debug, Default)]
pub struct Extra {
    /// `Server::stats` after the load phases: hits / (hits + misses).
    pub cache_hit_frac: f64,
    /// `Server::stats` cache entries.
    pub cache_entries: f64,
    /// `Server::stats` timeouts.
    pub timeouts: f64,
    /// Mean of the server's `eds_serve_batch_jobs` histogram.
    pub batch_jobs_mean: f64,
    /// p95 of how late the open-loop generator sent, in ms.
    pub lag_ms_p95: f64,
    /// Summed per-scenario time over wall time × shards.
    pub parallel_efficiency: f64,
    /// Time in the sink's writes during one session run, in ms.
    pub sink_write_ms: f64,
    /// Bytes the sink wrote during one session run.
    pub sink_bytes: f64,
    /// `PackedPolicy::Auto` over `Never` on the workload's reference
    /// scenario.
    pub auto_over_never: f64,
    /// Tracer bookkeeping over the traced run's wall time.
    pub overhead_frac: f64,
}

/// Every per-layer metric: name, unit, better direction.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("pn-graph.build_ms", "ms", "lower"),
    ("pn-graph.build_ns_per_edge", "ns", "lower"),
    ("pn-graph.ports_ms", "ms", "lower"),
    ("pn-graph.ports_ns_per_edge", "ns", "lower"),
    ("pn-graph.validate_ms", "ms", "lower"),
    ("pn-graph.ports_growth_10x", "x", "lower"),
    ("pn-graph.build_growth_10x", "x", "lower"),
    ("canonical.full_ms_p50", "ms", "lower"),
    ("canonical.identity_ms_p50", "ms", "lower"),
    ("canonical.self_frac_of_hit", "fraction", "lower"),
    ("canonical.key_bytes_mean", "bytes", "lower"),
    ("serve.cache_hit_frac", "fraction", "higher"),
    ("serve.cache_entries", "count", "higher"),
    ("serve.timeouts", "count", "lower"),
    ("serve.wait_ms_p50", "ms", "lower"),
    ("serve.wait_ms_p95", "ms", "lower"),
    ("serve.batch_jobs_mean", "count", "higher"),
    ("pn-runtime.rounds", "count", "lower"),
    ("pn-runtime.messages", "count", "lower"),
    ("pn-runtime.msgs_per_s", "1/s", "higher"),
    ("pn-runtime.growth_10x", "x", "lower"),
    ("pn-runtime.auto_over_never", "x", "lower"),
    ("core.port-one.ms", "ms", "lower"),
    ("core.regular-odd.ms", "ms", "lower"),
    ("core.bounded-degree.ms", "ms", "lower"),
    ("core.vertex-cover.ms", "ms", "lower"),
    ("core.id-matching.ms", "ms", "lower"),
    ("core.rand-matching.ms", "ms", "lower"),
    ("verify.ms", "ms", "lower"),
    ("verify.ns_per_edge", "ns", "lower"),
    ("bounds.lp_ms", "ms", "lower"),
    ("bounds.exact_ms", "ms", "lower"),
    ("bounds.mm_ms", "ms", "lower"),
    ("bounds.fallback_frac", "fraction", "lower"),
    ("session.parallel_efficiency", "fraction", "higher"),
    ("sink.write_ms", "ms", "lower"),
    ("sink.bytes", "bytes", "lower"),
    ("churn.recover_ms", "ms", "lower"),
    ("churn.frontier_nodes", "count", "lower"),
    ("churn.escalations", "count", "lower"),
    ("loadgen.lag_ms_p95", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
];

const MS: f64 = 1e6;

/// Computes every metric of [`PER_LAYER`].
pub fn compute(spans: &[Span], ledger: &Ledger, extra: &Extra) -> Vec<Metric> {
    let selfs = self_times(spans);
    // Self time per (instance, span name), over the replays only.
    let mut per: HashMap<(u64, &str), u64> = HashMap::new();
    // Self times per (span name, detail).
    let mut by_detail: HashMap<(&str, &str), Vec<u64>> = HashMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        *per.entry((s.req, s.name)).or_default() += own;
        by_detail.entry((s.name, &s.detail)).or_default().push(own);
    }
    let stage = |rid: u64, name: &str| per.get(&(rid, name)).copied();
    let insts = &ledger.instances;

    // Mean per instance that ran the stage, and nanoseconds per edge.
    let per_instance = |name: &str| -> (f64, f64) {
        let (mut total, mut edges, mut count) = (0u64, 0usize, 0usize);
        for i in insts {
            if let Some(ns) = stage(i.rid, name) {
                total += ns;
                edges += i.edges;
                count += 1;
            }
        }
        (
            total as f64 / count.max(1) as f64 / MS,
            total as f64 / edges.max(1) as f64,
        )
    };
    let (build_ms, build_ns_edge) = per_instance("pn-graph.build");
    let (ports_ms, ports_ns_edge) = per_instance("pn-graph.ports");
    let (validate_ms, _) = per_instance("pn-graph.validate");
    let (verify_ms, _) = per_instance("verify.check");

    // t(10n) / t(n) on the workload's cycle pair.
    let growth = |name: &str| -> f64 {
        let cycles: Vec<_> = insts.iter().filter(|i| i.family == "cycle").collect();
        for small in &cycles {
            let at = |n: usize| -> Vec<f64> {
                cycles
                    .iter()
                    .filter(|i| i.nodes == n)
                    .filter_map(|i| stage(i.rid, name))
                    .map(|ns| ns as f64)
                    .collect()
            };
            let (lo, hi) = (at(small.nodes), at(small.nodes * 10));
            if !lo.is_empty() && !hi.is_empty() {
                return median(&hi) / median(&lo).max(1.0);
            }
        }
        0.0
    };

    let median_of = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    let canonical = |full: bool| {
        median_of(
            insts
                .iter()
                .filter(|i| i.key.is_some_and(|(_, f)| f == full))
                .filter_map(|i| stage(i.rid, "canonical.form"))
                .map(|ns| ns as f64 / MS)
                .collect(),
        )
    };
    let self_frac_of_hit = median_of(
        insts
            .iter()
            .filter(|i| i.hit)
            .filter_map(|i| Some(stage(i.rid, "canonical.form")? as f64 / i.observed_ns? as f64))
            .collect(),
    );
    let keys: Vec<f64> = insts
        .iter()
        .filter_map(|i| i.key)
        .map(|(k, _)| k as f64)
        .collect();

    // serve.wait: the observed latency minus every replayed stage.
    let waits: Vec<f64> = insts
        .iter()
        .filter_map(|i| {
            let observed = i.observed_ns? as f64;
            let stages: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.req == i.rid && s.parent.is_some())
                .map(|(_, &own)| own)
                .sum();
            Some((observed - stages as f64).max(0.0) / MS)
        })
        .collect();

    let mean_ms = |name: &str, detail: &str| {
        by_detail.get(&(name, detail)).map_or(0.0, |v| {
            mean(&v.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / MS
        })
    };
    let bound_ms = |provider: &str| {
        let calls: Vec<f64> = ["bounds.eds", "bounds.vc"]
            .iter()
            .flat_map(|n| by_detail.get(&(*n, provider)).into_iter().flatten())
            .map(|&ns| ns as f64 / MS)
            .collect();
        if calls.is_empty() {
            0.0
        } else {
            mean(&calls)
        }
    };
    let sum_named = |name: &str| -> u64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &own)| own)
            .sum()
    };
    let messages: usize = ledger.runs.iter().map(|r| r.messages).sum();
    let engine_ns = sum_named("core.execute") + sum_named("churn.run");
    let verify_edges: usize = spans
        .iter()
        .filter(|s| s.name == "verify.check")
        .filter_map(|s| insts.iter().find(|i| i.rid == s.req).map(|i| i.edges))
        .sum();
    let churn_ms = by_detail
        .iter()
        .filter(|((name, _), _)| *name == "churn.run")
        .flat_map(|(_, v)| v.iter().map(|&ns| ns as f64 / MS))
        .collect::<Vec<_>>();
    let fallbacks = ledger.bound_calls.iter().filter(|(_, f)| *f).count();

    let mut values: Vec<(&str, f64)> = vec![
        ("pn-graph.build_ms", build_ms),
        ("pn-graph.build_ns_per_edge", build_ns_edge),
        ("pn-graph.ports_ms", ports_ms),
        ("pn-graph.ports_ns_per_edge", ports_ns_edge),
        ("pn-graph.validate_ms", validate_ms),
        ("pn-graph.ports_growth_10x", growth("pn-graph.ports")),
        ("pn-graph.build_growth_10x", growth("pn-graph.build")),
        ("canonical.full_ms_p50", canonical(true)),
        ("canonical.identity_ms_p50", canonical(false)),
        ("canonical.self_frac_of_hit", self_frac_of_hit),
        (
            "canonical.key_bytes_mean",
            if keys.is_empty() { 0.0 } else { mean(&keys) },
        ),
        ("serve.cache_hit_frac", extra.cache_hit_frac),
        ("serve.cache_entries", extra.cache_entries),
        ("serve.timeouts", extra.timeouts),
        (
            "serve.wait_ms_p50",
            if waits.is_empty() {
                0.0
            } else {
                quantile(&waits, 0.5)
            },
        ),
        (
            "serve.wait_ms_p95",
            if waits.is_empty() {
                0.0
            } else {
                quantile(&waits, 0.95)
            },
        ),
        ("serve.batch_jobs_mean", extra.batch_jobs_mean),
        (
            "pn-runtime.rounds",
            ledger.runs.iter().map(|r| r.rounds).sum::<usize>() as f64,
        ),
        ("pn-runtime.messages", messages as f64),
        (
            "pn-runtime.msgs_per_s",
            messages as f64 / (engine_ns.max(1) as f64 / 1e9),
        ),
        ("pn-runtime.growth_10x", growth("core.execute")),
        ("pn-runtime.auto_over_never", extra.auto_over_never),
    ];
    for p in Protocol::ALL {
        values.push((core_name(p), mean_ms("core.execute", p.name())));
    }
    values.extend([
        ("verify.ms", verify_ms),
        (
            "verify.ns_per_edge",
            sum_named("verify.check") as f64 / verify_edges.max(1) as f64,
        ),
        ("bounds.lp_ms", bound_ms("lp")),
        ("bounds.exact_ms", bound_ms("exact")),
        ("bounds.mm_ms", bound_ms("mm")),
        (
            "bounds.fallback_frac",
            fallbacks as f64 / ledger.bound_calls.len().max(1) as f64,
        ),
        ("session.parallel_efficiency", extra.parallel_efficiency),
        ("sink.write_ms", extra.sink_write_ms),
        ("sink.bytes", extra.sink_bytes),
        (
            "churn.recover_ms",
            if churn_ms.is_empty() {
                0.0
            } else {
                mean(&churn_ms)
            },
        ),
        (
            "churn.frontier_nodes",
            ledger.churn.iter().map(|c| c.0).max().unwrap_or(0) as f64,
        ),
        (
            "churn.escalations",
            ledger.churn.iter().map(|c| c.1).sum::<usize>() as f64,
        ),
        ("loadgen.lag_ms_p95", extra.lag_ms_p95),
        ("trace.overhead_frac", extra.overhead_frac),
    ]);
    let unit = |name: &str| {
        PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, u, _)| *u)
            .expect("every computed metric is declared")
    };
    values
        .into_iter()
        .map(|(name, value)| Metric {
            name: name.to_owned(),
            value,
            unit: unit(name),
        })
        .collect()
}

fn core_name(p: Protocol) -> &'static str {
    match p {
        Protocol::PortOne => "core.port-one.ms",
        Protocol::RegularOdd => "core.regular-odd.ms",
        Protocol::BoundedDegree => "core.bounded-degree.ms",
        Protocol::VertexCover => "core.vertex-cover.ms",
        Protocol::IdMatching => "core.id-matching.ms",
        Protocol::RandMatching => "core.rand-matching.ms",
    }
}
