//! Replays of one input through the program's public stage functions,
//! each call wrapped in a span. The serving workloads replay a request
//! after its response arrived (the server's internal stages are not
//! public); the sweep replays each spec of its session.

use eds_core::repair::RecoveryPolicy;
use eds_lp::LpBudget;
use eds_scenarios::{
    canonical_form, run_churn_with, BoundProvider, Bounds, BoundsMode, ExactBounds, ExecOptions,
    Family, LpBounds, MmBounds, PackedPolicy, PortPolicy, Protocol, Scenario, ScenarioSpec,
    Solution,
};
use pn_graph::{ports, SimpleGraph};

use crate::check::verify;
use crate::mix::{Input, Request};
use crate::trace::Tracer;

/// What one replayed instance was.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Request or scenario id (the spans' `req`).
    pub rid: u64,
    /// Family key (`cycle`, `upload`, ...).
    pub family: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// serve_warm: answered from the cache.
    pub hit: bool,
    /// Serving: observed response time, in nanoseconds.
    pub observed_ns: Option<u64>,
    /// Serving: canonical key length and whether the full (isomorphism
    /// merging) canonical form ran.
    pub key: Option<(usize, bool)>,
}

/// One protocol execution's counts.
#[derive(Clone, Debug)]
pub struct RunCount {
    /// Instance id.
    pub rid: u64,
    /// Rounds until the last node halted.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
}

/// Counts gathered next to the spans.
#[derive(Default, Debug)]
pub struct Ledger {
    /// Every replayed instance.
    pub instances: Vec<Instance>,
    /// Every replayed protocol execution.
    pub runs: Vec<RunCount>,
    /// Bound-provider calls: (provider, fell back to a lower bound).
    pub bound_calls: Vec<(&'static str, bool)>,
    /// Churn runs: (largest damage frontier, escalations).
    pub churn: Vec<(usize, usize)>,
    /// Witnesses the replay found infeasible (must stay empty).
    pub violations: Vec<String>,
}

/// The bound provider a request asked for.
pub fn provider(mode: Option<BoundsMode>) -> Box<dyn BoundProvider> {
    match mode.unwrap_or_default() {
        BoundsMode::Exact => Box::new(ExactBounds::default()),
        BoundsMode::Lp => Box::new(LpBounds::default()),
        BoundsMode::Mm => Box::new(MmBounds),
    }
}

/// Replays a serving request: graph build, port numbering, projection,
/// canonical form and validation; then, unless the server answered it
/// from the cache (`hit`), every requested protocol, its feasibility
/// check and the reference bounds.
pub fn serve_request(
    t: &Tracer,
    ledger: &mut Ledger,
    req: &Request,
    hit: bool,
    canonical_limit: usize,
    observed_ns: u64,
) {
    let rid = req.id;
    let root = t.open("replay", if hit { "hit" } else { "miss" }, rid, None);
    let at = Some(root);
    let (family, pg) = match &req.input {
        Input::Spec(family) => {
            let g = t.time("pn-graph.build", family.key(), rid, at, || {
                family.simple(req.seed).expect("generated specs are valid")
            });
            let pg = t.time("pn-graph.ports", "canonical", rid, at, || {
                PortPolicy::Canonical
                    .apply(&g.0, req.seed)
                    .expect("simple graphs number")
            });
            // The spec path projects once while building the scenario.
            t.time("pn-graph.validate", "to_simple", rid, at, || {
                pg.0.to_simple()
            })
            .0
            .expect("generated specs project");
            (family.key(), pg.0)
        }
        Input::Edges { nodes, edges } => {
            let g = t.time("pn-graph.build", "upload", rid, at, || {
                let mut g = SimpleGraph::new(*nodes);
                for &(u, v) in edges {
                    g.add_edge_ids(u as usize, v as usize)
                        .expect("uploads are simple");
                }
                g
            });
            let pg = t.time("pn-graph.ports", "canonical", rid, at, || {
                ports::canonical_ports(&g.0).expect("simple graphs number")
            });
            ("upload", pg.0)
        }
    };
    let full = pg.node_count() + pg.port_count() <= canonical_limit;
    let detail = if full { "full" } else { "identity" };
    let (cf, _) = t.time("canonical.form", detail, rid, at, || {
        canonical_form(&pg, canonical_limit)
    });
    t.time("pn-graph.validate", "validate", rid, at, || {
        cf.graph.validate()
    })
    .0
    .expect("the server accepted this graph");
    let (simple, _) = t.time("pn-graph.validate", "to_simple", rid, at, || {
        cf.graph.to_simple()
    });
    let simple = simple.expect("the server accepted this graph");
    ledger.instances.push(Instance {
        rid,
        family,
        nodes: simple.node_count(),
        edges: simple.edge_count(),
        hit,
        observed_ns: Some(observed_ns),
        key: Some((cf.key.len(), full)),
    });
    if !hit {
        let name = format!("replay-{rid}");
        let scenario = Scenario {
            spec: ScenarioSpec::new(Family::External { name }, req.seed, PortPolicy::AsGiven),
            graph: cf.graph,
            simple,
        };
        let bounds = provider(req.bounds);
        solve(
            t,
            ledger,
            &scenario,
            &req.requested(),
            bounds.as_ref(),
            rid,
            at,
        );
    }
    t.close(root);
}

/// Runs `protocols` on a built scenario as a session does: execute,
/// verify, then one bound query per objective. Returns the time spent.
fn solve(
    t: &Tracer,
    ledger: &mut Ledger,
    scenario: &Scenario,
    protocols: &[Protocol],
    bounds: &dyn BoundProvider,
    rid: u64,
    at: Option<usize>,
) -> u64 {
    let exec = scenario.spec.exec.unwrap_or_default();
    let mut spent = 0;
    let (mut edge_objective, mut vc_objective) = (false, false);
    for &p in protocols.iter().filter(|p| p.applicable(scenario)) {
        let (run, ns) = t.time("core.execute", p.name(), rid, at, || {
            p.execute_with(scenario, &exec)
        });
        spent += ns;
        let run = run.expect("applicable protocols run");
        ledger.runs.push(RunCount {
            rid,
            rounds: run.rounds,
            messages: run.messages,
        });
        let (verdict, ns) = t.time("verify.check", p.name(), rid, at, || {
            verify(p, &scenario.simple, &run.solution)
        });
        spent += ns;
        if let Err(e) = verdict {
            ledger
                .violations
                .push(format!("{} on {rid}: {e}", p.name()));
        }
        match run.solution {
            Solution::Nodes(_) => vc_objective = true,
            Solution::Edges(_) => edge_objective = true,
        }
    }
    spent
        + query_bounds(
            t,
            ledger,
            scenario,
            bounds,
            edge_objective,
            vc_objective,
            rid,
            at,
        )
}

#[allow(clippy::too_many_arguments)]
fn query_bounds(
    t: &Tracer,
    ledger: &mut Ledger,
    scenario: &Scenario,
    bounds: &dyn BoundProvider,
    edge_objective: bool,
    vc_objective: bool,
    rid: u64,
    at: Option<usize>,
) -> u64 {
    let mut spent = 0;
    let name = bounds.name();
    // Without an exact optimum a provider answers with the folklore
    // matching bound, except LP bounds within their budget, which are
    // certified LP duals.
    let certified = name == "lp" && scenario.simple.edge_count() <= LpBudget::default().max_edges;
    let fallback = |b: Bounds| b.optimum.is_none() && !certified;
    if edge_objective {
        let (b, ns) = t.time("bounds.eds", name, rid, at, || bounds.eds_bounds(scenario));
        ledger.bound_calls.push((name, fallback(b)));
        spent += ns;
    }
    if vc_objective {
        let (b, ns) = t.time("bounds.vc", name, rid, at, || bounds.vc_bounds(scenario));
        ledger.bound_calls.push((name, fallback(b)));
        spent += ns;
    }
    spent
}

/// Replays one sweep spec the way a session measures it: build, port
/// policy and projection (or the streamed construction), then every
/// protocol — through the churn runner for dynamic specs — and the
/// bound queries. Returns the time spent (the scenario's share of the
/// session).
pub fn sweep_spec(
    t: &Tracer,
    ledger: &mut Ledger,
    spec: &ScenarioSpec,
    bounds: &dyn BoundProvider,
    rid: u64,
) -> u64 {
    let root = t.open("replay", &spec.name(), rid, None);
    let at = Some(root);
    let mut spent = 0;
    let scenario = match &spec.family {
        Family::Churn { .. } => {
            let (sc, ns) = t.time("pn-graph.build", "streamed", rid, at, || spec.build());
            spent += ns;
            sc.expect("sweep specs build")
        }
        family => {
            let (g, ns) = t.time("pn-graph.build", family.key(), rid, at, || {
                family.simple(spec.seed)
            });
            spent += ns;
            let g = g.expect("sweep specs build");
            let (pg, ns) = t.time("pn-graph.ports", spec.policy.name(), rid, at, || {
                spec.policy.apply(&g, spec.seed)
            });
            spent += ns;
            let pg = pg.expect("sweep specs number");
            let (simple, ns) = t.time("pn-graph.validate", "to_simple", rid, at, || pg.to_simple());
            spent += ns;
            Scenario {
                spec: spec.clone(),
                graph: pg,
                simple: simple.expect("sweep specs project"),
            }
        }
    };
    ledger.instances.push(Instance {
        rid,
        family: spec.family.key(),
        nodes: scenario.simple.node_count(),
        edges: scenario.simple.edge_count(),
        hit: false,
        observed_ns: None,
        key: None,
    });
    if matches!(spec.family, Family::Churn { .. }) {
        let exec = spec.exec.unwrap_or_default();
        let policy = RecoveryPolicy::default();
        let mut last = None;
        for p in Protocol::ALL
            .into_iter()
            .filter(|p| p.applicable(&scenario))
        {
            let (run, ns) = t.time("churn.run", p.name(), rid, at, || {
                run_churn_with(&scenario, p, &exec, &policy, None)
            });
            spent += ns;
            let run = run.expect("churn specs run");
            if let Some(v) = &run.violation {
                ledger
                    .violations
                    .push(format!("{} churn on {rid}: {v}", p.name()));
            }
            ledger
                .churn
                .push((run.stats.frontier_nodes, run.stats.escalations));
            ledger.runs.push(RunCount {
                rid,
                rounds: run.rounds,
                messages: run.messages,
            });
            last = Some((run.final_graph, run.final_simple));
        }
        if let Some((graph, simple)) = last {
            let fs = Scenario {
                spec: spec.clone(),
                graph,
                simple,
            };
            spent += query_bounds(t, ledger, &fs, bounds, true, true, rid, at);
        }
    } else {
        spent += solve(t, ledger, &scenario, &Protocol::ALL, bounds, rid, at);
    }
    t.close(root);
    spent
}

/// `PackedPolicy::Auto` against `Never` on one scenario: the summed
/// execute time of every applicable protocol under each policy, each
/// the median of `reps` alternating runs. Returns `auto / never`.
pub fn auto_over_never(t: &Tracer, scenario: &Scenario, reps: usize) -> f64 {
    let mut sums = [0u64; 2];
    for p in Protocol::ALL.into_iter().filter(|p| p.applicable(scenario)) {
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..reps {
            for (slot, (policy, name)) in [
                (PackedPolicy::Auto, "pn-runtime.auto"),
                (PackedPolicy::Never, "pn-runtime.never"),
            ]
            .into_iter()
            .enumerate()
            {
                let exec = ExecOptions {
                    packed: policy,
                    ..ExecOptions::default()
                };
                let (run, ns) = t.time(name, p.name(), 0, None, || p.execute_with(scenario, &exec));
                run.expect("applicable protocols run");
                times[slot].push(ns);
            }
        }
        for (slot, mut ts) in times.into_iter().enumerate() {
            ts.sort_unstable();
            sums[slot] += ts[ts.len() / 2];
        }
    }
    sums[0] as f64 / sums[1].max(1) as f64
}
