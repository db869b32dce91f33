//! The dynamic-scenario runner: deterministic fault injection, epoch
//! re-stabilisation, and incremental witness repair.
//!
//! A [`crate::Family::Churn`] workload evolves its base topology through
//! a seeded [`EventSchedule`] (edge inserts/deletes, crashes, joins,
//! adversarial state corruption). Between bursts the protocol re-runs to
//! quiescence on the [`pn_runtime::ChurnSimulator`], and in parallel a
//! cheap *witness* — the maintained matching / dominating set / cover —
//! is repaired locally with the [`eds_core::repair`] rules instead of
//! being recomputed. Feasibility is re-checked with `eds-verify` at
//! every quiescence point; corruption that garbles a quiescent output
//! triggers one clean recovery epoch, whose rounds are charged to
//! [`ChurnStats::recovery_rounds`].
//!
//! Everything is deterministic: the schedule is materialised from the
//! scenario seed with the same SplitMix64 stream the runtime exposes
//! ([`pn_runtime::entropy_stream`]), and epochs are bit-identical across
//! simulator thread counts, so churn records are reproducible bit for
//! bit — the property the `churn_sweep` smoke gate asserts.

use std::collections::BTreeSet;

use eds_baselines::distributed_mm::IdMatchingNode;
use eds_baselines::randomized_mm::{randomized_matching_phases, RandMatchingNode};
use eds_core::distributed::BoundedDegreeNode;
use eds_core::port_one::PortOneNode;
use eds_core::repair::{
    self, edge_key, is_cover_witness, is_dominating_witness, is_matching_witness,
    is_maximal_witness, khop_ball, splice_edge_witness, splice_node_witness, AdjacencyView,
    EdgeWitness, NodeWitness, RecoveryPolicy, RecoveryTier, RepairOutcome,
};
use eds_core::vertex_cover::VertexCoverNode;
use eds_verify::{check_edge_dominating_set, check_maximal_matching};
use pn_graph::ports::canonical_ports;
use pn_graph::{DynamicTopology, GraphError, NodeId, PortNumberedGraph, SimpleGraph};
use pn_runtime::{
    edge_set_from_outputs, entropy_stream, CancelToken, ChurnError, ChurnEvent, ChurnSimulator,
    EventSchedule, NodeAlgorithm, PortSet, RuntimeError, Simulator,
};

use crate::metrics::repair_metrics;
use crate::protocol::{node_identifiers, node_seeds, ExecOptions, Protocol, Solution, SweepError};
use crate::scenario::{Family, Scenario};
use crate::sweep::ChurnStats;

/// Domain separator for the event-materialisation entropy stream, so
/// schedules never correlate with the port shuffles or node seeds that
/// share the scenario seed.
const CHURN_SALT: u64 = 0x6368_7572_6e5f_6576; // "churn_ev"

/// Domain separator for the sampled-epoch audit stream — audit decisions
/// never correlate with the event draws above.
const AUDIT_SALT: u64 = 0x6175_6469_745f_6570; // "audit_ep"

/// How many candidate draws an event gets before it is skipped (the
/// topology may have no room left, e.g. no insertable pair under the
/// degree cap).
const EVENT_TRIES: usize = 16;

/// A deterministic fault-injection plan: `bursts` quiescence-separated
/// event bursts, each with up to `edge_events` topology events and
/// `corruptions` state corruptions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Number of event bursts (each followed by re-stabilisation).
    pub bursts: usize,
    /// Topology events (insert/delete/crash/join) attempted per burst.
    pub edge_events: usize,
    /// State corruptions injected per burst.
    pub corruptions: usize,
}

impl ChurnPlan {
    /// Creates a plan.
    pub fn new(bursts: usize, edge_events: usize, corruptions: usize) -> Self {
        ChurnPlan {
            bursts,
            edge_events,
            corruptions,
        }
    }

    /// The label fragment used in scenario names (`b3e2c1`).
    pub fn tag(&self) -> String {
        format!("b{}e{}c{}", self.bursts, self.edge_events, self.corruptions)
    }
}

/// A materialised schedule: the concrete events, the per-burst damage
/// frontiers, and the topology bookkeeping the factories need.
pub struct MaterializedChurn {
    /// The event bursts, ready for [`ChurnSimulator::apply_burst`].
    pub schedule: EventSchedule,
    /// Per burst: the nodes whose neighbourhood an event touched
    /// (endpoints of inserted/deleted edges, crashed nodes plus their
    /// ex-neighbours, joined nodes plus their attachment targets).
    pub touched: Vec<BTreeSet<usize>>,
    /// Per burst: the corrupted nodes.
    pub corrupted: Vec<Vec<usize>>,
    /// The final topology after every burst (protocol-independent).
    pub final_graph: PortNumberedGraph,
    /// The largest degree any node reaches at any point of the schedule;
    /// the `Δ`-parametrised protocols are instantiated with (at least)
    /// this claim.
    pub degree_cap: usize,
    /// The node count after all joins — identifier and seed tables are
    /// sized to this.
    pub max_nodes: usize,
}

/// Materialises the plan into concrete events against the evolving
/// topology, deterministically from `seed`. Events that find no valid
/// target within a bounded number of draws are skipped (e.g. no
/// insertable pair under the degree cap), so the realised
/// [`EventSchedule::event_count`] may be below the plan's nominal count.
///
/// The schedule is drawn against a [`DynamicTopology`] that borrows
/// `base` instead of copying it, so million-node bases materialise in
/// memory proportional to the events, not the graph.
///
/// # Errors
///
/// [`GraphError::NotSimple`] for a base with loops or parallel links;
/// otherwise propagates topology errors, none of which occur for simple
/// bases.
pub fn materialize(
    base: &PortNumberedGraph,
    plan: &ChurnPlan,
    seed: u64,
) -> Result<MaterializedChurn, GraphError> {
    let mut topo = DynamicTopology::new(base)?;
    let mut crashed = vec![false; topo.node_count()];
    let cap = topo.max_degree().max(2);
    let base_edges = topo.edge_count();
    let mut next = entropy_stream(seed ^ CHURN_SALT);
    let mut schedule = EventSchedule::new();
    let mut touched_per_burst = Vec::with_capacity(plan.bursts);
    let mut corrupted_per_burst = Vec::with_capacity(plan.bursts);

    for _ in 0..plan.bursts {
        let mut burst = Vec::new();
        let mut touched = BTreeSet::new();
        let mut corrupted = Vec::new();
        for _ in 0..plan.edge_events {
            for _ in 0..EVENT_TRIES {
                let n = topo.node_count() as u64;
                match next() % 8 {
                    // Inserts get the largest share so the graph does not
                    // drain to edgeless under long schedules.
                    0..=2 => {
                        let u = NodeId::new((next() % n) as usize);
                        let v = NodeId::new((next() % n) as usize);
                        if u != v
                            && !topo.has_edge(u, v)
                            && topo.degree(u) < cap
                            && topo.degree(v) < cap
                        {
                            topo.insert_edge(u, v)?;
                            crashed[u.index()] = false;
                            crashed[v.index()] = false;
                            touched.insert(u.index());
                            touched.insert(v.index());
                            burst.push(ChurnEvent::InsertEdge { u, v });
                            break;
                        }
                    }
                    3..=4 => {
                        let u = NodeId::new((next() % n) as usize);
                        let d = topo.degree(u);
                        if d > 0 && topo.edge_count() > 1 {
                            let v = topo.nth_neighbor(u, (next() % d as u64) as usize);
                            topo.delete_edge(u, v)?;
                            touched.insert(u.index());
                            touched.insert(v.index());
                            burst.push(ChurnEvent::DeleteEdge { u, v });
                            break;
                        }
                    }
                    5 => {
                        let v = NodeId::new((next() % n) as usize);
                        // Crash only while the graph can afford it.
                        if topo.degree(v) > 0 && topo.edge_count() > base_edges / 2 {
                            let gone = topo.isolate(v)?;
                            crashed[v.index()] = true;
                            touched.insert(v.index());
                            touched.extend(gone.iter().map(|u| u.index()));
                            burst.push(ChurnEvent::Crash { v });
                            break;
                        }
                    }
                    _ => {
                        // Join: a fresh node attaching to 1–2 targets
                        // with headroom under the cap.
                        let want = 1 + (next() % 2) as usize;
                        let mut attach = Vec::new();
                        for _ in 0..EVENT_TRIES {
                            let t = NodeId::new((next() % n) as usize);
                            if topo.degree(t) < cap && !crashed[t.index()] && !attach.contains(&t) {
                                attach.push(t);
                                if attach.len() == want {
                                    break;
                                }
                            }
                        }
                        if !attach.is_empty() {
                            let fresh = topo.add_node();
                            crashed.push(false);
                            for &t in &attach {
                                topo.insert_edge(fresh, t)?;
                            }
                            touched.insert(fresh.index());
                            touched.extend(attach.iter().map(|u| u.index()));
                            burst.push(ChurnEvent::Join { attach });
                            break;
                        }
                    }
                }
            }
        }
        for _ in 0..plan.corruptions {
            let v = NodeId::new((next() % topo.node_count() as u64) as usize);
            let entropy = next();
            touched.insert(v.index());
            corrupted.push(v.index());
            burst.push(ChurnEvent::Corrupt { v, entropy });
        }
        schedule.push_burst(burst);
        touched_per_burst.push(touched);
        corrupted_per_burst.push(corrupted);
    }

    Ok(MaterializedChurn {
        final_graph: topo.freeze()?,
        degree_cap: cap,
        max_nodes: topo.node_count(),
        schedule,
        touched: touched_per_burst,
        corrupted: corrupted_per_burst,
    })
}

/// The witness family a protocol's output maintains under churn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WitnessKind {
    /// A maximal matching (identifier/randomised baselines).
    Matching,
    /// An edge dominating set (port-one, `A(Δ)`).
    Dominating,
    /// A vertex cover.
    Cover,
}

impl WitnessKind {
    fn of(protocol: Protocol) -> WitnessKind {
        match protocol {
            Protocol::IdMatching | Protocol::RandMatching => WitnessKind::Matching,
            Protocol::VertexCover => WitnessKind::Cover,
            _ => WitnessKind::Dominating,
        }
    }
}

/// The maintained witness: node-pair edges or a node set.
enum Witness {
    Edges(EdgeWitness),
    Cover(NodeWitness),
}

impl Witness {
    fn from_solution(g: &PortNumberedGraph, solution: &Solution) -> Witness {
        match solution {
            Solution::Edges(edges) => Witness::Edges(
                edges
                    .iter()
                    .map(|&e| {
                        let (u, v) = g.edge(e).nodes();
                        edge_key(u.index(), v.index())
                    })
                    .collect(),
            ),
            Solution::Nodes(cover) => Witness::Cover(cover.iter().map(|v| v.index()).collect()),
        }
    }

    /// Corruption wipes the witness entries stored at `v`; every freed
    /// partner joins the repair frontier per the repair contract.
    fn scramble_at(&mut self, v: usize, touched: &mut BTreeSet<usize>) {
        touched.insert(v);
        match self {
            Witness::Edges(w) => {
                w.retain(|&(a, b)| {
                    let hit = a == v || b == v;
                    if hit {
                        touched.insert(a);
                        touched.insert(b);
                    }
                    !hit
                });
            }
            Witness::Cover(c) => {
                c.remove(&v);
            }
        }
    }

    fn repair<V: AdjacencyView + ?Sized>(
        &mut self,
        view: &V,
        touched: &BTreeSet<usize>,
        kind: WitnessKind,
    ) -> RepairOutcome {
        match (self, kind) {
            (Witness::Edges(w), WitnessKind::Matching) => {
                repair::repair_maximal_matching(view, w, touched)
            }
            (Witness::Edges(w), WitnessKind::Dominating) => {
                repair::repair_edge_dominating(view, w, touched)
            }
            (Witness::Cover(c), _) => repair::repair_vertex_cover(view, c, touched),
            (Witness::Edges(_), WitnessKind::Cover) => unreachable!("edge witness for cover"),
        }
    }

    fn feasible<V: AdjacencyView + ?Sized>(&self, view: &V, kind: WitnessKind) -> bool {
        match (self, kind) {
            (Witness::Edges(w), WitnessKind::Matching) => {
                is_matching_witness(view, w) && is_maximal_witness(view, w)
            }
            (Witness::Edges(w), WitnessKind::Dominating) => is_dominating_witness(view, w),
            (Witness::Cover(c), _) => is_cover_witness(view, c),
            (Witness::Edges(_), WitnessKind::Cover) => false,
        }
    }

    /// Projects the witness back onto a concrete graph as a [`Solution`]
    /// — the final artifact of a repair-first run whose last burst never
    /// re-stabilised. Edge pairs are resolved to [`pn_graph::EdgeId`]s by
    /// one pass over the graph's edge list.
    fn to_solution(&self, g: &PortNumberedGraph) -> Solution {
        match self {
            Witness::Edges(w) => Solution::Edges(
                g.edges()
                    .filter(|(_, shape)| {
                        let (u, v) = shape.nodes();
                        w.contains(&edge_key(u.index(), v.index()))
                    })
                    .map(|(e, _)| e)
                    .collect(),
            ),
            Witness::Cover(c) => Solution::Nodes(c.iter().map(|&v| NodeId::new(v)).collect()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Witness::Edges(w) => w.len(),
            Witness::Cover(c) => c.len(),
        }
    }
}

/// `eds-verify` feasibility of a quiescent output on the epoch's graph.
fn solution_violation(simple: &SimpleGraph, kind: WitnessKind, s: &Solution) -> Option<String> {
    match (kind, s) {
        (WitnessKind::Matching, Solution::Edges(edges)) => check_maximal_matching(simple, edges)
            .err()
            .map(|v| v.to_string()),
        (WitnessKind::Dominating, Solution::Edges(edges)) => {
            check_edge_dominating_set(simple, edges)
                .err()
                .map(|v| v.to_string())
        }
        (WitnessKind::Cover, Solution::Nodes(cover)) => {
            let mut in_cover = vec![false; simple.node_count()];
            for &v in cover {
                in_cover[v.index()] = true;
            }
            simple
                .edges()
                .find(|&(_, u, v)| !in_cover[u.index()] && !in_cover[v.index()])
                .map(|(e, u, v)| format!("edge {e} = {{{u}, {v}}} has no endpoint in the cover"))
        }
        _ => Some("solution shape does not match the protocol's witness kind".to_owned()),
    }
}

/// The outcome of one protocol surviving one churn schedule.
pub struct ChurnRun {
    /// The final quiescent solution (on [`ChurnRun::final_graph`]).
    pub solution: Solution,
    /// Rounds across every epoch, recovery epochs included.
    pub rounds: usize,
    /// Messages across every epoch.
    pub messages: usize,
    /// Fault-injection accounting for the record.
    pub stats: ChurnStats,
    /// First feasibility violation that survived repair and recovery;
    /// `None` means every quiescence point verified clean.
    pub violation: Option<String>,
    /// The topology after the last burst.
    pub final_graph: PortNumberedGraph,
    /// Its simple projection.
    pub final_simple: SimpleGraph,
    /// The `Δ` claim the parametrised protocols actually ran with.
    pub claimed_delta: usize,
    /// Size of the incrementally maintained witness after the last
    /// repair (compare against `solution.len()` from re-stabilisation).
    pub witness_size: usize,
}

fn churn_err(e: ChurnError) -> SweepError {
    match e {
        ChurnError::Graph(e) => SweepError::Graph(e),
        ChurnError::Runtime(e) => SweepError::Runtime(e),
    }
}

/// Runs `protocol` through the scenario's churn schedule with the
/// default [`RecoveryPolicy`] and no cancellation — see
/// [`run_churn_with`].
///
/// # Errors
///
/// Returns [`SweepError`] for non-churn scenarios, inapplicable
/// protocols, and propagated simulator errors.
///
/// # Panics
///
/// Does not panic on any [`crate::Registry::churn`] workload.
pub fn run_churn(
    scenario: &Scenario,
    protocol: Protocol,
    exec: &ExecOptions,
) -> Result<ChurnRun, SweepError> {
    run_churn_with(scenario, protocol, exec, &RecoveryPolicy::default(), None)
}

/// Runs `protocol` through the scenario's churn schedule under an
/// explicit recovery policy: initial stabilisation, then per burst the
/// escalation ladder — (1) local witness repair when the damage frontier
/// is small, (2) a protocol re-run confined to the k-hop ball around the
/// frontier when repair leaves residual infeasibility, (3) full
/// re-stabilisation as the last resort, with a capped retry-from-reset
/// budget. A seeded fraction of epochs is *audited*: the full
/// re-stabilisation runs anyway and the repaired witness must be
/// feasible, port-consistent, and within the protocol's paper bound of
/// the fresh output — any divergence fails the run with a structured
/// report.
///
/// Every base churns through a [`DynamicTopology`] delta overlay, so no
/// second full copy of the graph is ever materialised; repair-only
/// epochs touch memory proportional to the damage frontier.
///
/// `cancel` is polled at every epoch barrier and once per round inside
/// full epochs; a deadline firing mid-run yields a structured
/// [`RuntimeError::Cancelled`].
///
/// # Errors
///
/// Returns [`SweepError`] for non-churn scenarios, inapplicable
/// protocols, cancellation, and propagated simulator errors.
pub fn run_churn_with(
    scenario: &Scenario,
    protocol: Protocol,
    exec: &ExecOptions,
    policy: &RecoveryPolicy,
    cancel: Option<&CancelToken>,
) -> Result<ChurnRun, SweepError> {
    let Family::Churn { plan, .. } = &scenario.spec.family else {
        return Err(SweepError::Graph(GraphError::InvalidParameter {
            detail: format!("{} is not a churn scenario", scenario.name()),
        }));
    };
    let base = &scenario.graph;
    let seed = scenario.spec.seed;
    let mat = materialize(base, plan, seed)?;
    let delta = exec.delta.unwrap_or(0).max(mat.degree_cap);
    let threads = exec.simulator_threads.max(1);
    let kind = WitnessKind::of(protocol);
    let ctx = |bound: Option<(u64, u64)>| RecoveryCtx {
        policy,
        cancel,
        bound,
        seed,
    };

    let edges_of = |g: &PortNumberedGraph, outputs: &[PortSet]| {
        edge_set_from_outputs(g, outputs).map(Solution::Edges)
    };
    match protocol {
        Protocol::PortOne => drive(
            base,
            mat,
            |_, d| PortOneNode::new(d),
            threads,
            delta,
            kind,
            &ctx(None),
            edges_of,
        ),
        Protocol::BoundedDegree => drive(
            base,
            mat,
            |_, d| BoundedDegreeNode::new(delta, d),
            threads,
            delta,
            kind,
            &ctx(Some(eds_core::bounded_degree::bounded_degree_ratio(delta))),
            edges_of,
        ),
        Protocol::VertexCover => drive(
            base,
            mat,
            |_, d| VertexCoverNode::new(delta, d),
            threads,
            delta,
            kind,
            &ctx(Some((3, 1))),
            |g: &PortNumberedGraph, outputs: &[bool]| {
                Ok(Solution::Nodes(
                    g.nodes().filter(|v| outputs[v.index()]).collect(),
                ))
            },
        ),
        Protocol::IdMatching => {
            let ids = node_identifiers(mat.max_nodes, seed);
            drive(
                base,
                mat,
                move |v: NodeId, d| IdMatchingNode::new(delta, d, ids[v.index()]),
                threads,
                delta,
                kind,
                &ctx(Some((2, 1))),
                edges_of,
            )
        }
        Protocol::RandMatching => {
            let seeds = node_seeds(mat.max_nodes, seed);
            // The phase budget is fixed up front for the largest node
            // count the schedule can reach, so every epoch runs the same
            // deterministic schedule.
            let phases = randomized_matching_phases(mat.max_nodes);
            drive(
                base,
                mat,
                move |v: NodeId, d| RandMatchingNode::new(d, seeds[v.index()], phases),
                threads,
                delta,
                kind,
                &ctx(Some((2, 1))),
                edges_of,
            )
        }
        Protocol::RegularOdd => Err(SweepError::Graph(GraphError::InvalidParameter {
            detail: "regular-odd requires a static odd-regular graph; churn breaks regularity"
                .to_owned(),
        })),
    }
}

/// Recovery context threaded through the epoch loop.
struct RecoveryCtx<'a> {
    policy: &'a RecoveryPolicy,
    cancel: Option<&'a CancelToken>,
    /// The paper-bound ratio `(num, den)` the audit holds the repaired
    /// witness to, against the freshly re-stabilised size (sound because
    /// the optimum is never larger than the fresh solution). `None`
    /// where no per-instance ratio exists (port-one needs regularity,
    /// which churn breaks).
    bound: Option<(u64, u64)>,
    seed: u64,
}

/// One verified full epoch: stabilise, extract and feasibility-check the
/// quiescent output, and — when corruption garbled it — retry with clean
/// reset epochs up to `max_retries` times.
struct VerifiedEpoch {
    graph: PortNumberedGraph,
    simple: SimpleGraph,
    solution: Solution,
    violation: Option<String>,
    rounds: usize,
    messages: usize,
    recovery_rounds: usize,
    transients: usize,
}

fn stabilize_verified<A, F, S>(
    sim: &mut ChurnSimulator<'_, A, F>,
    to_solution: &S,
    kind: WitnessKind,
    max_retries: usize,
) -> Result<VerifiedEpoch, SweepError>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
    A::Output: Send,
    F: Fn(NodeId, usize) -> A,
    S: Fn(&PortNumberedGraph, &[A::Output]) -> Result<Solution, RuntimeError>,
{
    let epoch = sim.stabilize().map_err(churn_err)?;
    let mut rounds = epoch.rounds;
    let mut messages = epoch.messages;
    let mut recovery_rounds = epoch.rounds;
    let mut transients = 0;
    let corrupted = epoch.corrupted;
    let simple = epoch.graph.to_simple()?;
    // A corrupted node can halt with garbage, so on corrupted epochs even
    // extracting the output may fail the runtime's port consistency check
    // — that too is an observable transient.
    let (mut solution, mut violation) = match to_solution(&epoch.graph, &epoch.outputs) {
        Ok(s) => {
            let v = solution_violation(&simple, kind, &s);
            (Some(s), v)
        }
        Err(e) if corrupted > 0 => (None, Some(e.to_string())),
        Err(e) => return Err(SweepError::Runtime(e)),
    };
    let mut retries = 0;
    while violation.is_some() && corrupted > 0 && retries < max_retries {
        // Corruption garbled the quiescent output: the transient is
        // observable, and a clean epoch (the injected state has drained)
        // restores feasibility — self-stabilisation, within the policy's
        // retry budget.
        retries += 1;
        transients += 1;
        let recovery = sim.stabilize().map_err(churn_err)?;
        rounds += recovery.rounds;
        messages += recovery.messages;
        recovery_rounds += recovery.rounds;
        let recovered =
            to_solution(&recovery.graph, &recovery.outputs).map_err(SweepError::Runtime)?;
        violation = solution_violation(&simple, kind, &recovered);
        solution = Some(recovered);
    }
    Ok(VerifiedEpoch {
        graph: epoch.graph,
        simple,
        solution: solution.unwrap_or(Solution::Edges(Vec::new())),
        violation,
        rounds,
        messages,
        recovery_rounds,
        transients,
    })
}

/// The cost of an accepted ball re-run: the confined epoch itself plus
/// the seam-repair pass that re-legalises the splice.
struct BallCost {
    rounds: usize,
    messages: usize,
    repair: RepairOutcome,
}

/// Rung 2 of the ladder: re-run the protocol on the `radius`-hop ball
/// around the damage frontier only. The ball's rim (nodes at exactly
/// `radius` hops, including crashed boundary nodes) participates as
/// frozen virtual inputs — rim outputs are never spliced back. Interior
/// outputs replace the witness's interior entries
/// ([`splice_edge_witness`]/[`splice_node_witness`]), and one local
/// repair pass settles the seam.
///
/// `Ok(None)` means the rung produced no usable re-run (empty interior,
/// or the confined epoch failed) — the caller escalates to a full
/// re-stabilisation. Only cancellation propagates as an error.
#[allow(clippy::too_many_arguments)]
fn ball_rerun<V, A, F, S>(
    view: &V,
    witness: &mut Witness,
    touched: &BTreeSet<usize>,
    kind: WitnessKind,
    radius: usize,
    factory: &F,
    to_solution: &S,
    cancel: Option<&CancelToken>,
) -> Result<Option<BallCost>, SweepError>
where
    V: AdjacencyView + ?Sized,
    A: NodeAlgorithm + Send,
    A::Message: Send,
    A::Output: Send,
    F: Fn(NodeId, usize) -> A,
    S: Fn(&PortNumberedGraph, &[A::Output]) -> Result<Solution, RuntimeError>,
{
    let ball = khop_ball(view, touched, radius.max(1));
    let interior = ball.interior();
    if interior.is_empty() {
        return Ok(None);
    }
    // The induced subgraph on the ball, global ids -> dense local ids.
    let index: std::collections::BTreeMap<usize, usize> = ball
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let mut local = SimpleGraph::new(ball.nodes.len());
    for (i, &v) in ball.nodes.iter().enumerate() {
        let mut wired = true;
        view.for_each_neighbor(v, &mut |u| {
            if let Some(&j) = index.get(&u) {
                if i < j && local.add_edge_ids(i, j).is_err() {
                    wired = false;
                }
            }
        });
        if !wired {
            return Ok(None);
        }
    }
    let Ok(ports) = canonical_ports(&local) else {
        return Ok(None);
    };
    let mut ball_sim = Simulator::new(&ports);
    if let Some(token) = cancel {
        ball_sim = ball_sim.cancel_token(token.clone());
    }
    let run =
        match ball_sim.run_with_inputs(&ball.nodes, |d, &global| factory(NodeId::new(global), d)) {
            Ok(run) => run,
            Err(e @ RuntimeError::Cancelled { .. }) => return Err(SweepError::Runtime(e)),
            Err(_) => return Ok(None),
        };
    let Ok(local_solution) = to_solution(&ports, &run.outputs) else {
        return Ok(None);
    };
    match (&mut *witness, &local_solution) {
        (Witness::Edges(w), Solution::Edges(edges)) => {
            let replacement: EdgeWitness = edges
                .iter()
                .map(|&e| {
                    let (u, v) = ports.edge(e).nodes();
                    edge_key(ball.nodes[u.index()], ball.nodes[v.index()])
                })
                .collect();
            splice_edge_witness(w, &interior, &replacement);
        }
        (Witness::Cover(c), Solution::Nodes(nodes)) => {
            let replacement: NodeWitness = nodes.iter().map(|v| ball.nodes[v.index()]).collect();
            splice_node_witness(c, &interior, &replacement);
        }
        _ => return Ok(None),
    }
    // Re-legalise the seam: spliced interior entries may conflict with
    // kept boundary-crossing ones; one local pass over the ball settles
    // it (or reports residual damage, and the caller escalates).
    let ball_set: BTreeSet<usize> = ball.nodes.iter().copied().collect();
    let seam = witness.repair(view, &ball_set, kind);
    Ok(Some(BallCost {
        rounds: run.rounds,
        messages: run.messages,
        repair: seam,
    }))
}

/// The generic epoch loop shared by every protocol: the recovery ladder
/// with sampled-epoch audits.
#[allow(clippy::too_many_arguments)]
fn drive<A, F, S>(
    base: &PortNumberedGraph,
    mat: MaterializedChurn,
    factory: F,
    threads: usize,
    claimed_delta: usize,
    kind: WitnessKind,
    ctx: &RecoveryCtx<'_>,
    to_solution: S,
) -> Result<ChurnRun, SweepError>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
    A::Output: Send,
    F: Fn(NodeId, usize) -> A,
    S: Fn(&PortNumberedGraph, &[A::Output]) -> Result<Solution, RuntimeError>,
{
    let mut sim = ChurnSimulator::new(base, &factory)?.simulator_threads(threads);
    if let Some(token) = ctx.cancel {
        sim = sim.cancel_token(token.clone());
    }
    let mut rounds = 0;
    let mut messages = 0;
    let mut stats = ChurnStats {
        events_applied: mat.schedule.event_count(),
        ..ChurnStats::default()
    };
    // The audit stream advances once per burst regardless of outcome, so
    // audit decisions are independent of recovery-tier history.
    let mut audit_next = entropy_stream(ctx.seed ^ AUDIT_SALT);

    // Epoch 0: the churn-free baseline (always a full stabilisation).
    let initial = stabilize_verified(&mut sim, &to_solution, kind, 0)?;
    rounds += initial.rounds;
    messages += initial.messages;
    let mut violation = initial.violation.map(|v| format!("epoch 0: {v}"));
    let mut witness = Witness::from_solution(&initial.graph, &initial.solution);
    let mut solution = initial.solution;
    // Whether `solution` is a quiescent protocol output on the *current*
    // topology (false once a burst recovers without re-stabilising).
    let mut solution_current = true;

    for (b, burst) in mat.schedule.bursts().iter().enumerate() {
        if let Some(token) = ctx.cancel {
            if token.check() {
                return Err(SweepError::Runtime(RuntimeError::Cancelled {
                    after_rounds: rounds,
                    still_running: sim.topology().node_count(),
                }));
            }
        }
        sim.apply_burst(burst).map_err(churn_err)?;
        let audit = ctx.policy.audits_epoch(audit_next());

        // Damage frontier: event-adjacent nodes plus corruption fallout
        // (scrambling frees witness partners, which must be rescanned).
        let mut touched = mat.touched[b].clone();
        for &v in &mat.corrupted[b] {
            witness.scramble_at(v, &mut touched);
        }
        let frontier_nodes = touched.len();
        let n_now = sim.topology().node_count();
        repair_metrics()
            .frontier_nodes
            .observe(frontier_nodes as u64);

        // Rung 1: local witness repair, always attempted first — even an
        // escalated burst reuses the re-legalised entries.
        let outcome = witness.repair(sim.topology(), &touched, kind);
        stats.repair_messages += outcome.messages;
        repair_metrics()
            .repair_rounds
            .observe(outcome.rounds as u64);
        let mut burst_violations = outcome.transient_violations;
        let mut burst_recovery = outcome.rounds;
        let mut witness_ok = witness.feasible(sim.topology(), kind);

        let mut tier = if ctx.policy.repair_applies(frontier_nodes, n_now) {
            if witness_ok {
                RecoveryTier::Repair
            } else {
                RecoveryTier::BallRerun
            }
        } else {
            RecoveryTier::Full
        };

        if tier == RecoveryTier::BallRerun {
            // Rung 2: a protocol epoch confined to the k-hop ball.
            if let Some(cost) = ball_rerun(
                sim.topology(),
                &mut witness,
                &touched,
                kind,
                ctx.policy.ball_radius,
                &factory,
                &to_solution,
                ctx.cancel,
            )? {
                rounds += cost.rounds;
                messages += cost.messages;
                burst_recovery += cost.rounds + cost.repair.rounds;
                burst_violations += cost.repair.transient_violations;
                stats.repair_messages += cost.repair.messages;
                witness_ok = witness.feasible(sim.topology(), kind);
            }
            if !witness_ok {
                tier = RecoveryTier::Full;
            }
        }

        if tier == RecoveryTier::Full {
            // Rung 3: full re-stabilisation, the last resort.
            let ep =
                stabilize_verified(&mut sim, &to_solution, kind, ctx.policy.max_reset_retries)?;
            rounds += ep.rounds;
            messages += ep.messages;
            burst_recovery += ep.recovery_rounds;
            burst_violations += ep.transients;
            if violation.is_none() {
                violation = ep.violation.map(|v| format!("burst {b}: {v}"));
            }
            if !witness.feasible(&ep.simple, kind) {
                // The incremental witness is beyond local repair: re-seed
                // it from the fresh quiescent output.
                burst_violations += 1;
                witness = Witness::from_solution(&ep.graph, &ep.solution);
            }
            solution = ep.solution;
            solution_current = true;
        } else if audit {
            // Trust-but-verify: run the full re-stabilisation anyway and
            // hold the repaired witness to the same contract. Audit cost
            // counts toward run totals but never toward recovery rounds —
            // it is instrumentation, not recovery.
            repair_metrics().audits.inc();
            let ep =
                stabilize_verified(&mut sim, &to_solution, kind, ctx.policy.max_reset_retries)?;
            rounds += ep.rounds;
            messages += ep.messages;
            burst_violations += ep.transients;
            if violation.is_none() {
                violation = ep.violation.map(|v| format!("burst {b}: {v}"));
            }
            let divergence = if !witness.feasible(&ep.simple, kind) {
                Some("repaired witness infeasible on the frozen epoch graph".to_owned())
            } else if let Some((num, den)) = ctx.bound {
                let w = witness.len() as u64;
                let f = ep.solution.len() as u64;
                (w * den > num * f).then(|| {
                    format!(
                        "repaired witness size {w} outside {num}/{den} of the \
                         re-stabilised size {f}"
                    )
                })
            } else {
                None
            };
            if let Some(d) = divergence {
                repair_metrics().divergences.inc();
                if violation.is_none() {
                    violation = Some(format!("burst {b}: audit divergence: {d}"));
                }
            }
            solution = ep.solution;
            solution_current = true;
        } else {
            // Repair-only (or ball) epoch accepted: the protocol never
            // re-ran on the full topology. Corruption damage was healed
            // in the witness, so drop the queued corrupt events — a
            // later full epoch must not replay the fault.
            sim.clear_corruption();
            solution_current = false;
        }

        if tier >= RecoveryTier::BallRerun {
            stats.escalations += 1;
            repair_metrics().escalations.inc();
        }
        stats.recovery_tier = stats.recovery_tier.max(tier.index());
        stats.frontier_nodes = stats.frontier_nodes.max(frontier_nodes);
        stats.recovery_rounds = stats.recovery_rounds.max(burst_recovery);
        stats.max_transient_violation = stats.max_transient_violation.max(burst_violations);
    }

    let final_graph = mat.final_graph;
    let final_simple = final_graph.to_simple()?;
    if !solution_current {
        // The last burst recovered without re-stabilising: the witness
        // *is* the live artifact; project it back onto the final graph.
        solution = witness.to_solution(&final_graph);
    }
    if violation.is_none() {
        violation =
            solution_violation(&final_simple, kind, &solution).map(|v| format!("final: {v}"));
    }

    Ok(ChurnRun {
        witness_size: witness.len(),
        final_simple,
        solution,
        rounds,
        messages,
        stats,
        violation,
        final_graph,
        claimed_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PortPolicy, ScenarioSpec};

    fn churn_spec(base: Family, plan: ChurnPlan, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            Family::Churn {
                base: Box::new(base),
                plan,
            },
            seed,
            PortPolicy::Shuffled,
        )
    }

    #[test]
    fn materialization_is_deterministic_and_capped() {
        let scenario = churn_spec(Family::Petersen, ChurnPlan::new(4, 3, 2), 7)
            .build()
            .unwrap();
        let a = materialize(&scenario.graph, &ChurnPlan::new(4, 3, 2), 7).unwrap();
        let b = materialize(&scenario.graph, &ChurnPlan::new(4, 3, 2), 7).unwrap();
        assert_eq!(a.schedule.bursts(), b.schedule.bursts());
        assert_eq!(a.final_graph, b.final_graph);
        assert_eq!(a.touched, b.touched);
        assert!(a.schedule.event_count() > 0);
        assert_eq!(a.schedule.len(), 4);
        assert!(a.final_graph.max_degree() <= a.degree_cap);
        assert!(a.max_nodes >= 10);
    }

    #[test]
    fn empty_plan_is_the_static_run() {
        let spec = churn_spec(Family::Petersen, ChurnPlan::new(0, 0, 0), 1);
        let scenario = spec.build().unwrap();
        let run = run_churn(&scenario, Protocol::BoundedDegree, &ExecOptions::default()).unwrap();
        let static_run = Protocol::BoundedDegree.execute(&scenario).unwrap();
        assert_eq!(run.solution, static_run.solution);
        assert_eq!(run.rounds, static_run.rounds);
        assert_eq!(run.messages, static_run.messages);
        assert_eq!(run.stats, ChurnStats::default());
        assert_eq!(run.violation, None);
        assert_eq!(run.final_graph, scenario.graph);
    }

    #[test]
    fn churn_is_bit_identical_across_simulator_threads() {
        let scenario = churn_spec(Family::Grid(3, 4), ChurnPlan::new(3, 3, 2), 5)
            .build()
            .unwrap();
        for protocol in [Protocol::BoundedDegree, Protocol::IdMatching] {
            let baseline = run_churn(&scenario, protocol, &ExecOptions::default()).unwrap();
            for threads in [2usize, 4] {
                let opts = ExecOptions {
                    simulator_threads: threads,
                    ..ExecOptions::default()
                };
                let run = run_churn(&scenario, protocol, &opts).unwrap();
                assert_eq!(run.solution, baseline.solution, "threads = {threads}");
                assert_eq!(run.rounds, baseline.rounds, "threads = {threads}");
                assert_eq!(run.messages, baseline.messages, "threads = {threads}");
                assert_eq!(run.stats, baseline.stats, "threads = {threads}");
            }
        }
    }

    #[test]
    fn every_quiescence_point_is_feasible_and_recovery_is_bounded() {
        for (base, seed) in [
            (Family::Petersen, 0u64),
            (Family::Grid(3, 4), 1),
            (
                Family::RandomBoundedDegree {
                    n: 16,
                    delta: 4,
                    density: 0.8,
                },
                2,
            ),
        ] {
            let scenario = churn_spec(base, ChurnPlan::new(4, 3, 2), seed)
                .build()
                .unwrap();
            for protocol in [
                Protocol::PortOne,
                Protocol::BoundedDegree,
                Protocol::VertexCover,
                Protocol::IdMatching,
                Protocol::RandMatching,
            ] {
                let run = run_churn(&scenario, protocol, &ExecOptions::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
                assert_eq!(run.violation, None, "{}", protocol.name());
                assert!(run.stats.events_applied > 0);
                // Incremental repair is local: at most two passes per
                // burst, plus at most one full clean epoch when
                // corruption garbled the output.
                let epoch_bound = run.rounds; // recovery is never more than the whole run
                assert!(
                    run.stats.recovery_rounds <= epoch_bound,
                    "{}",
                    protocol.name()
                );
                assert!(!run.solution.is_empty(), "{}", protocol.name());
                assert!(run.witness_size > 0, "{}", protocol.name());
            }
        }
    }

    #[test]
    fn corruption_alone_keeps_the_topology_static() {
        let scenario = churn_spec(Family::Petersen, ChurnPlan::new(2, 0, 3), 9)
            .build()
            .unwrap();
        let run = run_churn(&scenario, Protocol::VertexCover, &ExecOptions::default()).unwrap();
        assert_eq!(run.final_graph, scenario.graph);
        assert_eq!(run.violation, None);
        assert_eq!(run.stats.events_applied, 6);
    }

    #[test]
    fn regular_odd_is_rejected_and_inapplicable() {
        let spec = churn_spec(Family::Petersen, ChurnPlan::new(1, 1, 0), 0);
        let scenario = spec.build().unwrap();
        assert!(!Protocol::RegularOdd.applicable(&scenario));
        assert!(run_churn(&scenario, Protocol::RegularOdd, &ExecOptions::default()).is_err());
    }
}
