//! The protocol portfolio: every distributed algorithm in the workspace
//! behind one uniform interface, so sweeps and conformance tests can
//! iterate over "all protocols on all scenarios" without knowing each
//! crate's entry points.
//!
//! All six protocols run through the zero-allocation
//! [`pn_runtime::Simulator`], so every record carries honest round and
//! message counts in addition to the solution.

use eds_baselines::distributed_mm::IdMatchingNode;
use eds_baselines::randomized_mm::{randomized_matching_phases, RandMatchingNode};
use eds_core::distributed::{BoundedDegreeNode, RegularOddNode};
use eds_core::port_one::PortOneNode;
use eds_core::vertex_cover::VertexCoverNode;
use pn_graph::{EdgeId, GraphError, NodeId};
use pn_runtime::{
    edge_set_from_outputs, AlgorithmFactory, CancelToken, NodeAlgorithm, RuntimeError, Simulator,
};

use crate::scenario::Scenario;

/// Errors surfaced while executing a protocol on a scenario.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// Graph construction or parameter error.
    Graph(GraphError),
    /// Simulator execution or output-consistency error.
    Runtime(RuntimeError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Graph(e) => write!(f, "graph error: {e}"),
            SweepError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<GraphError> for SweepError {
    fn from(e: GraphError) -> Self {
        SweepError::Graph(e)
    }
}

impl From<RuntimeError> for SweepError {
    fn from(e: RuntimeError) -> Self {
        SweepError::Runtime(e)
    }
}

/// The six distributed protocols of the reproduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Theorem 3: the one-round anonymous "port 1" algorithm.
    PortOne,
    /// Theorem 4: the anonymous protocol for odd-regular graphs.
    RegularOdd,
    /// Theorem 5: the anonymous `A(Δ)` protocol for bounded degree.
    BoundedDegree,
    /// The Polishchuk–Suomela 3-approximate vertex cover sibling.
    VertexCover,
    /// The identifier-model greedy maximal matching baseline.
    IdMatching,
    /// The randomised maximal matching baseline.
    RandMatching,
}

/// A protocol's solution: an edge set (the five edge-problem protocols)
/// or a node set (the vertex-cover sibling).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// Selected edges.
    Edges(Vec<EdgeId>),
    /// Selected nodes.
    Nodes(Vec<NodeId>),
}

impl Solution {
    /// Number of selected elements.
    pub fn len(&self) -> usize {
        match self {
            Solution::Edges(e) => e.len(),
            Solution::Nodes(v) => v.len(),
        }
    }

    /// Returns `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The edge set, if this is an edge solution.
    pub fn edges(&self) -> Option<&[EdgeId]> {
        match self {
            Solution::Edges(e) => Some(e),
            Solution::Nodes(_) => None,
        }
    }
}

/// The outcome of one protocol execution on one scenario.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// The solution produced.
    pub solution: Solution,
    /// Rounds until the last node halted.
    pub rounds: usize,
    /// Total messages delivered.
    pub messages: usize,
}

/// Inert: selects nothing. Every run uses the generic engine
/// ([`Simulator::run`], or [`Simulator::run_parallel`] when
/// [`ExecOptions::simulator_threads`] is above 1). The type and its two
/// variants exist only so the benchmark package, which still names
/// them, compiles; they go away with that reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PackedPolicy {
    /// Inert; the generic engine runs.
    #[default]
    Auto,
    /// Inert; the generic engine runs.
    Never,
}

/// Execution knobs for a single protocol run; the defaults reproduce
/// [`Protocol::execute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Claimed degree bound handed to the `Δ`-parametrised protocols
    /// (`A(Δ)`, the vertex-cover sibling, the identifier matching);
    /// `None` uses the instance maximum degree. The protocols require
    /// the claim to cover every node, so values below the instance
    /// maximum are raised to it.
    pub delta: Option<usize>,
    /// Simulator threads: `> 1` routes the run through
    /// [`Simulator::run_parallel`] (bit-identical results, useful for
    /// single huge instances), `1` stays on the sequential engine.
    pub simulator_threads: usize,
    /// Inert: selects nothing, every run uses the generic engine. Kept
    /// only so the benchmark package, which still sets it, compiles.
    pub packed: PackedPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            delta: None,
            simulator_threads: 1,
            packed: PackedPolicy::default(),
        }
    }
}

impl ExecOptions {
    /// Execution defaults for single huge instances: the sequential
    /// engine's knobs except that the simulator runs on
    /// [`recommended_simulator_threads`] workers. The registry attaches
    /// this to its million-node specs.
    pub fn scaled() -> Self {
        ExecOptions {
            simulator_threads: recommended_simulator_threads(),
            ..ExecOptions::default()
        }
    }
}

/// A sensible simulator thread count for single huge instances: the
/// host's available parallelism, capped at 8 (the pool's barrier
/// synchronisation outgrows the gains beyond that for these workloads).
/// On a single-core host this is 1, which routes runs through the
/// sequential engine — results are bit-identical either way.
///
/// Nested-parallelism guidance: a [`crate::Session`] shards *scenarios*
/// across threads while the simulator shards *nodes* of one scenario —
/// don't multiply both by default. Reserve simulator threads for
/// workloads that dwarf the rest of the registry (the million-node
/// families); the transient oversubscription while a sharded sweep
/// crosses such a scenario is benign, but a dedicated huge-instance
/// sweep should run with `Session::threads(1)` and let the simulator
/// have the cores.
pub fn recommended_simulator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .clamp(1, 8)
}

impl Protocol {
    /// All six protocols, in report order.
    pub const ALL: [Protocol; 6] = [
        Protocol::PortOne,
        Protocol::RegularOdd,
        Protocol::BoundedDegree,
        Protocol::VertexCover,
        Protocol::IdMatching,
        Protocol::RandMatching,
    ];

    /// A short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::PortOne => "port-one",
            Protocol::RegularOdd => "regular-odd",
            Protocol::BoundedDegree => "bounded-degree",
            Protocol::VertexCover => "vertex-cover",
            Protocol::IdMatching => "id-matching",
            Protocol::RandMatching => "rand-matching",
        }
    }

    /// Returns `true` if the protocol's preconditions hold on the
    /// scenario: every protocol needs at least one edge, and Theorem 4
    /// additionally needs an odd-regular graph.
    pub fn applicable(self, scenario: &Scenario) -> bool {
        if scenario.simple.is_edgeless() {
            return false;
        }
        // Churn breaks regularity as soon as an edge event fires, so
        // Theorem 4's precondition cannot survive the schedule.
        if matches!(scenario.spec.family, crate::scenario::Family::Churn { .. })
            && self == Protocol::RegularOdd
        {
            return false;
        }
        match self {
            Protocol::RegularOdd => scenario.graph.regular_degree().is_some_and(|d| d % 2 == 1),
            _ => true,
        }
    }

    /// Executes the protocol on the scenario through the simulator with
    /// default [`ExecOptions`].
    ///
    /// Identifier and randomised baselines derive their per-node inputs
    /// deterministically from the scenario seed, so sweeps are
    /// reproducible bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors and output-consistency violations;
    /// neither occurs when [`Protocol::applicable`] holds.
    pub fn execute(self, scenario: &Scenario) -> Result<ProtocolRun, SweepError> {
        self.execute_with(scenario, &ExecOptions::default())
    }

    /// Executes the protocol with explicit execution knobs (claimed `Δ`,
    /// simulator threads). Results are identical across thread counts —
    /// the parallel engine is bit-compatible with the sequential one.
    ///
    /// # Errors
    ///
    /// Same as [`Protocol::execute`].
    pub fn execute_with(
        self,
        scenario: &Scenario,
        opts: &ExecOptions,
    ) -> Result<ProtocolRun, SweepError> {
        self.execute_with_cancel(scenario, opts, None)
    }

    /// [`Protocol::execute_with`] plus a cooperative [`CancelToken`]:
    /// the simulator polls the token between rounds and aborts with
    /// [`RuntimeError::Cancelled`] once it fires, so a caller-side
    /// timeout interrupts a solve mid-run.
    ///
    /// # Errors
    ///
    /// Same as [`Protocol::execute`], plus the cancellation error.
    pub fn execute_with_cancel(
        self,
        scenario: &Scenario,
        opts: &ExecOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<ProtocolRun, SweepError> {
        let g = &scenario.graph;
        let mut sim = Simulator::new(g);
        if let Some(token) = cancel {
            sim = sim.cancel_token(token.clone());
        }
        let threads = opts.simulator_threads.max(1);
        // A claimed Δ below the true maximum would violate the node
        // algorithms' contract (every degree must be ≤ Δ); raise it.
        let delta = opts.delta.unwrap_or(0).max(g.max_degree());

        fn drive<F>(
            sim: &Simulator,
            factory: F,
            threads: usize,
        ) -> Result<pn_runtime::Run<<F::Algorithm as NodeAlgorithm>::Output>, RuntimeError>
        where
            F: AlgorithmFactory,
            F::Algorithm: Send,
            <F::Algorithm as NodeAlgorithm>::Message: Send,
            <F::Algorithm as NodeAlgorithm>::Output: Send,
        {
            if threads > 1 {
                sim.run_parallel(factory, threads)
            } else {
                sim.run(factory)
            }
        }

        fn drive_with_inputs<A, I>(
            sim: &Simulator,
            inputs: &[I],
            factory: impl Fn(usize, &I) -> A,
            threads: usize,
        ) -> Result<pn_runtime::Run<A::Output>, RuntimeError>
        where
            A: NodeAlgorithm + Send,
            A::Message: Send,
            A::Output: Send,
        {
            if threads > 1 {
                sim.run_parallel_with_inputs(inputs, factory, threads)
            } else {
                sim.run_with_inputs(inputs, factory)
            }
        }

        match self {
            Protocol::PortOne => {
                let run = drive(&sim, PortOneNode::new, threads)?;
                Ok(ProtocolRun {
                    solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::RegularOdd => {
                let run = drive(&sim, RegularOddNode::new, threads)?;
                Ok(ProtocolRun {
                    solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::BoundedDegree => {
                let run = drive(&sim, |d: usize| BoundedDegreeNode::new(delta, d), threads)?;
                Ok(ProtocolRun {
                    solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::VertexCover => {
                let run = drive(&sim, |d: usize| VertexCoverNode::new(delta, d), threads)?;
                Ok(ProtocolRun {
                    solution: Solution::Nodes(
                        g.nodes().filter(|v| run.outputs[v.index()]).collect(),
                    ),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::IdMatching => {
                let ids = node_identifiers(g.node_count(), scenario.spec.seed);
                let run = drive_with_inputs(
                    &sim,
                    &ids,
                    |degree, &id| IdMatchingNode::new(delta, degree, id),
                    threads,
                )?;
                Ok(ProtocolRun {
                    solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
            Protocol::RandMatching => {
                let seeds = node_seeds(g.node_count(), scenario.spec.seed);
                let phases = randomized_matching_phases(g.node_count());
                let run = drive_with_inputs(
                    &sim,
                    &seeds,
                    |degree, &seed| RandMatchingNode::new(degree, seed, phases),
                    threads,
                )?;
                Ok(ProtocolRun {
                    solution: Solution::Edges(edge_set_from_outputs(g, &run.outputs)?),
                    rounds: run.rounds,
                    messages: run.messages,
                })
            }
        }
    }
}

/// Distinct node identifiers for the identifier-model baseline, derived
/// deterministically from the scenario seed (SplitMix64 over the index
/// would risk collisions; an affine map cannot collide).
pub fn node_identifiers(n: usize, seed: u64) -> Vec<u64> {
    let offset = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n as u64).map(|i| i.wrapping_add(offset)).collect()
}

/// Per-node randomness seeds for the randomised baseline, derived
/// deterministically from the scenario seed.
pub fn node_seeds(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = i
                .wrapping_add(seed.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Family, PortPolicy, ScenarioSpec};

    #[test]
    fn applicability_rules() {
        let petersen = ScenarioSpec::new(Family::Petersen, 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Petersen is 3-regular: everything applies.
        for p in Protocol::ALL {
            assert!(p.applicable(&petersen), "{}", p.name());
        }
        let torus = ScenarioSpec::new(Family::Torus(3, 3), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        assert!(!Protocol::RegularOdd.applicable(&torus), "4-regular");
        assert!(Protocol::PortOne.applicable(&torus));
        let edgeless = ScenarioSpec::new(Family::Gnp { n: 5, p: 0.0 }, 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        for p in Protocol::ALL {
            assert!(!p.applicable(&edgeless), "{}", p.name());
        }
    }

    #[test]
    fn all_protocols_run_on_petersen() {
        let s = ScenarioSpec::new(Family::Petersen, 3, PortPolicy::Shuffled)
            .build()
            .unwrap();
        for p in Protocol::ALL {
            let run = p
                .execute(&s)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(!run.solution.is_empty(), "{}", p.name());
            assert!(run.rounds >= 1, "{}", p.name());
        }
    }

    #[test]
    fn identifiers_are_distinct() {
        for seed in [0u64, 1, 0xdead_beef] {
            let ids = node_identifiers(100, seed);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), ids.len());
        }
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let s = ScenarioSpec::new(Family::PowerLaw { n: 30, m: 2 }, 2, PortPolicy::Shuffled)
            .build()
            .unwrap();
        let parallel = ExecOptions {
            simulator_threads: 4,
            ..ExecOptions::default()
        };
        for p in Protocol::ALL {
            if !p.applicable(&s) {
                continue;
            }
            let a = p.execute(&s).unwrap();
            let b = p.execute_with(&s, &parallel).unwrap();
            assert_eq!(a.solution, b.solution, "{}", p.name());
            assert_eq!(a.rounds, b.rounds, "{}", p.name());
            assert_eq!(a.messages, b.messages, "{}", p.name());
        }
    }

    #[test]
    fn delta_override_reaches_the_parametrised_protocols() {
        let s = ScenarioSpec::new(Family::Path(6), 0, PortPolicy::Canonical)
            .build()
            .unwrap();
        // Claiming a looser Δ than the true maximum degree is legal and
        // changes the protocol's phase schedule (more rounds).
        let tight = Protocol::BoundedDegree.execute(&s).unwrap();
        let loose = Protocol::BoundedDegree
            .execute_with(
                &s,
                &ExecOptions {
                    delta: Some(5),
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        assert!(loose.rounds > tight.rounds);
    }

    #[test]
    fn executions_are_deterministic() {
        let s = ScenarioSpec::new(
            Family::RandomRegular { n: 12, d: 3 },
            5,
            PortPolicy::Shuffled,
        )
        .build()
        .unwrap();
        for p in Protocol::ALL {
            let a = p.execute(&s).unwrap();
            let b = p.execute(&s).unwrap();
            assert_eq!(a.solution, b.solution, "{}", p.name());
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.messages, b.messages);
        }
    }
}
