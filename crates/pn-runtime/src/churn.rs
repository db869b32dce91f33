//! Fault injection for dynamic-graph runs: event schedules, epochs, and
//! the self-stabilizing churn simulator.
//!
//! The static [`crate::Simulator`] runs one protocol to quiescence on a
//! frozen graph. This module adds the adversary: an [`EventSchedule`] of
//! **bursts** — edge insertions/deletions, node crashes and joins, and
//! state corruption — that the [`ChurnSimulator`] applies between
//! protocol **epochs**.
//!
//! # Epoch semantics
//!
//! Events are applied only at *quiescence barriers*: every node has
//! halted, the burst mutates the topology and/or queues state corruption,
//! and the protocol then re-runs to quiescence on the frozen snapshot.
//! The topology is one [`pn_graph::DynamicTopology`]: a delta overlay
//! that borrows the starting graph, so churn over a million-node graph
//! never copies it and holds only the rows the events touched. Events are never interleaved with
//! the send/route/receive phases of a round — the paper's protocols are
//! driven by rigid round schedules derived from `Δ` and the port
//! numbering, both of which a topology change invalidates, so the honest
//! dynamic model is *re-stabilization*: a churn event restarts the
//! affected protocol from its initial states on the new topology, and
//! recovery is measured in the rounds of that re-run.
//!
//! Within an epoch the engine is the unmodified static one — the
//! sequential core, or the persistent worker pool when
//! [`ChurnSimulator::simulator_threads`] asks for it. The pool applies
//! each burst at the same epoch barrier as the sequential path and the
//! per-epoch engine is bit-identical across thread counts, so a whole
//! churn run is reproducible at any `--simulator-threads` value, and a
//! run with an **empty** schedule is exactly one static run.
//!
//! # Corruption and recovery
//!
//! A [`ChurnEvent::Corrupt`] event scrambles one node's initial state
//! for the next epoch through [`crate::NodeAlgorithm::corrupt`] — the
//! adversarial wake-up of self-stabilization: the node starts the epoch
//! from an arbitrary (deterministically seeded) state instead of its
//! constructed one. If the corrupted epoch fails outright (a runtime
//! error from scrambled bookkeeping), the simulator runs one **recovery
//! epoch**: the corrupted states are rebuilt, scrambled identically,
//! then restored via [`crate::NodeAlgorithm::reset`] — the
//! self-stabilizing restart — and the epoch re-runs from clean initial
//! states. [`Epoch::reset_recovery`] records that the fallback fired;
//! its rounds count toward recovery like any others.

use pn_graph::{DynamicTopology, GraphError, NodeId, PortNumberedGraph};

use crate::cancel::CancelToken;
use crate::{NodeAlgorithm, RunOptions, RuntimeError, Simulator};

/// One fault-injection event, applied at an epoch barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Insert the edge `{u, v}` (appending a fresh highest port at both
    /// endpoints). Inserting an edge at a crashed node revives it.
    InsertEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Delete the edge `{u, v}` (the surviving ports of both endpoints
    /// are densely renumbered — an adversarial renumbering, see
    /// [`pn_graph::dynamic`]).
    DeleteEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Crash `v`: every incident edge disappears and the node sits out
    /// subsequent epochs at degree 0 until an insertion revives it.
    Crash {
        /// The crashing node.
        v: NodeId,
    },
    /// A fresh node joins, wired to the listed existing nodes.
    Join {
        /// Nodes the newcomer attaches to (distinct, non-crashed).
        attach: Vec<NodeId>,
    },
    /// Scramble `v`'s protocol state for the next epoch via
    /// [`crate::NodeAlgorithm::corrupt`] with the given entropy.
    Corrupt {
        /// The corrupted node.
        v: NodeId,
        /// Deterministic seed for the scrambling.
        entropy: u64,
    },
}

/// A deterministic fault schedule: bursts of events, one burst per
/// epoch barrier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventSchedule {
    bursts: Vec<Vec<ChurnEvent>>,
}

impl EventSchedule {
    /// The empty schedule (a run under it is exactly one static run).
    pub fn new() -> Self {
        EventSchedule::default()
    }

    /// Appends one burst, consumed at the next epoch barrier.
    pub fn push_burst(&mut self, burst: Vec<ChurnEvent>) -> &mut Self {
        self.bursts.push(burst);
        self
    }

    /// The scheduled bursts in application order.
    pub fn bursts(&self) -> &[Vec<ChurnEvent>] {
        &self.bursts
    }

    /// Number of scheduled bursts.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// Whether no burst is scheduled.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Total number of events across all bursts.
    pub fn event_count(&self) -> usize {
        self.bursts.iter().map(Vec::len).sum()
    }
}

/// An error from a churn run: either a topology mutation was invalid or
/// a protocol epoch failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnError {
    /// A topology event was structurally invalid (unknown node, missing
    /// edge, duplicate edge, ...).
    Graph(GraphError),
    /// A protocol epoch failed (and, for corrupted epochs, so did the
    /// reset-recovery re-run).
    Runtime(RuntimeError),
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Graph(e) => write!(f, "churn event failed: {e}"),
            ChurnError::Runtime(e) => write!(f, "churn epoch failed: {e}"),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> Self {
        ChurnError::Graph(e)
    }
}

impl From<RuntimeError> for ChurnError {
    fn from(e: RuntimeError) -> Self {
        ChurnError::Runtime(e)
    }
}

/// The result of one protocol epoch (one re-stabilization).
#[derive(Clone, Debug)]
pub struct Epoch<O> {
    /// The frozen topology the epoch ran on (outputs index into it).
    pub graph: PortNumberedGraph,
    /// Per-node outputs at quiescence.
    pub outputs: Vec<O>,
    /// Rounds until every node halted — the recovery cost of the burst
    /// that preceded this epoch.
    pub rounds: usize,
    /// Messages delivered during the epoch.
    pub messages: usize,
    /// How many nodes started this epoch from corrupted state.
    pub corrupted: usize,
    /// Whether the corrupted run failed and the epoch was recovered by
    /// rebuilding the states through [`crate::NodeAlgorithm::reset`].
    pub reset_recovery: bool,
}

/// Runs a node algorithm across churn epochs over a mutable topology.
///
/// The factory receives `(node, degree)` so identifier- and seed-keyed
/// protocols can look up per-node inputs; anonymous protocols ignore the
/// node id. Nodes created by [`ChurnEvent::Join`] get fresh ids past the
/// original range — factories must be total over them.
///
/// The simulator borrows its starting graph for its whole life: the
/// mutable [`DynamicTopology`] overlays the bursts on it instead of
/// copying it.
pub struct ChurnSimulator<'g, A, F>
where
    F: Fn(NodeId, usize) -> A,
{
    topo: DynamicTopology<'g>,
    factory: F,
    options: RunOptions,
    threads: usize,
    crashed: Vec<bool>,
    pending_corrupt: Vec<(NodeId, u64)>,
    cancel: Option<CancelToken>,
}

impl<'g, A, F> ChurnSimulator<'g, A, F>
where
    A: NodeAlgorithm + Send,
    A::Message: Send,
    A::Output: Send,
    F: Fn(NodeId, usize) -> A,
{
    /// A churn simulator over the wiring of `g` with default options and
    /// the sequential per-epoch engine. Every node starts alive.
    ///
    /// # Errors
    ///
    /// [`GraphError::NotSimple`] if `g` has loops or parallel links —
    /// the dynamic layer maintains simple topologies only.
    pub fn new(g: &'g PortNumberedGraph, factory: F) -> Result<Self, GraphError> {
        Ok(ChurnSimulator {
            topo: DynamicTopology::new(g)?,
            factory,
            options: RunOptions::default(),
            threads: 1,
            crashed: vec![false; g.node_count()],
            pending_corrupt: Vec::new(),
            cancel: None,
        })
    }

    /// Overrides the per-epoch run options.
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Routes every epoch through the persistent worker pool on
    /// `threads` workers (`1` keeps the sequential engine). Epoch
    /// results are bit-identical at every value — the pool applies
    /// bursts at the same epoch barriers as the sequential path.
    pub fn simulator_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Polls `token` at every epoch barrier and once per round inside
    /// each epoch. A deadline firing mid-epoch aborts the run at the
    /// next round boundary with a structured
    /// [`RuntimeError::Cancelled`]; the reset-recovery fallback is never
    /// attempted for a cancelled epoch.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The current (mutable) topology.
    pub fn topology(&self) -> &DynamicTopology<'g> {
        &self.topo
    }

    /// Drops any queued corruption without running an epoch, returning
    /// how many corrupt events were discarded. The repair-only recovery
    /// rung uses this: corruption damage is healed in the *witness* (the
    /// scrambled node outputs are re-legalised locally), so carrying the
    /// queue into a later full epoch would double-apply the fault.
    pub fn clear_corruption(&mut self) -> usize {
        let n = self.pending_corrupt.len();
        self.pending_corrupt.clear();
        n
    }

    /// Whether `v` is currently crashed (isolated and not yet revived).
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed.get(v.index()).copied().unwrap_or(false)
    }

    /// Applies one burst of events at the current epoch barrier.
    /// Topology events mutate immediately; corruption is queued for the
    /// next [`ChurnSimulator::stabilize`]. Returns the number of events
    /// applied.
    ///
    /// # Errors
    ///
    /// [`ChurnError::Graph`] on a structurally invalid event; prior
    /// events of the burst stay applied (the schedule generator is
    /// expected to emit valid bursts).
    pub fn apply_burst(&mut self, burst: &[ChurnEvent]) -> Result<usize, ChurnError> {
        for event in burst {
            match event {
                ChurnEvent::InsertEdge { u, v } => {
                    self.topo.insert_edge(*u, *v)?;
                    self.crashed[u.index()] = false;
                    self.crashed[v.index()] = false;
                }
                ChurnEvent::DeleteEdge { u, v } => {
                    self.topo.delete_edge(*u, *v)?;
                }
                ChurnEvent::Crash { v } => {
                    self.topo.isolate(*v)?;
                    self.crashed[v.index()] = true;
                }
                ChurnEvent::Join { attach } => {
                    let newcomer = self.topo.add_node();
                    self.crashed.push(false);
                    for &u in attach {
                        self.topo.insert_edge(newcomer, u)?;
                    }
                }
                ChurnEvent::Corrupt { v, entropy } => {
                    if v.index() >= self.topo.node_count() {
                        return Err(GraphError::NodeOutOfRange {
                            node: *v,
                            nodes: self.topo.node_count(),
                        }
                        .into());
                    }
                    self.pending_corrupt.push((*v, *entropy));
                }
            }
        }
        Ok(burst.len())
    }

    /// Builds the epoch's initial states: factory-fresh, with queued
    /// corruption applied (and, on the recovery path, reset again).
    fn build_states(&self, g: &PortNumberedGraph, reset: bool) -> Vec<A> {
        let mut states: Vec<A> = g.nodes().map(|v| (self.factory)(v, g.degree(v))).collect();
        for &(v, entropy) in &self.pending_corrupt {
            states[v.index()].corrupt(entropy);
            if reset {
                states[v.index()].reset();
            }
        }
        states
    }

    /// Runs the protocol to quiescence on the current topology,
    /// consuming any queued corruption. A corrupted epoch that fails
    /// outright re-runs once from states restored through
    /// [`crate::NodeAlgorithm::reset`] (see [`Epoch::reset_recovery`]).
    ///
    /// # Errors
    ///
    /// [`ChurnError::Runtime`] if the epoch fails — for corrupted
    /// epochs, only after the reset-recovery re-run also failed.
    pub fn stabilize(&mut self) -> Result<Epoch<A::Output>, ChurnError> {
        crate::metrics::metrics().churn_epochs.inc();
        if let Some(token) = &self.cancel {
            if token.check() {
                // The deadline fired at the barrier: nothing ran yet.
                return Err(RuntimeError::Cancelled {
                    after_rounds: 0,
                    still_running: self.topo.node_count(),
                }
                .into());
            }
        }
        let g = self.topo.freeze()?;
        let corrupted = self.pending_corrupt.len();
        let mut sim = Simulator::with_options(&g, self.options);
        if let Some(token) = &self.cancel {
            sim = sim.cancel_token(token.clone());
        }
        let run_epoch = |states: Vec<A>| {
            if self.threads > 1 {
                sim.run_parallel_states(states, self.threads)
            } else {
                sim.run_states(states)
            }
        };
        let (run, reset_recovery) = match run_epoch(self.build_states(&g, false)) {
            Ok(run) => (run, false),
            // A cancelled epoch is a timeout, not scrambled bookkeeping —
            // retrying from reset would just burn the rest of the budget.
            Err(e @ RuntimeError::Cancelled { .. }) => return Err(e.into()),
            Err(_) if corrupted > 0 => {
                // Self-stabilizing restart: rebuild, scramble identically,
                // reset back to initial states, and re-run clean.
                (run_epoch(self.build_states(&g, true))?, true)
            }
            Err(e) => return Err(e.into()),
        };
        self.pending_corrupt.clear();
        drop(sim);
        Ok(Epoch {
            graph: g,
            outputs: run.outputs,
            rounds: run.rounds,
            messages: run.messages,
            corrupted,
            reset_recovery,
        })
    }

    /// Runs a whole schedule: an initial epoch on the starting topology,
    /// then one epoch per burst. Returns every epoch in order (the first
    /// entry is the churn-free baseline).
    ///
    /// # Errors
    ///
    /// The first [`ChurnError`] encountered; earlier epochs are lost.
    pub fn run(&mut self, schedule: &EventSchedule) -> Result<Vec<Epoch<A::Output>>, ChurnError> {
        let mut epochs = Vec::with_capacity(schedule.len() + 1);
        epochs.push(self.stabilize()?);
        for burst in schedule.bursts() {
            self.apply_burst(burst)?;
            epochs.push(self.stabilize()?);
        }
        Ok(epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::{generators, ports};

    /// A two-round echo protocol with corruptible soft state: nodes
    /// exchange a token and output `base + smallest neighbour token`.
    /// `corrupt` garbles the token, `reset` restores it — and a token of
    /// `u64::MAX` makes the node emit a wrong *message count*, so a
    /// corrupted epoch can fail outright and exercise reset recovery.
    #[derive(Clone, Debug)]
    struct Echo {
        degree: usize,
        token: u64,
    }

    impl NodeAlgorithm for Echo {
        type Message = u64;
        type Output = u64;

        fn send(&mut self, _round: usize) -> Vec<u64> {
            if self.token == u64::MAX {
                return Vec::new(); // wrong count -> RuntimeError
            }
            vec![self.token; self.degree]
        }

        fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
            Some(self.token + inbox.iter().flatten().min().copied().unwrap_or(0))
        }

        fn corrupt(&mut self, entropy: u64) {
            self.token = entropy;
        }

        fn reset(&mut self) {
            self.token = 1;
        }
    }

    fn cycle6() -> PortNumberedGraph {
        ports::canonical_ports(&generators::cycle(6).unwrap()).unwrap()
    }

    fn sim(g: &PortNumberedGraph) -> ChurnSimulator<'_, Echo, impl Fn(NodeId, usize) -> Echo> {
        ChurnSimulator::new(g, |_, d| Echo {
            degree: d,
            token: 1,
        })
        .unwrap()
    }

    #[test]
    fn empty_schedule_is_one_static_run() {
        let g = cycle6();
        let baseline = Simulator::new(&g)
            .run(|d| Echo {
                degree: d,
                token: 1,
            })
            .unwrap();
        let epochs = sim(&g).run(&EventSchedule::new()).unwrap();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].outputs, baseline.outputs);
        assert_eq!(epochs[0].rounds, baseline.rounds);
        assert_eq!(epochs[0].messages, baseline.messages);
        assert_eq!(epochs[0].graph, g);
    }

    #[test]
    fn epochs_are_bit_identical_across_thread_counts() {
        let mut schedule = EventSchedule::new();
        schedule
            .push_burst(vec![
                ChurnEvent::DeleteEdge {
                    u: NodeId::new(0),
                    v: NodeId::new(1),
                },
                ChurnEvent::InsertEdge {
                    u: NodeId::new(0),
                    v: NodeId::new(3),
                },
            ])
            .push_burst(vec![
                ChurnEvent::Crash { v: NodeId::new(2) },
                ChurnEvent::Join {
                    attach: vec![NodeId::new(4), NodeId::new(5)],
                },
            ]);
        let g = cycle6();
        let baseline = sim(&g).run(&schedule).unwrap();
        for threads in [2, 4] {
            let parallel = sim(&g).simulator_threads(threads).run(&schedule).unwrap();
            assert_eq!(parallel.len(), baseline.len());
            for (p, b) in parallel.iter().zip(&baseline) {
                assert_eq!(p.graph, b.graph, "threads={threads}");
                assert_eq!(p.outputs, b.outputs, "threads={threads}");
                assert_eq!(p.rounds, b.rounds);
                assert_eq!(p.messages, b.messages);
            }
        }
    }

    #[test]
    fn crash_isolates_and_insert_revives() {
        let g = cycle6();
        let mut s = sim(&g);
        s.apply_burst(&[ChurnEvent::Crash { v: NodeId::new(2) }])
            .unwrap();
        assert!(s.is_crashed(NodeId::new(2)));
        let epoch = s.stabilize().unwrap();
        assert_eq!(epoch.graph.degree(NodeId::new(2)), 0);
        s.apply_burst(&[ChurnEvent::InsertEdge {
            u: NodeId::new(2),
            v: NodeId::new(5),
        }])
        .unwrap();
        assert!(!s.is_crashed(NodeId::new(2)));
        assert_eq!(s.stabilize().unwrap().graph.degree(NodeId::new(2)), 1);
    }

    #[test]
    fn corruption_is_consumed_and_counted() {
        let g = cycle6();
        let mut s = sim(&g);
        s.apply_burst(&[ChurnEvent::Corrupt {
            v: NodeId::new(0),
            entropy: 41,
        }])
        .unwrap();
        let corrupted = s.stabilize().unwrap();
        assert_eq!(corrupted.corrupted, 1);
        assert!(!corrupted.reset_recovery);
        // Node 0 started from token 41: its neighbours see it.
        assert_eq!(corrupted.outputs[1], 1 + 1); // unaffected min
        assert_eq!(corrupted.outputs[0], 41 + 1);
        // The queue is consumed: the next epoch is clean.
        let clean = s.stabilize().unwrap();
        assert_eq!(clean.corrupted, 0);
        assert_eq!(clean.outputs[0], 2);
    }

    #[test]
    fn failed_corrupted_epoch_recovers_through_reset() {
        let g = cycle6();
        let mut s = sim(&g);
        s.apply_burst(&[ChurnEvent::Corrupt {
            v: NodeId::new(3),
            entropy: u64::MAX, // makes the node's send fail outright
        }])
        .unwrap();
        let epoch = s.stabilize().unwrap();
        assert!(epoch.reset_recovery);
        assert_eq!(epoch.corrupted, 1);
        // After reset the epoch is indistinguishable from a clean one.
        let clean = sim(&g).stabilize().unwrap();
        assert_eq!(epoch.outputs, clean.outputs);
    }

    #[test]
    fn uncorrupted_failure_propagates() {
        let g = ports::canonical_ports(&generators::cycle(4).unwrap()).unwrap();
        let mut s = ChurnSimulator::new(&g, |_, d| Echo {
            degree: d,
            token: u64::MAX,
        })
        .unwrap();
        assert!(matches!(
            s.stabilize(),
            Err(ChurnError::Runtime(RuntimeError::WrongMessageCount { .. }))
        ));
    }

    #[test]
    fn cancelled_barrier_yields_structured_timeout() {
        let token = CancelToken::new();
        token.cancel();
        let g = cycle6();
        let mut s = sim(&g).cancel_token(token);
        match s.stabilize() {
            Err(ChurnError::Runtime(RuntimeError::Cancelled {
                after_rounds,
                still_running,
            })) => {
                assert_eq!(after_rounds, 0);
                assert_eq!(still_running, 6);
            }
            other => panic!("expected a cancelled epoch, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_corrupted_epoch_skips_reset_recovery() {
        // Corruption is queued AND the token is already cancelled: the
        // epoch must report the timeout, not attempt the reset re-run.
        let token = CancelToken::new();
        token.cancel();
        let g = cycle6();
        let mut s = sim(&g).cancel_token(token);
        s.apply_burst(&[ChurnEvent::Corrupt {
            v: NodeId::new(0),
            entropy: u64::MAX,
        }])
        .unwrap();
        assert!(matches!(
            s.stabilize(),
            Err(ChurnError::Runtime(RuntimeError::Cancelled { .. }))
        ));
    }

    #[test]
    fn clear_corruption_discards_the_queue() {
        let g = cycle6();
        let mut s = sim(&g);
        s.apply_burst(&[ChurnEvent::Corrupt {
            v: NodeId::new(0),
            entropy: 41,
        }])
        .unwrap();
        assert_eq!(s.clear_corruption(), 1);
        let epoch = s.stabilize().unwrap();
        assert_eq!(epoch.corrupted, 0);
        assert_eq!(epoch.outputs[0], 2, "the fault never reached the run");
    }

    #[test]
    fn invalid_events_surface_structured_errors() {
        let g = cycle6();
        let mut s = sim(&g);
        assert!(matches!(
            s.apply_burst(&[ChurnEvent::DeleteEdge {
                u: NodeId::new(0),
                v: NodeId::new(3),
            }]),
            Err(ChurnError::Graph(GraphError::InvalidParameter { .. }))
        ));
        assert!(matches!(
            s.apply_burst(&[ChurnEvent::Corrupt {
                v: NodeId::new(99),
                entropy: 0,
            }]),
            Err(ChurnError::Graph(GraphError::NodeOutOfRange { .. }))
        ));
    }
}
