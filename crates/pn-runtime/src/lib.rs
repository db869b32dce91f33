//! Deterministic synchronous simulator for distributed algorithms in
//! anonymous port-numbered networks.
//!
//! This crate implements the model of computation of Suomela, *Distributed
//! Algorithms for Edge Dominating Sets* (PODC 2010), Section 2.2:
//! synchronous rounds, one message per port per round, no node
//! identifiers, nodes initially knowing only their own degree.
//!
//! * [`NodeAlgorithm`] — the per-node deterministic state machine;
//! * [`Simulator`] — executes an algorithm on a
//!   [`pn_graph::PortNumberedGraph`], routing messages through the port
//!   involution and counting rounds and messages;
//! * [`PortSet`], [`edge_set_from_outputs`] — the paper's output
//!   convention for edge subsets, with the internal-consistency check;
//! * [`fiber_agreement`] — executable covering-map indistinguishability.
//!
//! # The three-phase round engine
//!
//! All entry points — [`Simulator::run`], [`Simulator::run_with_inputs`],
//! and [`Simulator::run_parallel`] — execute the same zero-allocation
//! round loop over two flat per-port message buffers (`outbox`, `inbox`),
//! laid out in the graph's slot arena: node `v`'s ports occupy the
//! contiguous window starting at
//! [`pn_graph::PortNumberedGraph::slot_offsets`]`()[v]`. Each round is
//! three phases:
//!
//! 1. **Send** — every *active* node writes one message per port into its
//!    outbox window via [`NodeAlgorithm::send_into`];
//! 2. **Route** — a permuted buffer move: `inbox[route[s]] =
//!    outbox[s].take()` for every occupied source slot `s`, where `route`
//!    is the **routing table** precomputed at [`Simulator`] construction
//!    (`route[slot(e)] = slot(p(e))`; it equals its own inverse because
//!    the port map `p` is an involution — see
//!    [`Simulator::routing_table`]). No `connection()` lookups or
//!    `Endpoint` arithmetic happen per round, and draining the outbox
//!    with `take` restores its all-`None` invariant without a full
//!    buffer clear;
//! 3. **Receive** — every active node consumes its inbox window through
//!    [`NodeAlgorithm::receive`] and optionally halts with an output.
//!
//! Active nodes live on a **frontier** (a compact vector of still-running
//! node ids) that the receive phase compacts in place as nodes halt, so
//! a halted node costs *nothing* in later rounds — long-tail executions
//! where a few high-degree nodes outlive everyone else run at the cost
//! of the survivors, not of the graph.
//!
//! [`Simulator::run_parallel`] executes the same loop on a **persistent
//! worker pool**: workers are spawned once per run, own contiguous node
//! chunks (states, slot ranges, per-chunk frontiers), and synchronise
//! phases through an epoch barrier — two barrier waits per round,
//! cross-chunk messages moved through per-pair mailboxes, results
//! bit-identical to the sequential engine at every thread count. The
//! `parallel` module docs describe the full design (sharing discipline,
//! quiescent chunks, barrier poisoning).
//!
//! Execution transcripts ([`RunOptions::record_trace`]) are captured by a
//! separate traced route phase; with tracing off (the default) the hot
//! loop contains no formatting and no per-message branching beyond the
//! occupancy check.
//!
//! # One engine
//!
//! Every protocol, at every size, runs through this round loop:
//! [`Simulator::run`] (and [`Simulator::run_with_inputs`]) on the
//! calling thread, or [`Simulator::run_parallel`] on the worker pool.
//! The paper's protocols exchange tiny messages for few rounds, and
//! per-protocol fast paths for them (bit-packed lanes, word kernels)
//! measured slower than this loop in total on the repository
//! benchmark, so none are kept.
//!
//! # Migrating from `send` to `send_into`
//!
//! [`NodeAlgorithm::send`] (allocate and return a `Vec` per node per
//! round) keeps working unchanged: the default
//! [`NodeAlgorithm::send_into`] delegates to it and enforces the
//! message-count contract. Hot algorithms should override `send_into` to
//! write into the engine-owned window directly and implement `send` as
//! `pn_runtime::collect_send(self, round, degree)` for API
//! compatibility; see `eds_core::distributed` for migrated examples.
//! A native `send_into` may leave a slot `None`, which delivers nothing
//! on that port (the peer receives `None`, as from a halted neighbour).
//! Silent ports have no representation in the legacy `Vec` API, so an
//! algorithm that uses them cannot go through [`collect_send`] (it
//! panics on empty slots by design) — implement `send` as
//! `unimplemented!` for such protocols and route all callers through
//! the simulator, which only ever calls `send_into`.
//!
//! # Example
//!
//! The "port-1" algorithm of Theorem 3 in 15 lines: every node selects
//! port 1 and any port whose counterpart announced itself as a port 1.
//!
//! ```
//! use pn_graph::{generators, ports, Port};
//! use pn_runtime::{edge_set_from_outputs, NodeAlgorithm, PortSet, Simulator};
//!
//! struct PortOne { degree: usize }
//! impl NodeAlgorithm for PortOne {
//!     type Message = bool; // "my end of this link is port 1"
//!     type Output = PortSet;
//!     fn send(&mut self, _r: usize) -> Vec<bool> {
//!         (1..=self.degree).map(|i| i == 1).collect()
//!     }
//!     fn receive(&mut self, _r: usize, inbox: &[Option<bool>]) -> Option<PortSet> {
//!         let mut x = PortSet::new();
//!         x.insert(Port::new(1));
//!         for (i, m) in inbox.iter().enumerate() {
//!             if m == &Some(true) {
//!                 x.insert(Port::from_index(i));
//!             }
//!         }
//!         Some(x)
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = ports::canonical_ports(&generators::cycle(6)?)?;
//! let run = Simulator::new(&g).run(|d| PortOne { degree: d })?;
//! let edges = edge_set_from_outputs(&g, &run.outputs)?; // consistent!
//! assert!(!edges.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithm;
mod cancel;
mod churn;
mod error;
mod metrics;
mod output;
mod parallel;
mod pool;
mod simulator;
mod trace;

pub use algorithm::{collect_send, entropy_stream, AlgorithmFactory, NodeAlgorithm, WrongCount};
pub use cancel::CancelToken;
pub use churn::{ChurnError, ChurnEvent, ChurnSimulator, Epoch, EventSchedule};
pub use error::RuntimeError;
pub use output::{edge_set_from_outputs, fiber_agreement, outputs_from_edge_set, PortSet};
pub use pool::{SubmitError, WorkerPool};
pub use simulator::{Run, RunOptions, Simulator};
pub use trace::{HaltEvent, MessageEvent, Trace};
