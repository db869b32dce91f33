//! A randomised distributed maximal matching — the "what if we allow
//! randomness?" counterpoint to the paper's deterministic model.
//!
//! The paper studies *deterministic* algorithms, where anonymous
//! symmetry is unbreakable (Theorems 1–2). Randomness breaks it cheaply:
//! in the style of Israeli–Itai, each phase every unmatched node flips a
//! coin to act as a **proposer** or an **acceptor**; proposers offer to
//! a uniformly random free neighbour, acceptors take a random incoming
//! offer, and matched pairs retire. The role split keeps every node on
//! at most one new edge per phase; a constant fraction of the remaining
//! edges disappears per phase in expectation, so `O(log n)` phases
//! suffice with high probability.
//!
//! The protocol is implemented as a [`NodeAlgorithm`] whose nodes are
//! seeded through [`Simulator::run_with_inputs`] — the seeds are the
//! *only* symmetry break: no identifiers, no port-numbering tricks. For
//! a fixed seed assignment the execution is fully deterministic and
//! reproducible.

use pn_graph::{EdgeId, Port, PortNumberedGraph};
use pn_runtime::{collect_send, NodeAlgorithm, PortSet, RuntimeError, Simulator, WrongCount};

/// Messages of the randomised matching protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RandMmMsg {
    /// Still unmatched (sent every status round on every port).
    Free(bool),
    /// A proposal (propose rounds).
    Propose,
    /// Answer to a proposal (respond rounds).
    Response(bool),
    /// Filler.
    Nothing,
}

/// Node state machine for the randomised matching.
#[derive(Clone, Debug)]
pub struct RandMatchingNode {
    degree: usize,
    /// The construction-time seed, retained so `reset` can re-derive the
    /// whole initial state.
    seed: u64,
    rng: u64,
    phases: usize,
    matched: bool,
    matched_port: Option<usize>,
    /// This phase's coin flip: `true` = proposer, `false` = acceptor.
    proposer_role: bool,
    neighbor_free: Vec<bool>,
    pending: Option<usize>,
    incoming: Vec<usize>,
}

impl RandMatchingNode {
    /// Creates the state machine: `degree` ports, a per-node random
    /// `seed`, and the number of proposal `phases` to run (callers use
    /// `O(log n)`; see [`randomized_matching_phases`]).
    pub fn new(degree: usize, seed: u64, phases: usize) -> Self {
        RandMatchingNode {
            degree,
            seed,
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            phases,
            matched: false,
            matched_port: None,
            proposer_role: false,
            neighbor_free: vec![true; degree],
            pending: None,
            incoming: Vec::new(),
        }
    }

    /// xorshift64* step.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Phases (status + propose + respond triples) sufficient for maximality
/// with overwhelming probability on `n`-node graphs.
pub fn randomized_matching_phases(n: usize) -> usize {
    8 * (usize::BITS - n.max(2).leading_zeros()) as usize + 16
}

/// Total protocol rounds for a given phase count.
pub fn randomized_matching_rounds(phases: usize) -> usize {
    3 * phases
}

impl NodeAlgorithm for RandMatchingNode {
    type Message = RandMmMsg;
    type Output = PortSet;

    fn send(&mut self, round: usize) -> Vec<RandMmMsg> {
        collect_send(self, round, self.degree)
    }

    fn send_into(
        &mut self,
        round: usize,
        outbox: &mut [Option<RandMmMsg>],
    ) -> Result<(), WrongCount> {
        let d = self.degree;
        match round % 3 {
            0 => {
                // New phase: flip the proposer/acceptor coin.
                self.proposer_role = self.next_rand() & 1 == 1;
                outbox.fill(Some(RandMmMsg::Free(!self.matched)));
            }
            1 => {
                // Proposers offer to a uniformly random free neighbour.
                outbox.fill(Some(RandMmMsg::Nothing));
                self.pending = None;
                if !self.matched && self.proposer_role {
                    let free_count = self.neighbor_free.iter().filter(|&&f| f).count();
                    if free_count > 0 {
                        let pick = (self.next_rand() % free_count as u64) as usize;
                        let q = (0..d)
                            .filter(|&q| self.neighbor_free[q])
                            .nth(pick)
                            .expect("pick < free_count");
                        self.pending = Some(q);
                        outbox[q] = Some(RandMmMsg::Propose);
                    }
                }
            }
            _ => {
                outbox.fill(Some(RandMmMsg::Nothing));
                let incoming = std::mem::take(&mut self.incoming);
                for &q in &incoming {
                    outbox[q] = Some(RandMmMsg::Response(false));
                }
                // Only acceptors take an offer; proposers reject all, so
                // no node can end the phase on two new edges.
                if !self.matched && !self.proposer_role && !incoming.is_empty() {
                    let q = incoming[(self.next_rand() % incoming.len() as u64) as usize];
                    outbox[q] = Some(RandMmMsg::Response(true));
                    self.matched = true;
                    self.matched_port = Some(q);
                }
            }
        }
        Ok(())
    }

    fn receive(&mut self, round: usize, inbox: &[Option<RandMmMsg>]) -> Option<PortSet> {
        if self.degree == 0 {
            return Some(PortSet::new());
        }
        match round % 3 {
            0 => {
                for (q, m) in inbox.iter().enumerate() {
                    if let Some(RandMmMsg::Free(f)) = m {
                        self.neighbor_free[q] = *f;
                    }
                }
                None
            }
            1 => {
                self.incoming.clear();
                for (q, m) in inbox.iter().enumerate() {
                    if m == &Some(RandMmMsg::Propose) {
                        self.incoming.push(q);
                    }
                }
                None
            }
            _ => {
                if let Some(q) = self.pending.take() {
                    if inbox[q] == Some(RandMmMsg::Response(true)) {
                        self.matched = true;
                        self.matched_port = Some(q);
                    }
                }
                if round + 1 >= randomized_matching_rounds(self.phases) {
                    let mut x = PortSet::new();
                    if let Some(q) = self.matched_port {
                        x.insert(Port::from_index(q));
                    }
                    Some(x)
                } else {
                    None
                }
            }
        }
    }

    fn corrupt(&mut self, entropy: u64) {
        // Everything soft is garbleable: the xorshift state accepts any
        // word (`next_rand` guards against 0), the matching bookkeeping
        // is bits, and port references stay < degree. `degree`, `seed`,
        // and `phases` define the schedule and the reset state.
        if self.degree == 0 {
            return;
        }
        let mut next = pn_runtime::entropy_stream(entropy);
        self.rng = next();
        self.matched = next() & 1 == 0;
        self.matched_port = (next() & 1 == 0).then(|| (next() % self.degree as u64) as usize);
        self.proposer_role = next() & 1 == 0;
        for b in &mut self.neighbor_free {
            *b = next() & 1 == 0;
        }
        self.pending = (next() & 1 == 0).then(|| (next() % self.degree as u64) as usize);
        self.incoming = (0..self.degree).filter(|_| next() & 1 == 0).collect();
    }

    fn reset(&mut self) {
        *self = RandMatchingNode::new(self.degree, self.seed, self.phases);
    }
}

/// Runs the randomised matching on `g` with per-node `seeds` for
/// [`randomized_matching_phases`]`(n)` phases and returns the matched
/// edges.
///
/// The result is a matching by construction; it is maximal with
/// overwhelming probability (the property tests check maximality on
/// every sampled execution, with fixed seeds for reproducibility).
///
/// # Errors
///
/// Propagates simulator errors (none occur on valid inputs).
///
/// # Panics
///
/// Panics if `seeds.len()` differs from the node count.
pub fn randomized_matching_distributed(
    g: &PortNumberedGraph,
    seeds: &[u64],
) -> Result<Vec<EdgeId>, RuntimeError> {
    assert_eq!(seeds.len(), g.node_count(), "one seed per node");
    let phases = randomized_matching_phases(g.node_count());
    let run = Simulator::new(g).run_with_inputs(seeds, |degree, &seed| {
        RandMatchingNode::new(degree, seed, phases)
    })?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmm::is_maximal_matching;
    use pn_graph::{generators, ports};

    fn seeds(n: usize, salt: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x517c_c1b7_2722_0a95) ^ salt)
            .collect()
    }

    #[test]
    fn maximal_on_classic_graphs() {
        for (name, g) in [
            ("petersen", generators::petersen()),
            ("k6", generators::complete(6).unwrap()),
            ("cycle11", generators::cycle(11).unwrap()),
            ("grid5x5", generators::grid(5, 5).unwrap()),
            ("star8", generators::star(8).unwrap()),
        ] {
            let pg = ports::shuffled_ports(&g, 5).unwrap();
            let edges = randomized_matching_distributed(&pg, &seeds(g.node_count(), 42)).unwrap();
            assert!(
                is_maximal_matching(&pg.to_simple().unwrap(), &edges),
                "{name}"
            );
        }
    }

    #[test]
    fn maximal_on_random_graphs_many_seeds() {
        for salt in 0..10u64 {
            let g = generators::gnp(20, 0.25, salt).unwrap();
            if g.is_edgeless() {
                continue;
            }
            let pg = ports::shuffled_ports(&g, salt).unwrap();
            let edges = randomized_matching_distributed(&pg, &seeds(20, salt * 97 + 1)).unwrap();
            assert!(
                is_maximal_matching(&pg.to_simple().unwrap(), &edges),
                "salt {salt}"
            );
        }
    }

    #[test]
    fn breaks_symmetry_where_determinism_cannot() {
        // The symmetric cycle defeats every deterministic anonymous
        // algorithm (the paper's Theorem 1 machinery); random seeds break
        // it immediately.
        let mut b = pn_graph::PnGraphBuilder::new();
        let n = 8;
        for _ in 0..n {
            b.add_node(2);
        }
        for v in 0..n {
            b.connect(
                pn_graph::Endpoint::new(pn_graph::NodeId::new(v), Port::new(1)),
                pn_graph::Endpoint::new(pn_graph::NodeId::new((v + 1) % n), Port::new(2)),
            )
            .unwrap();
        }
        let pg = b.finish().unwrap();
        let edges = randomized_matching_distributed(&pg, &seeds(n, 7)).unwrap();
        let simple = pg.to_simple().unwrap();
        assert!(is_maximal_matching(&simple, &edges));
        // A *proper* nonempty subset: impossible deterministically.
        assert!(!edges.is_empty());
        assert!(edges.len() < pg.edge_count());
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let g = generators::petersen();
        let pg = ports::shuffled_ports(&g, 1).unwrap();
        let s = seeds(10, 3);
        let a = randomized_matching_distributed(&pg, &s).unwrap();
        let b = randomized_matching_distributed(&pg, &s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn phases_grow_logarithmically() {
        assert!(randomized_matching_phases(2) < randomized_matching_phases(1 << 20));
        let small = randomized_matching_phases(16);
        let large = randomized_matching_phases(16 * 1024);
        // 10 extra doublings -> 80 extra phases.
        assert_eq!(large - small, 8 * 10);
    }

    #[test]
    fn corrupt_then_reset_restores_the_initial_state() {
        let mut node = RandMatchingNode::new(3, 99, 7);
        let fresh = format!("{node:?}");
        node.corrupt(0xdead_beef);
        assert_ne!(format!("{node:?}"), fresh, "corruption must change state");
        node.reset();
        assert_eq!(format!("{node:?}"), fresh, "reset must restore it");
    }

    #[test]
    fn corrupted_epochs_stay_well_defined() {
        use pn_runtime::{ChurnEvent, ChurnSimulator};
        let g = ports::shuffled_ports(&generators::petersen(), 2).unwrap();
        let phases = randomized_matching_phases(10);
        let s = seeds(10, 11);
        let mut sim =
            ChurnSimulator::new(&g, |v, d| RandMatchingNode::new(d, s[v.index()], phases)).unwrap();
        let burst: Vec<_> = (0..10)
            .map(|v| ChurnEvent::Corrupt {
                v: pn_graph::NodeId::new(v),
                entropy: v as u64 * 77 + 5,
            })
            .collect();
        sim.apply_burst(&burst).unwrap();
        let epoch = sim.stabilize().unwrap(); // must complete, never panic
        assert_eq!(epoch.corrupted, 10);
        // The queue drains: the next epoch is the clean baseline again.
        let clean = sim.stabilize().unwrap();
        assert_eq!(clean.corrupted, 0);
        let edges = pn_runtime::edge_set_from_outputs(&g, &clean.outputs).unwrap();
        assert!(is_maximal_matching(&g.to_simple().unwrap(), &edges));
    }
}
