//! A genuinely distributed maximal matching in the **identifier model**
//! — the Panconesi–Rizzi `O(Δ + log* n)` construction the paper cites in
//! Section 1.3 (reference \[19\]).
//!
//! With unique identifiers the symmetry barriers of the port-numbering
//! model disappear: a maximal matching (hence a 2-approximate edge
//! dominating set) is computable in rounds independent of the
//! approximation quality. The algorithm:
//!
//! 1. **Orient** every edge toward its lower-identifier endpoint; the
//!    out-edges of a node, in port order, index up to `Δ` **forests**
//!    (following out-edges strictly decreases identifiers, so each class
//!    is acyclic, with out-degree at most 1 per node — parent pointers).
//! 2. **Colour** all forests in parallel with Cole–Vishkin iterated
//!    bit-reduction, starting from the identifiers: after `O(log* n)`
//!    iterations every forest is properly coloured with at most 6
//!    colours.
//! 3. **Match** forest by forest, colour class by colour class:
//!    unmatched nodes of the current colour propose to their forest
//!    parent; an unmatched parent accepts its smallest-port proposal.
//!    Each forest pass adds a maximal matching among still-unmatched
//!    nodes; every edge lives in exactly one forest, so the union is a
//!    maximal matching of the whole graph.
//!
//! Round complexity: `1 + O(log* n) + O(Δ)` — compare with the anonymous
//! `A(Δ)` protocol's `O(Δ²)` and its factor-4 barrier.

use pn_graph::{EdgeId, PortNumberedGraph};
use pn_runtime::{collect_send, NodeAlgorithm, PortSet, RuntimeError, Simulator, WrongCount};

/// Cole–Vishkin iterations hard-wired into the schedule. Identifiers are
/// `u64`, so colours shrink 64-bit → ≤13 → ≤9 → ≤7 → ≤6 values within
/// five iterations; 12 leaves a wide margin (extra iterations keep the
/// colouring proper and below 6).
const CV_ITERATIONS: usize = 12;

/// Messages of the identifier-model matching protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdMmMsg {
    /// Round 0: the sender's unique identifier.
    Ident(u64),
    /// Cole–Vishkin rounds: the sender's colour vector, one colour per
    /// forest index `0..Δ`; a receiving child indexes it by the forest
    /// number of the shared edge (the rank among the child's out-edges).
    Colors(Vec<u64>),
    /// Matching rounds: a proposal along a forest edge.
    Propose,
    /// Matching rounds: the answer to a proposal.
    Response(bool),
    /// Filler.
    Nothing,
}

/// Number of rounds of the protocol for degree bound `delta`.
pub fn id_matching_rounds(delta: usize) -> usize {
    1 + CV_ITERATIONS + delta * 6 * 2
}

/// Node state machine for the identifier-model maximal matching.
#[derive(Clone, Debug)]
pub struct IdMatchingNode {
    delta: usize,
    degree: usize,
    id: u64,
    their_id: Vec<u64>,
    /// Out-edges (ports toward lower identifiers) in port order; the
    /// position in this list is the forest index of the edge.
    out_ports: Vec<usize>,
    /// Colour per forest index (0..delta): this node's Cole–Vishkin
    /// colour *as a member of* each forest. Children read entry `f` of
    /// the parent's vector; a node with no out-edge of rank `f` is a
    /// root of forest `f` and folds against a pseudo-parent.
    colors: Vec<u64>,
    matched: bool,
    matched_port: Option<usize>,
    pending: Option<usize>,
    incoming: Vec<usize>,
}

impl IdMatchingNode {
    /// Creates the state machine for degree bound `delta`, a node of
    /// degree `degree` with unique identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `degree > delta`.
    pub fn new(delta: usize, degree: usize, id: u64) -> Self {
        assert!(degree <= delta, "node degree exceeds Δ");
        IdMatchingNode {
            delta,
            degree,
            id,
            their_id: vec![0; degree],
            out_ports: Vec::new(),
            colors: vec![id; delta.max(1)],
            matched: false,
            matched_port: None,
            pending: None,
            incoming: Vec::new(),
        }
    }

    /// One Cole–Vishkin step for colour `c` against parent colour `p`
    /// (`c != p`): the index of the lowest differing bit, shifted left,
    /// plus that bit of `c`.
    fn cv_step(c: u64, p: u64) -> u64 {
        debug_assert_ne!(c, p, "proper colouring before a CV step");
        let i = (c ^ p).trailing_zeros() as u64;
        2 * i + ((c >> i) & 1)
    }

    fn schedule(&self, round: usize) -> Phase {
        if round == 0 {
            return Phase::Ident;
        }
        let r = round - 1;
        if r < CV_ITERATIONS {
            return Phase::ColeVishkin;
        }
        let r = r - CV_ITERATIONS;
        let step = r / 2;
        let forest = step / 6;
        let color = (step % 6) as u64;
        if r.is_multiple_of(2) {
            Phase::Propose { forest, color }
        } else {
            Phase::Respond
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Ident,
    ColeVishkin,
    Propose { forest: usize, color: u64 },
    Respond,
}

impl NodeAlgorithm for IdMatchingNode {
    type Message = IdMmMsg;
    type Output = PortSet;

    fn send(&mut self, round: usize) -> Vec<IdMmMsg> {
        collect_send(self, round, self.degree)
    }

    fn send_into(
        &mut self,
        round: usize,
        outbox: &mut [Option<IdMmMsg>],
    ) -> Result<(), WrongCount> {
        match self.schedule(round) {
            Phase::Ident => outbox.fill(Some(IdMmMsg::Ident(self.id))),
            Phase::ColeVishkin => {
                // The colour vector is part of the protocol (children index
                // the parent's vector); the clone per port is inherent to
                // the message, not to the engine.
                outbox.fill(Some(IdMmMsg::Colors(self.colors.clone())));
            }
            Phase::Propose { forest, color } => {
                outbox.fill(Some(IdMmMsg::Nothing));
                self.pending = None;
                if !self.matched && self.colors.get(forest) == Some(&color) {
                    if let Some(&port) = self.out_ports.get(forest) {
                        self.pending = Some(port);
                        outbox[port] = Some(IdMmMsg::Propose);
                    }
                }
            }
            Phase::Respond => {
                outbox.fill(Some(IdMmMsg::Nothing));
                let incoming = std::mem::take(&mut self.incoming);
                for &q in &incoming {
                    outbox[q] = Some(IdMmMsg::Response(false));
                }
                if !self.matched {
                    if let Some(&best) = incoming.iter().min() {
                        outbox[best] = Some(IdMmMsg::Response(true));
                        self.matched = true;
                        self.matched_port = Some(best);
                    }
                }
            }
        }
        Ok(())
    }

    fn receive(&mut self, round: usize, inbox: &[Option<IdMmMsg>]) -> Option<PortSet> {
        if self.degree == 0 {
            return Some(PortSet::new());
        }
        match self.schedule(round) {
            Phase::Ident => {
                for (q, m) in inbox.iter().enumerate() {
                    match m {
                        Some(IdMmMsg::Ident(x)) => self.their_id[q] = *x,
                        other => unreachable!("round 0 expects Ident, got {other:?}"),
                    }
                }
                // Out-edges point to strictly lower identifiers.
                self.out_ports = (0..self.degree)
                    .filter(|&q| self.their_id[q] < self.id)
                    .collect();
                None
            }
            Phase::ColeVishkin => {
                // New colour per forest: children read the parent's colour
                // for that forest from the parent's vector — the parent's
                // colour of forest f sits at index f of *its* vector, but
                // we receive the whole vector and we know which forest the
                // shared edge is in from OUR side (it is our out-edge).
                let mut next = self.colors.clone();
                for (f, &port) in self.out_ports.iter().enumerate() {
                    let parent_colors = match &inbox[port] {
                        Some(IdMmMsg::Colors(v)) => v,
                        other => unreachable!("CV round expects Colors, got {other:?}"),
                    };
                    // The parent's colour *in forest f* is its vector at
                    // index f: every node keeps a colour per forest index.
                    let p = parent_colors.get(f).copied().unwrap_or(0);
                    next[f] = Self::cv_step(self.colors[f], p);
                }
                // Forest roots (no out-edge of that index): fold against a
                // pseudo-parent that differs in the lowest bit.
                for (f, slot) in next.iter_mut().enumerate().skip(self.out_ports.len()) {
                    let c = self.colors[f];
                    *slot = Self::cv_step(c, c ^ 1);
                }
                self.colors = next;
                None
            }
            Phase::Propose { .. } => {
                self.incoming.clear();
                for (q, m) in inbox.iter().enumerate() {
                    if m == &Some(IdMmMsg::Propose) {
                        self.incoming.push(q);
                    }
                }
                None
            }
            Phase::Respond => {
                if let Some(q) = self.pending.take() {
                    if inbox[q] == Some(IdMmMsg::Response(true)) {
                        self.matched = true;
                        self.matched_port = Some(q);
                    }
                }
                if round + 1 == id_matching_rounds(self.delta) {
                    let mut x = PortSet::new();
                    if let Some(q) = self.matched_port {
                        x.insert(pn_graph::Port::from_index(q));
                    }
                    Some(x)
                } else {
                    None
                }
            }
        }
    }

    fn corrupt(&mut self, entropy: u64) {
        // Garble the matching bookkeeping and the learned labels; round 0
        // re-derives `out_ports` from the real `Ident` exchange before
        // anything reads them. Two fields stay intact by contract: `id`
        // (global uniqueness is what makes the forest orientation acyclic)
        // and `colors` (the Cole–Vishkin step requires a proper colouring
        // along forest edges — an invariant no single node can re-satisfy
        // locally, so scrambling it would break `cv_step`'s precondition
        // rather than model a recoverable fault).
        if self.degree == 0 {
            return;
        }
        let mut next = pn_runtime::entropy_stream(entropy);
        for x in &mut self.their_id {
            *x = next();
        }
        self.out_ports = (0..self.degree).filter(|_| next() & 1 == 0).collect();
        self.matched = next() & 1 == 0;
        self.matched_port = (next() & 1 == 0).then(|| (next() % self.degree as u64) as usize);
        self.pending = (next() & 1 == 0).then(|| (next() % self.degree as u64) as usize);
        self.incoming = (0..self.degree).filter(|_| next() & 1 == 0).collect();
    }

    fn reset(&mut self) {
        *self = IdMatchingNode::new(self.delta, self.degree, self.id);
    }
}

/// Runs the identifier-model maximal matching on `g` with the given
/// unique identifiers.
///
/// # Errors
///
/// Propagates simulator errors (none occur for distinct identifiers and
/// `max_degree(g) <= delta`).
///
/// # Panics
///
/// Panics if `ids` has the wrong length or contains duplicates.
pub fn id_matching_distributed(
    g: &PortNumberedGraph,
    delta: usize,
    ids: &[u64],
) -> Result<Vec<EdgeId>, RuntimeError> {
    assert_eq!(ids.len(), g.node_count(), "one identifier per node");
    {
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "identifiers must be unique");
    }
    let run = Simulator::new(g)
        .run_with_inputs(ids, |degree, &id| IdMatchingNode::new(delta, degree, id))?;
    pn_runtime::edge_set_from_outputs(g, &run.outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmm::is_maximal_matching;
    use pn_graph::{generators, ports};

    fn check(g: &pn_graph::SimpleGraph, seed: u64) {
        let pg = ports::shuffled_ports(g, seed).unwrap();
        let delta = pg.max_degree();
        let ids: Vec<u64> = (0..g.node_count() as u64).map(|i| i * 7 + 3).collect();
        let edges = id_matching_distributed(&pg, delta, &ids).unwrap();
        let simple = pg.to_simple().unwrap();
        assert!(
            is_maximal_matching(&simple, &edges),
            "not a maximal matching"
        );
    }

    #[test]
    fn maximal_on_classic_graphs() {
        check(&generators::petersen(), 1);
        check(&generators::complete(6).unwrap(), 2);
        check(&generators::cycle(9).unwrap(), 3);
        check(&generators::grid(4, 4).unwrap(), 4);
        check(&generators::star(7).unwrap(), 5);
        check(&generators::hypercube(4).unwrap(), 6);
    }

    #[test]
    fn maximal_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::gnp(16, 0.3, seed).unwrap();
            if g.is_edgeless() {
                continue;
            }
            check(&g, seed);
        }
    }

    #[test]
    fn round_count_formula() {
        let g = generators::random_regular(12, 4, 9).unwrap();
        let pg = ports::shuffled_ports(&g, 9).unwrap();
        let ids: Vec<u64> = (0..12u64).collect();
        let run = Simulator::new(&pg)
            .run_with_inputs(&ids, |d, &id| IdMatchingNode::new(4, d, id))
            .unwrap();
        assert_eq!(run.rounds, id_matching_rounds(4));
    }

    #[test]
    fn identifier_values_do_not_break_it() {
        // Adversarial identifiers: huge, consecutive, bit-patterned.
        let g = generators::cycle(8).unwrap();
        let pg = ports::canonical_ports(&g).unwrap();
        for ids in [
            (0..8u64).map(|i| u64::MAX - i).collect::<Vec<_>>(),
            (0..8u64).map(|i| i << 60 | i).collect::<Vec<_>>(),
            vec![5, 2, 9, 1, 7, 3, 8, 4],
        ] {
            let edges = id_matching_distributed(&pg, 2, &ids).unwrap();
            assert!(is_maximal_matching(&pg.to_simple().unwrap(), &edges));
        }
    }

    #[test]
    fn cv_step_properties() {
        // Proper colourings stay proper: if c != p then step(c, x) for
        // the same parent chain differs from the parent's own step.
        let pairs = [(0b1010u64, 0b1000u64), (7, 1), (u64::MAX, 0), (13, 12)];
        for (c, p) in pairs {
            let s = IdMatchingNode::cv_step(c, p);
            assert!(s <= 2 * 63 + 1);
            // Re-stepping with the parent's own next colour keeps them
            // distinct (the CV invariant) for a concrete grandparent.
            let gp = p ^ 0b100;
            let sp = IdMatchingNode::cv_step(p, gp);
            if s == sp {
                panic!("CV step collided: c={c}, p={p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_ids_rejected() {
        let g = ports::canonical_ports(&generators::path(3).unwrap()).unwrap();
        let _ = id_matching_distributed(&g, 2, &[1, 1, 2]);
    }

    #[test]
    fn corrupt_then_reset_restores_the_initial_state() {
        let mut node = IdMatchingNode::new(4, 3, 42);
        let fresh = format!("{node:?}");
        node.corrupt(0xfeed_cafe);
        assert_ne!(format!("{node:?}"), fresh, "corruption must change state");
        node.reset();
        assert_eq!(format!("{node:?}"), fresh, "reset must restore it");
    }

    #[test]
    fn corrupted_epochs_stay_well_defined() {
        use pn_runtime::{ChurnEvent, ChurnSimulator};
        let g = ports::shuffled_ports(&generators::petersen(), 4).unwrap();
        let mut sim = ChurnSimulator::new(&g, |v, d| {
            IdMatchingNode::new(3, d, v.index() as u64 * 7 + 3)
        })
        .unwrap();
        let burst: Vec<_> = (0..10)
            .map(|v| ChurnEvent::Corrupt {
                v: pn_graph::NodeId::new(v),
                entropy: 0x9e37 ^ (v as u64) << 3,
            })
            .collect();
        sim.apply_burst(&burst).unwrap();
        let epoch = sim.stabilize().unwrap(); // must complete, never panic
        assert_eq!(epoch.corrupted, 10);
        // After the corruption drains, the next epoch converges cleanly.
        let clean = sim.stabilize().unwrap();
        let edges = pn_runtime::edge_set_from_outputs(&g, &clean.outputs).unwrap();
        assert!(is_maximal_matching(&g.to_simple().unwrap(), &edges));
    }
}
