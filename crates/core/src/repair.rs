//! Incremental repair of solution witnesses under churn.
//!
//! When the topology changes (edge insert/delete, crash, join) or a node's
//! stored output is corrupted, re-running a protocol from scratch costs its
//! full round schedule. The paper's structures are *local*, though: a
//! maximal matching, an edge dominating set, or a vertex cover damaged at a
//! few nodes can be repaired by rules that only inspect the neighbourhoods
//! of the damaged region. This module implements those rules on
//! *witnesses* — topology-independent descriptions of a solution — so the
//! churn harness can measure recovery cost separately from protocol cost.
//!
//! Witnesses use node identities rather than [`pn_graph::EdgeId`]s because
//! edge identifiers are not stable across mutations: an edge set is a
//! `BTreeSet<(usize, usize)>` of normalised endpoint pairs, a node set a
//! `BTreeSet<usize>`. All rules are deterministic (processing in ascending
//! node order), so repaired witnesses are reproducible bit-for-bit.
//!
//! The rules are generic over [`AdjacencyView`] — any structure that can
//! enumerate a node's neighbours. That is what makes repair *streaming*:
//! at the million-node tier the view is a delta overlay over a flat
//! involution table, and a repair pass touches only the damaged
//! neighbourhoods, never a second full copy of the graph.
//!
//! Accounting mirrors the message-passing model: each *round* is one
//! synchronous pass of a local rule over the damaged frontier, and each
//! scan of a node's neighbourhood costs `deg(v)` *messages*. For a single
//! edge event the frontier has constant size, so repair takes `O(1)` rounds
//! — the bound the `churn_sweep` smoke gate asserts.
//!
//! The escalation policy — when repair alone is trusted, when the protocol
//! re-runs on a k-hop ball around the frontier ([`khop_ball`] +
//! [`splice_edge_witness`]), and when a full re-stabilisation is the last
//! resort — is captured by [`RecoveryPolicy`] and consumed by the churn
//! runner in `eds-scenarios`.

use std::collections::BTreeSet;
use std::collections::{BTreeMap, VecDeque};

use pn_graph::{DynamicTopology, NodeId, SimpleGraph};

/// An edge witness: normalised `(min, max)` endpoint pairs.
pub type EdgeWitness = BTreeSet<(usize, usize)>;

/// A node witness (e.g. a vertex cover).
pub type NodeWitness = BTreeSet<usize>;

/// Normalises an endpoint pair for storage in an [`EdgeWitness`].
#[must_use]
pub fn edge_key(u: usize, v: usize) -> (usize, usize) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// Read-only adjacency access, the only capability the repair rules and
/// witness checkers need. Implemented for [`SimpleGraph`] (the static
/// path) and [`DynamicTopology`] (the churn overlay over a borrowed
/// base), so a repair pass never forces a full graph materialisation.
pub trait AdjacencyView {
    /// Number of nodes (including isolated ones).
    fn node_count(&self) -> usize;

    /// Current degree of `v`.
    fn degree_of(&self, v: usize) -> usize;

    /// Calls `f` once per neighbour of `v`, in the view's storage order.
    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize));

    /// Whether `{u, v}` is currently an edge. Out-of-range endpoints are
    /// simply not edges.
    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        if u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let mut found = false;
        self.for_each_neighbor(u, &mut |w| {
            if w == v {
                found = true;
            }
        });
        found
    }
}

impl AdjacencyView for SimpleGraph {
    fn node_count(&self) -> usize {
        SimpleGraph::node_count(self)
    }

    fn degree_of(&self, v: usize) -> usize {
        self.neighbors(NodeId::new(v)).len()
    }

    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for &(u, _) in self.neighbors(NodeId::new(v)) {
            f(u.index());
        }
    }

    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        u < SimpleGraph::node_count(self)
            && v < SimpleGraph::node_count(self)
            && self.has_edge(NodeId::new(u), NodeId::new(v))
    }
}

impl AdjacencyView for DynamicTopology<'_> {
    fn node_count(&self) -> usize {
        DynamicTopology::node_count(self)
    }

    fn degree_of(&self, v: usize) -> usize {
        self.degree(NodeId::new(v))
    }

    fn for_each_neighbor(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for u in self.neighbors(NodeId::new(v)) {
            f(u.index());
        }
    }

    fn has_edge_between(&self, u: usize, v: usize) -> bool {
        self.has_edge(NodeId::new(u), NodeId::new(v))
    }
}

/// Runs `pred` over every edge `{v, u}` (`v < u`) of the view; returns
/// whether every edge satisfied it.
fn all_edges<V: AdjacencyView + ?Sized>(g: &V, mut pred: impl FnMut(usize, usize) -> bool) -> bool {
    for v in 0..g.node_count() {
        let mut ok = true;
        g.for_each_neighbor(v, &mut |u| {
            if v < u && !pred(v, u) {
                ok = false;
            }
        });
        if !ok {
            return false;
        }
    }
    true
}

/// Cost and damage accounting for one repair invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Synchronous local-rule passes until the witness was feasible again.
    pub rounds: usize,
    /// Neighbourhood scans, charged `deg(v)` per scanned node per pass.
    pub messages: usize,
    /// Violations present at the quiescence point *before* repair:
    /// ghost/conflicting witness entries plus uncovered edges discovered
    /// while patching.
    pub transient_violations: usize,
}

/// The rungs of the churn-recovery escalation ladder, cheapest first.
/// Ordered: a later rung strictly dominates an earlier one in cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryTier {
    /// No recovery ran (an empty schedule).
    #[default]
    None,
    /// Local witness repair only — no protocol epoch.
    Repair,
    /// Protocol re-run confined to the k-hop ball around the frontier,
    /// outputs spliced back into the witness.
    BallRerun,
    /// Full re-stabilisation on the whole topology (the last resort).
    Full,
}

impl RecoveryTier {
    /// The rung as a small integer for records (`0` = none … `3` = full).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RecoveryTier::None => 0,
            RecoveryTier::Repair => 1,
            RecoveryTier::BallRerun => 2,
            RecoveryTier::Full => 3,
        }
    }
}

/// Knobs of the repair-first recovery ladder.
///
/// Rung 1 (repair-only) applies while the damage frontier stays below
/// `repair_frontier_fraction` of the node count; rung 2 re-runs the
/// protocol on the `ball_radius`-hop ball around the frontier when repair
/// reports residual infeasibility; rung 3 is a full re-stabilisation with
/// up to `max_reset_retries` clean retry epochs when corruption garbles
/// the quiescent output. A seeded fraction `audit_fraction` of epochs
/// additionally runs the full re-stabilisation as a trust-but-verify
/// audit of the repaired witness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Largest damage frontier (as a fraction of the node count) that
    /// rung 1 — repair without any protocol epoch — is trusted with.
    pub repair_frontier_fraction: f64,
    /// Radius of the ball re-run rung, in hops from the frontier.
    pub ball_radius: usize,
    /// Clean retry epochs the full-re-stabilisation rung may spend when
    /// a corrupted epoch yields a garbled quiescent output.
    pub max_reset_retries: usize,
    /// Fraction of epochs audited against a full re-stabilisation
    /// (seeded, deterministic). `0.0` disables audits; `1.0` audits
    /// every epoch.
    pub audit_fraction: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            repair_frontier_fraction: 0.25,
            ball_radius: 2,
            max_reset_retries: 1,
            audit_fraction: 0.25,
        }
    }
}

impl RecoveryPolicy {
    /// The policy of the scale gate: repair handles every frontier and
    /// every epoch is audited against a full re-stabilisation.
    #[must_use]
    pub fn repair_first() -> Self {
        RecoveryPolicy {
            repair_frontier_fraction: 1.0,
            audit_fraction: 1.0,
            ..RecoveryPolicy::default()
        }
    }

    /// Returns `self` with the audit fraction replaced.
    #[must_use]
    pub fn with_audit_fraction(mut self, fraction: f64) -> Self {
        self.audit_fraction = fraction;
        self
    }

    /// Whether rung 1 is trusted with a frontier of `frontier_nodes` on a
    /// topology of `total_nodes`.
    #[must_use]
    pub fn repair_applies(&self, frontier_nodes: usize, total_nodes: usize) -> bool {
        total_nodes > 0
            && frontier_nodes as f64 <= self.repair_frontier_fraction * total_nodes as f64
    }

    /// Whether an epoch whose audit stream drew `draw` is audited. The
    /// top 53 bits are a uniform fraction in `[0, 1)`, so a fraction of
    /// `f` audits (in expectation) an `f`-share of epochs.
    #[must_use]
    pub fn audits_epoch(&self, draw: u64) -> bool {
        ((draw >> 11) as f64) < self.audit_fraction * (1u64 << 53) as f64
    }
}

/// A k-hop ball around a damage frontier, extracted by [`khop_ball`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ball {
    /// Every node within `radius` hops of the frontier, ascending.
    pub nodes: Vec<usize>,
    /// The nodes at exactly `radius` hops — the frozen boundary: they
    /// participate in a ball re-run as virtual inputs, but their outputs
    /// are never spliced back.
    pub boundary: NodeWitness,
}

impl Ball {
    /// The interior (ball minus boundary) — the nodes whose re-run
    /// outputs replace the witness entries.
    #[must_use]
    pub fn interior(&self) -> NodeWitness {
        self.nodes
            .iter()
            .copied()
            .filter(|v| !self.boundary.contains(v))
            .collect()
    }
}

/// Extracts the `radius`-hop ball around `frontier` by sparse BFS: only
/// the visited neighbourhoods are touched, so the cost is proportional to
/// the ball, not the graph. Frontier entries beyond the view's node range
/// are ignored.
pub fn khop_ball<V: AdjacencyView + ?Sized>(g: &V, frontier: &NodeWitness, radius: usize) -> Ball {
    let n = g.node_count();
    let mut dist: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &v in frontier {
        if v < n {
            dist.insert(v, 0);
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d == radius {
            continue;
        }
        let mut fresh = Vec::new();
        g.for_each_neighbor(v, &mut |u| {
            if !dist.contains_key(&u) && !fresh.contains(&u) {
                fresh.push(u);
            }
        });
        for u in fresh {
            dist.insert(u, d + 1);
            queue.push_back(u);
        }
    }
    let nodes: Vec<usize> = dist.keys().copied().collect();
    let boundary = dist
        .iter()
        .filter(|&(_, &d)| d == radius)
        .map(|(&v, _)| v)
        .collect();
    Ball { nodes, boundary }
}

/// Splices a ball re-run's edge output back into a witness: every entry
/// with *both* endpoints in `interior` is replaced by the `replacement`
/// entries that lie fully inside the interior. Boundary-crossing entries
/// of both sets are left alone — the seam is re-legalised by a follow-up
/// repair pass over the ball. Returns `(removed, added)` entry counts.
pub fn splice_edge_witness(
    witness: &mut EdgeWitness,
    interior: &NodeWitness,
    replacement: &EdgeWitness,
) -> (usize, usize) {
    let before = witness.len();
    witness.retain(|&(u, v)| !(interior.contains(&u) && interior.contains(&v)));
    let removed = before - witness.len();
    let mut added = 0;
    for &(u, v) in replacement {
        if interior.contains(&u) && interior.contains(&v) && witness.insert(edge_key(u, v)) {
            added += 1;
        }
    }
    (removed, added)
}

/// The node-witness sibling of [`splice_edge_witness`]: interior cover
/// membership is replaced wholesale by the replacement's interior part.
/// Returns `(removed, added)` entry counts.
pub fn splice_node_witness(
    cover: &mut NodeWitness,
    interior: &NodeWitness,
    replacement: &NodeWitness,
) -> (usize, usize) {
    let before = cover.len();
    cover.retain(|v| !interior.contains(v));
    let removed = before - cover.len();
    let mut added = 0;
    for &v in replacement {
        if interior.contains(&v) && cover.insert(v) {
            added += 1;
        }
    }
    (removed, added)
}

/// Repairs `witness` into a maximal matching of `g`.
///
/// Drops entries that are no longer edges of `g` (ghosts) or that share an
/// endpoint with an earlier entry (conflicts, e.g. after corruption), then
/// greedily re-matches the freed and `touched` nodes against their
/// lowest-indexed free neighbours. If the witness was a maximal matching
/// before the damage and `touched` contains every endpoint of inserted or
/// deleted edges plus *both* endpoints of any pair removed externally
/// (e.g. both ends of a pair wiped by corruption — the freed partner must
/// be rescanned too), the result is again a maximal matching of `g`.
pub fn repair_maximal_matching<V: AdjacencyView + ?Sized>(
    g: &V,
    witness: &mut EdgeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let mut mate: BTreeMap<usize, usize> = BTreeMap::new();
    let mut drops: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in witness.iter() {
        let ghost = u >= n || v >= n || !g.has_edge_between(u, v);
        if ghost || mate.contains_key(&u) || mate.contains_key(&v) {
            drops.push((u, v));
        } else {
            mate.insert(u, v);
            mate.insert(v, u);
        }
    }
    let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    outcome.transient_violations += drops.len();
    for (u, v) in drops {
        witness.remove(&(u, v));
        if u < n {
            frontier.insert(u);
        }
        if v < n {
            frontier.insert(v);
        }
    }
    if frontier.is_empty() {
        return outcome;
    }
    // One synchronous pass over the frontier restores maximality: matchings
    // only grow, so a node left free after its scan has no free neighbour.
    outcome.rounds = 1;
    let mut matched_any = false;
    for &u in &frontier {
        if mate.contains_key(&u) {
            continue;
        }
        outcome.messages += g.degree_of(u);
        let mut candidate: Option<usize> = None;
        g.for_each_neighbor(u, &mut |v| {
            if !mate.contains_key(&v) && candidate.is_none_or(|c| v < c) {
                candidate = Some(v);
            }
        });
        if let Some(v) = candidate {
            mate.insert(u, v);
            mate.insert(v, u);
            witness.insert(edge_key(u, v));
            outcome.transient_violations += 1; // the edge {u, v} was uncovered
            matched_any = true;
        }
    }
    if matched_any {
        // A verification pass that observes quiescence.
        outcome.rounds += 1;
    }
    outcome
}

/// Repairs `witness` into an edge dominating set of `g`.
///
/// Drops ghost entries, then scans the `touched` nodes and the endpoints of
/// dropped entries: every incident edge with neither endpoint covered by a
/// witness edge is added to the witness. Locality is sound because an edge
/// can only lose domination when a witness edge at one of its endpoints is
/// dropped, or when the edge itself is newly inserted — both put an
/// endpoint on the scanned frontier.
pub fn repair_edge_dominating<V: AdjacencyView + ?Sized>(
    g: &V,
    witness: &mut EdgeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let mut drops: Vec<(usize, usize)> = Vec::new();
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) {
            drops.push((u, v));
        }
    }
    let mut frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    outcome.transient_violations += drops.len();
    for (u, v) in drops {
        witness.remove(&(u, v));
        if u < n {
            frontier.insert(u);
        }
        if v < n {
            frontier.insert(v);
        }
    }
    if frontier.is_empty() {
        return outcome;
    }
    // Sparse cover map: only witness endpoints, never a full-n buffer, so
    // the pass stays proportional to the witness and the frontier.
    let mut covered: BTreeSet<usize> = BTreeSet::new();
    for &(u, v) in witness.iter() {
        covered.insert(u);
        covered.insert(v);
    }
    outcome.rounds = 1;
    let mut added_any = false;
    for &u in &frontier {
        outcome.messages += g.degree_of(u);
        let mut additions: Vec<usize> = Vec::new();
        g.for_each_neighbor(u, &mut |v| {
            if !covered.contains(&u) && !covered.contains(&v) {
                covered.insert(u);
                covered.insert(v);
                additions.push(v);
            }
        });
        for v in additions {
            witness.insert(edge_key(u, v));
            outcome.transient_violations += 1; // {u, v} was undominated
            added_any = true;
        }
    }
    if added_any {
        outcome.rounds += 1;
    }
    outcome
}

/// Repairs `cover` into a vertex cover of `g`.
///
/// Drops out-of-range entries, then scans the `touched` nodes: for every
/// incident edge with neither endpoint in the cover, *both* endpoints are
/// added (the classic 2-approximate patching rule, which keeps the
/// maintained cover within a constant factor).
pub fn repair_vertex_cover<V: AdjacencyView + ?Sized>(
    g: &V,
    cover: &mut NodeWitness,
    touched: &NodeWitness,
) -> RepairOutcome {
    let n = g.node_count();
    let mut outcome = RepairOutcome::default();
    let ghosts: Vec<usize> = cover.iter().copied().filter(|&v| v >= n).collect();
    outcome.transient_violations += ghosts.len();
    for v in ghosts {
        cover.remove(&v);
    }
    let frontier: BTreeSet<usize> = touched.iter().copied().filter(|&v| v < n).collect();
    if frontier.is_empty() {
        return outcome;
    }
    outcome.rounds = 1;
    let mut added_any = false;
    for &u in &frontier {
        if g.degree_of(u) == 0 {
            // An isolated (e.g. crashed) node covers nothing: pruning it
            // keeps the maintained cover from bloating past the paper
            // bound under long crash-heavy schedules. Not a violation —
            // feasibility is unaffected.
            cover.remove(&u);
            continue;
        }
        outcome.messages += g.degree_of(u);
        let mut additions: Vec<usize> = Vec::new();
        g.for_each_neighbor(u, &mut |v| {
            if !cover.contains(&u) && !cover.contains(&v) && !additions.contains(&v) {
                additions.push(v);
            }
        });
        for v in additions {
            if !cover.contains(&u) && !cover.contains(&v) {
                cover.insert(u);
                cover.insert(v);
                outcome.transient_violations += 1; // {u, v} was uncovered
                added_any = true;
            }
        }
    }
    if added_any {
        outcome.rounds += 1;
    }
    outcome
}

/// Checks that `witness` is a matching of `g` (pairwise disjoint edges).
#[must_use]
pub fn is_matching_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let n = g.node_count();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) {
            return false;
        }
        if used.contains(&u) || used.contains(&v) {
            return false;
        }
        used.insert(u);
        used.insert(v);
    }
    true
}

/// Checks that `witness` is maximal: no edge of `g` has both endpoints free.
#[must_use]
pub fn is_maximal_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let n = g.node_count();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for &(u, v) in witness.iter() {
        if u < n {
            used.insert(u);
        }
        if v < n {
            used.insert(v);
        }
    }
    all_edges(g, |u, v| used.contains(&u) || used.contains(&v))
}

/// Checks that `witness` dominates every edge of `g` and consists of edges
/// of `g`.
#[must_use]
pub fn is_dominating_witness<V: AdjacencyView + ?Sized>(g: &V, witness: &EdgeWitness) -> bool {
    let n = g.node_count();
    let mut covered: BTreeSet<usize> = BTreeSet::new();
    for &(u, v) in witness.iter() {
        if u >= n || v >= n || !g.has_edge_between(u, v) {
            return false;
        }
        covered.insert(u);
        covered.insert(v);
    }
    all_edges(g, |u, v| covered.contains(&u) || covered.contains(&v))
}

/// Checks that `cover` is a vertex cover of `g`.
#[must_use]
pub fn is_cover_witness<V: AdjacencyView + ?Sized>(g: &V, cover: &NodeWitness) -> bool {
    all_edges(g, |u, v| cover.contains(&u) || cover.contains(&v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pn_graph::generators;

    fn matching_witness(g: &SimpleGraph) -> EdgeWitness {
        // Greedy maximal matching, ascending edge order.
        let mut used = vec![false; SimpleGraph::node_count(g)];
        let mut w = EdgeWitness::new();
        for (_, u, v) in g.edges() {
            if !used[u.index()] && !used[v.index()] {
                used[u.index()] = true;
                used[v.index()] = true;
                w.insert(edge_key(u.index(), v.index()));
            }
        }
        w
    }

    #[test]
    fn static_graph_needs_no_repair() {
        let g = generators::petersen();
        let mut w = matching_witness(&g);
        let before = w.clone();
        let outcome = repair_maximal_matching(&g, &mut w, &NodeWitness::new());
        assert_eq!(outcome, RepairOutcome::default());
        assert_eq!(w, before);
    }

    #[test]
    fn edge_insertion_is_repaired_locally() {
        let mut g = generators::cycle(8).unwrap();
        let mut w = matching_witness(&g);
        assert!(is_maximal_witness(&g, &w));
        // A chord between two matched nodes needs no new matching edge; a
        // chord between the two free nodes does.
        let free: Vec<usize> = (0..8)
            .filter(|&v| !w.iter().any(|&(a, b)| a == v || b == v))
            .collect();
        if free.len() >= 2 {
            g.add_edge_ids(free[0], free[1]).unwrap();
            let touched: NodeWitness = [free[0], free[1]].into_iter().collect();
            let outcome = repair_maximal_matching(&g, &mut w, &touched);
            assert!(outcome.rounds <= 2);
            assert!(outcome.transient_violations >= 1);
        }
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
    }

    #[test]
    fn ghost_entries_are_dropped_and_endpoints_rematched() {
        let g = generators::cycle(6).unwrap();
        let mut w = matching_witness(&g);
        // Simulate a deleted edge by injecting a pair that is not in g.
        w.insert(edge_key(0, 3));
        let outcome = repair_maximal_matching(&g, &mut w, &NodeWitness::new());
        assert!(outcome.transient_violations >= 1);
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
    }

    #[test]
    fn corruption_scramble_recovers_matching() {
        let g = generators::random_bounded_degree(20, 4, 0.7, 11).unwrap();
        let mut w = matching_witness(&g);
        // Corruption at node 0..5: their stored pairs vanish. The contract
        // requires `touched` to include every endpoint of an externally
        // dropped pair — the freed partners, not just the corrupted nodes.
        let corrupted: NodeWitness = (0..5).collect();
        let mut touched = corrupted.clone();
        w.retain(|&(u, v)| {
            let keep = !corrupted.contains(&u) && !corrupted.contains(&v);
            if !keep {
                touched.insert(u);
                touched.insert(v);
            }
            keep
        });
        let outcome = repair_maximal_matching(&g, &mut w, &touched);
        assert!(outcome.rounds <= 2, "local repair is O(1) rounds");
        assert!(is_matching_witness(&g, &w));
        assert!(is_maximal_witness(&g, &w));
        assert!(outcome.messages > 0);
    }

    #[test]
    fn dominating_witness_repair_covers_new_edges() {
        let mut g = generators::grid(4, 4).unwrap();
        let mut w = matching_witness(&g); // maximal matching dominates
        assert!(is_dominating_witness(&g, &w));
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(NodeId::new(0), a).unwrap();
        let touched: NodeWitness = [0, a.index(), b.index()].into_iter().collect();
        let outcome = repair_edge_dominating(&g, &mut w, &touched);
        assert!(outcome.transient_violations >= 1);
        assert!(outcome.rounds <= 2);
        assert!(is_dominating_witness(&g, &w));
    }

    #[test]
    fn dominating_witness_repair_after_deletion() {
        let g = generators::cycle(9).unwrap();
        let mut w = EdgeWitness::new();
        w.insert(edge_key(0, 1));
        w.insert(edge_key(3, 4));
        w.insert(edge_key(6, 7));
        assert!(is_dominating_witness(&g, &w));
        // Pretend {3,4} was deleted from an earlier graph: ghost entry.
        w.remove(&edge_key(3, 4));
        w.insert(edge_key(3, 5)); // not an edge of the cycle → ghost
        let touched: NodeWitness = [3, 5].into_iter().collect();
        let outcome = repair_edge_dominating(&g, &mut w, &touched);
        assert!(outcome.transient_violations >= 1);
        assert!(is_dominating_witness(&g, &w));
    }

    #[test]
    fn vertex_cover_repair_patches_uncovered_edges() {
        let mut g = generators::star(5).unwrap();
        let mut c: NodeWitness = [0].into_iter().collect(); // hub covers all
        assert!(is_cover_witness(&g, &c));
        let v = g.add_node();
        g.add_edge_ids(1, v.index()).unwrap();
        let touched: NodeWitness = [1, v.index()].into_iter().collect();
        let outcome = repair_vertex_cover(&g, &mut c, &touched);
        assert_eq!(outcome.transient_violations, 1);
        assert!(is_cover_witness(&g, &c));
        // The patch adds both endpoints (2-approximate rule).
        assert!(c.contains(&1) && c.contains(&v.index()));
    }

    #[test]
    fn vertex_cover_repair_after_corruption() {
        let g = generators::random_bounded_degree(16, 4, 0.8, 3).unwrap();
        let mut c: NodeWitness = (0..16).collect(); // trivially a cover
                                                    // Corruption wipes membership at half the nodes.
        for v in 0..8 {
            c.remove(&v);
        }
        let touched: NodeWitness = (0..8).collect();
        let outcome = repair_vertex_cover(&g, &mut c, &touched);
        assert!(outcome.rounds <= 2);
        assert!(is_cover_witness(&g, &c));
    }

    #[test]
    fn repair_is_deterministic() {
        let g = generators::random_bounded_degree(24, 5, 0.6, 7).unwrap();
        let make = || {
            let mut w = matching_witness(&g);
            let corrupted: NodeWitness = [2, 9, 17].into_iter().collect();
            let mut touched = corrupted.clone();
            w.retain(|&(u, v)| {
                let keep = !corrupted.contains(&u) && !corrupted.contains(&v);
                if !keep {
                    touched.insert(u);
                    touched.insert(v);
                }
                keep
            });
            let outcome = repair_maximal_matching(&g, &mut w, &touched);
            (w, outcome)
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn khop_ball_is_sparse_and_bounded() {
        let g = generators::cycle(64).unwrap();
        let frontier: NodeWitness = [0].into_iter().collect();
        let ball = khop_ball(&g, &frontier, 2);
        // On a cycle, the 2-ball around one node is five nodes.
        assert_eq!(ball.nodes, vec![0, 1, 2, 62, 63]);
        assert_eq!(ball.boundary, [2, 62].into_iter().collect::<NodeWitness>());
        assert_eq!(
            ball.interior(),
            [0, 1, 63].into_iter().collect::<NodeWitness>()
        );
        // Radius 0 is all boundary, no interior.
        let degenerate = khop_ball(&g, &frontier, 0);
        assert_eq!(degenerate.nodes, vec![0]);
        assert!(degenerate.interior().is_empty());
    }

    #[test]
    fn splice_replaces_interior_entries_only() {
        let mut w: EdgeWitness = [(0, 1), (2, 3), (4, 5)].into_iter().collect();
        let interior: NodeWitness = [0, 1, 2].into_iter().collect();
        // (0,1) is fully interior → replaced; (2,3) crosses the seam →
        // kept; the replacement's seam-crossing (2,9) is not spliced in.
        let replacement: EdgeWitness = [(0, 2), (2, 9)].into_iter().collect();
        let (removed, added) = splice_edge_witness(&mut w, &interior, &replacement);
        assert_eq!((removed, added), (1, 1));
        assert_eq!(w, [(0, 2), (2, 3), (4, 5)].into_iter().collect());

        let mut c: NodeWitness = [0, 1, 5].into_iter().collect();
        let (removed, added) =
            splice_node_witness(&mut c, &interior, &[2, 7].into_iter().collect());
        assert_eq!((removed, added), (2, 1));
        assert_eq!(c, [2, 5].into_iter().collect());
    }

    #[test]
    fn recovery_policy_gates_are_deterministic() {
        let policy = RecoveryPolicy::default();
        assert!(policy.repair_applies(2, 10));
        assert!(!policy.repair_applies(5, 10));
        assert!(RecoveryPolicy::repair_first().repair_applies(10, 10));
        // Fraction 1.0 audits every draw, 0.0 none.
        let always = RecoveryPolicy::default().with_audit_fraction(1.0);
        let never = RecoveryPolicy::default().with_audit_fraction(0.0);
        for draw in [0u64, 1, u64::MAX / 2, u64::MAX] {
            assert!(always.audits_epoch(draw));
            assert!(!never.audits_epoch(draw));
        }
        assert!(RecoveryTier::Repair < RecoveryTier::Full);
        assert_eq!(RecoveryTier::BallRerun.index(), 2);
    }
}
