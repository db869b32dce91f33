//! A mutable port-numbered topology for dynamic-graph (churn) runs.
//!
//! [`crate::PortNumberedGraph`] is deliberately immutable: its flat slot
//! arena, routing table, and derived edge list are what make the
//! simulator's round loop allocation-free, and none of them survive an
//! edge mutation cheaply. [`DynamicTopology`] is the mutable counterpart
//! the fault-injection harness edits between protocol epochs: a delta
//! overlay over a borrowed base graph supporting edge insertion/deletion,
//! node joins, and crash isolation, which [`DynamicTopology::freeze`]s
//! back into a fully validated `PortNumberedGraph` whenever a protocol
//! needs to run.
//!
//! # Port semantics under mutation
//!
//! Ports are assigned **densely in arrival order**: inserting an edge
//! appends a new highest-numbered port at both endpoints; deleting one
//! moves each endpoint's highest port into the vacated slot (a
//! swap-remove) so degrees stay equal to port counts with no holes. Port
//! numbers are therefore *not* stable across deletions — which is the
//! honest model: the paper's algorithms may depend on port numbers
//! arbitrarily, and a topology change is exactly an adversarial
//! renumbering of the affected nodes. Protocols restarted after a churn
//! event must re-converge from the new numbering; nothing in this module
//! tries to preserve the old one.
//!
//! The structure maintains **simple** topologies only: a base graph with
//! loops or parallel links is rejected with [`GraphError::NotSimple`],
//! and mutations are rejected with the same structured errors as
//! [`crate::SimpleGraph`]. (The multigraph covers of the lower-bound
//! machinery never churn.)

use std::collections::BTreeMap;

use crate::{Endpoint, GraphError, NodeId, Port, PortNumberedGraph};

/// A mutable simple topology: a churn overlay over a borrowed, immutable
/// [`PortNumberedGraph`].
///
/// The base graph is never copied: a node's port row lives in the sparse
/// `overlay` map only once a mutation touches it (directly, or indirectly
/// when a swap-removed port at a neighbour re-points a peer entry), and
/// joined nodes live in a short `appended` tail. Reads fall through to
/// the base for untouched rows, so memory stays proportional to the
/// damage, not the graph — the property that makes million-node churn
/// affordable. [`DynamicTopology::freeze`] streams the base plus overlay
/// into one fresh involution without intermediate copies.
///
/// See the [module docs](self) for the mutation semantics.
///
/// # Examples
///
/// ```
/// use pn_graph::{generators, ports, DynamicTopology, NodeId};
/// # fn main() -> Result<(), pn_graph::GraphError> {
/// let base = ports::canonical_ports(&generators::path(3)?)?;
/// let mut t = DynamicTopology::new(&base)?;
/// t.delete_edge(NodeId::new(0), NodeId::new(1))?;
/// t.insert_edge(NodeId::new(0), NodeId::new(2))?;
/// let g = t.freeze()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DynamicTopology<'g> {
    base: &'g PortNumberedGraph,
    /// Materialised port rows for base nodes a mutation has touched.
    overlay: BTreeMap<usize, Vec<Endpoint>>,
    /// Port rows for nodes joined after construction; node id is
    /// `base.node_count() + index`.
    appended: Vec<Vec<Endpoint>>,
    edges: usize,
}

impl<'g> DynamicTopology<'g> {
    /// Wraps `base` with an empty overlay.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotSimple`] if `base` has loops of either
    /// kind or parallel links — the dynamic layer maintains simple
    /// topologies only.
    pub fn new(base: &'g PortNumberedGraph) -> Result<Self, GraphError> {
        if !base.is_simple() {
            return Err(GraphError::NotSimple {
                detail: "the base graph has a loop or parallel links".to_owned(),
            });
        }
        Ok(DynamicTopology {
            base,
            overlay: BTreeMap::new(),
            appended: Vec::new(),
            edges: base.edge_count(),
        })
    }

    /// Number of base-node port rows the overlay has materialised — the
    /// memory footprint the streaming contract bounds.
    pub fn overlay_rows(&self) -> usize {
        self.overlay.len()
    }

    /// Number of nodes (including isolated and joined ones).
    pub fn node_count(&self) -> usize {
        self.base.node_count() + self.appended.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Current degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: NodeId) -> usize {
        let base_n = self.base.node_count();
        if v.index() >= base_n {
            self.appended[v.index() - base_n].len()
        } else if let Some(row) = self.overlay.get(&v.index()) {
            row.len()
        } else {
            self.base.degree(v)
        }
    }

    /// Maximum degree over all nodes. Exact, in
    /// `O(node_count + overlay)`: untouched rows read the base degree in
    /// constant time.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(NodeId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// The peer endpoint wired to port `i` of `v`.
    fn port_entry(&self, v: usize, i: usize) -> Endpoint {
        let base_n = self.base.node_count();
        if v >= base_n {
            self.appended[v - base_n][i]
        } else if let Some(row) = self.overlay.get(&v) {
            row[i]
        } else {
            self.base
                .connection(Endpoint::new(NodeId::new(v), Port::from_index(i)))
        }
    }

    /// The mutable row of `v`, materialising it from the base on first
    /// touch.
    fn row_mut(&mut self, v: usize) -> &mut Vec<Endpoint> {
        let base_n = self.base.node_count();
        if v >= base_n {
            &mut self.appended[v - base_n]
        } else {
            let base = self.base;
            self.overlay.entry(v).or_insert_with(|| {
                (0..base.degree(NodeId::new(v)))
                    .map(|i| base.connection(Endpoint::new(NodeId::new(v), Port::from_index(i))))
                    .collect()
            })
        }
    }

    /// Whether `{u, v}` is currently an edge. Out-of-range nodes are
    /// simply not endpoints.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return false;
        }
        self.neighbors(u).any(|w| w == v)
    }

    /// The peer on port `i` (0-based) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `i >= degree(v)`.
    pub fn nth_neighbor(&self, v: NodeId, i: usize) -> NodeId {
        self.port_entry(v.index(), i).node
    }

    /// The current neighbours of `v`, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.degree(v)).map(move |i| self.port_entry(v.index(), i).node)
    }

    fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() >= self.node_count() {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                nodes: self.node_count(),
            });
        }
        Ok(())
    }

    /// Appends a fresh isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.appended.push(Vec::new());
        NodeId::new(self.node_count() - 1)
    }

    /// Inserts the edge `{u, v}`, appending a new highest port at each
    /// endpoint.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] for an unknown node,
    /// [`GraphError::LoopNotAllowed`] if `u == v`, and
    /// [`GraphError::ParallelEdge`] if the edge already exists.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::LoopNotAllowed { node: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::ParallelEdge { u, v });
        }
        let pu = Port::from_index(self.degree(u));
        let pv = Port::from_index(self.degree(v));
        self.row_mut(u.index()).push(Endpoint::new(v, pv));
        self.row_mut(v.index()).push(Endpoint::new(u, pu));
        self.edges += 1;
        Ok(())
    }

    /// Unwires port `i` of `v` by swap-remove: the node's highest port
    /// moves into slot `i` and its peer is re-pointed at the new number.
    /// The peer of the *removed* port is left untouched (the caller
    /// removes it separately). Re-pointing the moved port's peer may
    /// materialise that peer's row — overlay growth stays proportional to
    /// the damage neighbourhood.
    fn remove_port(&mut self, v: NodeId, i: usize) {
        let row = self.row_mut(v.index());
        let last = row.len() - 1;
        row.swap_remove(i);
        if i < last {
            // The moved port kept its peer; tell the peer the new number.
            let moved_peer = self.row_mut(v.index())[i];
            self.row_mut(moved_peer.node.index())[moved_peer.port.index()] =
                Endpoint::new(v, Port::from_index(i));
        }
    }

    /// Deletes the edge `{u, v}`. Each endpoint's highest-numbered port
    /// is swap-removed into the vacated slot, so the surviving ports of
    /// `u` and `v` are renumbered (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] for an unknown node, or
    /// [`GraphError::InvalidParameter`] if the edge does not exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let Some(i) = self.neighbors(u).position(|w| w == v) else {
            return Err(GraphError::InvalidParameter {
                detail: format!("edge {{{u}, {v}}} does not exist"),
            });
        };
        let j = self.port_entry(u.index(), i).port.index();
        // Removing (u, i) can move u's highest port down and re-point its
        // peer entry — never (v, j): (v, j)'s peer is (u, i), and the
        // moved port is u's old highest, distinct from i.
        self.remove_port(u, i);
        self.remove_port(v, j);
        self.edges -= 1;
        Ok(())
    }

    /// Crashes `v`: deletes every incident edge, leaving the node in
    /// place with degree 0. Returns the former neighbours (the nodes a
    /// repair pass must revisit), in the port order they occupied.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] for an unknown node.
    pub fn isolate(&mut self, v: NodeId) -> Result<Vec<NodeId>, GraphError> {
        self.check_node(v)?;
        let neighbors: Vec<NodeId> = self.neighbors(v).collect();
        for &u in &neighbors {
            self.delete_edge(v, u)?;
        }
        Ok(neighbors)
    }

    /// Snapshots the current topology into a validated
    /// [`PortNumberedGraph`] — the form a protocol epoch runs on. Base and
    /// overlay stream into one fresh involution (the single full-size
    /// allocation, paid only when an epoch needs a frozen graph), which
    /// passes through [`PortNumberedGraph::from_involution`], so a wiring
    /// bug in the mutable layer surfaces as a structured error here,
    /// never as a misrouted message inside the simulator.
    ///
    /// # Errors
    ///
    /// The validation errors of [`PortNumberedGraph::from_involution`]
    /// (unreachable while the mutation invariants hold).
    pub fn freeze(&self) -> Result<PortNumberedGraph, GraphError> {
        let n = self.node_count();
        let mut degrees: Vec<u32> = Vec::with_capacity(n);
        let mut involution: Vec<Endpoint> = Vec::new();
        for v in 0..n {
            let d = self.degree(NodeId::new(v));
            degrees.push(d as u32);
            for i in 0..d {
                involution.push(self.port_entry(v, i));
            }
        }
        let g = PortNumberedGraph::from_involution(degrees, involution)?;
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, ports, SimpleGraph};

    fn petersen() -> PortNumberedGraph {
        ports::canonical_ports(&generators::petersen()).unwrap()
    }

    fn edgeless(n: usize) -> PortNumberedGraph {
        ports::canonical_ports(&SimpleGraph::new(n)).unwrap()
    }

    /// The topology's port rows, read through the overlay.
    fn rows(t: &DynamicTopology<'_>) -> Vec<Vec<Endpoint>> {
        (0..t.node_count())
            .map(|v| {
                (0..t.degree(NodeId::new(v)))
                    .map(|i| t.port_entry(v, i))
                    .collect()
            })
            .collect()
    }

    /// A dense reference model of the port semantics: one
    /// `Vec<Endpoint>` row per node, insertion appends, deletion
    /// swap-removes and re-points the moved port's peer.
    struct Dense(Vec<Vec<Endpoint>>);

    impl Dense {
        fn of(g: &PortNumberedGraph) -> Self {
            Dense(
                g.nodes()
                    .map(|v| {
                        g.ports(v)
                            .map(|p| g.connection(Endpoint::new(v, p)))
                            .collect()
                    })
                    .collect(),
            )
        }

        fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
            self.0[u.index()].iter().any(|p| p.node == v)
        }

        fn insert(&mut self, u: NodeId, v: NodeId) {
            let pu = Port::from_index(self.0[u.index()].len());
            let pv = Port::from_index(self.0[v.index()].len());
            self.0[u.index()].push(Endpoint::new(v, pv));
            self.0[v.index()].push(Endpoint::new(u, pu));
        }

        fn remove_port(&mut self, v: NodeId, i: usize) {
            self.0[v.index()].swap_remove(i);
            if let Some(&moved) = self.0[v.index()].get(i) {
                self.0[moved.node.index()][moved.port.index()] =
                    Endpoint::new(v, Port::from_index(i));
            }
        }

        fn delete(&mut self, u: NodeId, v: NodeId) {
            let i = self.0[u.index()].iter().position(|p| p.node == v).unwrap();
            let j = self.0[u.index()][i].port.index();
            self.remove_port(u, i);
            self.remove_port(v, j);
        }

        fn isolate(&mut self, v: NodeId) -> Vec<NodeId> {
            let gone: Vec<NodeId> = self.0[v.index()].iter().map(|p| p.node).collect();
            for &u in &gone {
                self.delete(v, u);
            }
            gone
        }
    }

    #[test]
    fn round_trips_a_static_graph() {
        let g = ports::shuffled_ports(&generators::petersen(), 3).unwrap();
        let t = DynamicTopology::new(&g).unwrap();
        let frozen = t.freeze().unwrap();
        assert_eq!(frozen, g);
    }

    #[test]
    fn rejects_non_simple_bases() {
        // A link loop at node 0 (its port 1 wired to its port 2).
        let looped = PortNumberedGraph::from_involution(
            vec![2],
            vec![
                Endpoint::new(NodeId::new(0), Port::new(2)),
                Endpoint::new(NodeId::new(0), Port::new(1)),
            ],
        )
        .unwrap();
        // Two parallel links between nodes 0 and 1.
        let parallel = PortNumberedGraph::from_involution(
            vec![2, 2],
            vec![
                Endpoint::new(NodeId::new(1), Port::new(1)),
                Endpoint::new(NodeId::new(1), Port::new(2)),
                Endpoint::new(NodeId::new(0), Port::new(1)),
                Endpoint::new(NodeId::new(0), Port::new(2)),
            ],
        )
        .unwrap();
        for g in [&looped, &parallel] {
            assert!(matches!(
                DynamicTopology::new(g),
                Err(GraphError::NotSimple { .. })
            ));
        }
    }

    #[test]
    fn insert_then_delete_is_identity_on_the_edge_set() {
        let g = petersen();
        let mut t = DynamicTopology::new(&g).unwrap();
        let before = t.freeze().unwrap().to_simple().unwrap();
        let (u, v) = (NodeId::new(0), NodeId::new(7));
        assert!(!t.has_edge(u, v));
        t.insert_edge(u, v).unwrap();
        assert!(t.has_edge(u, v) && t.has_edge(v, u));
        t.delete_edge(v, u).unwrap();
        let after = t.freeze().unwrap().to_simple().unwrap();
        for a in before.nodes() {
            for b in before.nodes() {
                assert_eq!(before.has_edge(a, b), after.has_edge(a, b));
            }
        }
    }

    #[test]
    fn delete_renumbers_densely_and_freeze_validates() {
        // Star: deleting the centre's port 1 moves its highest port down.
        let g = edgeless(5);
        let mut t = DynamicTopology::new(&g).unwrap();
        for leaf in 1..5 {
            t.insert_edge(NodeId::new(0), NodeId::new(leaf)).unwrap();
        }
        t.delete_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(t.degree(NodeId::new(0)), 3);
        assert_eq!(t.degree(NodeId::new(1)), 0);
        assert_eq!(t.nth_neighbor(NodeId::new(0), 0), NodeId::new(4));
        let g = t.freeze().unwrap();
        assert!(g.validate().is_ok());
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn isolate_reports_the_neighbors() {
        let g = petersen();
        let mut t = DynamicTopology::new(&g).unwrap();
        let hit = t.isolate(NodeId::new(0)).unwrap();
        assert_eq!(hit.len(), 3);
        assert_eq!(t.degree(NodeId::new(0)), 0);
        for u in hit {
            assert_eq!(t.degree(u), 2);
        }
        assert_eq!(t.freeze().unwrap().edge_count(), 12);
    }

    #[test]
    fn join_attaches_fresh_nodes() {
        let g = petersen();
        let mut t = DynamicTopology::new(&g).unwrap();
        let v = t.add_node();
        assert_eq!(v.index(), 10);
        t.insert_edge(v, NodeId::new(2)).unwrap();
        let g = t.freeze().unwrap();
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    fn structured_errors_for_bad_mutations() {
        let g = edgeless(2);
        let mut t = DynamicTopology::new(&g).unwrap();
        assert!(matches!(
            t.insert_edge(NodeId::new(0), NodeId::new(0)),
            Err(GraphError::LoopNotAllowed { .. })
        ));
        t.insert_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        assert!(matches!(
            t.insert_edge(NodeId::new(1), NodeId::new(0)),
            Err(GraphError::ParallelEdge { .. })
        ));
        assert!(matches!(
            t.insert_edge(NodeId::new(0), NodeId::new(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        let g = edgeless(3);
        assert!(matches!(
            DynamicTopology::new(&g)
                .unwrap()
                .delete_edge(NodeId::new(0), NodeId::new(1)),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn overlay_matches_a_dense_model_under_mutation() {
        // Replay one random mutation sequence on the overlay and on the
        // dense reference model: every port row must agree after every
        // step, so the exact renumbering is checked, not just the edge set.
        let base = ports::shuffled_ports(
            &generators::random_bounded_degree(64, 5, 0.6, 9).unwrap(),
            4,
        )
        .unwrap();
        let mut dense = Dense::of(&base);
        let mut t = DynamicTopology::new(&base).unwrap();
        assert_eq!(rows(&t), dense.0);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut step = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for round in 0..200 {
            let u = NodeId::new((step() % 64) as usize);
            let v = NodeId::new((step() % 64) as usize);
            if u == v {
                continue;
            }
            assert_eq!(dense.has_edge(u, v), t.has_edge(u, v));
            if dense.has_edge(u, v) {
                dense.delete(u, v);
                t.delete_edge(u, v).unwrap();
            } else {
                dense.insert(u, v);
                t.insert_edge(u, v).unwrap();
            }
            if round % 40 == 17 {
                let w = NodeId::new((step() % 64) as usize);
                assert_eq!(dense.isolate(w), t.isolate(w).unwrap());
            }
            assert_eq!(rows(&t), dense.0);
            let degree_sum: usize = dense.0.iter().map(Vec::len).sum();
            assert_eq!(t.edge_count() * 2, degree_sum);
        }
        let j = t.add_node();
        dense.0.push(Vec::new());
        assert_eq!(j.index(), 64);
        dense.insert(j, NodeId::new(3));
        t.insert_edge(j, NodeId::new(3)).unwrap();
        assert_eq!(rows(&t), dense.0);
        assert_eq!(
            t.max_degree(),
            dense.0.iter().map(Vec::len).max().unwrap(),
            "exact max degree over base + overlay"
        );
        let degrees = dense.0.iter().map(|row| row.len() as u32).collect();
        let involution = dense.0.into_iter().flatten().collect();
        assert_eq!(
            t.freeze().unwrap(),
            PortNumberedGraph::from_involution(degrees, involution).unwrap()
        );
    }

    #[test]
    fn overlay_stays_sparse() {
        // One edge deletion on a 4096-node cycle touches the two
        // endpoints plus at most the re-pointed peers — never O(n) rows.
        let base = ports::canonical_ports(&generators::cycle(4096).unwrap()).unwrap();
        let mut t = DynamicTopology::new(&base).unwrap();
        assert_eq!(t.overlay_rows(), 0);
        t.delete_edge(NodeId::new(100), NodeId::new(101)).unwrap();
        assert!(
            t.overlay_rows() <= 4,
            "overlay materialised {} rows for one deletion",
            t.overlay_rows()
        );
        assert_eq!(t.edge_count(), 4095);
        assert_eq!(t.degree(NodeId::new(100)), 1);
        let g = t.freeze().unwrap();
        assert_eq!(g.edge_count(), 4095);
        assert!(!g
            .to_simple()
            .unwrap()
            .has_edge(NodeId::new(100), NodeId::new(101)));
    }

    #[test]
    fn heavy_churn_preserves_the_involution_invariant() {
        // Deterministic mutation storm; freeze() validates after each.
        let g = edgeless(12);
        let mut t = DynamicTopology::new(&g).unwrap();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut step = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..400 {
            let u = NodeId::new((step() % 12) as usize);
            let v = NodeId::new((step() % 12) as usize);
            if u == v {
                continue;
            }
            if t.has_edge(u, v) {
                t.delete_edge(u, v).unwrap();
            } else {
                t.insert_edge(u, v).unwrap();
            }
            let g = t.freeze().unwrap();
            assert_eq!(g.edge_count(), t.edge_count());
        }
    }
}
