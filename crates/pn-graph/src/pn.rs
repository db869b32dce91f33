//! Port-numbered graphs: the paper's model of anonymous networks.
//!
//! A port-numbered graph (Section 2.1 of the paper) is a set of nodes `V`, a
//! degree function `d : V → ℕ`, and an **involution** `p : P → P` over the
//! set of ports `P = {(v, i) : v ∈ V, 1 ≤ i ≤ d(v)}`. The involution
//! describes which port is wired to which: if `p(v, i) = (u, j)`, messages
//! sent by `v` to its port `i` are received by `u` from its port `j`.
//!
//! The derived edge multiset `E` contains an undirected edge `{v, u}` for
//! every transposed pair of ports, and a *directed loop* for every fixed
//! point of the involution. Multigraphs (the covering-map targets of the
//! lower-bound proofs) are therefore represented natively.

use std::collections::HashSet;

use crate::{EdgeId, Endpoint, GraphError, NodeId, Port, SimpleGraph};

/// The shape of one edge of a port-numbered graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeShape {
    /// An undirected edge joining two distinct ports. The two ports may
    /// belong to the same node (an undirected self-loop using two ports).
    Link {
        /// The endpoint with the smaller `(node, port)` pair.
        a: Endpoint,
        /// The endpoint with the larger `(node, port)` pair.
        b: Endpoint,
    },
    /// A fixed point of the involution: `p(v, i) = (v, i)`. The paper calls
    /// this a *directed loop*; a message sent to this port comes straight
    /// back in on the same port.
    HalfLoop {
        /// The self-connected endpoint.
        at: Endpoint,
    },
}

impl EdgeShape {
    /// The two node endpoints of the edge (equal for loops).
    pub fn nodes(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeShape::Link { a, b } => (a.node, b.node),
            EdgeShape::HalfLoop { at } => (at.node, at.node),
        }
    }

    /// Returns `true` if the edge is a loop of either kind.
    pub fn is_loop(&self) -> bool {
        let (u, v) = self.nodes();
        u == v
    }
}

/// An immutable, validated port-numbered graph.
///
/// Construct one with [`PnGraphBuilder`], [`PortNumberedGraph::from_involution`],
/// or the port-assignment helpers in [`crate::ports`].
///
/// # Examples
///
/// Build the two-node graph in which port 1 of each node is wired to port 1
/// of the other:
///
/// ```
/// use pn_graph::{PnGraphBuilder, Endpoint, NodeId, Port};
/// # fn main() -> Result<(), pn_graph::GraphError> {
/// let mut b = PnGraphBuilder::new();
/// let u = b.add_node(1);
/// let v = b.add_node(1);
/// b.connect(Endpoint::new(u, Port::new(1)), Endpoint::new(v, Port::new(1)))?;
/// let g = b.finish()?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// assert!(g.is_simple());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortNumberedGraph {
    degrees: Vec<u32>,
    offsets: Vec<usize>,
    conn: Vec<Endpoint>,
    edges: Vec<EdgeShape>,
    edge_at_slot: Vec<EdgeId>,
}

impl PortNumberedGraph {
    /// Builds a port-numbered graph from an explicit involution table.
    ///
    /// `involution[slot]` must hold `p(v, i)` where `slot` enumerates ports
    /// in node order, i.e. slot `offset(v) + (i - 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PortOutOfRange`] or
    /// [`GraphError::NotAnInvolution`] if the table is malformed.
    pub fn from_involution(
        degrees: Vec<u32>,
        involution: Vec<Endpoint>,
    ) -> Result<Self, GraphError> {
        let offsets = Self::offsets_for(&degrees);
        let total: usize = degrees.iter().map(|&d| d as usize).sum();
        if involution.len() != total {
            return Err(GraphError::InvalidParameter {
                detail: format!(
                    "involution table has {} entries but the graph has {} ports",
                    involution.len(),
                    total
                ),
            });
        }
        Self::check_tables(&degrees, &offsets, &involution)?;
        let (edges, edge_at_slot) = Self::derive_edges(&degrees, &offsets, &involution);
        Ok(PortNumberedGraph {
            degrees,
            offsets,
            conn: involution,
            edges,
            edge_at_slot,
        })
    }

    /// The structural checks behind [`PortNumberedGraph::from_involution`]:
    /// every involution target in range, and `p(p(x)) = x` everywhere.
    fn check_tables(
        degrees: &[u32],
        offsets: &[usize],
        involution: &[Endpoint],
    ) -> Result<(), GraphError> {
        for &target in involution {
            let node = target.node;
            if node.index() >= degrees.len() {
                return Err(GraphError::NodeOutOfRange {
                    node,
                    nodes: degrees.len(),
                });
            }
            if target.port.get() > degrees[node.index()] {
                return Err(GraphError::PortOutOfRange {
                    endpoint: target,
                    degree: degrees[node.index()] as usize,
                });
            }
        }
        for v in 0..degrees.len() {
            for i in 0..degrees[v] as usize {
                let here = Endpoint::new(NodeId::new(v), Port::from_index(i));
                let there = involution[offsets[v] + i];
                let slot_there = offsets[there.node.index()] + there.port.index();
                let back = involution[slot_there];
                if back != here {
                    return Err(GraphError::NotAnInvolution { endpoint: here });
                }
            }
        }
        Ok(())
    }

    /// Re-runs the construction-time structural validation against the
    /// stored tables: involution targets in range and `p(p(x)) = x` for
    /// every port.
    ///
    /// Graphs built through the safe constructors already hold these
    /// invariants, so this is a defense-in-depth check for graphs that
    /// crossed a trust boundary — external ingestion
    /// (`eds_scenarios::Scenario::external`) and the churn harness's
    /// [`crate::DynamicTopology::freeze`] both call it so a malformed
    /// port map surfaces as a structured error at ingestion time instead
    /// of as a debug-assert (or silent misrouting in release builds)
    /// deep inside the simulator.
    ///
    /// # Errors
    ///
    /// The same errors as [`PortNumberedGraph::from_involution`].
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.offsets.len() != self.degrees.len() {
            return Err(GraphError::InvalidParameter {
                detail: format!(
                    "offset table has {} entries for {} nodes",
                    self.offsets.len(),
                    self.degrees.len()
                ),
            });
        }
        let total: usize = self.degrees.iter().map(|&d| d as usize).sum();
        if self.conn.len() != total {
            return Err(GraphError::InvalidParameter {
                detail: format!(
                    "involution table has {} entries but the graph has {total} ports",
                    self.conn.len()
                ),
            });
        }
        Self::check_tables(&self.degrees, &self.offsets, &self.conn)
    }

    fn offsets_for(degrees: &[u32]) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(degrees.len());
        let mut acc = 0usize;
        for &d in degrees {
            offsets.push(acc);
            acc += d as usize;
        }
        offsets
    }

    fn derive_edges(
        degrees: &[u32],
        offsets: &[usize],
        conn: &[Endpoint],
    ) -> (Vec<EdgeShape>, Vec<EdgeId>) {
        let total = conn.len();
        let mut edges = Vec::new();
        let mut edge_at_slot = vec![EdgeId::new(0); total];
        for v in 0..degrees.len() {
            for i in 0..degrees[v] as usize {
                let here = Endpoint::new(NodeId::new(v), Port::from_index(i));
                let there = conn[offsets[v] + i];
                if there == here {
                    let id = EdgeId::new(edges.len());
                    edges.push(EdgeShape::HalfLoop { at: here });
                    edge_at_slot[offsets[v] + i] = id;
                } else if here < there {
                    let id = EdgeId::new(edges.len());
                    edges.push(EdgeShape::Link { a: here, b: there });
                    edge_at_slot[offsets[v] + i] = id;
                    edge_at_slot[offsets[there.node.index()] + there.port.index()] = id;
                }
            }
        }
        (edges, edge_at_slot)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.degrees.len()
    }

    /// Number of edges (links and loops together).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree `d(v)` of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        debug_assert!(v.index() < self.degrees.len(), "node {v} out of range");
        self.degrees[v.index()] as usize
    }

    /// Maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        self.degrees.iter().copied().max().unwrap_or(0) as usize
    }

    /// Returns `Some(d)` if every node has degree `d`.
    pub fn regular_degree(&self) -> Option<usize> {
        let d = self.max_degree();
        if self.degrees.iter().all(|&x| x as usize == d) {
            Some(d)
        } else {
            None
        }
    }

    /// Total number of ports (`Σ_v d(v)`).
    #[inline]
    pub fn port_count(&self) -> usize {
        self.conn.len()
    }

    /// The involution: where is this port wired to?
    ///
    /// Bounds are validated with `debug_assert!` only — a hot accessor on
    /// the simulator's routing path. An out-of-range endpoint panics in
    /// debug builds; in release builds it may silently resolve to another
    /// node's slot (all callers in this workspace pass validated
    /// endpoints).
    #[inline]
    pub fn connection(&self, e: Endpoint) -> Endpoint {
        self.conn[self.slot(e)]
    }

    /// The node reached through port `i` of `v` (the *neighbour through
    /// port `i`*; may be `v` itself for loops).
    #[inline]
    pub fn neighbor_through(&self, v: NodeId, i: Port) -> NodeId {
        self.connection(Endpoint::new(v, i)).node
    }

    /// The edge incident to the given endpoint.
    #[inline]
    pub fn edge_at(&self, e: Endpoint) -> EdgeId {
        self.edge_at_slot[self.slot(e)]
    }

    /// The precomputed slot-offset table: `slot_offsets()[v]` is the index
    /// of the first port slot of node `v` in the flat port arena (ports
    /// are laid out in node order, `slot(v, i) = slot_offsets()[v] + i -
    /// 1`). Computed once at construction; consumers such as `pn-runtime`
    /// should borrow this instead of re-deriving prefix sums per run.
    #[inline]
    pub fn slot_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat index of endpoint `e` in the port arena — the slot whose
    /// entry [`PortNumberedGraph::involution`] holds `p(e)`.
    #[inline]
    pub fn slot_of(&self, e: Endpoint) -> usize {
        self.slot(e)
    }

    /// The raw involution table: entry `s` holds `p(e)` for the endpoint
    /// `e` with `slot_of(e) == s`. Together with
    /// [`PortNumberedGraph::slot_offsets`] this is the whole routing
    /// structure of the graph in two flat slices.
    #[inline]
    pub fn involution(&self) -> &[Endpoint] {
        &self.conn
    }

    /// The shape of edge `e`.
    pub fn edge(&self, e: EdgeId) -> EdgeShape {
        self.edges[e.index()]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all ports of node `v` in increasing order.
    #[inline]
    pub fn ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
        (0..self.degree(v)).map(Port::from_index)
    }

    /// Iterates over all edges with their identifiers.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, EdgeShape)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &s)| (EdgeId::new(i), s))
    }

    /// Iterates over the edge identifiers incident to `v` in port order.
    /// A loop attached to `v` by two ports appears twice.
    pub fn incident_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.ports(v)
            .map(move |p| self.edge_at(Endpoint::new(v, p)))
    }

    /// Returns `true` if the graph is simple: no loops of either kind and
    /// no parallel links.
    pub fn is_simple(&self) -> bool {
        let mut seen = HashSet::new();
        for e in &self.edges {
            if e.is_loop() {
                return false;
            }
            let (u, v) = e.nodes();
            let key = if u < v { (u, v) } else { (v, u) };
            if !seen.insert(key) {
                return false;
            }
        }
        true
    }

    /// The port `ℓ_G(v, u)` through which `v` sees its neighbour `u`
    /// (Section 5 of the paper). Only meaningful in simple graphs, where it
    /// is unique; returns the smallest such port in multigraphs.
    pub fn port_toward(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.ports(v).find(|&p| self.neighbor_through(v, p) == u)
    }

    /// The two port endpoints of edge `e` (equal for half-loops).
    pub fn edge_endpoints(&self, e: EdgeId) -> (Endpoint, Endpoint) {
        match self.edge(e) {
            EdgeShape::Link { a, b } => (a, b),
            EdgeShape::HalfLoop { at } => (at, at),
        }
    }

    /// Extracts the underlying [`SimpleGraph`], with **identical edge
    /// identifiers** (edge `i` here becomes edge `i` there).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotSimple`] if the graph has loops or parallel
    /// links.
    pub fn to_simple(&self) -> Result<SimpleGraph, GraphError> {
        let mut g = SimpleGraph::new(self.node_count());
        for e in &self.edges {
            match *e {
                EdgeShape::HalfLoop { at } => {
                    return Err(GraphError::NotSimple {
                        detail: format!("directed loop at {at}"),
                    })
                }
                EdgeShape::Link { a, b } => {
                    g.add_edge(a.node, b.node)
                        .map_err(|err| GraphError::NotSimple {
                            detail: err.to_string(),
                        })?;
                }
            }
        }
        Ok(g)
    }

    #[inline]
    fn slot(&self, e: Endpoint) -> usize {
        let v = e.node.index();
        debug_assert!(v < self.degrees.len(), "node {} out of range", e.node);
        debug_assert!(
            e.port.get() <= self.degrees[v],
            "port {} exceeds degree {} of node {}",
            e.port,
            self.degrees[v],
            e.node
        );
        self.offsets[v] + e.port.index()
    }
}

/// Incremental builder for [`PortNumberedGraph`].
///
/// Declare nodes with fixed degrees, then wire ports pairwise with
/// [`PnGraphBuilder::connect`] (or [`PnGraphBuilder::fix_point`] for the
/// paper's directed loops), and call [`PnGraphBuilder::finish`].
#[derive(Clone, Debug, Default)]
pub struct PnGraphBuilder {
    degrees: Vec<u32>,
    conn: Vec<Vec<Option<Endpoint>>>,
}

impl PnGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given (fixed) degree, returning its identifier.
    pub fn add_node(&mut self, degree: usize) -> NodeId {
        self.degrees
            .push(u32::try_from(degree).expect("degree exceeds u32 range"));
        self.conn.push(vec![None; degree]);
        NodeId::new(self.degrees.len() - 1)
    }

    /// Adds `count` nodes of the same degree.
    pub fn add_nodes(&mut self, count: usize, degree: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node(degree)).collect()
    }

    /// Wires port `a` to port `b` (and vice versa). `a == b` creates a
    /// fixed point, equivalent to [`PnGraphBuilder::fix_point`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PortAlreadyConnected`] if either port is in
    /// use, and range errors for invalid endpoints.
    pub fn connect(&mut self, a: Endpoint, b: Endpoint) -> Result<(), GraphError> {
        self.check(a)?;
        self.check(b)?;
        if self.slot(a).is_some() {
            return Err(GraphError::PortAlreadyConnected { endpoint: a });
        }
        if a != b && self.slot(b).is_some() {
            return Err(GraphError::PortAlreadyConnected { endpoint: b });
        }
        *self.slot_mut(a) = Some(b);
        *self.slot_mut(b) = Some(a);
        Ok(())
    }

    /// Declares `p(e) = e`: a fixed point of the involution (a directed
    /// loop in the paper's terminology).
    ///
    /// # Errors
    ///
    /// Same as [`PnGraphBuilder::connect`].
    pub fn fix_point(&mut self, e: Endpoint) -> Result<(), GraphError> {
        self.connect(e, e)
    }

    /// Validates that every port is wired and produces the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PortUnconnected`] if any port is dangling.
    pub fn finish(self) -> Result<PortNumberedGraph, GraphError> {
        let mut flat = Vec::with_capacity(self.conn.iter().map(Vec::len).sum());
        for (v, slots) in self.conn.iter().enumerate() {
            for (i, s) in slots.iter().enumerate() {
                match s {
                    Some(t) => flat.push(*t),
                    None => {
                        return Err(GraphError::PortUnconnected {
                            endpoint: Endpoint::new(NodeId::new(v), Port::from_index(i)),
                        })
                    }
                }
            }
        }
        PortNumberedGraph::from_involution(self.degrees, flat)
    }

    fn check(&self, e: Endpoint) -> Result<(), GraphError> {
        let n = self.degrees.len();
        if e.node.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: e.node,
                nodes: n,
            });
        }
        if e.port.get() > self.degrees[e.node.index()] {
            return Err(GraphError::PortOutOfRange {
                endpoint: e,
                degree: self.degrees[e.node.index()] as usize,
            });
        }
        Ok(())
    }

    fn slot(&self, e: Endpoint) -> &Option<Endpoint> {
        &self.conn[e.node.index()][e.port.index()]
    }

    fn slot_mut(&mut self, e: Endpoint) -> &mut Option<Endpoint> {
        &mut self.conn[e.node.index()][e.port.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(v: usize, p: u32) -> Endpoint {
        Endpoint::new(NodeId::new(v), Port::new(p))
    }

    /// The multigraph `M` of paper Figure 2: `V = {s, t}`, `d(s) = 3`,
    /// `d(t) = 4`, with `p` mapping `(s,1)↔(t,2)`, `(s,2)↔(t,1)`,
    /// `(s,3)↦(s,3)`, `(t,3)↔(t,4)`.
    fn figure2_multigraph() -> PortNumberedGraph {
        let mut b = PnGraphBuilder::new();
        let s = b.add_node(3);
        let t = b.add_node(4);
        b.connect(
            Endpoint::new(s, Port::new(1)),
            Endpoint::new(t, Port::new(2)),
        )
        .unwrap();
        b.connect(
            Endpoint::new(s, Port::new(2)),
            Endpoint::new(t, Port::new(1)),
        )
        .unwrap();
        b.fix_point(Endpoint::new(s, Port::new(3))).unwrap();
        b.connect(
            Endpoint::new(t, Port::new(3)),
            Endpoint::new(t, Port::new(4)),
        )
        .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn figure2_example() {
        let m = figure2_multigraph();
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.degree(NodeId::new(0)), 3);
        assert_eq!(m.degree(NodeId::new(1)), 4);
        // Edges: two parallel s-t links, one half-loop at s, one link-loop at t.
        assert_eq!(m.edge_count(), 4);
        assert!(!m.is_simple());
        let shapes: Vec<_> = m.edges().map(|(_, s)| s).collect();
        let loops = shapes.iter().filter(|s| s.is_loop()).count();
        assert_eq!(loops, 2);
        // Involution checks.
        assert_eq!(m.connection(ep(0, 1)), ep(1, 2));
        assert_eq!(m.connection(ep(1, 2)), ep(0, 1));
        assert_eq!(m.connection(ep(0, 3)), ep(0, 3));
        assert_eq!(m.connection(ep(1, 3)), ep(1, 4));
    }

    #[test]
    fn simple_path_graph() {
        // Path a - b - c with canonical ports.
        let mut b = PnGraphBuilder::new();
        let x = b.add_node(1);
        let y = b.add_node(2);
        let z = b.add_node(1);
        b.connect(
            Endpoint::new(x, Port::new(1)),
            Endpoint::new(y, Port::new(1)),
        )
        .unwrap();
        b.connect(
            Endpoint::new(y, Port::new(2)),
            Endpoint::new(z, Port::new(1)),
        )
        .unwrap();
        let g = b.finish().unwrap();
        assert!(g.is_simple());
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbor_through(y, Port::new(2)), z);
        assert_eq!(g.port_toward(y, x), Some(Port::new(1)));
        assert_eq!(g.port_toward(x, z), None);
        let s = g.to_simple().unwrap();
        assert_eq!(s.edge_count(), 2);
        // Edge ids preserved.
        for (id, shape) in g.edges() {
            let (u, v) = shape.nodes();
            let (su, sv) = s.endpoints(id);
            assert_eq!((u, v), (su, sv));
        }
    }

    #[test]
    fn unconnected_port_rejected() {
        let mut b = PnGraphBuilder::new();
        let _ = b.add_node(2);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, GraphError::PortUnconnected { .. }));
    }

    #[test]
    fn double_connect_rejected() {
        let mut b = PnGraphBuilder::new();
        let u = b.add_node(2);
        let v = b.add_node(2);
        b.connect(
            Endpoint::new(u, Port::new(1)),
            Endpoint::new(v, Port::new(1)),
        )
        .unwrap();
        let err = b
            .connect(
                Endpoint::new(u, Port::new(1)),
                Endpoint::new(v, Port::new(2)),
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::PortAlreadyConnected { .. }));
    }

    #[test]
    fn from_involution_validates() {
        // Non-involution table: (0,1) -> (1,1) but (1,1) -> (1,1).
        let degrees = vec![1, 1];
        let bad = vec![ep(1, 1), ep(1, 1)];
        assert!(matches!(
            PortNumberedGraph::from_involution(degrees, bad),
            Err(GraphError::NotAnInvolution { .. })
        ));
    }

    #[test]
    fn from_involution_wrong_length() {
        assert!(matches!(
            PortNumberedGraph::from_involution(vec![2], vec![ep(0, 1)]),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn edge_at_consistency() {
        let m = figure2_multigraph();
        for (id, shape) in m.edges() {
            match shape {
                EdgeShape::Link { a, b } => {
                    assert_eq!(m.edge_at(a), id);
                    assert_eq!(m.edge_at(b), id);
                }
                EdgeShape::HalfLoop { at } => assert_eq!(m.edge_at(at), id),
            }
        }
    }

    #[test]
    fn incident_edges_in_port_order() {
        let m = figure2_multigraph();
        let t = NodeId::new(1);
        let inc: Vec<_> = m.incident_edges(t).collect();
        assert_eq!(inc.len(), 4);
        // Ports 3 and 4 of t carry the same loop edge.
        assert_eq!(inc[2], inc[3]);
    }
}
