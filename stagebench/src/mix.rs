//! Seeded input generation: the solve requests of the two serving
//! workloads and the specs of the sweep.
//!
//! Everything here is a pure function of the seed, so the same seed
//! gives the same frames. Request mixes are stratified: each block of
//! requests holds every class of the workload exactly once (in seeded
//! order), so any long enough window of the load sees the same mix.

use std::collections::HashSet;
use std::fmt::Write as _;

use eds_scenarios::{BoundsMode, Family, Protocol};
use pn_graph::SimpleGraph;

/// How big the generated inputs are: `Full` for measurement, `Tiny`
/// for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small sizes that run in well under a second.
    Tiny,
}

impl Scale {
    /// Scales a node count (tiny counts stay even, as cubic graphs need).
    pub fn nodes(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Tiny => (n / 400).max(24) & !1,
        }
    }

    /// Scales a grid side.
    pub fn side(self, side: usize) -> usize {
        match self {
            Scale::Full => side,
            Scale::Tiny => (side / 20).max(4),
        }
    }
}

/// SplitMix64: a small, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a request describes its graph.
#[derive(Clone, Debug)]
pub enum Input {
    /// A family spec the server generates (`cycle:1000`).
    Spec(Family),
    /// An uploaded edge list over nodes `0..nodes`.
    Edges {
        /// Node count (sent as `"nodes"`, so isolated nodes survive).
        nodes: usize,
        /// Edges in upload order; the order fixes the port numbering.
        edges: Vec<(u32, u32)>,
    },
}

/// One solve request as the client sends it.
#[derive(Clone, Debug)]
pub struct Request {
    /// Frame id, unique within a run.
    pub id: u64,
    /// Class label from the workload's mix table.
    pub class: &'static str,
    /// The graph.
    pub input: Input,
    /// `None` asks for `"all"`.
    pub protocols: Option<Vec<Protocol>>,
    /// `None` leaves the server default (exact bounds).
    pub bounds: Option<BoundsMode>,
    /// Seed for the generators and the randomised baselines.
    pub seed: u64,
    /// serve_warm: the base instance this request relabels, so the
    /// server should answer it from the cache.
    pub base: Option<usize>,
}

impl Request {
    /// The protocols the response must cover (results plus skipped).
    pub fn requested(&self) -> Vec<Protocol> {
        self.protocols
            .clone()
            .unwrap_or_else(|| Protocol::ALL.to_vec())
    }

    /// Renders the JSON-lines frame (no trailing newline).
    pub fn frame(&self) -> String {
        let mut f = String::with_capacity(match &self.input {
            Input::Spec(_) => 128,
            Input::Edges { edges, .. } => 64 + 14 * edges.len(),
        });
        let _ = write!(f, "{{\"id\":{}", self.id);
        match &self.input {
            Input::Spec(family) => {
                let _ = write!(f, ",\"spec\":\"{}\"", spec_text(family));
            }
            Input::Edges { nodes, edges } => {
                f.push_str(",\"edges\":[");
                for (i, (u, v)) in edges.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    let _ = write!(f, "[{u},{v}]");
                }
                let _ = write!(f, "],\"nodes\":{nodes}");
            }
        }
        match &self.protocols {
            None => f.push_str(",\"protocols\":\"all\""),
            Some(list) => {
                f.push_str(",\"protocols\":[");
                for (i, p) in list.iter().enumerate() {
                    if i > 0 {
                        f.push(',');
                    }
                    let _ = write!(f, "\"{}\"", p.name());
                }
                f.push(']');
            }
        }
        match self.bounds {
            None | Some(BoundsMode::Exact) => {}
            Some(BoundsMode::Lp) => f.push_str(",\"bounds\":\"lp\""),
            Some(BoundsMode::Mm) => f.push_str(",\"bounds\":\"mm\""),
        }
        let _ = write!(f, ",\"seed\":{}}}", self.seed);
        f
    }

    /// The graph exactly as the client submitted it: the family's own
    /// generator for specs, the uploaded edges otherwise. Node labels
    /// match the ones the server's witnesses use.
    pub fn graph(&self) -> SimpleGraph {
        match &self.input {
            Input::Spec(family) => family.simple(self.seed).expect("generated specs are valid"),
            Input::Edges { nodes, edges } => upload_graph(*nodes, edges),
        }
    }
}

/// Builds the simple graph of an upload, adding edges in upload order
/// as the server does.
pub fn upload_graph(nodes: usize, edges: &[(u32, u32)]) -> SimpleGraph {
    let mut g = SimpleGraph::new(nodes);
    for &(u, v) in edges {
        g.add_edge_ids(u as usize, v as usize)
            .expect("generated uploads are simple");
    }
    g
}

/// The server's spec grammar for the families the mixes use.
pub fn spec_text(family: &Family) -> String {
    match family {
        Family::Cycle(n) => format!("cycle:{n}"),
        Family::Grid(w, h) => format!("grid:{w}:{h}"),
        Family::RandomRegular { n, d } => format!("random-regular:{n}:{d}"),
        Family::RandomTree { n } => format!("random-tree:{n}"),
        Family::PowerLaw { n, m } => format!("power-law:{n}:{m}"),
        other => panic!("no spec grammar for {other:?}"),
    }
}

/// A sparse random graph with about `n * degree / 2` distinct edges in
/// random order: the upload that stands in for large G(n, p), whose
/// `gnp:` specs the server refuses above ~2,000 nodes.
pub fn sparse_edges(n: usize, degree: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    let target = ((n as f64 * degree) / 2.0) as usize;
    let mut seen = HashSet::with_capacity(target);
    let mut edges = Vec::with_capacity(target);
    while edges.len() < target {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u, v));
        }
    }
    edges
}

/// The edge list of a simple graph in edge-id order, i.e. the order
/// that reproduces its port numbering under canonical ports.
pub fn edges_of(g: &SimpleGraph) -> Vec<(u32, u32)> {
    g.edges()
        .map(|(_, u, v)| (u.index() as u32, v.index() as u32))
        .collect()
}

/// Renames nodes by a seeded permutation, keeping the edge order, so
/// every node sees its neighbours in the same port order: the result
/// is PN-isomorphic to the input.
pub fn relabel(nodes: usize, edges: &[(u32, u32)], rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut perm: Vec<u32> = (0..nodes as u32).collect();
    rng.shuffle(&mut perm);
    edges
        .iter()
        .map(|&(u, v)| (perm[u as usize], perm[v as usize]))
        .collect()
}

/// One row of a mix table.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    /// Label in the accounting.
    pub name: &'static str,
    /// The generator.
    pub kind: Kind,
    /// Node count (grid: side length).
    pub n: usize,
    /// Protocols; empty asks for `"all"`.
    pub protocols: &'static [Protocol],
    /// Bound provider.
    pub bounds: Option<BoundsMode>,
    /// Keep `n` exact (growth pairs); otherwise sizes get up to 5%
    /// seeded jitter so specs of deterministic families differ.
    pub exact: bool,
}

/// Generators used by the mixes.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `cycle:n`.
    Cycle,
    /// `random-regular:n:3`.
    Cubic,
    /// `grid:n:n`.
    Grid,
    /// `random-tree:n`.
    Tree,
    /// `power-law:n:2`.
    PowerLaw,
    /// Uploaded sparse random graph, average degree 3.
    Upload,
}

impl Class {
    /// Instantiates the class as a request.
    pub fn request(&self, id: u64, seed: u64, scale: Scale, rng: &mut Rng) -> Request {
        let jitter = |n: usize, rng: &mut Rng| {
            if self.exact {
                n
            } else {
                n + rng.below(n / 20 + 1)
            }
        };
        let input = match self.kind {
            Kind::Cycle => Input::Spec(Family::Cycle(jitter(scale.nodes(self.n), rng))),
            Kind::Cubic => Input::Spec(Family::RandomRegular {
                n: jitter(scale.nodes(self.n), rng) & !1,
                d: 3,
            }),
            Kind::Grid => {
                let side = scale.side(self.n);
                Input::Spec(Family::Grid(side, jitter(side, rng)))
            }
            Kind::Tree => Input::Spec(Family::RandomTree {
                n: jitter(scale.nodes(self.n), rng),
            }),
            Kind::PowerLaw => Input::Spec(Family::PowerLaw {
                n: jitter(scale.nodes(self.n), rng),
                m: 2,
            }),
            Kind::Upload => {
                let n = jitter(scale.nodes(self.n), rng);
                Input::Edges {
                    nodes: n,
                    edges: sparse_edges(n, 3.0, rng),
                }
            }
        };
        Request {
            id,
            class: self.name,
            input,
            protocols: (!self.protocols.is_empty()).then(|| self.protocols.to_vec()),
            bounds: self.bounds,
            seed,
            base: None,
        }
    }
}
