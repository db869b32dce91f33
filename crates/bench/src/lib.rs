//! Benchmark harness and experiment drivers for the PODC 2010
//! reproduction.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see `DESIGN.md` for the experiment index); this library holds
//! the shared pieces: workload construction, exact-ratio measurement, and
//! plain-text table rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod workloads;

pub use report::Table;

use eds_lower_bounds::bound::Ratio;
use pn_graph::{EdgeId, PortNumberedGraph};

/// The outcome of running one algorithm on one instance with a known
/// optimum.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Solution size produced by the algorithm.
    pub found: usize,
    /// The optimal solution size.
    pub optimal: usize,
    /// Rounds used by the distributed execution (0 for centralised runs).
    pub rounds: usize,
    /// Messages delivered during the distributed execution.
    pub messages: usize,
}

impl Measurement {
    /// The empirical approximation ratio.
    pub fn ratio(&self) -> Ratio {
        Ratio::of_sizes(self.found, self.optimal)
    }
}

/// Runs a distributed `NodeAlgorithm` producing port sets and returns the
/// selected edges plus run statistics.
///
/// # Panics
///
/// Panics on simulator errors or inconsistent outputs — these indicate
/// bugs, not data-dependent failures.
pub fn run_distributed<F>(g: &PortNumberedGraph, factory: F) -> (Vec<EdgeId>, usize, usize)
where
    F: pn_runtime::AlgorithmFactory,
    F::Algorithm: pn_runtime::NodeAlgorithm<Output = pn_runtime::PortSet>,
{
    let run = pn_runtime::Simulator::new(g)
        .run(factory)
        .expect("simulation succeeds on valid inputs");
    let edges = pn_runtime::edge_set_from_outputs(g, &run.outputs)
        .expect("algorithm outputs are internally consistent");
    (edges, run.rounds, run.messages)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_ratio() {
        let m = Measurement {
            found: 10,
            optimal: 4,
            rounds: 3,
            messages: 100,
        };
        assert!(m.ratio().eq_exact(Ratio::new(5, 2)));
    }

    #[test]
    fn run_distributed_port_one() {
        let g = pn_graph::ports::canonical_ports(&pn_graph::generators::cycle(6).unwrap()).unwrap();
        let (edges, rounds, messages) = run_distributed(&g, eds_core::port_one::PortOneNode::new);
        assert!(!edges.is_empty());
        assert_eq!(rounds, 1);
        assert_eq!(messages, 12);
    }
}
