//! Round-engine throughput: rounds/sec and messages/sec of the
//! synchronous simulator on the three canonical substrate shapes —
//! a long cycle (sparse, diameter-bound), random `d`-regular graphs
//! (the paper's main workload), and a cyclic Petersen covering (the
//! lower-bound machinery's lift construction).
//!
//! The gossip protocol used here is deliberately cheap per node so the
//! numbers measure the engine, not the algorithm. Run alongside the
//! `sim_benchmark` binary, which emits the tracked `BENCH_sim.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pn_graph::{covering, generators, ports, PortNumberedGraph};
use pn_runtime::{collect_send, NodeAlgorithm, Simulator, WrongCount};

/// Fixed number of rounds every node runs before halting.
const ROUNDS: usize = 16;

#[derive(Clone)]
struct Gossip {
    degree: usize,
    acc: u64,
    left: usize,
}

impl Gossip {
    fn new(degree: usize) -> Self {
        Gossip {
            degree,
            acc: degree as u64,
            left: ROUNDS,
        }
    }
}

impl NodeAlgorithm for Gossip {
    type Message = u64;
    type Output = u64;

    fn send(&mut self, round: usize) -> Vec<u64> {
        collect_send(self, round, self.degree)
    }

    fn send_into(&mut self, _round: usize, outbox: &mut [Option<u64>]) -> Result<(), WrongCount> {
        for (q, slot) in outbox.iter_mut().enumerate() {
            *slot = Some(self.acc.wrapping_add(q as u64));
        }
        Ok(())
    }

    fn receive(&mut self, _round: usize, inbox: &[Option<u64>]) -> Option<u64> {
        for m in inbox.iter().flatten() {
            self.acc = self.acc.rotate_left(5).wrapping_add(*m);
        }
        self.left -= 1;
        (self.left == 0).then_some(self.acc)
    }
}

fn bench_workload(c: &mut Criterion, name: &str, sizes: &[(usize, PortNumberedGraph)]) {
    let mut group = c.benchmark_group(format!("sim_throughput/{name}"));
    for (n, pg) in sizes {
        // One "element" = one executed round, so the reported rate is
        // rounds/sec; messages/sec is rounds/sec x ports.
        group.throughput(Throughput::Elements(ROUNDS as u64));
        group.bench_with_input(BenchmarkId::new("send_into", n), pg, |b, pg| {
            let sim = Simulator::new(pg);
            b.iter(|| sim.run(Gossip::new).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("parallel4", n), pg, |b, pg| {
            let sim = Simulator::new(pg);
            b.iter(|| sim.run_parallel(Gossip::new, 4).unwrap())
        });
    }
    group.finish();
}

fn bench_cycle(c: &mut Criterion) {
    let sizes: Vec<(usize, PortNumberedGraph)> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| {
            let g = generators::cycle(n).expect("cycle");
            (n, ports::canonical_ports(&g).expect("ports"))
        })
        .collect();
    bench_workload(c, "cycle", &sizes);
}

fn bench_random_regular(c: &mut Criterion) {
    let sizes: Vec<(usize, PortNumberedGraph)> = [1_000usize, 10_000]
        .into_iter()
        .map(|n| {
            let g = generators::random_regular(n, 3, n as u64).expect("regular");
            (n, ports::shuffled_ports(&g, 7).expect("ports"))
        })
        .collect();
    bench_workload(c, "random_3_regular", &sizes);
}

fn bench_petersen_covering(c: &mut Criterion) {
    let base = ports::shuffled_ports(&generators::petersen(), 3).expect("ports");
    let sizes: Vec<(usize, PortNumberedGraph)> = [100usize, 1_000]
        .into_iter()
        .map(|layers| {
            let (lift, _) = covering::cyclic_lift(&base, layers);
            (lift.node_count(), lift)
        })
        .collect();
    bench_workload(c, "petersen_cover", &sizes);
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(600))
        .warm_up_time(std::time::Duration::from_millis(150))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_cycle, bench_random_regular, bench_petersen_covering
}
criterion_main!(benches);
