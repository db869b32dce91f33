//! Integration test: the worker-pool engine against the sequential one,
//! across the full conformance registry and all six protocols.
//!
//! `simulator_threads: 3` routes every run through
//! `Simulator::run_parallel`; `simulator_threads: 1` stays on the
//! sequential `Simulator::run`, the conformance oracle. The two must
//! produce identical [`ProtocolRun`]s — solution, round count and
//! message count — on every (scenario, protocol) pair.
//! `tests/session_sharding.rs` checks the same identity through a
//! `Session`, but only on the smoke registry.
//!
//! [`ProtocolRun`]: edge_dominating_sets::scenarios::ProtocolRun

use edge_dominating_sets::scenarios::{ExecOptions, Protocol, Registry};

fn threads(simulator_threads: usize) -> ExecOptions {
    ExecOptions {
        simulator_threads,
        ..ExecOptions::default()
    }
}

#[test]
fn parallel_engine_is_bit_identical_to_sequential_on_conformance_registry() {
    let cases = Registry::conformance()
        .build_all()
        .expect("conformance registry builds");
    for case in cases {
        for protocol in Protocol::ALL {
            if !protocol.applicable(&case) {
                continue;
            }
            let name = format!("{}/{}", case.name(), protocol.name());
            let oracle = protocol
                .execute_with(&case, &threads(1))
                .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
            let parallel = protocol
                .execute_with(&case, &threads(3))
                .unwrap_or_else(|e| panic!("{name}: parallel run failed: {e}"));
            assert_eq!(
                oracle.solution, parallel.solution,
                "{name}: solution diverged"
            );
            assert_eq!(oracle.rounds, parallel.rounds, "{name}: rounds diverged");
            assert_eq!(
                oracle.messages, parallel.messages,
                "{name}: messages diverged"
            );
        }
    }
}
