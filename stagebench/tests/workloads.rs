//! At tiny scale, every workload passes its correctness gate and prints
//! exactly the metrics `BENCHMARK.json` declares, in both modes.

use std::path::PathBuf;

use stagebench::json::{self, Value};
use stagebench::layers::PER_LAYER;
use stagebench::{run, Options, Scale, END_TO_END, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn table(rows: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    rows.iter()
        .map(|(n, u, b)| ((*n).to_owned(), (*u).to_owned(), (*b).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_every_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_owned(),
                seed: 3,
                seconds: 1.0,
                trace,
                scale: Scale::Tiny,
                out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("{workload}-{trace}")),
            };
            let outcome = run(&opts).unwrap();
            assert!(
                outcome.correct(),
                "{workload} trace={trace}: {:?}",
                outcome.problems
            );
            let line = json::parse(&outcome.render()).unwrap();
            let Some(Value::Obj(metrics)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            let want = declared(if trace { "per_layer" } else { "end_to_end" });
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Some(Value::Num(_))), "{name}");
                    (
                        name.clone(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                    )
                })
                .collect();
            let want: Vec<(String, String)> = want.into_iter().map(|(n, u, _)| (n, u)).collect();
            assert_eq!(got, want, "{workload} trace={trace}");
            assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        }
    }
}
