//! The benchmark produces every metric `BENCHMARK.json` declares, in the
//! declared unit. Values are not asserted: they belong to the machine and
//! the commit.

use gfl_benchmark::bench::{end_to_end, traced, RunResult};
use gfl_benchmark::workload::{Spec, Workload};
use serde_json::Value;

/// A workload shrunk to test size, keeping its scenario and layers.
fn small(workload: Workload) -> Spec {
    let mut spec = workload.spec(3);
    spec.clients = spec.clients.min(2_000);
    spec.samples = 3_000;
    spec.config.global_rounds = 3;
    spec.config.sampled_groups = spec.config.sampled_groups.min(4);
    spec
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn end_to_end_run_reports_exactly_the_declared_metrics() {
    let r = end_to_end(&small(Workload::PaperVision), 0.0).expect("runs");
    assert!(r.correct(), "{:?}", r.errors);
    assert_eq!(reported(&r), declared("end_to_end"));
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn traced_run_reports_every_layer_and_group_size_drift() {
    let spec = small(Workload::ChurnAsyncVirtual);
    let r = traced(&spec).expect("runs");
    assert!(r.correct(), "{:?}", r.errors);
    assert_eq!(reported(&r), declared("per_layer"));
    assert!(r.metrics.iter().all(|m| m.value.is_finite()));
    let per_round = &r
        .detail
        .iter()
        .find(|(k, _)| k == "per_round")
        .expect("per-round drift series")
        .1;
    for series in ["max_group_size", "mean_sampled_group_size"] {
        let len = per_round
            .get(series)
            .and_then(Value::as_array)
            .map(Vec::len);
        assert_eq!(len, Some(spec.rounds()), "{series} has one entry per round");
    }
    assert!(per_round.get("formation_size").is_some());
}
