//! Shared fixtures for the criterion benchmarks.
//!
//! Figure/table ↔ bench mapping (see DESIGN.md §3):
//! * `grouping` — Fig. 5 (grouping runtime vs client count, all four
//!   algorithms) and the Fig. 6 quality sweep's hot path.
//! * `cov` — Eq. 27 evaluation and the Algorithm-2 inner loop primitive.
//! * `secagg` — Fig. 2(a)/Fig. 8 SecAgg scaling (mask + unmask + dropout).
//! * `defense` — Fig. 2(a)/Fig. 8 backdoor-detection scaling.
//! * `sampling_agg` — Eq. 34 probabilities, without-replacement draws, and
//!   the Line-15/Eq.-4/Eq.-35 weighting kernels (Fig. 7 / §6.2 machinery).
//! * `nn` — local-update kernel (Line 13): forward/backward per batch.
//! * `training_round` — one full Algorithm-1 global round, the unit the
//!   accuracy figures (2b, 9–12, Table 1) integrate over.
//!
//! [`merge_bench_sections`] is the one writer of `BENCH_ROUND.json`, shared
//! by the `bench_round` and `bench_scale` harnesses.

use gfl_data::LabelMatrix;
use gfl_tensor::init;
use rand::Rng;

/// Skewed per-client label histograms like the paper's Dirichlet clients.
pub fn skewed_labels(clients: usize, labels: usize, seed: u64) -> LabelMatrix {
    let mut rng = init::rng(seed);
    LabelMatrix::new(
        (0..clients)
            .map(|_| {
                let hot = rng.gen_range(0..labels);
                (0..labels)
                    .map(|l| {
                        if l == hot {
                            rng.gen_range(20..120)
                        } else if rng.gen_bool(0.3) {
                            rng.gen_range(0..10)
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect(),
        labels,
    )
}

/// Random dense vectors for aggregation/masking benches.
pub fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = init::rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

/// Read-modify-writes the JSON object at `path`: every top-level key of
/// `sections` replaces (or is appended to) the file's entry of that name,
/// and every other entry is kept. A harness therefore rewrites only its
/// own sections, and rerunning one never drops another's. Returns the
/// merged report.
///
/// # Panics
/// Panics if `sections` or the existing file is not a JSON object, or the
/// file cannot be written.
pub fn merge_bench_sections(path: &str, sections: serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    let Value::Object(new) = sections else {
        panic!("bench sections must be a JSON object");
    };
    let mut report: Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({}));
    let Value::Object(pairs) = &mut report else {
        panic!("{path} must hold a JSON object");
    };
    for (key, value) in new {
        match pairs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => pairs.push((key, value)),
        }
    }
    let pretty = serde_json::to_string_pretty(&report).expect("a JSON value serializes");
    std::fs::write(path, format!("{pretty}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_sections_keeps_every_other_section() {
        let path =
            std::env::temp_dir().join(format!("gfl_bench_merge_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        std::fs::write(path, r#"{"results": [1], "scale": {"clients": 5}}"#).unwrap();
        let merged = merge_bench_sections(
            path,
            serde_json::json!({"results": [2], "simd": serde_json::json!({"tier": "scalar"})}),
        );
        std::fs::remove_file(path).ok();
        let serde_json::Value::Object(pairs) = merged else {
            panic!("merged report must be an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["results", "scale", "simd"]);
        assert_eq!(pairs[0].1, serde_json::json!([2]));
        assert_eq!(pairs[1].1, serde_json::json!({"clients": 5}));
    }
}
