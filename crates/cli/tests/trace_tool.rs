//! End-to-end tests for the `gfl-trace` analyzer: run real simulations
//! through the `gfl` command layer, then analyze the streamed traces with
//! `summarize` / `diff` / `flame`, and exercise the `regress` perf gate
//! against checked-in fixtures.

use std::path::PathBuf;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// Runs `gfl <args>`, asserting success.
fn gfl(args: &str) -> String {
    let mut out = Vec::new();
    let code = gfl_cli::run(&argv(args), &mut out);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(code, 0, "gfl {args} failed:\n{text}");
    text
}

/// Runs `gfl-trace <args>`, returning (exit code, output).
fn gfl_trace(args: &str) -> (i32, String) {
    let mut out = Vec::new();
    let code = gfl_cli::trace_cli::run(&argv(args), &mut out);
    (code, String::from_utf8(out).unwrap())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gfl_trace_tool_{}_{name}", std::process::id()))
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

const SIM: &str = "simulate --clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
                   --sample 2 --min-gs 2 --alpha 0.5 --seed 3 --eval-every 1";

fn traced_run(path: &std::path::Path) {
    gfl(&format!("{SIM} --trace-out {}", path.display()));
}

#[test]
fn summarize_reports_phases_bytes_and_rounds() {
    let path = tmp("summarize.jsonl");
    traced_run(&path);
    let (code, out) = gfl_trace(&format!("summarize {}", path.display()));
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("schema v2"), "{out}");
    assert!(out.contains("rounds: 2"), "{out}");
    for phase in ["round", "train", "group_round", "client_step", "aggregate"] {
        assert!(out.contains(phase), "missing phase {phase}:\n{out}");
    }
    assert!(out.contains("client<->edge"), "{out}");
    assert!(out.contains("edge<->cloud"), "{out}");
    // Byte totals must be non-zero: comm accounting is always on.
    assert!(
        !out.contains("client<->edge           0"),
        "client-edge bytes should be non-zero:\n{out}"
    );
}

#[test]
fn diff_of_two_same_seed_runs_reports_zero_divergence() {
    let (a, b) = (tmp("diff_a.jsonl"), tmp("diff_b.jsonl"));
    traced_run(&a);
    traced_run(&b);
    let (code, out) = gfl_trace(&format!("diff {} {}", a.display(), b.display()));
    assert_eq!(code, 0, "same-seed runs must not diverge:\n{out}");
    assert!(out.contains("no divergence"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn diff_detects_a_divergent_run() {
    let (a, b) = (tmp("div_a.jsonl"), tmp("div_b.jsonl"));
    traced_run(&a);
    gfl(&format!(
        "simulate --clients 8 --edges 2 --samples 900 --rounds 2 --k 1 --e 1 \
         --sample 2 --min-gs 2 --alpha 0.5 --seed 4 --eval-every 1 --trace-out {}",
        b.display()
    ));
    let (code, out) = gfl_trace(&format!("diff {} {}", a.display(), b.display()));
    assert_eq!(code, 1, "different seeds must diverge:\n{out}");
    assert!(out.contains("diverged:"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn exact_diff_finds_timing_differences_between_same_seed_runs() {
    let (a, b) = (tmp("exact_a.jsonl"), tmp("exact_b.jsonl"));
    traced_run(&a);
    traced_run(&b);
    // Wall-clock timings differ between runs, so --exact reports the first
    // differing field (while the default deterministic projection does not).
    let (code, out) = gfl_trace(&format!("diff {} {} --exact", a.display(), b.display()));
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("diverged:"), "{out}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn flame_emits_collapsed_stacks_on_both_clocks() {
    let path = tmp("flame.jsonl");
    traced_run(&path);
    let (code, wall) = gfl_trace(&format!("flame {}", path.display()));
    assert_eq!(code, 0, "{wall}");
    assert!(
        wall.contains("round;train;group_round;client_step "),
        "{wall}"
    );
    for line in wall.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack<space>weight");
        assert!(!stack.is_empty());
        assert!(weight.parse::<u64>().is_ok(), "bad weight in {line}");
    }
    let (code, emu) = gfl_trace(&format!("flame {} --clock emulated", path.display()));
    assert_eq!(code, 0, "{emu}");
    assert!(emu.contains("emulated;round_0 "), "{emu}");
    assert!(emu.contains("emulated;round_1 "), "{emu}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn regress_passes_a_snapshot_against_itself() {
    let base = fixture("bench_baseline.json");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), base.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 regression(s)"), "{out}");
    // The unreliable threads=16 row must not be throughput-checked.
    assert!(!out.contains("rounds_per_sec[threads=16]"), "{out}");
    // But its alloc count (machine-independent) is.
    assert!(out.contains("allocs_per_round[threads=16]"), "{out}");
}

#[test]
fn regress_fails_on_the_injected_regression_fixture() {
    let base = fixture("bench_baseline.json");
    let cur = fixture("bench_regressed.json");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), cur.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL rounds_per_sec[threads=1]"), "{out}");
    assert!(out.contains("FAIL allocs_per_round[threads=8]"), "{out}");
    assert!(out.contains("FAIL gemm_gflops[avx2]"), "{out}");
    // Within-threshold drift still passes.
    assert!(out.contains("PASS rounds_per_sec[threads=8]"), "{out}");
    assert!(out.contains("PASS gemm_gflops[scalar]"), "{out}");
    assert!(out.contains("REGRESSION"), "{out}");
}

#[test]
fn regress_thresholds_are_tunable_from_the_command_line() {
    let base = fixture("bench_baseline.json");
    let cur = fixture("bench_regressed.json");
    // Loosen every threshold until the regressed fixture passes.
    let (code, out) = gfl_trace(&format!(
        "regress {} {} --min-rps-ratio 0.1 --max-alloc-delta 100 --min-gflops-ratio 0.1",
        base.display(),
        cur.display()
    ));
    assert_eq!(code, 0, "{out}");
}

#[test]
fn regress_gates_the_scale_section_sub_second() {
    let base = fixture("bench_baseline.json");
    // Current = baseline + a scale section (as bench_scale merges it).
    let with_scale = |name: &str, formation: f64, regroup: f64| {
        let mut v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&base).unwrap()).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("fixture must be an object")
        };
        pairs.push((
            "scale".to_string(),
            serde_json::json!({
                "clients": 1_000_000usize,
                "formation_seconds_1m": formation,
                "regroup_seconds_1m": regroup,
            }),
        ));
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        path
    };

    let fast = with_scale("bench_scale_fast.json", 0.4, 0.7);
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), fast.display()));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("PASS scale.formation_seconds_1m"), "{out}");
    assert!(out.contains("PASS scale.regroup_seconds_1m"), "{out}");

    let slow = with_scale("bench_scale_slow.json", 2.5, 0.7);
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), slow.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL scale.formation_seconds_1m"), "{out}");

    // The cap is tunable; a baseline without the section is never gated.
    let (code, out) = gfl_trace(&format!(
        "regress {} {} --max-formation-seconds 5",
        base.display(),
        slow.display()
    ));
    assert_eq!(code, 0, "{out}");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), base.display()));
    assert_eq!(code, 0, "{out}");
    assert!(!out.contains("scale."), "{out}");
    std::fs::remove_file(&fast).ok();
    std::fs::remove_file(&slow).ok();
}

#[test]
fn regress_fails_when_a_gated_section_goes_missing() {
    let base = fixture("bench_baseline.json");
    let cur = fixture("bench_missing_simd.json");
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), cur.display()));
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("FAIL section simd"), "{out}");
    // The sections both snapshots carry are still compared.
    assert!(out.contains("PASS rounds_per_sec[threads=1]"), "{out}");
    assert!(out.contains("REGRESSION"), "{out}");
    // A section only the current snapshot has is not a failure.
    let (code, out) = gfl_trace(&format!("regress {} {}", cur.display(), base.display()));
    assert_eq!(code, 0, "{out}");
}

#[test]
fn regress_with_no_overlap_is_an_error() {
    let base = fixture("bench_baseline.json");
    let empty = tmp("empty_bench.json");
    std::fs::write(&empty, "{\"results\": []}").unwrap();
    let (code, out) = gfl_trace(&format!("regress {} {}", base.display(), empty.display()));
    std::fs::remove_file(&empty).ok();
    assert_eq!(code, 2, "{out}");
    assert!(out.contains("no comparable entries"), "{out}");
}
