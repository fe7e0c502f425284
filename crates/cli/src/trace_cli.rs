//! The `gfl-trace` analyzer: offline tooling over JSONL run traces and
//! benchmark snapshots.
//!
//! Four subcommands, all pure readers (nothing here mutates a trace):
//!
//! * `summarize <trace>` — per-phase time table, byte totals, and round
//!   coverage for one trace file.
//! * `diff <a> <b>` — field-by-field first divergence between two traces.
//!   By default only the *deterministic projection* is compared (span
//!   identities, round tallies, byte counts, counters — everything that
//!   must be identical between two same-seed runs); `--exact` compares
//!   every field including timings.
//! * `flame <trace>` — collapsed-stack output for flamegraph tooling,
//!   `--clock wall` (default) or `--clock emulated` (per-round Eq. 5 cost
//!   deltas, for semi-async runs where wall time is meaningless).
//! * `regress <baseline> <current>` — compare two `BENCH_ROUND.json`
//!   snapshots against regression thresholds; exit 2 on regression (the
//!   CI perf gate).
//!
//! Exit codes: 0 ok / no divergence, 1 divergence found (`diff`), 2 usage
//! error or regression found (`regress`).

use std::io::Write;

use gfl_obs::trace::span_totals_of;
use gfl_obs::{RoundMetrics, SpanKind, SpanRecord, Trace, TraceReader};
use serde::Value;

use crate::args::Args;

/// Top-level usage text for the `gfl-trace` binary.
pub const USAGE: &str = "\
gfl-trace — analyze Group-FEL JSONL run traces and benchmark snapshots

USAGE:
  gfl-trace <COMMAND> <FILES...> [--key value]...

COMMANDS:
  summarize <trace>                per-phase time/byte table for one trace
  diff <a> <b> [--exact]           first divergence between two traces
                                   (deterministic fields only by default)
  flame <trace> [--clock wall|emulated]
                                   collapsed stacks for flamegraph tooling
  regress <baseline> <current> [--min-rps-ratio R] [--max-alloc-delta N]
          [--min-gflops-ratio R] [--max-formation-seconds S]
                                   perf-regression gate over BENCH_ROUND.json

EXIT CODES:
  0  success (diff: traces agree)
  1  diff found a divergence
  2  usage error, unreadable input, or regress found a regression";

/// Entry point shared by the `gfl-trace` binary and tests. Returns the
/// process exit code and prints to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> i32 {
    let Some(command) = argv.first() else {
        let _ = writeln!(out, "{USAGE}");
        return 2;
    };
    // Leading bare tokens after the subcommand are positional file paths;
    // the remainder is `--key value` options.
    let rest = &argv[1..];
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (paths, opts) = rest.split_at(split);
    let args = match Args::parse(opts) {
        Ok(a) => a,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    if args.wants_help() {
        let _ = writeln!(out, "{USAGE}");
        return 0;
    }
    let result = match command.as_str() {
        "summarize" => summarize(paths, &args, out),
        "diff" => diff(paths, &args, out),
        "flame" => flame(paths, &args, out),
        "regress" => regress(paths, &args, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
            return 0;
        }
        other => {
            let _ = writeln!(out, "unknown command '{other}'\n\n{USAGE}");
            return 2;
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn expect_paths<'a>(paths: &'a [String], n: usize, what: &str) -> Result<&'a [String], String> {
    if paths.len() != n {
        return Err(format!(
            "expected {n} file argument(s) ({what}), got {}",
            paths.len()
        ));
    }
    Ok(paths)
}

fn load_trace(path: &str) -> Result<Trace, String> {
    TraceReader::read(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- summarize

fn summarize(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 1, "a trace file")?;
    args.reject_unknown().map_err(|e| e.to_string())?;
    let trace = load_trace(&paths[0])?;
    write_summary(&trace, out).map_err(|e| e.to_string())?;
    Ok(0)
}

fn write_summary(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let meta = &trace.meta;
    writeln!(
        out,
        "trace: schema v{} by {} ({} threads)",
        meta.schema_version, meta.producer, meta.threads
    )?;
    // A complete trace ends with a summary line; a truncated (crashed /
    // in-flight) one does not, so fall back to re-deriving totals from
    // whatever spans survived.
    let derived = span_totals_of(&trace.spans);
    let (wall_ns, totals) = match &trace.summary {
        Some(s) => (s.wall_ns, &s.span_totals),
        None => (trace.rounds.iter().map(|r| r.wall_ns).sum(), &derived),
    };
    let coverage = match &trace.summary {
        Some(s) => s.coverage,
        None => {
            let n = trace.rounds.len().max(1) as f64;
            trace.rounds.iter().map(RoundMetrics::coverage).sum::<f64>() / n
        }
    };
    let secs = |ns: u64| ns as f64 / 1e9;
    writeln!(
        out,
        "rounds: {}   wall: {:.3} s   phase coverage: {:.1}%",
        trace.rounds.len(),
        secs(wall_ns),
        coverage * 100.0
    )?;
    writeln!(out, "\nphase            count     total     % wall")?;
    for t in totals {
        let pct = if wall_ns > 0 {
            100.0 * t.total_ns as f64 / wall_ns as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "{:<14} {:>7} {:>8.3} s {:>8.1}%",
            t.kind.label(),
            t.count,
            secs(t.total_ns),
            pct
        )?;
    }
    let ce: u64 = trace
        .rounds
        .iter()
        .filter_map(|r| r.client_edge_bytes)
        .sum();
    let ec: u64 = trace.rounds.iter().filter_map(|r| r.edge_cloud_bytes).sum();
    writeln!(out, "\nlink              bytes")?;
    writeln!(out, "client<->edge  {ce:>10}")?;
    writeln!(out, "edge<->cloud   {ec:>10}")?;
    if let Some(s) = &trace.summary {
        let interesting = ["rounds.total", "clients.trained", "events.faults"];
        for name in interesting {
            if let Some(v) = s.metrics.counter(name) {
                writeln!(out, "{name:<24} {v:>9}")?;
            }
        }
    }
    Ok(())
}

// --------------------------------------------------------------------- diff

/// The deterministic identity of one span: everything except its timings.
type SpanIdentity = (
    u8,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
);

fn span_identity(s: &SpanRecord) -> SpanIdentity {
    (
        s.kind as u8,
        s.round,
        s.group_round,
        s.group,
        s.client,
        s.bytes,
    )
}

fn fmt_identity(id: &SpanIdentity) -> String {
    let kind = SpanKind::ALL[id.0 as usize].label();
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    format!(
        "{kind}(round={}, group_round={}, group={}, client={}, bytes={})",
        opt(id.1),
        opt(id.2),
        opt(id.3),
        opt(id.4),
        opt(id.5)
    )
}

/// The deterministic projection of one round record (timings and pool
/// statistics dropped).
fn round_projection(r: &RoundMetrics) -> Value {
    let fields = vec![
        ("round".to_string(), Value::U64(r.round)),
        ("groups_trained".to_string(), Value::U64(r.groups_trained)),
        ("clients_trained".to_string(), Value::U64(r.clients_trained)),
        ("fault_events".to_string(), Value::U64(r.fault_events)),
        ("cost_total".to_string(), Value::F64(r.cost_total)),
        (
            "client_edge_bytes".to_string(),
            r.client_edge_bytes.map_or(Value::Null, Value::U64),
        ),
        (
            "edge_cloud_bytes".to_string(),
            r.edge_cloud_bytes.map_or(Value::Null, Value::U64),
        ),
    ];
    Value::Object(fields)
}

/// Parses every line of a trace file into a JSON array value, for `--exact`
/// structural comparison.
fn trace_as_value(trace: &Trace) -> Result<Value, String> {
    let lines: Result<Vec<Value>, _> = trace
        .to_jsonl()
        .lines()
        .map(serde_json::from_str::<Value>)
        .collect();
    lines.map(Value::Array).map_err(|e| e.to_string())
}

fn diff(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 2, "two trace files")?;
    let exact = args.get_flag("exact").map_err(|e| e.to_string())?;
    args.reject_unknown().map_err(|e| e.to_string())?;
    let a = load_trace(&paths[0])?;
    let b = load_trace(&paths[1])?;

    if exact {
        let (va, vb) = (trace_as_value(&a)?, trace_as_value(&b)?);
        return Ok(match gfl_obs::diff::first_divergence("trace", &va, &vb) {
            Some(d) => {
                writeln!(out, "diverged: {d}").map_err(|e| e.to_string())?;
                1
            }
            None => {
                writeln!(out, "identical: every field matches").map_err(|e| e.to_string())?;
                0
            }
        });
    }

    if let Some(d) = deterministic_divergence(&a, &b) {
        writeln!(out, "diverged: {d}").map_err(|e| e.to_string())?;
        return Ok(1);
    }
    writeln!(
        out,
        "no divergence: deterministic fields of {} spans / {} rounds match",
        a.spans.len(),
        a.rounds.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(0)
}

/// First divergence in the deterministic projection of two traces, or
/// `None` when two same-seed runs would be considered identical.
fn deterministic_divergence(a: &Trace, b: &Trace) -> Option<String> {
    if a.meta.schema_version != b.meta.schema_version {
        return Some(format!(
            "meta.schema_version: {} vs {}",
            a.meta.schema_version, b.meta.schema_version
        ));
    }
    // Spans as a sorted multiset of identities: worker interleaving (and
    // therefore on-disk order within a barrier) is timing-dependent, but
    // the *set* of recorded spans is not.
    let mut ia: Vec<_> = a.spans.iter().map(span_identity).collect();
    let mut ib: Vec<_> = b.spans.iter().map(span_identity).collect();
    ia.sort_unstable();
    ib.sort_unstable();
    if ia.len() != ib.len() {
        return Some(format!("span count: {} vs {}", ia.len(), ib.len()));
    }
    for (i, (sa, sb)) in ia.iter().zip(ib.iter()).enumerate() {
        if sa != sb {
            return Some(format!(
                "span multiset[{i}]: {} vs {}",
                fmt_identity(sa),
                fmt_identity(sb)
            ));
        }
    }
    if a.rounds.len() != b.rounds.len() {
        return Some(format!(
            "round count: {} vs {}",
            a.rounds.len(),
            b.rounds.len()
        ));
    }
    for (ra, rb) in a.rounds.iter().zip(b.rounds.iter()) {
        let (pa, pb) = (round_projection(ra), round_projection(rb));
        if let Some(d) = gfl_obs::diff::first_divergence(&format!("round[{}]", ra.round), &pa, &pb)
        {
            return Some(d);
        }
    }
    // Counters are pure event tallies — deterministic. Gauges other than
    // the pool's are too (cost, ASR, emulated clock). Histograms hold
    // wall-time observations and are excluded entirely.
    let (sa, sb) = match (&a.summary, &b.summary) {
        (Some(sa), Some(sb)) => (sa, sb),
        (None, None) => return None,
        _ => return Some("summary: present in one trace, missing in the other".into()),
    };
    let counters = |s: &gfl_obs::RunSummary| -> Vec<(String, u64)> {
        s.metrics
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    let (ca, cb) = (counters(sa), counters(sb));
    if ca != cb {
        for (pa, pb) in ca.iter().zip(cb.iter()) {
            if pa != pb {
                return Some(format!("counter {}: {} vs {} ({})", pa.0, pa.1, pb.1, pb.0));
            }
        }
        return Some(format!(
            "counter sets differ: {} vs {} entries",
            ca.len(),
            cb.len()
        ));
    }
    let gauges = |s: &gfl_obs::RunSummary| -> Vec<(String, f64)> {
        s.metrics
            .gauges
            .iter()
            .filter(|g| !g.name.starts_with("pool."))
            .map(|g| (g.name.clone(), g.value))
            .collect()
    };
    let (ga, gb) = (gauges(sa), gauges(sb));
    if ga != gb {
        for (pa, pb) in ga.iter().zip(gb.iter()) {
            if pa != pb {
                return Some(format!("gauge {}: {} vs {} ({})", pa.0, pa.1, pb.1, pb.0));
            }
        }
        return Some(format!(
            "gauge sets differ: {} vs {} entries",
            ga.len(),
            gb.len()
        ));
    }
    None
}

// -------------------------------------------------------------------- flame

fn flame(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 1, "a trace file")?;
    let clock = args.get_str("clock", "wall");
    args.reject_unknown().map_err(|e| e.to_string())?;
    let trace = load_trace(&paths[0])?;
    match clock.as_str() {
        "wall" => write_wall_flame(&trace, out).map_err(|e| e.to_string())?,
        "emulated" => write_emulated_flame(&trace, out).map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "--clock must be 'wall' or 'emulated', got '{other}'"
            ))
        }
    }
    Ok(0)
}

/// Collapsed stacks over wall time: each line is `stack;path weight_us`,
/// with parent self-time = parent total − children totals, so the weights
/// sum to total traced round time and feed straight into flamegraph
/// tooling.
fn write_wall_flame(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let total = |kind: SpanKind| -> u64 {
        trace
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .sum()
    };
    let round = total(SpanKind::Round);
    let train = total(SpanKind::Train);
    let group_round = total(SpanKind::GroupRound);
    let client_step = total(SpanKind::ClientStep);
    let aggregate = total(SpanKind::Aggregate);
    let comm = total(SpanKind::Comm);
    let upload_retry = total(SpanKind::UploadRetry);
    let eval = total(SpanKind::Eval);
    let regroup = total(SpanKind::Regroup);

    let us = |ns: u64| ns / 1_000;
    let round_self = round.saturating_sub(train + aggregate + comm + eval);
    let stacks = [
        ("round", round_self),
        ("round;train", train.saturating_sub(group_round)),
        (
            "round;train;group_round",
            group_round.saturating_sub(client_step),
        ),
        ("round;train;group_round;client_step", client_step),
        ("round;aggregate", aggregate),
        ("round;comm", comm.saturating_sub(upload_retry)),
        ("round;comm;upload_retry", upload_retry),
        ("round;eval", eval),
        // Regroup passes run between rounds in the self-healing loop, not
        // inside any round span.
        ("regroup", regroup),
    ];
    for (stack, ns) in stacks {
        if ns > 0 {
            writeln!(out, "{stack} {}", us(ns).max(1))?;
        }
    }
    Ok(())
}

/// Collapsed stacks over the *emulated* clock: one frame per round,
/// weighted by that round's Eq. 5 cost delta in emulated microseconds.
/// Wall time is meaningless for semi-async runs (the scheduler skips
/// idle time); this view shows where simulated cost accrued instead.
fn write_emulated_flame(trace: &Trace, out: &mut dyn Write) -> std::io::Result<()> {
    let mut prev = 0.0f64;
    for r in &trace.rounds {
        let delta = (r.cost_total - prev).max(0.0);
        prev = r.cost_total;
        let us = (delta * 1e6) as u64;
        if us > 0 {
            writeln!(out, "emulated;round_{} {us}", r.round)?;
        }
    }
    Ok(())
}

// ------------------------------------------------------------------ regress

fn num(v: &Value, key: &str) -> Option<f64> {
    // `as_f64` coerces integer values, so u64 counters compare fine.
    v.get(key).and_then(Value::as_f64)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

/// Compares two `BENCH_ROUND.json` snapshots. Thresholds:
///
/// * `rounds_per_sec` (per thread row): FAIL below `--min-rps-ratio`
///   (default 0.5) of baseline — generous, because CI hardware varies.
/// * `allocs_per_round` (per thread row): FAIL above baseline +
///   `--max-alloc-delta` (default 32) — tight, because allocation counts
///   are machine-independent.
/// * `gemm_gflops` (per SIMD tier): FAIL below `--min-gflops-ratio`
///   (default 0.5) of baseline.
///
/// Rows are matched by `threads`, tiers by `tier`; entries present only on
/// one side are skipped (a new tier or thread count is not a regression),
/// and throughput is only compared on rows both sides flag `reliable`
/// (threads ≤ physical cores).
///
/// Additionally, when the current snapshot carries a `scale` section
/// (from `bench_scale`), its `formation_seconds_1m` and
/// `regroup_seconds_1m` are gated *absolutely* against
/// `--max-formation-seconds` (default 1.0) — the paper-scale sub-second
/// formation claim, checked rather than asserted.
///
/// A gated section (`results`, `simd`, `scale`) that the baseline has and
/// the current snapshot lacks is itself a failure: a harness that stopped
/// writing a section must not switch its gate off silently.
fn regress(paths: &[String], args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let paths = expect_paths(paths, 2, "baseline and current BENCH_ROUND.json")?;
    let min_rps: f64 = args
        .get("min-rps-ratio", 0.5, "float")
        .map_err(|e| e.to_string())?;
    let max_alloc_delta: f64 = args
        .get("max-alloc-delta", 32.0, "float")
        .map_err(|e| e.to_string())?;
    let min_gflops: f64 = args
        .get("min-gflops-ratio", 0.5, "float")
        .map_err(|e| e.to_string())?;
    let max_formation: f64 = args
        .get("max-formation-seconds", 1.0, "float")
        .map_err(|e| e.to_string())?;
    args.reject_unknown().map_err(|e| e.to_string())?;

    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let baseline = read(&paths[0])?;
    let current = read(&paths[1])?;

    let mut failures = 0usize;
    let mut checks = 0usize;
    let mut check = |out: &mut dyn Write, label: String, ok: bool, detail: String| {
        checks += 1;
        if !ok {
            failures += 1;
        }
        let _ = writeln!(
            out,
            "{} {label}: {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
    };

    let mut missing = 0usize;
    for section in ["results", "simd", "scale"] {
        if baseline.get(section).is_some() && current.get(section).is_none() {
            missing += 1;
            check(
                out,
                format!("section {section}"),
                false,
                "in the baseline, missing from the current snapshot".into(),
            );
        }
    }

    for cur_row in array(&current, "results") {
        let Some(threads) = num(cur_row, "threads") else {
            continue;
        };
        let Some(base_row) = array(&baseline, "results")
            .iter()
            .find(|r| num(r, "threads") == Some(threads))
        else {
            continue;
        };
        let reliable = |row: &Value| row.get("reliable").and_then(Value::as_bool) != Some(false);
        if let (Some(base), Some(cur)) = (
            num(base_row, "rounds_per_sec"),
            num(cur_row, "rounds_per_sec"),
        ) {
            if base > 0.0 && reliable(base_row) && reliable(cur_row) {
                let ratio = cur / base;
                check(
                    out,
                    format!("rounds_per_sec[threads={threads}]"),
                    ratio >= min_rps,
                    format!(
                        "{cur:.2} vs baseline {base:.2} (ratio {ratio:.2}, floor {min_rps:.2})"
                    ),
                );
            }
        }
        if let (Some(base), Some(cur)) = (
            num(base_row, "allocs_per_round"),
            num(cur_row, "allocs_per_round"),
        ) {
            let delta = cur - base;
            check(
                out,
                format!("allocs_per_round[threads={threads}]"),
                delta <= max_alloc_delta,
                format!(
                    "{cur:.0} vs baseline {base:.0} (delta {delta:+.0}, cap +{max_alloc_delta:.0})"
                ),
            );
        }
    }

    if let (Some(base_simd), Some(cur_simd)) = (baseline.get("simd"), current.get("simd")) {
        for cur_tier in array(cur_simd, "tiers") {
            let Some(name) = str_field(cur_tier, "tier") else {
                continue;
            };
            let Some(base_tier) = array(base_simd, "tiers")
                .iter()
                .find(|t| str_field(t, "tier") == Some(name))
            else {
                continue;
            };
            if let (Some(base), Some(cur)) =
                (num(base_tier, "gemm_gflops"), num(cur_tier, "gemm_gflops"))
            {
                if base > 0.0 {
                    let ratio = cur / base;
                    check(
                        out,
                        format!("gemm_gflops[{name}]"),
                        ratio >= min_gflops,
                        format!(
                            "{cur:.2} vs baseline {base:.2} (ratio {ratio:.2}, floor {min_gflops:.2})"
                        ),
                    );
                }
            }
        }
    }

    // Absolute gate on the 10⁶-client `scale` section (bench_scale /
    // docs/SCALE.md): group formation and one regroup tick must stay
    // under `--max-formation-seconds` (default 1 s). The claim is
    // absolute, so only the *current* snapshot is consulted; snapshots
    // predating the section are skipped.
    if let Some(scale) = current.get("scale") {
        for key in ["formation_seconds_1m", "regroup_seconds_1m"] {
            if let Some(cur) = num(scale, key) {
                check(
                    out,
                    format!("scale.{key}"),
                    cur <= max_formation,
                    format!("{cur:.3}s (cap {max_formation:.3}s)"),
                );
            }
        }
    }

    if checks == missing {
        return Err("no comparable entries between baseline and current".into());
    }
    writeln!(
        out,
        "{}: {checks} checks, {failures} regression(s)",
        if failures == 0 { "ok" } else { "REGRESSION" }
    )
    .map_err(|e| e.to_string())?;
    Ok(if failures == 0 { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmd: &str) -> (i32, String) {
        let argv: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
        let mut out = Vec::new();
        let code = run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn no_command_prints_usage() {
        let (code, out) = run_str("");
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        let (code, out) = run_str("explode trace.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn missing_files_are_reported_not_panicked() {
        let (code, out) = run_str("summarize /nonexistent/trace.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("error:"), "{out}");
        let (code, _) = run_str("diff /nonexistent/a.jsonl /nonexistent/b.jsonl");
        assert_eq!(code, 2);
    }

    #[test]
    fn wrong_arity_is_a_usage_error() {
        let (code, out) = run_str("diff only_one.jsonl");
        assert_eq!(code, 2);
        assert!(out.contains("expected 2"), "{out}");
    }
}
