//! Machine fingerprint, memory high-water mark, and the append-only
//! result history.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

/// What a result was measured on. Throughput compares only between
/// results with the same fingerprint.
pub fn machine() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    serde_json::json!({
        "cores": cores,
        "simd_tier": gfl_tensor::simd::active_tier().name(),
        "cpu_model": cpu,
    })
}

/// The directory holding this benchmark's sources.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .arg("-C")
        .arg(bench_dir())
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `git describe --always --dirty` of the tree the benchmark was built
/// from, or `"unknown"` when that tree is not a git checkout of its own.
pub fn commit() -> String {
    let top = git(&["rev-parse", "--show-toplevel"]).map(PathBuf::from);
    let own = bench_dir().parent().map(Path::to_path_buf);
    let same = match (top, own) {
        (Some(t), Some(o)) => t.canonicalize().ok() == o.canonicalize().ok(),
        _ => false,
    };
    same.then(|| git(&["describe", "--always", "--dirty", "--abbrev=12"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The append-only history every run adds one line to.
pub fn history_path() -> PathBuf {
    bench_dir().join("results").join("history.jsonl")
}

/// Appends one JSON line to `path`, creating the file if needed.
pub fn append(path: &Path, line: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string(line).map_err(std::io::Error::other)?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(format!("{text}\n").as_bytes())?;
    file.flush()
}
