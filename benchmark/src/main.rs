//! Benchmark entry point.
//!
//! ```text
//! gfl-benchmark --workload <paper_vision|secagg_speech|churn_async_virtual|all>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every result is also appended, stamped with the machine
//! and commit, to `results/history.jsonl`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};

use gfl_benchmark::bench::{self, RunResult};
use gfl_benchmark::record;
use gfl_benchmark::workload::Workload;
use serde_json::{json, Value};

/// Counts allocations so traced runs can report allocations per round.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; the counter is a statistic that publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("a whole number of seconds >= 1"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!(
            "--workload must be one of {} or all, got '{}'",
            names.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn print_report(workload: &str, trace: bool, result: &RunResult) {
    eprintln!(
        "\n{workload} ({}): {} of {} runs failed",
        if trace {
            "traced, per-layer"
        } else {
            "end-to-end"
        },
        result.failed,
        result.attempted
    );
    for e in &result.errors {
        eprintln!("  failure: {e}");
    }
    for m in &result.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, detail) in &result.detail {
        eprintln!(
            "  {name}: {}",
            serde_json::to_string(detail).unwrap_or_default()
        );
    }
}

/// Runs one workload in this process.
fn run_one(args: &Args, workload: Workload) -> Result<Value, String> {
    gfl_obs::alloc::register_alloc_counter(|| ALLOCS.load(Ordering::Relaxed));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    gfl_parallel::set_default_parallelism(threads);
    let spec = workload.spec(args.seed);
    let result = if args.trace {
        bench::traced(&spec)?
    } else {
        bench::end_to_end(&spec, args.seconds as f64)?
    };
    print_report(workload.name(), args.trace, &result);
    let line = result.to_json();
    let detail = result.detail.to_vec();
    let entry = json!({
        "unix_time": std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        "commit": record::commit(),
        "machine": record::machine(),
        "threads": threads,
        "workload": workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "errors": result.errors,
        "result": line.clone(),
        "detail": Value::Object(detail),
    });
    if let Err(e) = record::append(&record::history_path(), &entry) {
        eprintln!("warning: could not append to the result history: {e}");
    }
    Ok(line)
}

/// Runs every workload, each in its own process, and prints one table.
fn run_all(args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    let mut table = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line: Value = stdout
            .lines()
            .last()
            .filter(|_| out.status.success())
            .and_then(|l| serde_json::from_str(l).ok())
            .ok_or_else(|| format!("{} exited with {}", w.name(), out.status))?;
        correct &= line.get("correct").and_then(Value::as_bool) == Some(true);
        attempted += line.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += line.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Object(ms)) = line.get("metrics") {
            for (name, m) in ms {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                table.push(format!(
                    "{:<20} {:<36} {:>16.6} {unit}",
                    w.name(),
                    name,
                    value
                ));
                metrics.push((format!("{}.{name}", w.name()), m.clone()));
            }
        }
        table.push(format!(
            "{:<20} {:<36} {:>16}",
            w.name(),
            "output check",
            if line.get("correct").and_then(Value::as_bool) == Some(true) {
                "passed"
            } else {
                "FAILED"
            }
        ));
    }
    eprintln!("\n{:<20} {:<36} {:>16} unit", "workload", "metric", "value");
    for row in table {
        eprintln!("{row}");
    }
    Ok(json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match Workload::parse(&args.workload) {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    };
    match line {
        Ok(line) => {
            println!("{}", serde_json::to_string(&line).unwrap_or_default());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
