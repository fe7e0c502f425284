//! Standalone perf harness for the training hot path.
//!
//! Runs a paper_vision-shaped workload (§7.2: K=5, E=2, 12 sampled groups,
//! batch 32, vision model) for a few global rounds at each worker-thread
//! count, measuring rounds/sec and heap allocations per round via a
//! counting global allocator, then merges the results into
//! `BENCH_ROUND.json` and prints the merged file. Only the sections this
//! harness measures are replaced; others, such as `bench_scale`'s `scale`,
//! are kept.
//!
//! Usage: `cargo run --release -p gfl-bench --bin bench_round [-- --rounds N]`
//!
//! Results are bit-identical across thread counts by construction (see
//! `crates/core/tests/determinism.rs`); this harness only measures time
//! and allocation pressure. The report records the machine's core count —
//! thread-scaling numbers are only meaningful when cores >= threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gfl_core::driver::{RunSpec, Runtime};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::prelude::{FaultPlan, FaultPolicy};
use gfl_core::sampling::SamplingStrategy;
use gfl_core::semi_async::AsyncConfig;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_sim::Topology;

/// Counts every allocation and reallocation on top of the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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

fn build_paper_scale(rounds: usize) -> (Trainer, Vec<Vec<usize>>, Topology) {
    let data = SyntheticSpec::vision_like().generate(6_000, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 60,
            alpha: 0.1,
            min_size: 20,
            max_size: 160,
            seed: 1,
        },
    );
    let topology = Topology::even_split(3, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 5,
            max_cov: 0.5,
        },
        &topology,
        &partition.label_matrix,
        1,
    );
    let mut config = GroupFelConfig::paper_vision();
    config.global_rounds = rounds;
    config.cost_budget = None;
    config.eval_every = rounds; // evaluate once, not per round
    config.seed = 1;
    (
        Trainer::new(config, gfl_nn::zoo::vision_model(), train, partition, test),
        groups,
        topology,
    )
}

/// Deterministic non-zero fill for GEMM operands.
fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Single-threaded `gemm_nt` GFLOP/s on a paper-shaped layer (batch 256 ×
/// 256 outputs × 784 inputs), once per SIMD tier this machine supports.
/// Returns the per-tier rows plus the detected-best-tier-over-scalar
/// throughput ratio — the number the SIMD microkernels are accountable to.
fn gemm_gflops_per_tier() -> (Vec<serde_json::Value>, Option<f64>) {
    use gfl_tensor::simd;
    let (m, n, k) = (256usize, 256usize, 784usize);
    let a = filled(m * k, 1);
    let b = filled(n * k, 2);
    let mut out = vec![0.0f32; m * n];
    let flops = (2 * m * n * k) as f64;
    let active = simd::active_tier();
    let mut rows = Vec::new();
    let mut scalar_gflops = None;
    let mut active_gflops = None;
    for tier in simd::supported_tiers() {
        let prev = simd::set_tier(tier);
        // Calibrate the iteration count to ~150 ms per rep, then take the
        // best of three reps to shave scheduler noise.
        let t0 = Instant::now();
        simd::gemm_nt(&a, &b, &mut out, m, n, k);
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.15 / dt).ceil() as usize).clamp(1, 100_000);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..iters {
                simd::gemm_nt(&a, &b, &mut out, m, n, k);
            }
            best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
        }
        std::hint::black_box(&out);
        simd::set_tier(prev);
        let gflops = flops / best / 1e9;
        eprintln!(
            "gemm_nt 256x256x784 [{:>6}]: {gflops:6.2} GFLOP/s",
            tier.name()
        );
        if tier == simd::SimdTier::Scalar {
            scalar_gflops = Some(gflops);
        }
        if tier == active {
            active_gflops = Some(gflops);
        }
        rows.push(serde_json::json!({
            "tier": tier.name(),
            "gemm_gflops": gflops,
            "seconds_per_gemm": best,
        }));
    }
    let ratio = match (scalar_gflops, active_gflops) {
        (Some(s), Some(a)) if s > 0.0 => Some(a / s),
        _ => None,
    };
    (rows, ratio)
}

/// Runs the same workload through the event-driven scheduler under a
/// straggler plan (a quarter of the fleet slowed 8×) and returns the
/// final emulated clock — wait-for-all vs quorum-or-deadline
/// (docs/ASYNC.md). Deterministic, so the clocks are exact, not sampled.
fn emulated_clock_s(rounds: usize, policy: FaultPolicy) -> f64 {
    let (trainer, groups, topology) = build_paper_scale(rounds);
    let plan = FaultPlan {
        seed: 1,
        straggler_fraction: 0.25,
        straggler_factor: 8.0,
        straggler_jitter: 0.25,
        ..FaultPlan::none()
    };
    let trainer = trainer.with_faults(plan, policy, &topology);
    let spec = RunSpec::new(
        Runtime::SemiAsync(AsyncConfig::default()),
        SamplingStrategy::ESRCov,
    );
    let mut state = trainer.start(&FedAvg, trainer.frozen_membership(&groups, spec.sampling));
    trainer
        .advance(&spec, &mut state, &FedAvg, trainer.config().global_rounds)
        .expect("a frozen membership never regroups");
    state.report.final_clock_s()
}

fn main() {
    let mut rounds = 3usize;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--rounds" => {
                rounds = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a positive integer");
            }
            other => panic!("unknown argument '{other}' (supported: --rounds N)"),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Expose the counting allocator to the observability layer so traced
    // runs report allocs/round from the same counter this harness uses.
    gfl_obs::alloc::register_alloc_counter(|| ALLOCS.load(Ordering::Relaxed));
    let (trainer, groups, _) = build_paper_scale(rounds);
    let param_count = trainer.model().param_len();

    // Warm-up: populate scratch pools, page in the dataset.
    gfl_parallel::set_default_parallelism(1);
    let reference = trainer
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;

    let mut results = Vec::new();
    let mut per_rounds: Vec<f64> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        gfl_parallel::set_default_parallelism(threads);
        let alloc_start = ALLOCS.load(Ordering::Relaxed);
        let pool_start = gfl_parallel::stats::snapshot();
        let t0 = Instant::now();
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        let secs = t0.elapsed().as_secs_f64();
        let allocs = ALLOCS.load(Ordering::Relaxed) - alloc_start;
        let pool = gfl_parallel::stats::snapshot().since(pool_start);
        assert_eq!(h, reference, "thread count changed the result");
        let per_round = secs / rounds as f64;
        // A timing row is only an honest scaling datum when the machine
        // actually has a core per worker thread.
        let reliable = cores >= threads;
        eprintln!(
            "threads={threads:2}  {:7.3} s/round  {:9.4} rounds/s  {:8} allocs/round  pool util {:5.1}%  steals {}{}",
            per_round,
            1.0 / per_round,
            allocs / rounds as u64,
            pool.utilization() * 100.0,
            pool.steals,
            if reliable { "" } else { "  [unreliable: threads > cores]" }
        );
        results.push(serde_json::json!({
            "threads": threads,
            "cores": cores,
            "reliable": reliable,
            "seconds_per_round": per_round,
            "rounds_per_sec": 1.0 / per_round,
            "allocs_per_round": allocs / rounds as u64,
            "pool_utilization": pool.utilization(),
            "pool_regions": pool.regions,
            "pool_claims": pool.claims,
            "pool_steals": pool.steals,
        }));
        per_rounds.push(per_round);
    }
    // Emulated wall-clock under stragglers: the same workload closed
    // wait-for-all vs quorum-or-deadline through the semi-async runtime.
    let clock_sync = emulated_clock_s(
        rounds,
        FaultPolicy {
            quorum_fraction: 1.0,
            deadline_factor: 0.0,
            ..FaultPolicy::default()
        },
    );
    let clock_semi = emulated_clock_s(
        rounds,
        FaultPolicy {
            quorum_fraction: 0.8,
            deadline_factor: 2.5,
            ..FaultPolicy::default()
        },
    );
    eprintln!(
        "emulated clock under 8x stragglers: sync {:.1} s/round, semi-async {:.1} s/round ({:.2}x)",
        clock_sync / rounds as f64,
        clock_semi / rounds as f64,
        clock_sync / clock_semi
    );
    gfl_parallel::set_default_parallelism(0);

    // SIMD microkernel throughput, per dispatch tier, single-threaded.
    let (simd_tiers, simd_speedup) = gemm_gflops_per_tier();

    // Honest scaling summary: the 8-vs-1 speedup is only reported when the
    // 8-thread row was measured with 8 real cores behind it.
    let speedup_8_vs_1 = (cores >= 8).then(|| per_rounds[0] / per_rounds[3]);
    if speedup_8_vs_1.is_none() {
        eprintln!(
            "warning: only {cores} core(s) available; rows with threads > cores are \
             oversubscribed and no 8-vs-1 thread-scaling speedup is reported"
        );
    }

    let report = serde_json::json!({
        "workload": "paper_vision-shaped: 60 clients / 3 edges, K=5, E=2, 12 sampled groups, batch 32, vision model",
        "param_count": param_count,
        "rounds_measured": rounds,
        "cores": cores,
        "results": results,
        "speedup_8_vs_1_threads": speedup_8_vs_1,
        "speedup_warning": if speedup_8_vs_1.is_none() {
            Some(format!(
                "machine has {cores} core(s); speedup_8_vs_1_threads requires >= 8 \
                 (rows with reliable=false are oversubscribed)"
            ))
        } else {
            None
        },
        "simd": serde_json::json!({
            "workload": "gemm_nt 256x256x784 f32, single thread",
            "active_tier": gfl_tensor::simd::active_tier().name(),
            "tiers": simd_tiers,
            "speedup_vs_scalar": simd_speedup,
        }),
        "emulated_clock": serde_json::json!({
            "plan": "straggler_fraction 0.25, straggler_factor 8.0, jitter 0.25 (docs/ASYNC.md)",
            "sync_clock_s_per_round": clock_sync / rounds as f64,
            "semi_async_clock_s_per_round": clock_semi / rounds as f64,
            "semi_async_speedup": clock_sync / clock_semi,
        }),
        "note": "results are bit-identical across thread counts; speedup only materializes when cores >= threads",
    });
    let merged = gfl_bench::merge_bench_sections("BENCH_ROUND.json", report);
    println!("{}", serde_json::to_string_pretty(&merged).unwrap());
}
