//! Allocation guard for the observability layer.
//!
//! The engine's instrumentation is `Option`-gated: with no collector
//! attached every instrument site is `None.map(..)` — no clock reads, no
//! span pushes, no allocation. This test pins that down with a counting
//! global allocator: warm steady-state rounds with tracing disabled must
//! allocate *exactly* the same number of times run over run (any hidden
//! per-round growth or disabled-path bookkeeping would break equality),
//! and the traced run's extra allocations must stay bounded.
//!
//! The counter and `set_default_parallelism` are process-global, and the
//! harness runs tests concurrently, so every measurement holds
//! [`MEASURE`]: no other test allocates or re-pins the pool mid-count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use gfl_core::driver::{RunSpec, Runtime};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::SamplingStrategy;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_sim::Topology;

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

fn tiny_world() -> (Trainer, Vec<Vec<usize>>) {
    let data = SyntheticSpec::tiny().generate(600, 5);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 5));
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 2,
            max_cov: 1.0,
        },
        &topology,
        &partition.label_matrix,
        5,
    );
    let mut config = GroupFelConfig::tiny();
    config.seed = 5;
    (
        Trainer::new(config, gfl_nn::zoo::tiny(4, 3), train, partition, test),
        groups,
    )
}

/// Serializes the tests of this binary: each one holds the guard for its
/// whole body, from pinning the pool to releasing it.
static MEASURE: Mutex<()> = Mutex::new(());

fn measure_alone() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next test still measures alone.
    MEASURE.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Hard per-round allocation budget for the warm engine.
///
/// After a warm-up leg has seeded every pool (local-training scratch,
/// group parameter/slot/member buffers, evaluation workspaces), a
/// steady-state round of `Trainer::advance` — including its per-round
/// evaluation at `eval_every = 1` — must stay within this many heap
/// allocations. The residue is small unavoidable per-round state
/// (sampling draws, the round's context/outcome vectors, per-group-round
/// unit queues); anything that scales with model size or group membership
/// must come from a pool and trips this gate if it regresses.
const ROUND_ALLOC_BUDGET: u64 = 64;

#[test]
fn steady_state_rounds_fit_the_alloc_budget() {
    let _alone = measure_alone();
    gfl_parallel::set_default_parallelism(1);
    let (trainer, groups) = tiny_world();
    let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::Random);
    let mut state = trainer.start(&FedAvg, trainer.frozen_membership(&groups, spec.sampling));

    // Warm-up rounds size every pool; they are excluded from the count.
    trainer.advance(&spec, &mut state, &FedAvg, 3).unwrap();

    const MEASURED: u64 = 8;
    let allocs = allocs_of(|| {
        trainer
            .advance(&spec, &mut state, &FedAvg, MEASURED as usize)
            .unwrap();
    });
    let per_round = allocs / MEASURED;
    assert!(
        per_round <= ROUND_ALLOC_BUDGET,
        "steady-state rounds allocate too much: {per_round} allocs/round \
         ({allocs} over {MEASURED} rounds), budget {ROUND_ALLOC_BUDGET}"
    );
    gfl_parallel::set_default_parallelism(0);
}

#[test]
fn disabled_tracing_adds_no_allocations_to_the_hot_loop() {
    let _alone = measure_alone();
    // Single-threaded so the worker pool does not allocate on its own
    // schedule mid-measurement.
    gfl_parallel::set_default_parallelism(1);
    let (trainer, groups) = tiny_world();

    // Warm-up populates lazily-initialized caches (datasets paged, scratch
    // pools sized); afterwards the untraced loop is in steady state.
    trainer.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let untraced_a = allocs_of(|| {
        trainer.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
    });
    let untraced_b = allocs_of(|| {
        trainer.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
    });
    assert_eq!(
        untraced_a, untraced_b,
        "untraced steady-state runs must allocate identically"
    );

    // With a collector attached the run allocates extra (span records, the
    // JSONL buffers are out of scope here) — but the overhead must stay
    // small relative to the workload itself.
    let (t2, groups2) = tiny_world();
    let obs = gfl_obs::TraceCollector::new();
    let traced_trainer = t2.with_observer(std::sync::Arc::clone(&obs));
    traced_trainer.run_returning_params(&groups2, &FedAvg, SamplingStrategy::ESRCov);
    let traced = allocs_of(|| {
        traced_trainer.run_returning_params(&groups2, &FedAvg, SamplingStrategy::ESRCov);
    });
    assert!(
        traced < untraced_a * 2 + 10_000,
        "tracing overhead exploded: {traced} allocs vs {untraced_a} untraced"
    );
    gfl_parallel::set_default_parallelism(0);
}
