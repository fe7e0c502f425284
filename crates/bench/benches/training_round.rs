//! One full Algorithm-1 global round — the unit every accuracy figure
//! (Fig. 2b, 9–12, Table 1) integrates over. Benchmarked for FedAvg,
//! FedProx, and SCAFFOLD local updates, and with the real SecAgg protocol
//! in the aggregation path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfl_baselines::{FedProx, Scaffold};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};
use std::hint::black_box;

fn build(secure: bool) -> (Trainer, Vec<Vec<usize>>) {
    let data = SyntheticSpec::vision_like().generate(3_000, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 30,
            alpha: 0.1,
            min_size: 20,
            max_size: 120,
            seed: 1,
        },
    );
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 5,
            max_cov: 0.5,
        },
        &topology,
        &partition.label_matrix,
        1,
    );
    let config = GroupFelConfig {
        global_rounds: 1,
        group_rounds: 5,
        local_rounds: 2,
        sampled_groups: 3,
        batch_size: 32,
        lr: LrSchedule::Constant(0.08),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 1,
        seed: 1,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: secure,
        dropout_prob: 0.0,
    };
    (
        Trainer::new(config, gfl_nn::zoo::vision_model(), train, partition, test),
        groups,
    )
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_global_round");
    group.sample_size(10);

    let (trainer, groups) = build(false);
    group.bench_function(BenchmarkId::new("strategy", "FedAvg"), |b| {
        b.iter(|| {
            black_box(
                trainer
                    .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                    .0,
            )
        });
    });
    group.bench_function(BenchmarkId::new("strategy", "FedProx"), |b| {
        b.iter(|| {
            black_box(
                trainer
                    .run_returning_params(&groups, &FedProx { mu: 0.1 }, SamplingStrategy::ESRCov)
                    .0,
            )
        });
    });
    group.bench_function(BenchmarkId::new("strategy", "SCAFFOLD"), |b| {
        b.iter(|| {
            let s = Scaffold::new(
                trainer.model().param_len(),
                trainer.partition().num_clients(),
            );
            black_box(
                trainer
                    .run_returning_params(&groups, &s, SamplingStrategy::ESRCov)
                    .0,
            )
        });
    });

    let (secure_trainer, secure_groups) = build(true);
    group.bench_function(BenchmarkId::new("strategy", "FedAvg+realSecAgg"), |b| {
        b.iter(|| {
            black_box(
                secure_trainer
                    .run_returning_params(&secure_groups, &FedAvg, SamplingStrategy::ESRCov)
                    .0,
            )
        });
    });
    group.finish();
}

/// A paper_vision-shaped world: §7.2's K=5, E=2, 12 sampled groups,
/// batch 32, on the vision model — scaled to 60 clients / 3 edges so one
/// global round is a realistic (not toy) unit of work.
fn build_paper_scale() -> (Trainer, Vec<Vec<usize>>) {
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
    config.global_rounds = 1;
    config.cost_budget = None;
    config.eval_every = 1;
    config.seed = 1;
    (
        Trainer::new(config, gfl_nn::zoo::vision_model(), train, partition, test),
        groups,
    )
}

/// One paper-shaped global round across worker-thread counts. Results are
/// bit-identical for every count (see `crates/core/tests/determinism.rs`);
/// only the wall clock moves.
fn bench_paper_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("paper_vision_round");
    group.sample_size(10);
    let (trainer, groups) = build_paper_scale();
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            gfl_parallel::set_default_parallelism(threads);
            b.iter(|| {
                black_box(
                    trainer
                        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                        .0,
                )
            });
        });
    }
    gfl_parallel::set_default_parallelism(0);
    group.finish();
}

criterion_group!(benches, bench_round, bench_paper_scale);
criterion_main!(benches);
