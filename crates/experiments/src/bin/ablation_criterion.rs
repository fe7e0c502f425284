//! Ablation (§5.1) — CoV vs raw variance as the grouping criterion.
//!
//! The paper argues variance "is susceptible to the scale of data number":
//! a small skewed group can out-score a large balanced one. This binary
//! quantifies the argument three ways:
//!
//! 1. the §5.1 pathology on explicit histograms,
//! 2. grouping quality (mean CoV, data dispersion γ) of the two greedy
//!    variants on a Dirichlet federation,
//! 3. downstream federated accuracy under identical sampling.

use gfl_core::cov::{group_cov, mean_group_cov};
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, VarianceGrouping};
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::theory;
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let mut scale = ExpScale::from_env();
    scale.global_rounds = scale.global_rounds.min(40);
    let world = World::vision(0.1, 42, scale);

    let header = ["criterion", "groups", "mean_cov", "mean_gamma", "accuracy"];
    let mut rows = Vec::new();
    let mut results = Vec::new();

    let algos: Vec<(&str, Box<dyn GroupingAlgorithm>)> = vec![
        (
            "CoV",
            Box::new(CovGrouping {
                min_group_size: 5,
                max_cov: 0.5,
            }),
        ),
        (
            // max_variance tuned to produce a comparable group count.
            "variance",
            Box::new(VarianceGrouping {
                min_group_size: 5,
                max_variance: 60.0,
            }),
        ),
    ];
    for (name, algo) in algos {
        let groups = form_groups_per_edge(
            algo.as_ref(),
            &world.topology,
            &world.partition.label_matrix,
            world.seed,
        );
        let mean_cov = mean_group_cov(&world.partition.label_matrix, &groups);
        let mean_gamma = groups
            .iter()
            .map(|g| {
                let sizes: Vec<usize> = g
                    .iter()
                    .map(|&c| world.partition.indices[c].len())
                    .collect();
                theory::gamma(&sizes)
            })
            .sum::<f64>()
            / groups.len() as f64;
        let trainer = world.trainer(world.config(AggregationWeighting::Standard));
        let history = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        let acc = history.accuracy_within_cost(scale.budget);
        println!(
            "{name:9} {:3} groups  mean CoV {mean_cov:.3}  mean gamma {mean_gamma:.3}  accuracy {acc:.4}",
            groups.len()
        );
        rows.push(vec![
            name.to_string(),
            groups.len().to_string(),
            f(f64::from(mean_cov), 3),
            f(mean_gamma, 3),
            f(f64::from(acc), 4),
        ]);
        results.push((name, mean_cov, acc, groups));
    }

    print_series(
        "Ablation: CoV vs variance grouping criterion",
        &header,
        &rows,
    );
    let path = write_csv("ablation_criterion", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // The pathology check on the worst groups formed: the variance greedy
    // must admit a group whose CoV exceeds anything the CoV greedy keeps.
    let worst = |groups: &Vec<Vec<usize>>| {
        groups
            .iter()
            .map(|g| group_cov(&world.partition.label_matrix, g))
            .fold(0.0f32, f32::max)
    };
    let cov_worst = worst(&results[0].3);
    let var_worst = worst(&results[1].3);
    println!("\nworst group CoV: CoV-greedy {cov_worst:.3} vs variance-greedy {var_worst:.3}");
    assert!(
        results[0].1 <= results[1].1,
        "CoV criterion must form lower-CoV groups on average"
    );
    assert!(
        results[0].2 >= results[1].2 - 0.02,
        "CoV criterion must not lose accuracy to variance"
    );
    println!("shape checks passed: CoV dominates raw variance as the criterion");
}
