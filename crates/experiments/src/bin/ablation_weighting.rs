//! Ablation (§6.2) — aggregation weighting under prioritized sampling:
//! Standard (Line 15) vs Unbiased (Eq. 4) vs Stabilized (Eq. 35).
//!
//! The paper warns that raw unbiased correction with an aggressive w()
//! "extremely amplifies the gradient and ruins all previous training
//! results". This binary demonstrates the instability and shows Eq. 35's
//! normalization restores it.

use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let mut scale = ExpScale::from_env();
    scale.global_rounds = scale.global_rounds.min(40);
    let world = World::vision(0.1, 42, scale);
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 5,
            max_cov: 0.5,
        },
        &world.topology,
        &world.partition.label_matrix,
        world.seed,
    );

    let header = ["weighting", "round", "accuracy", "loss"];
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for (name, weighting) in [
        ("standard", AggregationWeighting::Standard),
        ("unbiased", AggregationWeighting::Unbiased),
        ("stabilized", AggregationWeighting::Stabilized),
    ] {
        let trainer = world.trainer(world.config(weighting));
        // ESRCoV makes some p_g minuscule — the stress case of §6.2.
        let history = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        for r in history.records() {
            rows.push(vec![
                name.to_string(),
                r.round.to_string(),
                f(f64::from(r.accuracy), 4),
                f(f64::from(r.loss), 4),
            ]);
        }
        let acc = history.final_accuracy();
        let loss = history.records().last().map(|r| r.loss).unwrap_or(0.0);
        println!("{name:10} final accuracy {acc:.4}, final loss {loss:.4}");
        finals.push((name, acc, loss));
    }

    print_series(
        "Ablation: aggregation weighting under ESRCoV sampling",
        &header,
        &rows,
    );
    let path = write_csv("ablation_weighting", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    let stabilized = finals[2].1;
    let unbiased = finals[1].1;
    println!(
        "\nstabilized {stabilized:.4} vs raw unbiased {unbiased:.4} \
         (raw unbiased is expected to trail or diverge)"
    );
    assert!(
        stabilized >= unbiased - 0.02,
        "Eq. 35 normalization must not lose to raw Eq. 4"
    );
    println!("shape check passed");
}
