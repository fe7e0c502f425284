//! Fig. 12 — impact ablation: grouping × sampling combinations.
//!
//! {CoVG+RS, RG+CoVS, CoVG+CoVS, KLDG+RS, KLDG+CoVS} with FedAvg local
//! updates. Expected shape: CoVG+CoVS (the full Group-FEL) on top; either
//! component alone gives only part of the benefit ("the advantage of the
//! proposed methods is more clear when both CoVG and CoVS are used
//! together").

use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, KldGrouping, RandomGrouping};
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let scale = ExpScale::from_env();
    let world = World::vision(0.1, 42, scale);

    let covg: Box<dyn GroupingAlgorithm> = Box::new(CovGrouping {
        min_group_size: 5,
        max_cov: 0.5,
    });
    let rg: Box<dyn GroupingAlgorithm> = Box::new(RandomGrouping { group_size: 6 });
    let kldg: Box<dyn GroupingAlgorithm> = Box::new(KldGrouping { group_size: 6 });

    let combos: Vec<(&str, &dyn GroupingAlgorithm, SamplingStrategy)> = vec![
        ("CoVG+RS", covg.as_ref(), SamplingStrategy::Random),
        ("RG+CoVS", rg.as_ref(), SamplingStrategy::ESRCov),
        ("CoVG+CoVS", covg.as_ref(), SamplingStrategy::ESRCov),
        ("KLDG+RS", kldg.as_ref(), SamplingStrategy::Random),
        ("KLDG+CoVS", kldg.as_ref(), SamplingStrategy::ESRCov),
    ];

    let header = ["combo", "cost", "accuracy"];
    let mut rows = Vec::new();
    let mut at_budget = Vec::new();
    for (name, grouping, sampling) in combos {
        let groups = form_groups_per_edge(
            grouping,
            &world.topology,
            &world.partition.label_matrix,
            world.seed,
        );
        let trainer = world.trainer(world.config(AggregationWeighting::Standard));
        let history = trainer.run_returning_params(&groups, &FedAvg, sampling).0;
        for r in history.records() {
            rows.push(vec![
                name.to_string(),
                f(r.cost, 1),
                f(f64::from(r.accuracy), 4),
            ]);
        }
        let acc = history.accuracy_within_cost(scale.budget);
        println!("{name:10} accuracy within budget: {acc:.4}");
        at_budget.push((name, acc));
    }

    print_series(
        "Fig 12: grouping × sampling combinations (accuracy vs cost)",
        &header,
        &rows,
    );
    let path = write_csv("fig12", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    let full = at_budget.iter().find(|(n, _)| *n == "CoVG+CoVS").unwrap().1;
    let others_best = at_budget
        .iter()
        .filter(|(n, _)| *n != "CoVG+CoVS")
        .map(|&(_, a)| a)
        .fold(0.0f32, f32::max);
    println!("\nCoVG+CoVS {full:.4} vs best other combo {others_best:.4}");
    assert!(
        full >= others_best - 0.02,
        "the full combination should lead the ablation"
    );
    println!("shape check passed: both components together work best");
}
