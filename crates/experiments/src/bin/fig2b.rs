//! Fig. 2(b) — accuracy over cost for fixed random group sizes
//! GS ∈ {5, 10, 15, 20}.
//!
//! The motivating observation: simply shrinking the group size does *not*
//! reduce the total cost needed for a given accuracy — small random groups
//! are more skewed, which slows convergence and eats the overhead savings.
//! All four curves should land in the same band.

use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::RandomGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let mut scale = ExpScale::from_env();
    // Fig 2(b)'s cost axis runs ~4x further than the comparison figures —
    // the invariance claim is about *converged* accuracy-per-cost, so every
    // group size must get enough rounds to converge within budget.
    scale.budget *= 4.0;
    scale.global_rounds *= 2;
    let world = World::vision(0.1, 42, scale);
    let header = ["group_size", "round", "cost", "accuracy"];
    let mut rows = Vec::new();
    let mut final_acc = Vec::new();

    for gs in [5usize, 10, 15, 20] {
        let groups = form_groups_per_edge(
            &RandomGrouping { group_size: gs },
            &world.topology,
            &world.partition.label_matrix,
            world.seed,
        );
        let trainer = world.trainer(world.config(AggregationWeighting::Standard));
        let history = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        for r in history.records() {
            rows.push(vec![
                gs.to_string(),
                r.round.to_string(),
                f(r.cost, 1),
                f(f64::from(r.accuracy), 4),
            ]);
        }
        final_acc.push((gs, history.accuracy_within_cost(scale.budget)));
        println!(
            "GS={gs}: best accuracy within budget {:.4}",
            history.accuracy_within_cost(scale.budget)
        );
    }

    print_series("Fig 2(b): accuracy over cost by group size", &header, &rows);
    let path = write_csv("fig2b", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Shape check: no group size wins decisively — the spread of
    // budget-constrained accuracy across sizes stays small.
    let best = final_acc.iter().map(|&(_, a)| a).fold(0.0f32, f32::max);
    let worst = final_acc.iter().map(|&(_, a)| a).fold(1.0f32, f32::min);
    println!("\naccuracy spread across GS: best {best:.4}, worst {worst:.4}");
    assert!(
        best - worst < 0.15,
        "group size alone should not change accuracy-per-cost dramatically"
    );
    println!("shape check passed: accuracy-per-cost roughly invariant to GS");
}
