//! Extension — the paper-faithful 5-layer 1-D CNN trained through the full
//! Group-FEL hierarchy on the speech task, next to the dense stand-in.
//!
//! §7.1 uses "a 5-layer convolutional neural network (CNN) that is easy to
//! train on RPi" for Speech Commands; this binary shows the reproduction
//! supports that architecture class end to end (flat-parameter aggregation,
//! CoV grouping, ESRCoV sampling, cost accounting) — not just MLPs.

use gfl_core::engine::{form_groups_per_edge, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};
use gfl_nn::Network;

fn main() {
    let mut scale = ExpScale::from_env();
    scale.global_rounds = scale.global_rounds.min(30);
    scale.budget = f64::INFINITY; // compare per-round learning, not budget
    let world = World::speech(0.1, 42, scale);
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 8,
            max_cov: 1.0,
        },
        &world.topology,
        &world.partition.label_matrix,
        world.seed,
    );

    let header = ["model", "round", "accuracy"];
    let mut rows = Vec::new();
    let mut finals = Vec::new();
    for (name, model) in [
        ("dense", gfl_nn::zoo::speech_model()),
        ("cnn5", gfl_nn::zoo::speech_cnn()),
    ] {
        let mut cfg = world.config(AggregationWeighting::Standard);
        cfg.cost_budget = None;
        let trainer = Trainer::new(
            cfg,
            model.clone(),
            world.train.clone(),
            world.partition.clone(),
            world.test.clone(),
        );
        let history = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        for r in history.records() {
            rows.push(vec![
                name.to_string(),
                r.round.to_string(),
                f(f64::from(r.accuracy), 4),
            ]);
        }
        let best = history.best_accuracy();
        let params = match &model {
            Network::Mlp(m) => m.param_len(),
            Network::Cnn(c) => c.param_len(),
        };
        println!("{name:6} ({params:6} params) best accuracy {best:.4}");
        finals.push((name, best));
    }

    print_series(
        "Extension: 5-layer CNN vs dense model through Group-FEL (speech task)",
        &header,
        &rows,
    );
    let path = write_csv("cnn_speech", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Both architectures must actually learn through the hierarchy. The
    // CNN's weight-sharing prior is mismatched to the synthetic features
    // (no spatial structure), so it learns more slowly than the dense net;
    // the bar is clearing 2x chance within the short horizon.
    for (name, best) in &finals {
        assert!(
            *best > 2.0 / 35.0,
            "{name} failed to learn: best accuracy {best}"
        );
    }
    println!("both architectures train end to end through the hierarchy");
}
