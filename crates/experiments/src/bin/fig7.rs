//! Fig. 7 — the four sampling methods over CoV-formed groups:
//! Random < RCoV < SRCoV < ESRCoV in accuracy-over-cost.
//!
//! "Overall, the more we emphasize CoV in sampling, the smoother and faster
//! the convergence is" (§6.1).

use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let scale = ExpScale::from_env();
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
    println!("formed {} groups", groups.len());

    let strategies = [
        SamplingStrategy::Random,
        SamplingStrategy::RCov,
        SamplingStrategy::SRCov,
        SamplingStrategy::ESRCov,
    ];
    let header = ["sampling", "round", "cost", "accuracy"];
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for strat in strategies {
        // Biased Line-15 weighting throughout: the paper's Fig. 7 studies
        // the sampling emphasis, not the unbiasedness correction.
        let trainer = world.trainer(world.config(AggregationWeighting::Standard));
        let history = trainer.run_returning_params(&groups, &FedAvg, strat).0;
        for r in history.records() {
            rows.push(vec![
                strat.name().to_string(),
                r.round.to_string(),
                f(r.cost, 1),
                f(f64::from(r.accuracy), 4),
            ]);
        }
        let acc = history.accuracy_within_cost(scale.budget);
        let acc_mid = history.accuracy_within_cost(scale.budget / 2.0);
        println!(
            "{:8} accuracy within half/full budget: {acc_mid:.4} / {acc:.4}",
            strat.name()
        );
        summary.push((strat.name(), acc, acc_mid));
    }

    print_series(
        "Fig 7: sampling methods, accuracy over cost",
        &header,
        &rows,
    );
    let path = write_csv("fig7", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Shape checks: ESRCoV must lead at the full budget and win clearly in
    // the transient half-budget regime ("the more we emphasize CoV in
    // sampling, the smoother and faster the convergence", §6.1).
    let (random, random_mid) = (summary[0].1, summary[0].2);
    let (esr, esr_mid) = (summary[3].1, summary[3].2);
    assert!(
        esr >= random - 0.01,
        "ESRCoV ({esr}) should not lose to Random ({random}) at full budget"
    );
    assert!(
        esr_mid > random_mid,
        "ESRCoV ({esr_mid}) must converge faster than Random ({random_mid})"
    );
    println!("shape checks passed: CoV-aware sampling converges faster and ends ahead");
}
