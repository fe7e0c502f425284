//! End-to-end pipeline integration: data → partition → topology → grouping
//! → sampling → hierarchical training → history, across crate boundaries.

use gfl_core::cov::group_cov;
use gfl_core::driver::{RunSpec, Runtime};
use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, RandomGrouping};
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_nn::sgd::LrSchedule;
use gfl_sim::{Task, Topology};

fn build_world(seed: u64, alpha: f64) -> (Trainer, Vec<Vec<usize>>, gfl_data::LabelMatrix) {
    let data = SyntheticSpec::tiny().generate(800, seed);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 16,
            alpha,
            min_size: 10,
            max_size: 60,
            seed,
        },
    );
    let labels = partition.label_matrix.clone();
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 0.8,
        },
        &topology,
        &labels,
        seed,
    );
    let config = GroupFelConfig {
        global_rounds: 10,
        group_rounds: 3,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.2),
        weighting: AggregationWeighting::Stabilized,
        eval_every: 2,
        seed,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let trainer = Trainer::new(config, gfl_nn::zoo::tiny(4, 3), train, partition, test);
    (trainer, groups, labels)
}

#[test]
fn full_pipeline_learns_and_accounts_costs() {
    // Seed chosen so the first evaluation is below ceiling — several seeds
    // solve the tiny task at round 0, leaving no headroom to demonstrate
    // improvement.
    let (trainer, groups, _) = build_world(3, 0.5);
    let history = trainer
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    assert!(history.records().len() >= 5);
    // Learning happened.
    let first = history.records().first().unwrap();
    assert!(history.best_accuracy() > first.accuracy);
    // Cost is strictly increasing across evaluated rounds.
    for w in history.records().windows(2) {
        assert!(w[1].cost > w[0].cost);
    }
    // Loss ends finite and positive.
    let last = history.records().last().unwrap();
    assert!(last.loss.is_finite() && last.loss > 0.0);
}

#[test]
fn every_sampling_strategy_completes_on_every_weighting() {
    let (trainer, groups, _) = build_world(2, 0.3);
    for sampling in [
        SamplingStrategy::Random,
        SamplingStrategy::RCov,
        SamplingStrategy::SRCov,
        SamplingStrategy::ESRCov,
    ] {
        for weighting in [
            AggregationWeighting::Standard,
            AggregationWeighting::Unbiased,
            AggregationWeighting::Stabilized,
        ] {
            let mut cfg = trainer.config().clone();
            cfg.weighting = weighting;
            cfg.global_rounds = 3;
            let t = Trainer::new(
                cfg,
                trainer.model().clone(),
                trainer.train_data().clone(),
                trainer.partition().clone(),
                trainer.test_data().clone(),
            );
            let h = t.run_returning_params(&groups, &FedAvg, sampling).0;
            assert!(
                !h.is_empty(),
                "{sampling:?}/{weighting:?} produced no history"
            );
            let last = h.records().last().unwrap();
            assert!(
                last.accuracy.is_finite(),
                "{sampling:?}/{weighting:?} diverged to NaN"
            );
        }
    }
}

#[test]
fn grouping_quality_orders_cov_before_random() {
    // §5.1 assumes the *global* data distribution is roughly balanced; a
    // population large enough for the Dirichlet draws to average out is
    // needed for CoV-vs-uniform to be the right target.
    let data = SyntheticSpec::tiny().generate(4_000, 3);
    let partition = ClientPartition::dirichlet(
        &data,
        &PartitionSpec {
            num_clients: 48,
            alpha: 0.2,
            min_size: 20,
            max_size: 80,
            seed: 3,
        },
    );
    let labels = partition.label_matrix.clone();
    let covg = CovGrouping {
        min_group_size: 4,
        max_cov: 0.2,
    };
    let rg = RandomGrouping { group_size: 5 };
    let avg =
        |gs: &[Vec<usize>]| gs.iter().map(|g| group_cov(&labels, g)).sum::<f32>() / gs.len() as f32;
    let mean_over_seeds = |algo: &dyn GroupingAlgorithm| {
        (0..6)
            .map(|s| {
                let mut rng = gfl_tensor::init::rng(s);
                avg(&algo.form_groups(&labels, &mut rng))
            })
            .sum::<f32>()
            / 6.0
    };
    let cov_quality = mean_over_seeds(&covg);
    let rand_quality = mean_over_seeds(&rg);
    assert!(
        cov_quality < rand_quality,
        "CoVG {cov_quality} must beat RG {rand_quality} on average"
    );
}

#[test]
fn histories_are_reproducible_across_trainer_instances() {
    let (t1, groups, _) = build_world(4, 0.5);
    let (t2, groups2, _) = build_world(4, 0.5);
    assert_eq!(groups, groups2, "grouping must be deterministic");
    let h1 = t1
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::SRCov)
        .0;
    let h2 = t2
        .run_returning_params(&groups2, &FedAvg, SamplingStrategy::SRCov)
        .0;
    for (a, b) in h1.records().iter().zip(h2.records()) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.train_loss, b.train_loss);
    }
}

#[test]
fn resumable_sessions_match_single_run() {
    let (trainer, groups, _) = build_world(5, 0.5);
    let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::Random);

    // Two chunks of 5 rounds with the same groups, vs internals reused.
    let mut state = trainer.start(&FedAvg, trainer.frozen_membership(&groups, spec.sampling));
    trainer.advance(&spec, &mut state, &FedAvg, 5).unwrap();
    let mid_cost = state.ledger.total();
    trainer.advance(&spec, &mut state, &FedAvg, 5).unwrap();
    let (ledger, history, params) = (state.ledger, state.history, state.params);
    assert!(ledger.total() > mid_cost);
    assert_eq!(
        history.records().last().unwrap().round,
        9,
        "resumed session must reach round 9"
    );
    let eval = trainer.evaluate(&params);
    assert!(eval.accuracy > 0.3, "resumed model should have learned");
}
