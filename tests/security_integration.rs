//! Security-path integration: secure aggregation inside training, dropout
//! recovery under aggregation weights, and the defense pipeline sanitizing
//! a poisoned federation.

use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, Trainer};
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_defense::{filter_updates, scale_attack, sign_flip_attack, DefenseConfig};
use gfl_nn::sgd::LrSchedule;
use gfl_secagg::SecAggSession;
use gfl_sim::{Task, Topology};
use gfl_tensor::ops;

#[test]
fn secure_aggregation_training_tracks_plain_training() {
    let data = SyntheticSpec::tiny().generate(600, 31);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 31));
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 2,
            max_cov: 1.0,
        },
        &topology,
        &partition.label_matrix,
        31,
    );
    let mut config = GroupFelConfig {
        global_rounds: 6,
        group_rounds: 2,
        local_rounds: 1,
        sampled_groups: 2,
        batch_size: 16,
        lr: LrSchedule::Constant(0.15),
        weighting: AggregationWeighting::Standard,
        eval_every: 2,
        seed: 31,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    let plain = Trainer::new(
        config.clone(),
        gfl_nn::zoo::tiny(4, 3),
        train.clone(),
        partition.clone(),
        test.clone(),
    )
    .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
    .0;
    config.secure_aggregation = true;
    let secure = Trainer::new(config, gfl_nn::zoo::tiny(4, 3), train, partition, test)
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
        .0;
    for (p, s) in plain.records().iter().zip(secure.records()) {
        assert!(
            (p.accuracy - s.accuracy).abs() < 0.05,
            "round {}: plain {} vs secure {}",
            p.round,
            p.accuracy,
            s.accuracy
        );
    }
}

#[test]
fn secagg_sum_of_weighted_model_params_is_exact() {
    // The engine masks *weighted* parameter vectors; verify that weighted
    // aggregation through masks equals the plain weighted sum for a real
    // model-sized payload.
    let model = gfl_nn::zoo::speech_model();
    let dim = model.param_len();
    let mut rng = gfl_tensor::init::rng(5);
    let params: Vec<Vec<f32>> = (0..4).map(|_| model.init_params(&mut rng)).collect();
    let weights = [0.4f32, 0.3, 0.2, 0.1];

    let session = SecAggSession::new(vec![0, 1, 2, 3], dim, 17);
    let mut masked = Vec::new();
    let mut scaled = Vec::new();
    for (i, p) in params.iter().enumerate() {
        let mut s = p.clone();
        ops::scale(weights[i], &mut s);
        masked.push(session.mask(i as u32, &s).0);
        scaled.push(s);
    }
    let (sum, _) = session.unmask_sum(&[0, 1, 2, 3], &masked);

    // Bit for bit the decoded ring sum of the weighted encodings.
    for (j, got) in sum.iter().enumerate() {
        let ring = scaled.iter().fold(0u32, |acc, s| {
            acc.wrapping_add(gfl_secagg::encode(s[j], 4).unwrap())
        });
        let want = gfl_secagg::decode(ring);
        assert_eq!(got.to_bits(), want.to_bits(), "coord {j}: {got} vs {want}");
    }
}

#[test]
fn defense_protects_aggregate_from_model_replacement() {
    // Simulate one group round where two of ten clients submit boosted
    // poisoned deltas; run the defense, then aggregate survivors.
    let dim = 512;
    let mut rng = gfl_tensor::init::rng(7);
    let mut honest_dir = vec![0.0f32; dim];
    gfl_tensor::init::fill_normal(&mut rng, 1.0, &mut honest_dir);

    let mut updates: Vec<Vec<f32>> = (0..10)
        .map(|i| {
            let mut u = honest_dir.clone();
            let mut noise = vec![0.0f32; dim];
            gfl_tensor::init::fill_normal(&mut rng, 0.1, &mut noise);
            ops::add_assign(&noise, &mut u);
            if i >= 8 {
                sign_flip_attack(&mut u);
                scale_attack(&mut u, 20.0);
            }
            u
        })
        .collect();

    let report = filter_updates(&mut updates, &DefenseConfig::default());
    assert_eq!(report.rejected, vec![8, 9]);

    let mut aggregate = vec![0.0f32; dim];
    for &i in &report.accepted {
        ops::add_assign(&updates[i], &mut aggregate);
    }
    ops::scale(1.0 / report.accepted.len() as f32, &mut aggregate);
    // The aggregate should point the same way as the honest direction.
    let cos = ops::cosine_similarity(&aggregate, &honest_dir);
    assert!(cos > 0.95, "defended aggregate cosine {cos}");
}

#[test]
fn dropout_during_secure_round_preserves_survivor_aggregate() {
    let dim = 64;
    let members: Vec<u32> = (0..6).collect();
    let session = SecAggSession::new(members.clone(), dim, 23);
    let mut rng = gfl_tensor::init::rng(11);
    let updates: Vec<Vec<f32>> = (0..6)
        .map(|_| {
            let mut u = vec![0.0f32; dim];
            gfl_tensor::init::fill_normal(&mut rng, 1.0, &mut u);
            u
        })
        .collect();
    let masked: Vec<Vec<u32>> = members
        .iter()
        .map(|&m| session.mask(m, &updates[m as usize]).0)
        .collect();
    // Three different dropout patterns all recover exactly.
    for dropped in [vec![0u32], vec![2, 4], vec![5, 0, 3]] {
        let survivors: Vec<u32> = members
            .iter()
            .copied()
            .filter(|m| !dropped.contains(m))
            .collect();
        let masked_surv: Vec<Vec<u32>> = survivors
            .iter()
            .map(|&m| masked[m as usize].clone())
            .collect();
        let (sum, _) = session.unmask_sum(&survivors, &masked_surv);
        let mut want = vec![0.0f32; dim];
        for &m in &survivors {
            ops::add_assign(&updates[m as usize], &mut want);
        }
        let mut diff = sum;
        ops::sub_assign(&want, &mut diff);
        assert!(
            ops::norm(&diff) < 1e-2,
            "dropout pattern {dropped:?}: error {}",
            ops::norm(&diff)
        );
    }
}

#[test]
fn client_dropout_training_stays_stable_and_uses_recovery_path() {
    let data = SyntheticSpec::tiny().generate(600, 41);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 41));
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 1.0,
        },
        &topology,
        &partition.label_matrix,
        41,
    );
    let base = GroupFelConfig {
        global_rounds: 8,
        group_rounds: 2,
        local_rounds: 1,
        sampled_groups: 3,
        batch_size: 16,
        lr: LrSchedule::Constant(0.15),
        weighting: AggregationWeighting::Standard,
        eval_every: 2,
        seed: 41,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 0.0,
    };
    // 30% churn, both with plain and with secure aggregation (the latter
    // exercises SecAgg's orphaned-mask recovery inside training).
    for secure in [false, true] {
        let mut cfg = base.clone();
        cfg.dropout_prob = 0.3;
        cfg.secure_aggregation = secure;
        let trainer = Trainer::new(
            cfg,
            gfl_nn::zoo::tiny(4, 3),
            train.clone(),
            partition.clone(),
            test.clone(),
        );
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        let last = h.records().last().unwrap();
        assert!(
            last.accuracy.is_finite() && last.accuracy > 0.3,
            "secure={secure}: dropout training degenerated ({})",
            last.accuracy
        );
    }
}

#[test]
fn full_dropout_round_leaves_group_model_unchanged() {
    // With dropout probability 1.0 nobody ever reports; the global model
    // must stay exactly at initialization (aggregating unchanged copies).
    let data = SyntheticSpec::tiny().generate(300, 43);
    let (train, test) = data.split_holdout(5);
    let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 43));
    let topology = Topology::even_split(2, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 1.0,
        },
        &topology,
        &partition.label_matrix,
        43,
    );
    let cfg = GroupFelConfig {
        global_rounds: 3,
        group_rounds: 2,
        local_rounds: 1,
        sampled_groups: 2,
        batch_size: 16,
        lr: LrSchedule::Constant(0.2),
        weighting: AggregationWeighting::Standard,
        eval_every: 1,
        seed: 43,
        task: Task::Vision,
        cost_budget: None,
        secure_aggregation: false,
        dropout_prob: 1.0,
    };
    let trainer = Trainer::new(cfg, gfl_nn::zoo::tiny(4, 3), train, partition, test);
    let h = trainer
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
        .0;
    let accs: Vec<f32> = h.records().iter().map(|r| r.accuracy).collect();
    assert!(
        accs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6),
        "model must not move when every client drops: {accs:?}"
    );
}
