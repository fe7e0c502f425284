//! Chaos suite: the fault-injection subsystem under deterministic abuse.
//!
//! Every test runs the real Algorithm 1 engine on a tiny synthetic
//! federation with a seeded [`FaultPlan`] and checks the graceful-
//! degradation contract: identical seeds + identical plan ⇒ bit-identical
//! trajectories, injected faults leave structured [`FaultEvent`]s behind,
//! the global model never absorbs a non-finite update, and a moderately
//! faulted run still learns.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{FaultPlan, FaultPolicy, OutageWindow};
use gfl_sim::Topology;
use gfl_tensor::init;

/// CI seed shift: `GFL_SEED=n` offsets every seed in the suite.
fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Tiny two-edge federation shared by every chaos test.
fn world(
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    ClientPartition,
    Topology,
    Vec<Group>,
    gfl_data::Dataset,
    gfl_data::Dataset,
) {
    let seed = seed + seed_offset();
    let data = SyntheticSpec::tiny().generate(600, seed);
    let (train, test) = data.split_holdout(5);
    let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, seed));
    let topo = Topology::even_split(2, part.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 2,
            max_cov: 1.0,
        },
        &topo,
        &part.label_matrix,
        seed,
    );
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    (
        cfg,
        gfl_nn::zoo::tiny(4, 3),
        part,
        topo,
        groups,
        train,
        test,
    )
}

fn trainer(seed: u64) -> (Trainer, Topology, Vec<Group>) {
    let (cfg, model, part, topo, groups, train, test) = world(seed);
    (Trainer::new(cfg, model, train, part, test), topo, groups)
}

#[test]
fn empty_plan_is_bit_identical_to_no_faults() {
    // Compiling the fault machinery in must cost nothing behaviorally:
    // fault decisions are pure hashes, never draws from the engine RNG.
    let (clean, _, groups) = trainer(11);
    let (armed, topo, _) = trainer(11);
    let armed = armed.with_faults(FaultPlan::none(), FaultPolicy::default(), &topo);
    let a = clean
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    let b = armed
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    assert_eq!(a, b);
    assert!(b.fault_events().is_empty());
}

#[test]
fn faulted_run_is_deterministic() {
    // Identical seeds + identical plan ⇒ bit-identical RunHistory,
    // fault log included.
    let run = || {
        let (t, topo, groups) = trainer(12);
        let t = t.with_faults(FaultPlan::moderate(99), FaultPolicy::default(), &topo);
        t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(
        !a.fault_events().is_empty(),
        "moderate plan should inject something over 4 rounds"
    );
}

#[test]
fn total_dropout_holds_the_round() {
    // dropout_prob = 1.0: every client drops every group round. The global
    // model must be held (x_{t+1} = x_t), stay finite, and each held round
    // must be recorded — even without a fault plan attached.
    let (cfg, model, part, _topo, groups, train, test) = world(13);
    let mut cfg = cfg;
    cfg.dropout_prob = 1.0;
    let seed = cfg.seed;
    let rounds = cfg.global_rounds;
    let t = Trainer::new(cfg, model, train, part, test);
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random);
    assert_eq!(params, initial, "held rounds must not move the model");
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(h.fault_summary().rounds_held, rounds);
    assert!((0..rounds).all(|r| h.faults_in_round(r).count() == 1));
}

#[test]
fn total_dropout_with_quorum_skips_every_group() {
    // Same zero-survivor storm, but with the fault policy armed: every
    // group misses quorum, is skipped, and the round is still held safely.
    let (cfg, model, part, topo, groups, train, test) = world(13);
    let mut cfg = cfg;
    cfg.dropout_prob = 1.0;
    let seed = cfg.seed;
    let rounds = cfg.global_rounds;
    let t = Trainer::new(cfg, model, train, part, test).with_faults(
        FaultPlan::none(),
        FaultPolicy::default(),
        &topo,
    );
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random);
    assert_eq!(params, initial);
    let s = h.fault_summary();
    assert_eq!(s.rounds_held, rounds);
    assert!(s.groups_skipped > 0, "quorum should reject empty groups");
}

#[test]
fn corrupt_updates_never_reach_the_global_model() {
    // Every update arrives as NaN; the non-finite gate must reject them
    // all at the client level and leave the global model untouched.
    let plan = FaultPlan {
        corrupt_prob: 1.0,
        ..FaultPlan::none()
    };
    let (t, topo, groups) = trainer(14);
    let t = t.with_faults(plan, FaultPolicy::default(), &topo);
    let seed = t.config().seed;
    let initial = t.model().init_params(&mut init::rng(seed));
    let (h, params) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random);
    assert!(params.iter().all(|w| w.is_finite()));
    assert_eq!(params, initial);
    let s = h.fault_summary();
    assert!(s.corrupt_rejected > 0);
    assert_eq!(s.rounds_held, t.config().global_rounds);
}

#[test]
fn every_fault_kind_leaves_an_event() {
    // A plan hot enough that each injector fires within a short run, so
    // the audit trail covers the whole taxonomy.
    let plan = FaultPlan {
        seed: 5,
        straggler_fraction: 0.5,
        straggler_factor: 20.0,
        straggler_jitter: 0.0,
        crash_prob: 0.3,
        corrupt_prob: 0.2,
        upload_fail_prob: 0.85,
        edge_outages: vec![OutageWindow {
            edge: 0,
            from_round: 1,
            until_round: 3,
        }],
    };
    let policy = FaultPolicy {
        quorum_fraction: 0.6,
        max_retries: 1,
        ..FaultPolicy::default()
    };
    let (cfg, model, part, topo, groups, train, test) = world(15);
    let mut cfg = cfg;
    cfg.global_rounds = 8;
    let t = Trainer::new(cfg, model, train, part, test).with_faults(plan, policy, &topo);
    let h = t
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
        .0;
    let s = h.fault_summary();
    assert!(s.crashes > 0, "no crashes recorded: {s}");
    assert!(s.stragglers_cut > 0, "no straggler cuts recorded: {s}");
    assert!(
        s.corrupt_rejected > 0,
        "no corrupt rejections recorded: {s}"
    );
    assert!(s.edge_outages > 0, "no edge outages recorded: {s}");
    assert!(s.upload_retries > 0, "no upload retries recorded: {s}");
    assert!(s.uploads_lost > 0, "no lost uploads recorded: {s}");
    assert!(s.groups_skipped > 0, "no quorum skips recorded: {s}");
}

#[test]
fn moderate_faults_degrade_gracefully() {
    // The headline contract: a moderate fault plan completes with finite
    // parameters, a populated fault log, and accuracy within 5 points of
    // the fault-free baseline.
    let (cfg, model, part, topo, groups, train, test) = world(16);
    let mut cfg = cfg;
    cfg.global_rounds = 12;
    cfg.lr = gfl_nn::sgd::LrSchedule::Constant(0.2);
    let clean = Trainer::new(
        cfg.clone(),
        model.clone(),
        train.clone(),
        part.clone(),
        test.clone(),
    );
    let baseline = clean
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    let faulted = Trainer::new(cfg, model, train, part, test).with_faults(
        FaultPlan::moderate(3),
        FaultPolicy::default(),
        &topo,
    );
    let (h, params) = faulted.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
    assert!(params.iter().all(|w| w.is_finite()));
    assert!(!h.fault_events().is_empty());
    let gap = baseline.best_accuracy() - h.best_accuracy();
    assert!(
        gap <= 0.05,
        "faulted run degraded too far: clean {} vs faulted {} (gap {gap})",
        baseline.best_accuracy(),
        h.best_accuracy()
    );
}

#[test]
fn faulted_checkpoint_resume_is_bit_identical() {
    // Satellite: interrupt a *faulted* run midway, checkpoint through the
    // JSON round-trip, resume — the trajectory (records AND fault log)
    // must match the uninterrupted run exactly.
    let (cfg, model, part, topo, groups, train, test) = world(17);
    let mut cfg = cfg;
    cfg.global_rounds = 6;
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(FaultPlan::moderate(21), FaultPolicy::default(), &topo)
    };
    let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov);
    let fresh = |t: &Trainer| t.start(&FedAvg, t.frozen_membership(&groups, spec.sampling));

    // Uninterrupted 6 rounds.
    let t = make();
    let mut straight = fresh(&t);
    t.advance(&spec, &mut straight, &FedAvg, 6).unwrap();

    // 3 rounds → checkpoint → JSON round-trip → a fresh trainer takes
    // every piece of state from the file → 3 more.
    let mut half = fresh(&t);
    t.advance(&spec, &mut half, &FedAvg, 3).unwrap();
    assert!(
        !half.history.fault_events().is_empty(),
        "need faults before the cut for the test to mean anything"
    );
    let json = Checkpoint::new(&half, cfg.clone()).to_json();
    let mut resumed = Checkpoint::from_json(&json).unwrap().into_state().unwrap();
    assert_eq!(resumed.history.fault_events(), half.history.fault_events());
    drop((t, half));

    let t2 = make();
    t2.advance(&spec, &mut resumed, &FedAvg, 3).unwrap();
    assert_eq!(resumed.params, straight.params, "resumed model diverged");
    assert_eq!(
        resumed.history, straight.history,
        "resumed trajectory or fault log diverged"
    );
    assert_eq!(
        resumed.ledger.round_totals(),
        straight.ledger.round_totals(),
        "resumed ledger diverged"
    );
}
