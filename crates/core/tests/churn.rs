//! Churn suite: online membership + self-healing regrouping under
//! deterministic abuse.
//!
//! Every test runs the real Algorithm 1 engine on a tiny synthetic
//! federation with a seeded [`ChurnPlan`] and checks the self-healing
//! contract: clean plans are bit-identical to the static engine, churned
//! runs are deterministic down to the regroup log, zero-survivor groups
//! are dissolved rather than held forever, healed runs stay close to the
//! clean baseline while frozen partitions degrade, and a faulted-churn
//! run resumed from a post-regroup checkpoint reproduces the original
//! trajectory exactly.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::membership::{RegroupEvent, RegroupPolicy};
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{ChurnPlan, FaultPlan, FaultPolicy};
use gfl_sim::Topology;

/// CI seed shift: `GFL_SEED=n` offsets every seed in the suite.
fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Tiny two-edge federation shared by every churn test.
fn world(
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    ClientPartition,
    Topology,
    gfl_data::Dataset,
    gfl_data::Dataset,
) {
    let seed = seed + seed_offset();
    let data = SyntheticSpec::tiny().generate(600, seed);
    let (train, test) = data.split_holdout(5);
    let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, seed));
    let topo = Topology::even_split(2, part.sizes());
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    (cfg, gfl_nn::zoo::tiny(4, 3), part, topo, train, test)
}

const ALGO: CovGrouping = CovGrouping {
    min_group_size: 2,
    max_cov: 1.0,
};

/// The lockstep self-healing spec every churn test runs.
fn healing(topo: &Topology) -> RunSpec<'_> {
    RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov).healing(&ALGO, topo)
}

/// A self-healing run of all `T` rounds from the round-0 formation.
fn run_healing(t: &Trainer, topo: &Topology) -> RunState {
    let spec = healing(topo);
    let membership = t.form_membership(&ALGO, topo, spec.sampling).unwrap();
    let mut state = t.start(&FedAvg, membership);
    t.advance(&spec, &mut state, &FedAvg, t.config().global_rounds)
        .unwrap();
    state
}

#[test]
fn clean_churn_plan_is_bit_identical_to_static_run() {
    // Compiling the churn machinery in must cost nothing behaviorally: a
    // clean plan through the self-healing loop reproduces the static
    // engine bit for bit.
    let (cfg, model, part, topo, train, test) = world(21);
    let static_groups = form_groups_per_edge(&ALGO, &topo, &part.label_matrix, cfg.seed);
    let plain = Trainer::new(
        cfg.clone(),
        model.clone(),
        train.clone(),
        part.clone(),
        test.clone(),
    );
    let (h_static, p_static) =
        plain.run_returning_params(&static_groups, &FedAvg, SamplingStrategy::ESRCov);

    let churned = Trainer::new(cfg, model, train, part, test)
        .with_churn(ChurnPlan::none(), RegroupPolicy::default());
    let RunState {
        history: h_churn,
        params: p_churn,
        membership,
        ..
    } = run_healing(&churned, &topo);

    assert_eq!(membership.groups, static_groups);
    assert_eq!(p_static, p_churn);
    assert_eq!(h_static, h_churn);
    assert!(h_churn.regroup_events().is_empty());
}

#[test]
fn churned_run_is_deterministic_down_to_the_regroup_log() {
    // Same seed ⇒ identical trajectory AND identical RegroupEvent log.
    let plan = ChurnPlan {
        seed: 31 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.4,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let run = || {
        let (cfg, model, part, topo, train, test) = world(22);
        let t = Trainer::new(cfg, model, train, part, test)
            .with_churn(plan.clone(), RegroupPolicy::default());
        let s = run_healing(&t, &topo);
        (s.history, s.params, s.membership)
    };
    let (h_a, p_a, m_a) = run();
    let (h_b, p_b, m_b) = run();
    assert_eq!(h_a, h_b, "trajectories diverged");
    assert_eq!(p_a, p_b, "models diverged");
    assert_eq!(m_a, m_b, "membership state diverged");
    assert_eq!(h_a.regroup_events(), h_b.regroup_events());
    assert!(
        !h_a.regroup_events().is_empty(),
        "a 40%-departure plan over 4 rounds should move somebody"
    );
}

#[test]
fn zero_survivor_groups_are_dissolved_not_held_forever() {
    // Every client departs within the horizon: every group must dissolve
    // (never lingering empty), later rounds are held safely, and the
    // final partition is empty.
    let (cfg, model, part, topo, train, test) = world(23);
    let mut cfg = cfg;
    cfg.global_rounds = 10;
    let plan = ChurnPlan {
        seed: 41 + seed_offset(),
        horizon: 6,
        departure_fraction: 1.0,
        arrival_fraction: 0.0,
        flap_prob: 0.0,
    };
    let n_clients = part.num_clients();
    let t = Trainer::new(cfg, model, train, part, test).with_churn(plan, RegroupPolicy::default());
    let RunState {
        history: h,
        params: p,
        membership,
        ..
    } = run_healing(&t, &topo);

    assert!(membership.groups.is_empty(), "{:?}", membership.groups);
    assert_eq!(membership.active_members(), 0);
    let s = h.regroup_summary();
    assert_eq!(s.departures, n_clients);
    assert!(s.dissolved > 0, "no group was ever dissolved: {s}");
    // Emptied-out rounds are held, and the model stays finite throughout.
    assert!(h.fault_summary().rounds_held > 0);
    assert!(p.iter().all(|w| w.is_finite()));
}

#[test]
fn arrivals_join_groups_on_their_own_edge() {
    let plan = ChurnPlan {
        seed: 43 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.0,
        arrival_fraction: 0.5,
        flap_prob: 0.0,
    };
    let (cfg, model, part, topo, train, test) = world(24);
    let t = Trainer::new(cfg, model, train, part, test)
        .with_churn(plan.clone(), RegroupPolicy::default());
    let RunState {
        history: h,
        membership,
        ..
    } = run_healing(&t, &topo);
    let arrivals: Vec<&RegroupEvent> = h
        .regroup_events()
        .iter()
        .filter(|e| matches!(e, RegroupEvent::ClientArrived { .. }))
        .collect();
    assert!(!arrivals.is_empty(), "half the clients should arrive late");
    // Every arrival was actually placed, and the final partition keeps
    // every group within one edge.
    for e in &arrivals {
        let RegroupEvent::ClientArrived { group, .. } = e else {
            unreachable!()
        };
        assert!(group.is_some(), "healing policy must place arrivals");
    }
    for g in &membership.groups {
        let on_first_edge = topo.clients_of(0).iter().any(|c| g.contains(c));
        let on_second_edge = topo.clients_of(1).iter().any(|c| g.contains(c));
        assert!(
            !(on_first_edge && on_second_edge),
            "group {g:?} spans both edges"
        );
    }
}

#[test]
fn frozen_policy_leaves_arrivals_unplaced() {
    let plan = ChurnPlan {
        seed: 47 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.0,
        arrival_fraction: 0.5,
        flap_prob: 0.0,
    };
    let (cfg, model, part, topo, train, test) = world(25);
    let t = Trainer::new(cfg, model, train, part, test)
        .with_churn(plan.clone(), RegroupPolicy::frozen());
    let RunState {
        history: h,
        membership,
        ..
    } = run_healing(&t, &topo);
    let placed = h
        .regroup_events()
        .iter()
        .any(|e| matches!(e, RegroupEvent::ClientArrived { group: Some(_), .. }));
    assert!(!placed, "frozen policy must never place arrivals");
    assert!(h.regroup_summary().dissolved == 0);
    assert!(h.regroup_summary().migrations == 0);
    // The partition is exactly the round-0 formation over the founding
    // cohort (clients already present at round 0) — nobody joins after.
    let founders: Vec<bool> = (0..t.partition().num_clients())
        .map(|c| plan.present(c, 0))
        .collect();
    let founding_groups = gfl_core::membership::form_groups_active(
        &ALGO,
        &topo,
        &t.partition().label_matrix,
        &founders,
        t.config().seed,
        0,
    );
    assert_eq!(membership.groups, founding_groups);
}

#[test]
fn self_healing_stays_close_to_clean_while_frozen_degrades() {
    // The acceptance scenario: 20% permanent departures (plus a wave of
    // late arrivals) over 100 rounds. The healed run must finish within 5
    // accuracy points of the clean run; the same churn with regrouping
    // frozen must do no better than the healed run.
    let (cfg, model, part, topo, train, test) = world(26);
    let mut cfg = cfg;
    cfg.global_rounds = 100;
    cfg.eval_every = 20;
    cfg.lr = gfl_nn::sgd::LrSchedule::Constant(0.2);
    let plan = ChurnPlan {
        seed: 53 + seed_offset(),
        horizon: 100,
        departure_fraction: 0.2,
        arrival_fraction: 0.25,
        flap_prob: 0.02,
    };
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
    };

    let static_groups = form_groups_per_edge(&ALGO, &topo, &part.label_matrix, cfg.seed);
    let (clean, _) = make().run_returning_params(&static_groups, &FedAvg, SamplingStrategy::ESRCov);

    let healed_trainer = make().with_churn(plan.clone(), RegroupPolicy::default());
    let RunState {
        history: healed,
        params: p_healed,
        ..
    } = run_healing(&healed_trainer, &topo);

    let frozen_trainer = make().with_churn(plan, RegroupPolicy::frozen());
    let RunState {
        history: frozen,
        params: p_frozen,
        ..
    } = run_healing(&frozen_trainer, &topo);

    assert!(p_healed.iter().all(|w| w.is_finite()));
    assert!(p_frozen.iter().all(|w| w.is_finite()));
    assert!(
        !healed.regroup_events().is_empty(),
        "the healed run should have membership transitions"
    );

    let gap_healed = clean.best_accuracy() - healed.best_accuracy();
    assert!(
        gap_healed <= 0.05,
        "healed run degraded too far: clean {} vs healed {} (gap {gap_healed})",
        clean.best_accuracy(),
        healed.best_accuracy()
    );
    assert!(
        frozen.best_accuracy() <= healed.best_accuracy() + 0.02,
        "frozen partition should not beat self-healing: frozen {} vs healed {}",
        frozen.best_accuracy(),
        healed.best_accuracy()
    );
}

#[test]
fn faulted_churn_resume_from_post_regroup_checkpoint_is_bit_identical() {
    // The hardest determinism contract: faults AND churn AND healing,
    // interrupted after a regroup, checkpointed through the JSON
    // round-trip (membership state included), resumed on a fresh trainer
    // — everything must match the uninterrupted run exactly.
    let (cfg, model, part, topo, train, test) = world(27);
    let mut cfg = cfg;
    cfg.global_rounds = 10;
    let plan = ChurnPlan {
        seed: 61 + seed_offset(),
        horizon: 5,
        departure_fraction: 0.5,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let policy = RegroupPolicy {
        cooldown: 1,
        ..RegroupPolicy::default()
    };
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(FaultPlan::moderate(5), FaultPolicy::default(), &topo)
        .with_churn(plan.clone(), policy.clone())
    };
    let spec = healing(&topo);
    let fresh = |t: &Trainer| {
        let membership = t.form_membership(&ALGO, &topo, spec.sampling).unwrap();
        t.start(&FedAvg, membership)
    };

    // Uninterrupted 10 rounds.
    let t = make();
    let mut straight = fresh(&t);
    t.advance(&spec, &mut straight, &FedAvg, 10).unwrap();

    // 5 rounds → checkpoint → JSON → a fresh trainer takes every piece of
    // state (ledger and membership included) from the file → 5 more.
    let t1 = make();
    let mut half = fresh(&t1);
    t1.advance(&spec, &mut half, &FedAvg, 5).unwrap();
    assert!(
        !half.history.regroup_events().is_empty(),
        "need a regroup before the cut for the test to mean anything"
    );
    let json = Checkpoint::new(&half, cfg.clone()).to_json();
    let mut resumed = Checkpoint::from_json(&json).unwrap().into_state().unwrap();
    assert_eq!(
        resumed.membership, half.membership,
        "membership state changed in transit"
    );
    drop((t1, half));

    let t2 = make();
    t2.advance(&spec, &mut resumed, &FedAvg, 5).unwrap();

    assert_eq!(resumed.params, straight.params, "resumed model diverged");
    assert_eq!(
        resumed.history, straight.history,
        "resumed trajectory diverged"
    );
    assert_eq!(
        resumed.membership, straight.membership,
        "resumed membership diverged"
    );
    assert_eq!(
        resumed.ledger.round_totals(),
        straight.ledger.round_totals(),
        "resumed ledger diverged"
    );
}
