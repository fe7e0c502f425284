//! Adversarial suite: deterministic poisoning campaigns end to end.
//!
//! Covers the attack↔defense loop the engine now closes: campaign
//! injection at the client update boundary, attack-success-rate (ASR)
//! evaluation on the accuracy cadence, defense interceptions (FLAME
//! filter, non-finite gate), and composition with churn, faults, robust
//! aggregation, and secure aggregation.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite.

use gfl_core::checkpoint::Checkpoint;
use gfl_core::membership::RegroupPolicy;
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

struct World {
    cfg: GroupFelConfig,
    model: gfl_nn::Network,
    part: ClientPartition,
    topo: Topology,
    groups: Vec<Group>,
    train: gfl_data::Dataset,
    test: gfl_data::Dataset,
}

/// Tiny two-edge federation shared by every adversarial test.
fn world(seed: u64) -> World {
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
    cfg.global_rounds = 6;
    cfg.seed = seed;
    World {
        cfg,
        model: gfl_nn::zoo::tiny(4, 3),
        part,
        topo,
        groups,
        train,
        test,
    }
}

impl World {
    /// Re-forms the partition into larger groups (≥ 4 members), so the
    /// FLAME filter — which needs at least 3 live updates to cluster —
    /// actually engages.
    fn big_groups(&self) -> Vec<Group> {
        form_groups_per_edge(
            &CovGrouping {
                min_group_size: 4,
                max_cov: 10.0,
            },
            &self.topo,
            &self.part.label_matrix,
            self.cfg.seed,
        )
    }

    fn trainer(&self) -> Trainer {
        Trainer::new(
            self.cfg.clone(),
            self.model.clone(),
            self.train.clone(),
            self.part.clone(),
            self.test.clone(),
        )
    }
}

/// A plan aggressive enough that a tiny federation reliably contains
/// adversaries of every kind.
fn heavy_plan(seed: u64) -> AdversaryPlan {
    AdversaryPlan {
        backdoor_fraction: 0.25,
        label_flip_fraction: 0.2,
        model_poison_fraction: 0.2,
        ..AdversaryPlan::moderate(seed)
    }
}

#[test]
fn clean_plan_is_bit_identical_to_no_adversary() {
    // Chaos-style guarantee: compiling the adversary machinery in with a
    // zero-fraction plan must not move a single bit — no engine RNG stream
    // is consumed and no history field materializes.
    let w = world(41);
    let (h_clean, p_clean) =
        w.trainer()
            .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let (h_adv, p_adv) = w
        .trainer()
        .with_adversary(AdversaryPlan::none())
        .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_eq!(h_clean, h_adv);
    assert_eq!(p_clean, p_adv);
    assert_eq!(
        serde_json::to_string(&h_clean).unwrap(),
        serde_json::to_string(&h_adv).unwrap(),
        "clean histories must serialize byte-identically"
    );
    assert!(h_adv.attack_events().is_empty());
    assert!(h_adv.asr_records().is_empty());
}

#[test]
fn attacked_run_is_deterministic_and_replayable() {
    let w = world(42);
    let run = || {
        w.trainer()
            .with_adversary(heavy_plan(w.cfg.seed))
            .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
    };
    let (h1, p1) = run();
    let (h2, p2) = run();
    assert!(h1.attack_summary().injected() > 0, "plan must attack");
    assert_eq!(h1, h2);
    assert_eq!(p1, p2);
}

#[test]
fn every_campaign_kind_is_logged_and_measured() {
    // The tiny federation has ~12 clients, so a single plan seed may hash
    // a campaign to zero members. Deterministically scan a few plan seeds
    // until one run exhibits all three campaigns — every assertion below
    // then checks that run.
    let w = world(43);
    let h = (0..16)
        .map(|d| {
            w.trainer()
                .with_adversary(heavy_plan(w.cfg.seed + 101 * d))
                .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov)
                .0
        })
        .find(|h| {
            let s = h.attack_summary();
            s.backdoor > 0 && s.label_flip > 0 && s.model_poison > 0
        })
        .expect("no plan seed produced all three campaigns in 16 tries");
    let s = h.attack_summary();
    assert!(s.backdoor > 0, "no backdoor injections: {s}");
    assert!(s.label_flip > 0, "no label flips: {s}");
    assert!(s.model_poison > 0, "no model poison: {s}");
    // ASR is measured on the same cadence as accuracy, with both
    // campaign-specific rates present.
    assert_eq!(h.asr_records().len(), h.records().len());
    for (asr, rec) in h.asr_records().iter().zip(h.records()) {
        assert_eq!(asr.round, rec.round);
        let t = asr
            .trigger_asr
            .expect("backdoor campaign measures trigger ASR");
        let f = asr.flip_asr.expect("label-flip campaign measures flip ASR");
        assert!((0.0..=1.0).contains(&t));
        assert!((0.0..=1.0).contains(&f));
    }
}

#[test]
fn attacked_run_perturbs_the_model() {
    // The campaigns must actually reach the global model: an attacked run
    // cannot coincide with the clean trajectory.
    let w = world(44);
    let (_, p_clean) =
        w.trainer()
            .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let (_, p_adv) = w
        .trainer()
        .with_adversary(heavy_plan(w.cfg.seed))
        .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    assert_ne!(p_clean, p_adv, "attacks never reached the global model");
}

#[test]
fn flame_filter_intercepts_model_poison() {
    // 5×, sign-flipped uploads point away from every honest update; the
    // cosine-clustering filter must cut at least some of them, and each
    // interception must land in the attack log.
    let w = world(45);
    let plan = AdversaryPlan {
        model_poison_fraction: 0.25,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let groups = w.big_groups();
    let h = w
        .trainer()
        .with_adversary(plan)
        .with_robust_agg(RobustAggRule::FlameFilter)
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    let s = h.attack_summary();
    assert!(s.model_poison > 0, "no poison to filter: {s}");
    assert!(s.filtered_flame > 0, "filter never fired: {s}");
}

#[test]
fn non_finite_gate_reclassifies_overflowed_poison() {
    // An amplification factor beyond f32 range overflows the poisoned
    // update; the reject-non-finite gate catches it and the injection is
    // recorded as an interception instead.
    let w = world(46);
    let plan = AdversaryPlan {
        backdoor_fraction: 0.0,
        label_flip_fraction: 0.0,
        model_poison_fraction: 0.3,
        scale_factor: 1e39, // casts to f32 infinity
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let (h, p) = w
        .trainer()
        .with_faults(FaultPlan::none(), FaultPolicy::default(), &w.topo)
        .with_adversary(plan)
        .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::ESRCov);
    let s = h.attack_summary();
    assert!(s.filtered_non_finite > 0, "gate never fired: {s}");
    assert_eq!(s.model_poison, 0, "overflowed poison still logged: {s}");
    assert!(p.iter().all(|v| v.is_finite()), "poison reached the model");
}

#[test]
fn secure_run_rejects_poison_boosted_past_the_ring_bound() {
    // A 10⁹ boost keeps the poisoned update finite but puts it far outside
    // what the 32-bit SecAgg ring can sum for the group. With no fault
    // policy configured, the secure path itself must reject those uploads
    // at the client boundary — logged like the non-finite gate's — rather
    // than panic in the masking or wrap the group sum.
    let mut w = world(49);
    w.cfg.secure_aggregation = true;
    let plan = AdversaryPlan {
        backdoor_fraction: 0.0,
        label_flip_fraction: 0.0,
        model_poison_fraction: 0.3,
        scale_factor: 1e9,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let (h, p) = w.trainer().with_adversary(plan).run_returning_params(
        &w.groups,
        &FedAvg,
        SamplingStrategy::ESRCov,
    );
    let s = h.attack_summary();
    assert!(s.filtered_non_finite > 0, "range gate never fired: {s}");
    assert_eq!(s.model_poison, 0, "out-of-range poison still logged: {s}");
    assert_eq!(
        h.fault_summary().corrupt_rejected,
        s.filtered_non_finite,
        "every rejected upload is logged as CorruptRejected"
    );
    assert!(p.iter().all(|v| v.is_finite()), "poison reached the model");
    assert_eq!(h.records().len(), w.cfg.global_rounds / w.cfg.eval_every);
}

#[test]
fn attacks_survive_secure_aggregation() {
    // Poison is applied before masking, so SecAgg must neither strip the
    // attack nor break the run: the attacked secure trajectory diverges
    // from the clean secure one and still logs its campaign.
    let mut w = world(47);
    w.cfg.secure_aggregation = true;
    let (h_clean, p_clean) =
        w.trainer()
            .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::Random);
    let (h_adv, p_adv) = w
        .trainer()
        .with_adversary(heavy_plan(w.cfg.seed))
        .run_returning_params(&w.groups, &FedAvg, SamplingStrategy::Random);
    assert!(h_adv.attack_summary().injected() > 0);
    assert!(!h_adv.asr_records().is_empty());
    assert_ne!(p_clean, p_adv, "SecAgg stripped the attack");
    assert!(h_clean.attack_events().is_empty());
}

#[test]
fn adversary_composes_with_faults_and_churn() {
    // The full gauntlet: churned self-healing + fault injection + a live
    // adversary, twice — completing without panicking and replaying
    // bit-identically.
    let w = world(48);
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    let run = || {
        let t = w
            .trainer()
            .with_faults(
                FaultPlan::moderate(w.cfg.seed ^ 0x51),
                FaultPolicy::default(),
                &w.topo,
            )
            .with_churn(
                ChurnPlan {
                    horizon: w.cfg.global_rounds,
                    ..ChurnPlan::moderate(w.cfg.seed ^ 0x52)
                },
                RegroupPolicy::default(),
            )
            .with_adversary(heavy_plan(w.cfg.seed ^ 0x53));
        let spec =
            RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov).healing(&algo, &w.topo);
        let membership = t.form_membership(&algo, &w.topo, spec.sampling).unwrap();
        let mut s = t.start(&FedAvg, membership);
        t.advance(&spec, &mut s, &FedAvg, w.cfg.global_rounds)
            .expect("self-healing attacked run failed");
        (s.history, s.params, s.membership.groups)
    };
    let (h1, p1, g1) = run();
    let (h2, p2, g2) = run();
    assert!(h1.attack_summary().injected() > 0, "nothing attacked");
    assert_eq!(h1, h2);
    assert_eq!(p1, p2);
    assert_eq!(g1, g2);
}

#[test]
fn attacked_checkpoint_resume_is_bit_identical() {
    // The attack log and ASR trajectory ride through checkpoint JSON: a
    // split session must reproduce the straight run's history bit for bit.
    let w = world(49);
    let make = || w.trainer().with_adversary(heavy_plan(w.cfg.seed));
    let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov);
    let fresh = |t: &Trainer| t.start(&FedAvg, t.frozen_membership(&w.groups, spec.sampling));

    let trainer = make();
    let mut straight = fresh(&trainer);
    trainer.advance(&spec, &mut straight, &FedAvg, 6).unwrap();

    let mut half = fresh(&trainer);
    trainer.advance(&spec, &mut half, &FedAvg, 3).unwrap();
    let json = Checkpoint::new(&half, w.cfg.clone()).to_json();
    drop((trainer, half));
    let restored = Checkpoint::from_json(&json).expect("checkpoint roundtrip");
    assert!(
        !restored.history.attack_events().is_empty(),
        "attack log lost in checkpoint"
    );
    // A fresh trainer resumes from the file alone.
    let mut resumed = restored.into_state().expect("complete checkpoint");
    make().advance(&spec, &mut resumed, &FedAvg, 3).unwrap();
    let (p_straight, h_straight) = (straight.params, straight.history);
    let (p_resumed, h_resumed) = (resumed.params, resumed.history);
    assert_eq!(p_straight, p_resumed);
    assert_eq!(h_straight, h_resumed);
    assert_eq!(
        h_straight.asr_records(),
        h_resumed.asr_records(),
        "ASR trajectory diverged across resume"
    );
}

#[test]
fn attack_defense_telemetry_reaches_the_collector() {
    // gfl-obs surfaces the loop: injected vs filtered counters and ASR
    // gauges exist on attacked runs, and defense counters record the
    // filter's measured work.
    let w = world(50);
    let obs = gfl_obs::TraceCollector::new();
    let plan = AdversaryPlan {
        model_poison_fraction: 0.25,
        ..AdversaryPlan::moderate(w.cfg.seed)
    };
    let groups = w.big_groups();
    let h = w
        .trainer()
        .with_adversary(plan)
        .with_robust_agg(RobustAggRule::FlameFilter)
        .with_observer(std::sync::Arc::clone(&obs))
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    let trace = obs.finish(1);
    let metrics = &trace.summary.as_ref().expect("trace summary").metrics;
    let get = |name: &str| metrics.counter(name).unwrap_or(0);
    assert_eq!(
        get("attacks.injected"),
        h.attack_summary().injected() as u64
    );
    assert_eq!(
        get("attacks.filtered.flame"),
        h.attack_summary().filtered_flame as u64
    );
    assert!(
        get("defense.similarity_evals") > 0,
        "filter work not counted"
    );
    assert!(get("defense.norm_passes") > 0, "clip work not counted");
}

#[test]
fn defense_work_shows_up_in_the_cost_ledger() {
    // Satellite: DefenseCost flows into the emulated round time, so a
    // FLAME-defended run is strictly costlier than the same run without
    // the filter.
    let w = world(51);
    let plan = heavy_plan(w.cfg.seed);
    let groups = w.big_groups();
    let run_cost = |rule: RobustAggRule| {
        let t = w
            .trainer()
            .with_adversary(plan.clone())
            .with_robust_agg(rule);
        let h = t
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        h.last_record().expect("trajectory").cost
    };
    let plain = run_cost(RobustAggRule::Mean);
    let defended = run_cost(RobustAggRule::FlameFilter);
    assert!(
        defended > plain,
        "defense cost missing from ledger: defended {defended} <= plain {plain}"
    );
}
