//! Extension — the closed attack↔defense loop measured end to end: a
//! deterministic backdoor campaign runs *inside* federated training and
//! each group-level defense is scored by the attack success rate (ASR)
//! that survives it.
//!
//! Unlike `robust_defense` / `backdoor_e2e` (which score aggregation
//! rules on synthetic update vectors), every cell here is a full
//! Algorithm-1 run: compromised clients train on trigger-stamped shards,
//! the group aggregator applies the configured defense, and the engine's
//! ASR evaluator reports how often the trigger set is misclassified to
//! the attacker's target at the end of training.
//!
//! The sweep crosses group size (the paper's formation knob) with the
//! defense rule (none/median/trimmed-mean/krum/flame), echoing Fig. 7's
//! structure with ASR on the y-axis. Shape check: for every group size,
//! the undefended mean must leak a higher ASR than the best of Krum and
//! the FLAME filter.
//!
//! Scale: `GFL_SCALE=smoke` (CI), default reduced, `GFL_SCALE=paper`.

use gfl_core::prelude::*;
use gfl_core::sampling::AggregationWeighting;
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

/// Group sizes the campaign is evaluated at (CoV formation floor).
const GROUP_SIZES: [usize; 2] = [4, 8];

fn scale() -> ExpScale {
    match std::env::var("GFL_SCALE").as_deref() {
        Ok("paper") => ExpScale {
            clients: 120,
            edges: 3,
            dataset: 22_000,
            global_rounds: 40,
            sampled_groups: 6,
            eval_every: 4,
            budget: 1e9,
        },
        Ok("smoke") => ExpScale {
            clients: 24,
            edges: 2,
            dataset: 2_400,
            global_rounds: 6,
            sampled_groups: 2,
            eval_every: 3,
            budget: 1e9,
        },
        _ => ExpScale {
            clients: 48,
            edges: 2,
            dataset: 6_000,
            global_rounds: 16,
            sampled_groups: 4,
            eval_every: 4,
            budget: 1e9,
        },
    }
}

fn defenses() -> [(&'static str, RobustAggRule); 5] {
    [
        ("none", RobustAggRule::Mean),
        ("median", RobustAggRule::CoordinateMedian),
        ("trimmed-mean", RobustAggRule::TrimmedMean { trim: 1 }),
        ("krum", RobustAggRule::Krum { byzantine: 1 }),
        ("flame", RobustAggRule::FlameFilter),
    ]
}

fn main() {
    let seed = 7u64;
    let world = World::vision(0.3, seed, scale());
    // Model-replacement backdoor: a modest compromised fraction whose
    // members boost their poison-trained delta. The boost is what gives
    // the mean-aggregated run its high ASR — and what makes the poisoned
    // updates geometric outliers that Krum and FLAME can actually catch.
    let plan = AdversaryPlan {
        backdoor_boost: 8.0,
        ..AdversaryPlan::backdoor(seed, 0.15)
    };

    let header = [
        "group_size",
        "defense",
        "trigger_asr",
        "accuracy",
        "injected",
        "filtered",
    ];
    let mut rows = Vec::new();
    // asr[(group_size, defense)] for the shape check.
    let mut asr_by_cell: Vec<(usize, &'static str, f64)> = Vec::new();

    for gs in GROUP_SIZES {
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: gs,
                max_cov: 1000.0,
            },
            &world.topology,
            &world.partition.label_matrix,
            seed,
        );
        for (name, rule) in defenses() {
            let trainer = world
                .trainer(world.config(AggregationWeighting::Standard))
                .with_adversary(plan.clone())
                .with_robust_agg(rule);
            let history = trainer
                .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                .0;
            let asr = history
                .asr_records()
                .iter()
                .rev()
                .find_map(|r| r.trigger_asr)
                .expect("backdoor campaign must produce a trigger ASR")
                as f64;
            let accuracy = history
                .records()
                .last()
                .map_or(0.0, |r| f64::from(r.accuracy));
            let summary = history.attack_summary();
            rows.push(vec![
                gs.to_string(),
                name.to_string(),
                f(asr, 4),
                f(accuracy, 4),
                summary.injected().to_string(),
                summary.filtered().to_string(),
            ]);
            asr_by_cell.push((gs, name, asr));
        }
    }

    print_series(
        "Backdoor ASR vs group-level defense (trigger-set misclassification)",
        &header,
        &rows,
    );
    let path = write_csv("attack_defense", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Shape check: the undefended mean must leak a higher ASR than the
    // best of the two update-inspecting defenses, at every group size.
    for gs in GROUP_SIZES {
        let cell = |name: &str| {
            asr_by_cell
                .iter()
                .find(|(g, n, _)| *g == gs && *n == name)
                .map(|(_, _, a)| *a)
                .unwrap()
        };
        let undefended = cell("none");
        let best_defended = cell("krum").min(cell("flame"));
        assert!(
            undefended > best_defended,
            "group_size={gs}: ASR(none)={undefended:.4} must exceed \
             best defended ASR={best_defended:.4}"
        );
    }
    println!("shape check passed: krum/flame suppress the backdoor the plain mean leaks");
}
