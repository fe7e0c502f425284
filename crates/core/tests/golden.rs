//! Golden-trace regression tests: canonical `RunHistory` snapshots.
//!
//! Each scenario (clean, faulted, churned/self-healing, secure, attacked)
//! runs a
//! small fixed federation at two fixed seeds and compares the serialized
//! `RunHistory` — evaluation records, fault log, and regroup log — field
//! by field against a committed JSON snapshot under `tests/golden/`. Any
//! behavioral drift in sampling, training, aggregation, fault injection,
//! or healing shows up as a precise first-divergence diff.
//!
//! ## Regenerating snapshots (blessing)
//!
//! When a change *intentionally* alters trajectories, regenerate with:
//!
//! ```text
//! GFL_BLESS=1 cargo test -p gfl-core --test golden
//! ```
//!
//! then inspect `git diff crates/core/tests/golden/` and commit the new
//! snapshots together with the change that explains them.
//!
//! Unlike the determinism suite, these tests deliberately **ignore**
//! `GFL_SEED`: snapshots are pinned to fixed seeds so the same goldens
//! hold in every CI shard. Thread count is also irrelevant — the
//! determinism suite proves trajectories are thread-count invariant.

use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_obs::diff::first_divergence;
use gfl_sim::Topology;
use serde::Value;

/// Fixed seeds every scenario is snapshotted at.
const GOLDEN_SEEDS: [u64; 2] = [1, 2];

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Tiny two-edge federation, mirroring the determinism suite's world but
/// with no seed shifting.
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

fn run_scenario(name: &str, seed: u64) -> RunHistory {
    run_scenario_observed(name, seed, None)
}

/// Like [`run_scenario`], with an optional trace collector attached to the
/// trainer — used by the streaming byte-identity test to replay the golden
/// scenarios under observation.
/// Vision-shaped virtual federation (paper §7.2 client shape: 20–200
/// rows, 10 classes, 64-dim features) at an arbitrary population size.
/// Groups are stream-formed — the only formation that stays sub-second at
/// 10⁶ clients — and only `cfg.sampled_groups` of them train per round.
fn virtual_world(
    clients: usize,
    seed: u64,
) -> (
    GroupFelConfig,
    gfl_nn::Network,
    gfl_data::VirtualPopulation,
    Vec<Group>,
    gfl_data::Dataset,
) {
    let pop =
        gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(clients, 0.1, seed));
    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let groups = form_groups_per_edge(
        &StreamGrouping { group_size: 8 },
        &topo,
        pop.label_matrix(),
        seed,
    );
    let test = pop.test_set(512);
    let mut cfg = GroupFelConfig::tiny();
    cfg.seed = seed;
    cfg.global_rounds = 3;
    (cfg, gfl_nn::zoo::vision_model(), pop, groups, test)
}

fn run_scenario_observed(
    name: &str,
    seed: u64,
    obs: Option<std::sync::Arc<gfl_obs::TraceCollector>>,
) -> RunHistory {
    let attach = |t: Trainer| match &obs {
        Some(o) => t.with_observer(std::sync::Arc::clone(o)),
        None => t,
    };
    // Virtual scenarios derive their population instead of materializing
    // one; they never touch the eager world.
    let virtual_clients = match name {
        "virtual" => Some(20_000),
        "virtual-1m" => Some(1_000_000),
        _ => None,
    };
    if let Some(clients) = virtual_clients {
        let (cfg, model, pop, groups, test) = virtual_world(clients, seed);
        let t = attach(Trainer::new_virtual(cfg, model, pop, test));
        return t
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
    }
    let (cfg, model, part, topo, groups, train, test) = world(seed);
    match name {
        "clean" => {
            let t = attach(Trainer::new(cfg, model, train, part, test));
            t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                .0
        }
        "faulted" => {
            let t = attach(Trainer::new(cfg, model, train, part, test).with_faults(
                FaultPlan::moderate(99 + seed),
                FaultPolicy::default(),
                &topo,
            ));
            t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                .0
        }
        "churned" => {
            let horizon = cfg.global_rounds;
            let churn_seed = cfg.seed;
            let t = attach(Trainer::new(cfg, model, train, part, test).with_churn(
                ChurnPlan {
                    horizon,
                    ..ChurnPlan::moderate(churn_seed)
                },
                RegroupPolicy::default(),
            ));
            let algo = CovGrouping {
                min_group_size: 2,
                max_cov: 1.0,
            };
            let spec =
                RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov).healing(&algo, &topo);
            let membership = t.form_membership(&algo, &topo, spec.sampling).unwrap();
            let mut s = t.start(&FedAvg, membership);
            t.advance(&spec, &mut s, &FedAvg, horizon)
                .expect("self-healing run failed");
            s.history
        }
        "secure" => {
            let mut cfg = cfg;
            cfg.secure_aggregation = true;
            let t = attach(Trainer::new(cfg, model, train, part, test));
            t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
                .0
        }
        "attacked" => {
            // Attacked + defended: a mixed campaign against FLAME-filtered
            // aggregation. Groups are re-formed larger so the filter's
            // ≥3-live-member floor is met and interceptions actually land
            // in the snapshot.
            let groups = form_groups_per_edge(
                &CovGrouping {
                    min_group_size: 4,
                    max_cov: 10.0,
                },
                &topo,
                &part.label_matrix,
                seed,
            );
            let plan = AdversaryPlan {
                backdoor_fraction: 0.2,
                label_flip_fraction: 0.15,
                model_poison_fraction: 0.15,
                ..AdversaryPlan::moderate(77 + seed)
            };
            let t = attach(
                Trainer::new(cfg, model, train, part, test)
                    .with_adversary(plan)
                    .with_robust_agg(RobustAggRule::FlameFilter),
            );
            let h = t
                .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                .0;
            assert!(
                h.attack_summary().injected() > 0,
                "attacked snapshot must contain injections"
            );
            h
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn check_golden(scenario: &str, seed: u64) {
    let history = run_scenario(scenario, seed);
    let rendered = serde_json::to_string_pretty(&history).expect("serialize history");
    let file = golden_dir().join(format!("{scenario}_seed{seed}.json"));

    if std::env::var("GFL_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&file, rendered + "\n").expect("write golden snapshot");
        return;
    }

    let expected_text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             GFL_BLESS=1 cargo test -p gfl-core --test golden",
            file.display()
        )
    });
    let expected: Value = serde_json::from_str(&expected_text).expect("parse golden snapshot");
    let actual: Value = serde_json::from_str(&rendered).expect("parse current history");
    if let Some(divergence) = first_divergence("history", &expected, &actual) {
        panic!(
            "golden trace {scenario} (seed {seed}) diverged.\n  first divergence: {divergence}\n\
             If this change is intentional, re-bless with \
             GFL_BLESS=1 cargo test -p gfl-core --test golden and commit the diff."
        );
    }
}

#[test]
fn golden_clean_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("clean", seed);
    }
}

#[test]
fn golden_faulted_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("faulted", seed);
    }
}

#[test]
fn golden_churned_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("churned", seed);
    }
}

#[test]
fn golden_secure_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("secure", seed);
    }
}

#[test]
fn golden_attacked_histories_match() {
    for seed in GOLDEN_SEEDS {
        check_golden("attacked", seed);
    }
}

#[test]
fn golden_virtual_histories_match() {
    // The paper_vision-shaped virtual scenario at a CI-sized population.
    // The same trajectory shape at 10⁶ clients is pinned by
    // `golden_virtual_million_matches` below (GFL_SCALE-gated).
    for seed in GOLDEN_SEEDS {
        check_golden("virtual", seed);
    }
}

#[test]
fn golden_virtual_million_matches() {
    // The acceptance-criteria run: 10⁶ paper_vision-shaped virtual clients,
    // a small sampled-group count, snapshot-pinned. ~30 s in debug builds,
    // ~1 s in release, so it only runs when the scale smoke asks for it:
    // `GFL_SCALE=1 cargo test --release -p gfl-core --test golden`.
    if std::env::var("GFL_SCALE").ok().as_deref() != Some("1") {
        return;
    }
    check_golden("virtual-1m", GOLDEN_SEEDS[0]);
}

#[test]
fn divergence_reporting_finds_the_first_differing_field() {
    let a: Value = serde_json::from_str(r#"{"x":[{"y":1.5},{"y":2.0}],"z":"s"}"#).unwrap();
    let b: Value = serde_json::from_str(r#"{"x":[{"y":1.5},{"y":2.5}],"z":"s"}"#).unwrap();
    let d = first_divergence("h", &a, &b).expect("must diverge");
    assert!(d.starts_with("h.x[1].y:"), "got {d}");
    assert_eq!(first_divergence("h", &a, &a), None);
}

/// `Write` target shared between the streaming sink and the assertion.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn streamed_golden_scenarios_are_byte_identical_to_in_memory_serialization() {
    // The streaming collector must be a pure serialization change: for
    // every golden scenario, at 1 and 8 threads, the bytes it streams at
    // round barriers must equal the in-memory path's `to_jsonl()` of the
    // very same run (tee mode retains spans for the comparison), and the
    // run's history must still match its golden snapshot — observation
    // changed nothing.
    for threads in [1usize, 8] {
        gfl_parallel::set_default_parallelism(threads);
        for scenario in ["clean", "faulted", "churned", "secure"] {
            let buf = SharedBuf::default();
            let obs = gfl_obs::TraceCollector::streaming_tee(
                Box::new(buf.clone()),
                threads,
                gfl_obs::StreamConfig::default(),
            );
            let history =
                run_scenario_observed(scenario, GOLDEN_SEEDS[0], Some(std::sync::Arc::clone(&obs)));
            let trace = obs.finish(threads);
            let streamed = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            assert_eq!(
                streamed,
                trace.to_jsonl(),
                "{scenario} @ {threads} threads: streamed bytes diverged from in-memory path"
            );
            let back = gfl_obs::TraceReader::parse(&streamed).expect("streamed trace parses");
            assert!(back.summary.is_some(), "{scenario}: summary line missing");

            let rendered = serde_json::to_string_pretty(&history).expect("serialize history");
            let expected = std::fs::read_to_string(
                golden_dir().join(format!("{scenario}_seed{}.json", GOLDEN_SEEDS[0])),
            )
            .expect("golden snapshot present");
            assert_eq!(
                rendered.trim(),
                expected.trim(),
                "{scenario} @ {threads} threads: streaming observation perturbed the run"
            );
        }
    }
    gfl_parallel::set_default_parallelism(0);
}
