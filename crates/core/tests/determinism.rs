//! Determinism suite: bit-identical results across worker-thread counts.
//!
//! The engine schedules each global round's (group × client) work units on
//! a work-stealing queue, so *which* thread runs a client — and in what
//! order — varies freely with the parallelism degree. This suite pins the
//! process-wide thread count to 1, 2, and 8 in turn and asserts that the
//! full [`RunHistory`] (records, fault log, regroup log) and the final
//! model parameters are bit-for-bit identical in every configuration the
//! engine supports: clean, fault-injected, churned/self-healing, and
//! secure-aggregation runs.
//!
//! Set `GFL_SEED` (CI runs 1 and 2) to shift every seed in the suite and
//! shake out seed-sensitive nondeterminism.

use std::sync::Mutex;

use gfl_core::membership::RegroupPolicy;
use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_sim::Topology;

/// Thread counts every path must agree across.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `set_default_parallelism` is process-global; tests in this binary run
/// concurrently, so every pin happens under this lock.
static THREAD_PIN: Mutex<()> = Mutex::new(());

/// CI seed shift: `GFL_SEED=n` offsets every seed in the suite.
fn seed_offset() -> u64 {
    std::env::var("GFL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Runs `f` once per thread count in [`THREAD_COUNTS`] and asserts every
/// result is bit-identical to the single-threaded one.
fn assert_bit_identical<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
    let _guard = THREAD_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let mut baseline: Option<R> = None;
    for &threads in &THREAD_COUNTS {
        gfl_parallel::set_default_parallelism(threads);
        let result = f();
        match &baseline {
            None => baseline = Some(result),
            Some(b) => assert_eq!(
                *b, result,
                "run diverged at {threads} threads from the 1-thread baseline"
            ),
        }
    }
    gfl_parallel::set_default_parallelism(0);
}

/// Tiny two-edge federation shared by every determinism test.
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

#[test]
fn clean_run_is_bit_identical_across_thread_counts() {
    let (cfg, model, part, _topo, groups, train, test) = world(31);
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        );
        t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
    });
}

#[test]
fn virtual_population_run_is_bit_identical_across_thread_counts() {
    // Virtual populations add two more thread-sensitive stages: the
    // chunked parallel population build (per-client summary statistics)
    // and the on-demand shard materialization inside each work unit. Both
    // must be invariant — the whole pipeline from `VirtualSpec` to final
    // parameters is rebuilt per thread count here, nothing is shared.
    let seed = 91 + seed_offset();
    assert_bit_identical(|| {
        let pop =
            gfl_data::VirtualPopulation::new(gfl_data::VirtualSpec::paper_vision(4_000, 0.1, seed));
        let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
        let topo = Topology::even_split(4, sizes);
        let groups = form_groups_per_edge(
            &StreamGrouping { group_size: 8 },
            &topo,
            pop.label_matrix(),
            seed,
        );
        let test = pop.test_set(256);
        let mut cfg = GroupFelConfig::tiny();
        cfg.seed = seed;
        let hists: Vec<Vec<u32>> = (0..pop.num_clients())
            .map(|c| pop.label_matrix().client(c).to_vec())
            .collect();
        let t = Trainer::new_virtual(cfg, gfl_nn::zoo::vision_model(), pop, test);
        let (h, p) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        (h, p, groups, hists)
    });
}

#[test]
fn faulted_run_is_bit_identical_across_thread_counts() {
    // Crashes, straggler cuts, corrupt rejections, outages, and quorum
    // skips must all land on the same (t, k, client) coordinates — and in
    // the same event-log order — no matter how units are scheduled.
    let (cfg, model, part, topo, groups, train, test) = world(32);
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_faults(FaultPlan::moderate(99), FaultPolicy::default(), &topo);
        let (h, p) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        assert!(
            !h.fault_events().is_empty(),
            "plan should inject faults for this test to mean anything"
        );
        (h, p)
    });
}

#[test]
fn churned_self_healing_run_is_bit_identical_across_thread_counts() {
    // The self-healing loop layers churn transitions and online regrouping
    // on top of training; membership, regroup log, and model must all
    // match across thread counts.
    let (cfg, model, part, topo, _groups, train, test) = world(33);
    let algo = CovGrouping {
        min_group_size: 2,
        max_cov: 1.0,
    };
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_churn(
            ChurnPlan {
                horizon: cfg.global_rounds,
                ..ChurnPlan::moderate(cfg.seed)
            },
            RegroupPolicy::default(),
        );
        let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov).healing(&algo, &topo);
        let membership = t.form_membership(&algo, &topo, spec.sampling).unwrap();
        let mut s = t.start(&FedAvg, membership);
        t.advance(&spec, &mut s, &FedAvg, cfg.global_rounds)
            .expect("self-healing run failed");
        (s.history, s.params, s.membership.groups)
    });
}

#[test]
fn traced_run_is_bit_identical_to_untraced_run() {
    // Tracing observes wall-clock time, which differs every run — but none
    // of it may leak into simulation state. A run with a collector attached
    // (and a trace sink written) must produce byte-identical history and
    // final parameters to the untraced run, at 1 and 8 threads alike.
    let (cfg, model, part, _topo, groups, train, test) = world(35);
    let make = || {
        Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
    };
    let _guard = THREAD_PIN.lock().unwrap_or_else(|e| e.into_inner());
    gfl_parallel::set_default_parallelism(1);
    let (base_h, base_p) = make().run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
    let base_h_bytes = serde_json::to_string(&base_h).expect("serialize history");

    for threads in [1usize, 8] {
        gfl_parallel::set_default_parallelism(threads);
        let obs = gfl_obs::TraceCollector::new();
        let traced = make().with_observer(std::sync::Arc::clone(&obs));
        let (h, p) = traced.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let trace = obs.finish(threads);

        assert_eq!(
            base_h_bytes,
            serde_json::to_string(&h).expect("serialize history"),
            "traced history diverged at {threads} threads"
        );
        assert_eq!(base_h, h);
        assert_eq!(
            base_p, p,
            "traced final params diverged at {threads} threads"
        );
        // The trace itself must be well-formed: write out, read back.
        let jsonl = trace.to_jsonl();
        let back = gfl_obs::TraceReader::parse(&jsonl).expect("trace parses");
        assert_eq!(back.rounds.len(), cfg.global_rounds);
        assert_eq!(back.meta.threads, threads as u64);

        // Same contract for the streaming collector: run, history, and
        // params all unperturbed, and the bytes it streamed at round
        // barriers equal its own in-memory serialization.
        let stream_buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u8>::new()));
        struct Sink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let obs = gfl_obs::TraceCollector::streaming_tee(
            Box::new(Sink(std::sync::Arc::clone(&stream_buf))),
            threads,
            gfl_obs::StreamConfig::default(),
        );
        let traced = make().with_observer(std::sync::Arc::clone(&obs));
        let (h, p) = traced.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let trace = obs.finish(threads);
        assert_eq!(
            base_h_bytes,
            serde_json::to_string(&h).expect("serialize history"),
            "streamed history diverged at {threads} threads"
        );
        assert_eq!(
            base_p, p,
            "streamed final params diverged at {threads} threads"
        );
        let streamed = String::from_utf8(stream_buf.lock().unwrap().clone()).unwrap();
        assert_eq!(
            streamed,
            trace.to_jsonl(),
            "streamed bytes diverged from the in-memory path at {threads} threads"
        );
    }
    gfl_parallel::set_default_parallelism(0);
}

#[test]
fn attacked_defended_run_is_bit_identical_across_thread_counts() {
    // Poisoned shards, amplified uploads, FLAME interceptions, the attack
    // log, and the ASR trajectory are all pure functions of (plan, t, k,
    // client) — none may move with the scheduler.
    let (cfg, model, part, _topo, _groups, train, test) = world(36);
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 4,
            max_cov: 10.0,
        },
        &Topology::even_split(2, part.sizes()),
        &part.label_matrix,
        cfg.seed,
    );
    let plan = AdversaryPlan {
        backdoor_fraction: 0.2,
        label_flip_fraction: 0.15,
        model_poison_fraction: 0.15,
        ..AdversaryPlan::moderate(cfg.seed)
    };
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_adversary(plan.clone())
        .with_robust_agg(RobustAggRule::FlameFilter);
        let (h, p) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        assert!(
            h.attack_summary().injected() > 0,
            "plan should attack for this test to mean anything"
        );
        (h, p)
    });
}

#[test]
fn attacked_secure_aggregation_run_is_bit_identical_across_thread_counts() {
    // Attacks inside the masked domain: the poison is baked into the
    // update before masking, and the whole secure path must still agree
    // across thread counts.
    let (cfg, model, part, _topo, groups, train, test) = world(37);
    let mut cfg = cfg;
    cfg.secure_aggregation = true;
    let plan = AdversaryPlan {
        backdoor_fraction: 0.25,
        ..AdversaryPlan::moderate(cfg.seed)
    };
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        )
        .with_adversary(plan.clone());
        let (h, p) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random);
        assert!(h.attack_summary().injected() > 0, "plan should attack");
        (h, p)
    });
}

#[test]
fn simd_tiers_are_bit_identical_across_thread_counts() {
    // Every SIMD dispatch tier this machine supports (scalar, SSE2, AVX2,
    // AVX-512F, NEON — whatever is present) implements the same canonical
    // 16-chain summation order, so forcing any tier must reproduce the
    // scalar run bit-for-bit, at every thread count. This is the whole-run
    // version of the kernel-level cross-tier tests in `gfl-tensor`, and
    // the in-process equivalent of running the suite under `GFL_SIMD=off`
    // vs `GFL_SIMD=auto` (which CI also does).
    let (cfg, model, part, _topo, groups, train, test) = world(38);
    let run = || {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        );
        t.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
    };
    let _guard = THREAD_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let mut baseline: Option<(RunHistory, Vec<f32>)> = None;
    for tier in gfl_tensor::simd::supported_tiers() {
        let prev = gfl_tensor::simd::set_tier(tier);
        for &threads in &THREAD_COUNTS {
            gfl_parallel::set_default_parallelism(threads);
            let result = run();
            match &baseline {
                None => baseline = Some(result),
                Some(b) => assert_eq!(
                    *b,
                    result,
                    "run diverged on tier {} at {threads} threads",
                    tier.name()
                ),
            }
        }
        gfl_tensor::simd::set_tier(prev);
    }
    gfl_parallel::set_default_parallelism(0);
}

#[test]
fn secure_aggregation_run_is_bit_identical_across_thread_counts() {
    // The pairwise-masking protocol's mask generation is keyed by (seed,
    // t, k) and member ids only — never by scheduling — so the secure path
    // must agree across thread counts too.
    let (cfg, model, part, _topo, groups, train, test) = world(34);
    let mut cfg = cfg;
    cfg.secure_aggregation = true;
    assert_bit_identical(|| {
        let t = Trainer::new(
            cfg.clone(),
            model.clone(),
            train.clone(),
            part.clone(),
            test.clone(),
        );
        t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
    });
}
