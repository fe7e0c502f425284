//! The two kinds of benchmark run: end-to-end (tracing off) and traced
//! (per-layer attribution), each over one workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gfl_core::local::FedAvg;
use gfl_obs::TraceCollector;
use serde_json::{json, Value};

use crate::attribution::{attribute, Attribution};
use crate::probes;
use crate::record;
use crate::workload::{prepare, CountedFedAvg, Outcome, Prepared, Scenario, Spec};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed runs an end-to-end run makes even when they overrun `--seconds`.
const MIN_TIMED_RUNS: usize = 3;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Training runs attempted and failed (panic, error, or a failed
    /// output check).
    pub attempted: u64,
    pub failed: u64,
    /// Why attempts failed.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping in the history (per-shape kernel
    /// rows, per-round series, the attribution table).
    pub detail: Vec<(String, Value)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Runs one training attempt, counting it, and turns a panic, an
    /// error or a failed output check into a counted failure.
    fn attempt(
        &mut self,
        prepared: &Prepared,
        num_classes: usize,
        run: impl FnOnce() -> Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(o)) => o,
            Ok(Err(e)) => {
                self.fail(e);
                return None;
            }
            Err(_) => {
                self.fail("the run panicked".into());
                return None;
            }
        };
        match outcome.check(&prepared.spec, num_classes) {
            Ok(()) => Some(outcome),
            Err(e) => {
                self.fail(format!("output check: {e}"));
                None
            }
        }
    }

    /// The result line the benchmark prints last.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// End-to-end metrics with tracing off: the median of [`SETUPS`] set-ups,
/// one untimed reference run that counts training rows, then timed runs
/// from scratch until `seconds` have passed, each of which must reproduce
/// the reference bit for bit.
pub fn end_to_end(spec: &Spec, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        // Drop the previous build first so peak memory is one workload's.
        drop(prepared.take());
        let p = prepare(spec)?;
        setups.push(p.setup.total_s);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let classes = p.trainer.test_data().num_classes();
    let mut result = RunResult::default();

    let counter = CountedFedAvg::default();
    let reference = result.attempt(&p, classes, || p.run(&counter));
    let rows = counter.rows() as f64;
    let rounds = spec.rounds() as f64;

    let mut walls = Vec::new();
    let start = Instant::now();
    for timed in 0.. {
        if timed >= MIN_TIMED_RUNS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = Instant::now();
        let outcome = result.attempt(&p, classes, || p.run(&FedAvg));
        let wall = t.elapsed().as_secs_f64();
        match (&outcome, &reference) {
            (Some(o), Some(r)) if o.bitwise_eq(r) => walls.push(wall),
            (Some(_), Some(_)) => result.fail("a timed run diverged from the reference run".into()),
            _ => {}
        }
    }

    result.push("setup_s", median(setups.clone()), "s");
    result.push(
        "rounds_per_s",
        median(walls.iter().map(|w| rounds / w).collect()),
        "1/s",
    );
    result.push(
        "samples_per_s",
        median(walls.iter().map(|w| rows / w).collect()),
        "1/s",
    );
    result.push("peak_rss_mib", record::peak_rss_mib().unwrap_or(0.0), "MiB");
    result.push(
        "final_accuracy",
        reference.as_ref().map_or(0.0, Outcome::final_accuracy),
        "fraction",
    );
    result.detail = vec![
        ("setup_s".into(), json!(setups)),
        ("run_s".into(), json!(walls)),
        ("rows".into(), json!(counter.rows())),
    ];
    Ok(result)
}

/// Per-layer metrics from one traced run, plus the benchmark's probes of
/// each layer at the workload's shapes.
pub fn traced(spec: &Spec) -> Result<RunResult, String> {
    let p = prepare(spec)?;
    let setup = p.setup;
    let classes = p.trainer.test_data().num_classes();
    let rounds = spec.rounds();
    let mut result = RunResult::default();

    // Two untraced runs: the first warms the trainer's pools, the second
    // is the untraced timing the tracing overhead is measured against.
    let reference = result.attempt(&p, classes, || p.run(&FedAvg));
    let t = Instant::now();
    let untraced = result.attempt(&p, classes, || p.run(&FedAvg));
    let untraced_s = t.elapsed().as_secs_f64();

    let obs = TraceCollector::new();
    let p = p.observe(obs.clone());
    let counter = CountedFedAvg::default();
    let pool_before = gfl_parallel::stats::snapshot();
    let allocs_before = gfl_obs::alloc::current_allocs();
    let run_start = obs.now_ns();
    let outcome = result.attempt(&p, classes, || p.run(&counter));
    let run_end = obs.now_ns();
    let allocs = gfl_obs::alloc::current_allocs().saturating_sub(allocs_before);
    let pool = gfl_parallel::stats::snapshot().since(pool_before);
    let trace = obs.finish(gfl_parallel::default_parallelism());

    for (name, other) in [("second untraced", &untraced), ("traced", &outcome)] {
        if let (Some(r), Some(o)) = (&reference, other) {
            if !o.bitwise_eq(r) {
                result.fail(format!("the {name} run diverged from the first run"));
            }
        }
    }
    let outcome = outcome.ok_or_else(|| format!("traced run failed: {:?}", result.errors))?;
    let a = attribute(&trace, (run_start, run_end));

    let labels = p.trainer.fed_data().label_matrix();
    let algo = spec.grouping.algorithm();
    let replay = probes::replay_membership(
        algo.as_ref(),
        &p.topology,
        labels,
        &spec.churn_plan(),
        spec.seed(),
        spec.sampling(),
        rounds,
    )?;
    let churned = matches!(spec.scenario, Scenario::ChurnSemiAsync { .. });
    if churned && outcome.membership.as_ref() != Some(&replay.state) {
        result.fail("the membership replay diverged from the run's membership".into());
    }

    let cfg = &spec.config;
    let d = p.trainer.model().param_len();
    let kernels = probes::kernels(spec.model_dims(), cfg.batch_size, d);
    let sampled = a.mean_sampled_group_size.round().max(1.0) as usize;
    let survivors = sampled - (sampled as f64 * cfg.dropout_prob).round() as usize;
    let secagg = probes::secagg(sampled, d, survivors.max(1), spec.seed());
    let filter_ms = probes::defense_filter_ms(sampled, d, spec.seed());
    let (probabilities_us, draw_us) =
        probes::sampling_us(labels, &p.groups, cfg.sampled_groups, spec.seed());
    let (virtual_build_s, shard_us) = match p.trainer.virtual_population() {
        Some(pop) => (setup.virtual_build_s, probes::shard_us(pop, 256)),
        None => {
            let t = Instant::now();
            let pop = gfl_data::VirtualPopulation::new(spec.virtual_spec());
            (t.elapsed().as_secs_f64(), probes::shard_us(&pop, 256))
        }
    };
    let loss_and_grad_us =
        probes::loss_and_grad_us(p.trainer.model(), p.trainer.test_data(), cfg.batch_size, 1);

    let history = &outcome.history;
    let attacks = history.attack_summary();
    let max_group_size = if churned {
        replay.max_group_size.iter().copied().max().unwrap_or(0)
    } else {
        p.groups.iter().map(Vec::len).max().unwrap_or(0)
    };
    let (events, cuts, clock) = outcome.report.as_ref().map_or((0, 0, 0.0), |r| {
        (
            history.timed_events().len(),
            r.total_cut_reports(),
            r.final_clock_s(),
        )
    });
    let active = kernels.active_tier;
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let r = &mut result;
    r.push(
        "tensor.gemm_nt.gflops",
        kernels.gflops("gemm_nt", active),
        "GFLOP/s",
    );
    r.push(
        "tensor.gemm_tn.gflops",
        kernels.gflops("gemm_tn", active),
        "GFLOP/s",
    );
    r.push("tensor.axpy.gbps", kernels.gbps("axpy", active), "GB/s");
    r.push(
        "tensor.gemm_nt.scalar_gflops",
        kernels.gflops("gemm_nt", "scalar"),
        "GFLOP/s",
    );
    r.push(
        "tensor.gemm_tn.scalar_gflops",
        kernels.gflops("gemm_tn", "scalar"),
        "GFLOP/s",
    );
    r.push(
        "tensor.axpy.scalar_gbps",
        kernels.gbps("axpy", "scalar"),
        "GB/s",
    );
    r.push("tensor.gemm_nt.bytes", kernels.bytes("gemm_nt") as f64, "B");
    r.push("tensor.gemm_tn.bytes", kernels.bytes("gemm_tn") as f64, "B");
    r.push("tensor.axpy.bytes", kernels.bytes("axpy") as f64, "B");
    r.push("nn.loss_and_grad.us_per_batch", loss_and_grad_us, "us");
    r.push(
        "nn.evaluate.ms",
        1e3 * a.eval_s / a.eval_count.max(1) as f64,
        "ms",
    );
    r.push("engine.run_s", a.run_s, "s");
    r.push("engine.rows", counter.rows() as f64, "count");
    r.push(
        "engine.client_step.count",
        a.client_step_count as f64,
        "count",
    );
    r.push("engine.client_step.busy_s", a.client_step_busy_s, "s");
    r.push("engine.client_step.ms_p50", a.client_step_p50_ms, "ms");
    r.push("engine.round.self_s", a.round_self_s, "s");
    r.push("engine.group_round.self_s", a.group_round_self_s, "s");
    r.push("engine.train.self_s", a.train_self_s, "s");
    r.push("engine.aggregate.s", a.aggregate_s, "s");
    r.push("engine.eval.s", a.eval_s, "s");
    r.push("engine.between_rounds_s", a.between_rounds_s, "s");
    r.push(
        "engine.allocs_per_round",
        allocs as f64 / rounds as f64,
        "count",
    );
    r.push("engine.unexplained_frac", a.unexplained_frac(), "fraction");
    r.push("parallel.utilization", pool.utilization(), "fraction");
    r.push("parallel.steals", pool.steals as f64, "count");
    r.push("parallel.regions", pool.regions as f64, "count");
    r.push("secagg.mask.ms", secagg.mask_ms, "ms");
    r.push("secagg.unmask.ms", secagg.unmask_ms, "ms");
    let secagg_calls = if cfg.secure_aggregation {
        a.group_rounds_trained
    } else {
        0
    };
    r.push("secagg.calls", secagg_calls as f64, "count");
    r.push("secagg.max_abs_err", secagg.max_abs_err, "abs");
    r.push("secagg.exact.mask.ms", secagg.exact_mask_ms, "ms");
    r.push("secagg.exact.unmask.ms", secagg.exact_unmask_ms, "ms");
    r.push("secagg.exact.max_abs_err", secagg.exact_max_abs_err, "abs");
    r.push("defense.filter.ms", filter_ms, "ms");
    r.push(
        "defense.filtered_frac",
        ratio(attacks.filtered(), attacks.injected()),
        "fraction",
    );
    r.push("data.generate_s", setup.generate_s, "s");
    r.push("data.virtual_build_s", virtual_build_s, "s");
    r.push("data.shard.us_per_client", shard_us, "us");
    let shards = if p.trainer.virtual_population().is_some() {
        counter.calls()
    } else {
        0
    };
    r.push("data.shards_derived", shards as f64, "count");
    r.push("grouping.form_s", setup.form_s, "s");
    r.push("grouping.groups", p.groups.len() as f64, "count");
    r.push("sampling.probabilities_us", probabilities_us, "us");
    r.push("sampling.draw_us", draw_us, "us");
    r.push("membership.apply_churn_s", replay.apply_churn_s, "s");
    r.push("membership.heal_s", replay.heal_s, "s");
    r.push("membership.refresh_probs_s", replay.refresh_probs_s, "s");
    r.push(
        "membership.regroup_events",
        history.regroup_events().len() as f64,
        "count",
    );
    r.push("membership.max_group_size", max_group_size as f64, "count");
    r.push(
        "membership.mean_sampled_group_size",
        a.mean_sampled_group_size,
        "count",
    );
    r.push(
        "membership.formation_size",
        spec.grouping.formation_size() as f64,
        "count",
    );
    r.push("semi_async.events", events as f64, "count");
    r.push("semi_async.straggler_cuts", cuts as f64, "count");
    r.push("semi_async.emulated_clock_s", clock, "emu_s");
    let overhead = if a.run_s > 0.0 {
        1.0 - untraced_s / a.run_s
    } else {
        0.0
    };
    r.push("obs.trace_overhead_frac", overhead, "fraction");
    r.push("obs.trace_bytes", trace.to_jsonl().len() as f64, "B");

    let kernel_rows: Vec<Value> = kernels
        .rows
        .iter()
        .map(|k| {
            json!({
                "kernel": k.kernel, "shape": k.shape, "tier": k.tier,
                "gflops": k.gflops(), "gbps": k.gbps(), "bytes": k.bytes,
            })
        })
        .collect();
    result.detail = vec![
        ("kernels".into(), Value::Array(kernel_rows)),
        ("attribution".into(), attribution_json(&a)),
        (
            "secagg_shape".into(),
            json!({"group": secagg.group, "dim": secagg.dim, "survivors": secagg.survivors}),
        ),
        (
            "per_round".into(),
            json!({
                "formation_size": spec.grouping.formation_size(),
                "mean_sampled_group_size": a.sampled_group_size,
                "max_group_size": replay.max_group_size,
                "groups": replay.groups,
                "membership_source": if churned { "run replay" } else { "probe: moderate churn on this population" },
            }),
        ),
    ];
    Ok(result)
}

fn attribution_json(a: &Attribution) -> Value {
    let parts = a
        .parts()
        .into_iter()
        .map(|(name, s)| (name.to_string(), json!(s)))
        .collect();
    json!({"run_s": a.run_s, "unexplained_frac": a.unexplained_frac(), "parts_s": Value::Object(parts)})
}
