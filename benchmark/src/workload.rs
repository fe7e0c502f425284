//! The benchmark's workloads: their inputs, and the public library calls
//! that build and run them — the same calls `gfl simulate` makes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gfl_core::engine::{form_groups_per_edge, GroupFelConfig, RobustAggRule, Trainer};
use gfl_core::grouping::{CovGrouping, GroupingAlgorithm, RandomGrouping, StreamGrouping};
use gfl_core::history::RunHistory;
use gfl_core::local::{FedAvg, LocalScratch, LocalTask, LocalUpdate};
use gfl_core::membership::{MembershipState, RegroupPolicy};
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::semi_async::{AsyncConfig, AsyncReport, StalenessPolicy};
use gfl_core::Group;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec, VirtualPopulation, VirtualSpec};
use gfl_faults::{AdversaryPlan, ChurnPlan, FaultPlan, FaultPolicy};
use gfl_nn::sgd::LrSchedule;
use gfl_nn::{Network, Params};
use gfl_sim::{GroupOpKind, Task, Topology};
use gfl_tensor::init::GflRng;
use gfl_tensor::Scalar;

/// Seed of every workload's federation (the `gfl simulate` default seed).
pub const POPULATION_SEED: u64 = 42;

/// The named workloads every later change is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §7.2 shape, lockstep, frozen CoV groups, no SecAgg: client steps
    /// (`tensor` + `nn`) do nearly all the work.
    PaperVision,
    /// Light model, large random groups, SecAgg with dropout recovery:
    /// Eq. 5's quadratic group cost dominates the round.
    SecaggSpeech,
    /// 2·10⁵ virtual clients under churn, faults and an adversary, on the
    /// semi-async runtime: the only workload that runs virtual shards,
    /// membership healing, the event scheduler and the FLAME filter.
    ChurnAsyncVirtual,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperVision,
        Workload::SecaggSpeech,
        Workload::ChurnAsyncVirtual,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperVision => "paper_vision",
            Workload::SecaggSpeech => "secagg_speech",
            Workload::ChurnAsyncVirtual => "churn_async_virtual",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's inputs for `seed`.
    ///
    /// The seed varies the run only where that leaves the amount of work
    /// alone, so throughput compares across seeds. The federation — data,
    /// partition, lockstep groups, virtual population, churn plan — comes
    /// from [`POPULATION_SEED`]. In the lockstep workloads `seed` is the
    /// engine seed (model initialization, group sampling, SGD shuffles).
    /// In `churn_async_virtual` the engine seed stays fixed, because it
    /// decides which of the drifted, heavy-tailed groups are sampled and
    /// moved the work by ±20% between seeds; `seed` there drives the fault
    /// and adversary plans (who straggles, crashes, corrupts, or attacks).
    pub fn spec(self, seed: u64) -> Spec {
        let config = |rounds, k, e, sampled, lr, weighting, secure, dropout| GroupFelConfig {
            global_rounds: rounds,
            group_rounds: k,
            local_rounds: e,
            sampled_groups: sampled,
            batch_size: 32,
            lr: LrSchedule::Constant(lr),
            weighting,
            eval_every: 5,
            seed,
            task: Task::Vision,
            cost_budget: None,
            secure_aggregation: secure,
            dropout_prob: dropout,
        };
        match self {
            Workload::PaperVision => Spec {
                workload: self,
                population_seed: POPULATION_SEED,
                plan_seed: seed,
                samples: 30_000,
                clients: 300,
                edges: 3,
                alpha: 0.1,
                client_rows: (20, 200),
                grouping: Grouping::Cov { min_group_size: 5 },
                config: config(
                    10,
                    5,
                    2,
                    12,
                    0.05,
                    AggregationWeighting::Stabilized,
                    false,
                    0.0,
                ),
                scenario: Scenario::Lockstep,
            },
            Workload::SecaggSpeech => Spec {
                workload: self,
                population_seed: POPULATION_SEED,
                plan_seed: seed,
                samples: 30_000,
                clients: 300,
                edges: 3,
                alpha: 0.01,
                client_rows: (80, 80),
                grouping: Grouping::Random { group_size: 25 },
                config: GroupFelConfig {
                    task: Task::Speech,
                    ..config(10, 5, 1, 4, 0.2, AggregationWeighting::Standard, true, 0.1)
                },
                scenario: Scenario::Lockstep,
            },
            Workload::ChurnAsyncVirtual => Spec {
                workload: self,
                population_seed: POPULATION_SEED,
                plan_seed: seed,
                samples: 30_000,
                clients: 200_000,
                edges: 8,
                alpha: 0.1,
                client_rows: (20, 200),
                grouping: Grouping::Stream { group_size: 8 },
                config: GroupFelConfig {
                    seed: POPULATION_SEED,
                    ..config(
                        10,
                        2,
                        1,
                        12,
                        0.05,
                        AggregationWeighting::Standard,
                        false,
                        0.0,
                    )
                },
                scenario: Scenario::ChurnSemiAsync {
                    cloud_deadline_factor: 2.5,
                },
            },
        }
    }
}

/// How a workload forms its groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Grouping {
    Cov { min_group_size: usize },
    Random { group_size: usize },
    Stream { group_size: usize },
}

impl Grouping {
    pub fn algorithm(self) -> Box<dyn GroupingAlgorithm> {
        match self {
            Grouping::Cov { min_group_size } => Box::new(CovGrouping {
                min_group_size,
                max_cov: 0.5,
            }),
            Grouping::Random { group_size } => Box::new(RandomGrouping { group_size }),
            Grouping::Stream { group_size } => Box::new(StreamGrouping { group_size }),
        }
    }

    /// The group size formation aims for (the minimum, for CoV grouping).
    pub fn formation_size(self) -> usize {
        match self {
            Grouping::Cov { min_group_size } => min_group_size,
            Grouping::Random { group_size } | Grouping::Stream { group_size } => group_size,
        }
    }
}

/// Which runtime drives the rounds, and what perturbs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Materialized data, lockstep rounds over frozen groups.
    Lockstep,
    /// Virtual population, semi-async runtime, moderate faults, churn
    /// with healing, and a moderate adversary behind the FLAME filter.
    ChurnSemiAsync { cloud_deadline_factor: f64 },
}

/// A workload's full input description.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Seed of the federation: synthetic data, partition and lockstep
    /// group formation, or the virtual population; and the churn plan.
    pub population_seed: u64,
    /// Seed of the fault and adversary plans.
    pub plan_seed: u64,
    /// Pooled dataset rows (materialized); the holdout is a sixth of it,
    /// and a virtual population's test set has the same size.
    pub samples: usize,
    pub clients: usize,
    pub edges: usize,
    pub alpha: f64,
    /// Bounds on a client's row count.
    pub client_rows: (usize, usize),
    pub grouping: Grouping,
    pub config: GroupFelConfig,
    pub scenario: Scenario,
}

impl Spec {
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    pub fn rounds(&self) -> usize {
        self.config.global_rounds
    }

    pub fn sampling(&self) -> SamplingStrategy {
        SamplingStrategy::ESRCov
    }

    pub fn data_spec(&self) -> SyntheticSpec {
        match self.config.task {
            Task::Vision => SyntheticSpec::vision_like(),
            Task::Speech => SyntheticSpec::speech_like(),
        }
    }

    pub fn model(&self) -> Network {
        match self.config.task {
            Task::Vision => gfl_nn::zoo::vision_model(),
            Task::Speech => gfl_nn::zoo::speech_model(),
        }
    }

    /// Layer widths of [`Spec::model`], the shapes its kernels run at.
    pub fn model_dims(&self) -> &'static [usize] {
        match self.config.task {
            Task::Vision => &[64, 128, 64, 10],
            Task::Speech => &[40, 48, 35],
        }
    }

    pub fn virtual_spec(&self) -> VirtualSpec {
        VirtualSpec {
            data: self.data_spec(),
            num_clients: self.clients,
            alpha: self.alpha,
            min_size: self.client_rows.0,
            max_size: self.client_rows.1,
            seed: self.population_seed,
        }
    }

    /// The churn plan the run applies, with the horizon `gfl simulate`
    /// gives it (the run's round count).
    pub fn churn_plan(&self) -> ChurnPlan {
        ChurnPlan {
            horizon: self.rounds(),
            ..ChurnPlan::moderate(self.population_seed)
        }
    }
}

/// Wall-clock seconds of each set-up step, as the benchmark timed them
/// around its calls into the data, topology, grouping and engine layers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic data generation (materialized pool, or the virtual
    /// population's test set).
    pub generate_s: f64,
    /// `VirtualPopulation::new` (0 for materialized workloads).
    pub virtual_build_s: f64,
    /// `form_groups_per_edge` / `MembershipState::form`.
    pub form_s: f64,
    /// Everything from the first call to the first round being ready.
    pub total_s: f64,
}

/// A workload built and ready to train.
pub struct Prepared {
    pub spec: Spec,
    pub trainer: Trainer,
    pub topology: Topology,
    /// The formation-time partition.
    pub groups: Vec<Group>,
    pub setup: SetupTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the workload exactly as `gfl simulate` does, timing each step.
pub fn prepare(spec: &Spec) -> Result<Prepared, String> {
    let start = Instant::now();
    let mut setup = SetupTimes::default();
    let seed = spec.seed();
    let population_seed = spec.population_seed;
    let algo = spec.grouping.algorithm();
    let model = spec.model();
    let (trainer, topology, groups) = match spec.scenario {
        Scenario::Lockstep => {
            let t = Instant::now();
            let dataset = spec.data_spec().generate(spec.samples, population_seed);
            let (train, test) = dataset.split_holdout(6);
            setup.generate_s = secs(t);
            let partition = ClientPartition::dirichlet(
                &train,
                &PartitionSpec {
                    num_clients: spec.clients,
                    alpha: spec.alpha,
                    min_size: spec.client_rows.0,
                    max_size: spec.client_rows.1,
                    seed: population_seed,
                },
            );
            let topology = Topology::even_split(spec.edges, partition.sizes());
            let t = Instant::now();
            let groups = form_groups_per_edge(
                algo.as_ref(),
                &topology,
                &partition.label_matrix,
                population_seed,
            );
            setup.form_s = secs(t);
            let trainer = Trainer::try_new(spec.config.clone(), model, train, partition, test)
                .map_err(|e| format!("invalid workload configuration: {e}"))?;
            (trainer, topology, groups)
        }
        Scenario::ChurnSemiAsync { .. } => {
            let t = Instant::now();
            let pop = VirtualPopulation::new(spec.virtual_spec());
            setup.virtual_build_s = secs(t);
            let t = Instant::now();
            let test = pop.test_set((spec.samples / 6).max(1));
            setup.generate_s = secs(t);
            let sizes = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
            let topology = Topology::even_split(spec.edges, sizes);
            // The semi-async healing runner forms its own partition on
            // entry, with the engine seed; forming it here the same way puts
            // formation in set-up time and gives the benchmark the round-0
            // groups.
            let t = Instant::now();
            let membership = MembershipState::form(
                algo.as_ref(),
                &topology,
                pop.label_matrix(),
                Some(&spec.churn_plan()),
                RegroupPolicy::default(),
                seed,
                spec.sampling(),
                0,
            )
            .map_err(|e| format!("group formation failed: {e}"))?;
            setup.form_s = secs(t);
            let trainer = Trainer::try_new_virtual(spec.config.clone(), model, pop, test)
                .map_err(|e| format!("invalid workload configuration: {e}"))?
                .with_faults(
                    FaultPlan::moderate(spec.plan_seed),
                    FaultPolicy::default(),
                    &topology,
                )
                .with_churn(spec.churn_plan(), RegroupPolicy::default())
                .with_adversary(AdversaryPlan::moderate(spec.plan_seed))
                .with_robust_agg(RobustAggRule::FlameFilter);
            (trainer, topology, membership.groups)
        }
    };
    setup.total_s = secs(start);
    Ok(Prepared {
        spec: spec.clone(),
        trainer,
        topology,
        groups,
        setup,
    })
}

/// Everything one run returns.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub history: RunHistory,
    pub params: Params,
    pub report: Option<AsyncReport>,
    pub membership: Option<MembershipState>,
}

impl Outcome {
    /// Bitwise equality of every output: history, final model, emulated
    /// clock report and final membership.
    pub fn bitwise_eq(&self, other: &Outcome) -> bool {
        let json = |o: &Outcome| {
            (
                serde_json::to_string(&o.history).ok(),
                serde_json::to_string(&o.report).ok(),
                serde_json::to_string(&o.membership).ok(),
            )
        };
        self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && json(self) == json(other)
    }

    /// Test accuracy at the last evaluation.
    pub fn final_accuracy(&self) -> f64 {
        f64::from(self.history.final_accuracy())
    }

    /// Checks the run's outputs for internal consistency: every round
    /// ran, the last round was evaluated, accuracy and loss are finite
    /// and in range, the model is finite, a clean run beats chance, and
    /// the emulated clock (semi-async) advances every round.
    pub fn check(&self, spec: &Spec, num_classes: usize) -> Result<(), String> {
        let rounds = spec.rounds();
        let last = self
            .history
            .last_record()
            .ok_or("the run recorded no evaluation")?;
        if last.round + 1 != rounds {
            return Err(format!(
                "last evaluation at round {} of {rounds}",
                last.round
            ));
        }
        for r in self.history.records() {
            if !(0.0..=1.0).contains(&r.accuracy) || !r.loss.is_finite() {
                return Err(format!(
                    "round {}: accuracy {} loss {}",
                    r.round, r.accuracy, r.loss
                ));
            }
        }
        if !self.params.iter().all(|p| p.is_finite()) {
            return Err("the final model has non-finite parameters".into());
        }
        // Under attack the model may sit near chance; a clean run must
        // beat it.
        let chance = 1.0 / num_classes as f64;
        let attacked = matches!(spec.scenario, Scenario::ChurnSemiAsync { .. });
        if !attacked && self.final_accuracy() <= chance {
            return Err(format!(
                "final accuracy {} is no better than chance {chance}",
                self.final_accuracy()
            ));
        }
        if let Some(rep) = &self.report {
            if rep.rounds.len() != rounds
                || rep.rounds.windows(2).any(|w| w[1].clock_s <= w[0].clock_s)
            {
                return Err("the emulated clock did not advance every round".into());
            }
        }
        Ok(())
    }
}

impl Prepared {
    /// Runs every round through the entry point `gfl simulate` uses for
    /// this scenario; `gfl simulate --method fedavg` passes [`FedAvg`].
    pub fn run<S: LocalUpdate>(&self, strategy: &S) -> Result<Outcome, String> {
        let sampling = self.spec.sampling();
        match self.spec.scenario {
            Scenario::Lockstep => {
                let (history, params) =
                    self.trainer
                        .run_returning_params(&self.groups, strategy, sampling);
                Ok(Outcome {
                    history,
                    params,
                    report: None,
                    membership: None,
                })
            }
            Scenario::ChurnSemiAsync {
                cloud_deadline_factor,
            } => {
                let acfg = AsyncConfig {
                    staleness: StalenessPolicy::DropStale,
                    cloud_deadline_factor,
                };
                let algo = self.spec.grouping.algorithm();
                let (history, params, report, membership) = self
                    .trainer
                    .run_semi_async_self_healing(
                        algo.as_ref(),
                        &self.topology,
                        strategy,
                        sampling,
                        &acfg,
                    )
                    .map_err(|e| format!("regrouping failed: {e}"))?;
                Ok(Outcome {
                    history,
                    params,
                    report: Some(report),
                    membership: Some(membership),
                })
            }
        }
    }

    /// Attaches a trace collector to every later run.
    pub fn observe(mut self, obs: Arc<gfl_obs::TraceCollector>) -> Self {
        self.trainer = self.trainer.with_observer(obs);
        self
    }
}

/// FedAvg that counts the training rows it pushes through forward and
/// backward passes (`epochs × client rows` per call) and the calls made.
/// It delegates every hook, so runs are bitwise those of [`FedAvg`].
#[derive(Debug, Default)]
pub struct CountedFedAvg {
    rows: AtomicU64,
    calls: AtomicU64,
}

impl CountedFedAvg {
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Local-training calls: one per client that trained in a group round.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl LocalUpdate for CountedFedAvg {
    fn name(&self) -> &'static str {
        FedAvg.name()
    }

    fn train(
        &self,
        task: &LocalTask<'_>,
        params: &mut Params,
        scratch: &mut LocalScratch,
        rng: &mut GflRng,
    ) -> Scalar {
        self.rows
            .fetch_add((task.indices.len() * task.epochs) as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        FedAvg.train(task, params, scratch, rng)
    }

    fn end_global_round(&self, participants: &[usize]) {
        FedAvg.end_global_round(participants)
    }

    fn group_ops(&self) -> Vec<GroupOpKind> {
        FedAvg.group_ops()
    }

    fn training_cost_factor(&self) -> f64 {
        FedAvg.training_cost_factor()
    }

    fn upload_payload_factor(&self) -> f64 {
        FedAvg.upload_payload_factor()
    }
}
