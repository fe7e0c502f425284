//! The Group-FEL training engine — Algorithm 1 of the paper.
//!
//! ```text
//! form groups per edge server            (Lines 2–3, [`form_groups_per_edge`])
//! p = Sampling-Prob(G)                   (Line 4, `SamplingStrategy`)
//! for t in 0..T:
//!     sample S_t ⊆ G by p                (Line 6)
//!     for g in S_t, in parallel:         (Lines 7–14)
//!         x_g ← x_t
//!         for k in 0..K:
//!             every client: E epochs SGD (Line 13, `LocalUpdate`)
//!             x_g ← Σ n_i/n_g x_i        (Line 14, optionally via SecAgg)
//!     x_{t+1} ← Σ w_g x_g                (Line 15 / Eq. 4 / Eq. 35)
//! ```
//!
//! Every group's participation is charged to the cost ledger per Eq. 5,
//! with the strategy's own group-operation mix and per-sample training
//! factor (§7.1: "different quadratic cost functions for each method").

use gfl_data::poison::Trigger;
use gfl_data::{ClientPartition, Dataset, FedData, LabelMatrix, VirtualPopulation};
use gfl_defense::DefenseCost;
use gfl_faults::{
    summarize_attacks, AdversaryPlan, AttackEvent, AttackKind, ChurnPlan, DefenseStage, FaultEvent,
    FaultInjector, FaultPlan, FaultPolicy,
};
use gfl_nn::sgd::LrSchedule;
use gfl_nn::{Network, Params};
use gfl_obs::{MetricsRegistry, RoundMetrics, SpanAttrs, SpanKind, TraceCollector};
use gfl_sim::{CommModel, CostLedger, CostModel, Task, Topology};
use gfl_tensor::init;
use gfl_tensor::{ops, Scalar};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

use crate::grouping::GroupingAlgorithm;
use crate::history::{AsrRecord, RoundRecord, RunHistory};
use crate::local::{BufPool, LocalScratch, LocalTask, LocalUpdate, ScratchPool};
use crate::membership::RegroupPolicy;
use crate::sampling::{aggregation_weights_into, sample_without_replacement, AggregationWeighting};
use crate::Group;

/// Hyperparameters of Algorithm 1 plus simulation knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupFelConfig {
    /// Global rounds `T`.
    pub global_rounds: usize,
    /// Group rounds per global round `K` (paper: 5).
    pub group_rounds: usize,
    /// Local epochs per group round `E` (paper: 2).
    pub local_rounds: usize,
    /// Groups sampled per global round `S = |S_t|` (paper: 12 of 60).
    pub sampled_groups: usize,
    /// Minibatch size for local SGD.
    pub batch_size: usize,
    /// Learning-rate schedule over global rounds.
    pub lr: LrSchedule,
    /// Global aggregation weighting (Line 15 / Eq. 4 / Eq. 35).
    pub weighting: AggregationWeighting,
    /// Evaluate the global model every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Which task's cost table to charge (Vision/Speech).
    pub task: Task,
    /// Stop once the ledger exceeds this budget (the paper's 10⁶-unit
    /// budget in Table 1), `None` = run all `T` rounds.
    pub cost_budget: Option<f64>,
    /// Route group aggregation through the real pairwise-masking SecAgg
    /// protocol instead of plain weighted averaging (slower; validates the
    /// privacy path end-to-end — results are identical up to f32 rounding).
    pub secure_aggregation: bool,
    /// Probability that a client drops out of a group round after training
    /// started (device churn). Dropped clients are excluded from the group
    /// aggregation; with `secure_aggregation` on, the server runs the
    /// protocol's dropout-recovery path. 0.0 disables churn.
    pub dropout_prob: f64,
}

impl GroupFelConfig {
    /// The paper's §7.2 configuration (K=5, E=2, 12 of 60 groups, 10⁶
    /// budget) with a modest default round count.
    pub fn paper_vision() -> Self {
        Self {
            global_rounds: 200,
            group_rounds: 5,
            local_rounds: 2,
            sampled_groups: 12,
            batch_size: 32,
            lr: LrSchedule::Constant(0.05),
            weighting: AggregationWeighting::Stabilized,
            eval_every: 5,
            seed: 42,
            task: Task::Vision,
            cost_budget: Some(1e6),
            secure_aggregation: false,
            dropout_prob: 0.0,
        }
    }

    /// A tiny configuration for tests and doc examples.
    pub fn tiny() -> Self {
        Self {
            global_rounds: 4,
            group_rounds: 2,
            local_rounds: 1,
            sampled_groups: 2,
            batch_size: 16,
            lr: LrSchedule::Constant(0.1),
            weighting: AggregationWeighting::Standard,
            eval_every: 1,
            seed: 7,
            task: Task::Vision,
            cost_budget: None,
            secure_aggregation: false,
            dropout_prob: 0.0,
        }
    }
}

/// Runs a grouping algorithm independently on every edge server's clients
/// (Algorithm 1, Lines 2–3) and returns groups in *global* client ids.
pub fn form_groups_per_edge(
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    labels: &LabelMatrix,
    seed: u64,
) -> Vec<Group> {
    let mut groups = Vec::new();
    for j in 0..topology.num_edges() {
        let members = topology.clients_of(j);
        let local = labels.restrict(members);
        let mut rng = init::rng(seed ^ (0x9E37_79B9 ^ (j as u64) << 32));
        for group in algo.form_groups(&local, &mut rng) {
            groups.push(group.into_iter().map(|i| members[i]).collect());
        }
    }
    groups
}

/// Records a `kind` span from `start` to now and returns its end.
pub(crate) fn end_span(ob: &TraceCollector, kind: SpanKind, start: u64, attrs: SpanAttrs) -> u64 {
    let end = ob.now_ns();
    ob.record_span_at(kind, start, end, attrs);
    end
}

/// The Group-FEL trainer: owns the model, the federated data layout, and
/// the test set.
pub struct Trainer {
    pub(crate) config: GroupFelConfig,
    pub(crate) model: Network,
    pub(crate) data: FedData,
    pub(crate) test: Dataset,
    pub(crate) faults: Option<FaultState>,
    /// Link model used for byte accounting on clean runs; faulted runs use
    /// the fault state's (possibly customized) model instead.
    comm: CommModel,
    pub(crate) churn: Option<ChurnState>,
    pub(crate) adversary: Option<AdversaryState>,
    robust_agg: RobustAggRule,
    scratch: ScratchPool,
    /// Parameter-length `Vec<Scalar>` buffers (group models, slot bufs,
    /// Line-15 weight/probability scratch), recycled across rounds.
    param_pool: BufPool<Scalar>,
    /// `Vec<usize>` buffers (outcome member lists, ledger size scratch,
    /// virtual-shard label and index vectors).
    member_pool: BufPool<usize>,
    /// Feature-row backing buffers for on-demand virtual shards, recycled
    /// so a steady-state round materializes into warm capacity.
    shard_pool: BufPool<Scalar>,
    /// Per-group slot-shell `Vec<Slot>` buffers.
    slot_pool: BufPool<Slot>,
    /// Evaluation workspaces for the per-round test/ASR evaluations.
    eval_pool: gfl_nn::EvalPool,
    pub(crate) obs: Option<Arc<TraceCollector>>,
}

/// A structurally invalid [`GroupFelConfig`] / data combination, caught by
/// [`Trainer::try_new`] before any training state is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `global_rounds` is 0 — the run would produce an empty trajectory.
    ZeroGlobalRounds,
    /// `group_rounds` is 0 — groups would never train (Line 10's `K`).
    ZeroGroupRounds,
    /// `eval_every` is 0 — the evaluation cadence would divide by zero.
    ZeroEvalCadence,
    /// The model's input width does not match the dataset's feature width.
    DimensionMismatch { model: usize, data: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroGlobalRounds => write!(f, "global_rounds must be positive"),
            ConfigError::ZeroGroupRounds => write!(f, "group_rounds must be positive"),
            ConfigError::ZeroEvalCadence => write!(f, "eval_every must be positive"),
            ConfigError::DimensionMismatch { model, data } => write!(
                f,
                "model/data dimension mismatch: model expects {model} features, data has {data}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fault-injection context of a faulted run: the decision oracle, the
/// degradation policy, and the models needed to turn decisions into
/// wall-clock estimates (straggler deadlines, retry accounting).
pub(crate) struct FaultState {
    pub(crate) injector: FaultInjector,
    pub(crate) policy: FaultPolicy,
    pub(crate) comm: CommModel,
    pub(crate) cost: CostModel,
    pub(crate) edge_of_client: Vec<usize>,
}

/// Group-level aggregation rule (Line 14). [`RobustAggRule::Mean`] is the
/// paper's sample-weighted average; the rest are the Byzantine-robust
/// estimators from `gfl-defense`, applied unweighted over the round's
/// surviving client updates. Robust rules need at least 3 survivors and
/// fall back to the weighted mean below that; they are skipped under
/// `secure_aggregation`, which only supports linear aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustAggRule {
    /// Sample-weighted FedAvg (the paper's Line 14).
    #[default]
    Mean,
    /// Coordinate-wise median.
    CoordinateMedian,
    /// Coordinate-wise mean after trimming the `trim` extremes per side
    /// (clamped so at least one value survives).
    TrimmedMean { trim: usize },
    /// The single Krum-selected update, tolerating `byzantine` attackers
    /// (clamped to the survivor count − 3).
    Krum { byzantine: usize },
    /// Mean of the `select` best updates by Krum score.
    MultiKrum { byzantine: usize, select: usize },
    /// FLAME-style cosine-clustering filter (`gfl_defense::filter_updates`)
    /// over the survivors' *deltas*, then a sample-weighted mean of the
    /// accepted (clipped) deltas. The only rule that reports which clients
    /// it rejected, feeding the attack log's `AttackFiltered` events.
    FlameFilter,
}

/// Applies a (non-Mean) robust rule to the survivors, clamping its
/// breakdown parameters to what the survivor count supports.
fn robust_aggregate(rule: RobustAggRule, updates: &[Vec<Scalar>]) -> Vec<Scalar> {
    let n = updates.len();
    match rule {
        RobustAggRule::Mean => unreachable!("Mean is handled by the weighted path"),
        RobustAggRule::FlameFilter => {
            unreachable!("FlameFilter is handled by the filtering path")
        }
        RobustAggRule::CoordinateMedian => gfl_defense::robust::coordinate_median(updates),
        RobustAggRule::TrimmedMean { trim } => {
            gfl_defense::robust::trimmed_mean(updates, trim.min((n - 1) / 2))
        }
        RobustAggRule::Krum { byzantine } => {
            let f = byzantine.min(n.saturating_sub(3));
            updates[gfl_defense::robust::krum(updates, f)].clone()
        }
        RobustAggRule::MultiKrum { byzantine, select } => {
            let f = byzantine.min(n.saturating_sub(3));
            gfl_defense::robust::multi_krum(updates, f, select.clamp(1, n))
        }
    }
}

/// Churn context of a self-healing run: the membership plan plus the
/// policy governing when the partition is repaired.
pub(crate) struct ChurnState {
    pub(crate) plan: ChurnPlan,
    pub(crate) policy: RegroupPolicy,
}

/// A compromised client's pre-poisoned local shard. Materialized once at
/// [`Trainer::with_adversary`] time — the poisoned subset is a pure
/// function of the plan, so poisoning at build time (rather than per
/// round) changes nothing about the campaign and keeps `run_unit` cheap.
struct PoisonedShard {
    /// The client's local data with the campaign applied in place.
    data: Dataset,
    /// Row indices into `data` (always `0..data.len()`), standing in for
    /// the honest client's `partition.indices`.
    indices: Vec<usize>,
    /// How many rows the campaign actually touched.
    rows: usize,
    kind: AttackKind,
}

/// Adversary context of an attacked run: the campaign plan, every data
/// poisoner's pre-built shard, and the held-out attack-success evaluation
/// sets. All of it derives from the plan seed alone — no engine RNG stream
/// is consumed, so a clean plan leaves runs bit-identical.
pub(crate) struct AdversaryState {
    pub(crate) plan: AdversaryPlan,
    shards: HashMap<usize, PoisonedShard>,
    /// The backdoor trigger pattern. Virtual populations have no prebuilt
    /// shards, so `run_unit` re-applies the campaign to freshly derived
    /// rows with this — bitwise what `with_adversary` would have baked in.
    trigger: Trigger,
    /// Triggered non-target test samples, relabelled to the trigger
    /// target: accuracy on this set *is* the backdoor attack success rate.
    pub(crate) trigger_eval: Option<Dataset>,
    /// Test samples of the flip source class, relabelled to the flip
    /// target: accuracy on this set is the label-flip success rate.
    pub(crate) flip_eval: Option<Dataset>,
}

/// Result of one group's work within a global round.
pub(crate) struct GroupOutcome {
    /// Global group index (for fault attribution).
    pub(crate) group: usize,
    pub(crate) params: Params,
    pub(crate) samples: usize,
    pub(crate) train_loss: Scalar,
    pub(crate) members: Vec<usize>,
    /// Surviving uploads across all `K` group rounds.
    pub(crate) uploads: usize,
    /// Sample-weighted surviving uploads across all `K` group rounds
    /// (out of `K · n_g`); the quorum test's numerator.
    pub(crate) upload_samples: usize,
    /// Faults that hit this group, in deterministic (k, member) order.
    pub(crate) events: Vec<FaultEvent>,
    /// Attacks injected (and filtered) in this group, same ordering.
    pub(crate) attacks: Vec<AttackEvent>,
    /// Measured defense-filter work across the group's `K` group rounds.
    pub(crate) defense: DefenseCost,
}

/// Precomputed time-domain straggler cuts for one group's `K` group
/// rounds: `by_round[k]` lists `(member_index, slowdown)` pairs whose
/// reports missed group round `k`'s quorum-or-deadline close. Produced by
/// the semi-async scheduler's timing pass and applied verbatim inside
/// `run_unit`, replacing the lockstep path's in-unit deadline estimate.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupCuts {
    pub(crate) by_round: Vec<Vec<(usize, f64)>>,
}

impl GroupCuts {
    fn cut_for(&self, k: usize, member: usize) -> Option<f64> {
        self.by_round
            .get(k)?
            .iter()
            .find(|&&(m, _)| m == member)
            .map(|&(_, s)| s)
    }
}

/// One client's fixed result slot within a group round. Workers write
/// their slot and nothing else; the sequential reducer drains slots in
/// member order, so the aggregate is independent of execution order.
struct Slot {
    /// The trained local model. Reused across group rounds — a client's
    /// parameter buffer is allocated once per (group, round), not once per
    /// (group, round, k).
    buf: Params,
    /// Whether `buf` holds a surviving update this group round.
    live: bool,
    /// At most one fault can hit a client per group round.
    event: Option<FaultEvent>,
    /// At most one attack (injection or interception) per group round.
    attack: Option<AttackEvent>,
    /// Local training loss, if the client trained on any data (recorded
    /// even when the update is later rejected as corrupt, matching the
    /// sequential engine).
    loss: Option<Scalar>,
}

/// Per-group mutable state threaded through the `K` group rounds.
struct GroupCtx<'g> {
    gi: usize,
    group: &'g [usize],
    group_params: Params,
    slots: Vec<Slot>,
    deadline: Option<(f64, f64)>,
    loss_acc: Scalar,
    loss_n: u32,
    uploads: usize,
    upload_samples: usize,
    events: Vec<FaultEvent>,
    attacks: Vec<AttackEvent>,
    defense: DefenseCost,
    n_g: usize,
}

/// One schedulable work unit: a single client's local training within one
/// group round. Units across *all* groups go onto one work-stealing queue,
/// so a straggling large group no longer serializes the round.
struct Unit<'a> {
    gi: usize,
    client: usize,
    /// Size of the client's group: the SecAgg roster its update must
    /// encode for.
    roster: usize,
    /// The group model this client starts from (`x^g_{t,k}`).
    start: &'a [Scalar],
    deadline: Option<(f64, f64)>,
    /// Semi-async only: `Some(slowdown)` when the event-driven timing pass
    /// already decided this client's report missed the group-round close.
    timed_cut: Option<f64>,
    slot: &'a mut Slot,
}

/// What one lockstep round reports back to [`Trainer::advance`].
pub(crate) struct RoundReport {
    /// The cost budget is exhausted; stop the run.
    pub(crate) over_budget: bool,
    /// Groups drawn this round (Line 6), before outage/empty filtering.
    pub(crate) sampled: Vec<usize>,
    /// Sampled groups whose survivor quorum failed (health-monitor feed).
    pub(crate) quorum_missed: Vec<usize>,
}

impl Trainer {
    /// [`Trainer::try_new`] that panics on an invalid configuration.
    pub fn new(
        config: GroupFelConfig,
        model: Network,
        train: Dataset,
        partition: ClientPartition,
        test: Dataset,
    ) -> Self {
        Self::try_new(config, model, train, partition, test)
            .unwrap_or_else(|e| panic!("invalid Group-FEL configuration: {e}"))
    }

    /// Validates the configuration against the data and builds a trainer,
    /// returning a typed [`ConfigError`] instead of panicking. Zero-round
    /// configurations (`global_rounds = 0`) are rejected here: they would
    /// otherwise produce an empty [`RunHistory`] that downstream consumers
    /// (reports, checkpoints, golden traces) cannot interpret.
    pub fn try_new(
        config: GroupFelConfig,
        model: Network,
        train: Dataset,
        partition: ClientPartition,
        test: Dataset,
    ) -> Result<Self, ConfigError> {
        Self::try_from_data(
            config,
            model,
            FedData::Materialized { train, partition },
            test,
        )
    }

    /// [`Trainer::try_new_virtual`] that panics on an invalid configuration.
    pub fn new_virtual(
        config: GroupFelConfig,
        model: Network,
        population: VirtualPopulation,
        test: Dataset,
    ) -> Self {
        Self::try_new_virtual(config, model, population, test)
            .unwrap_or_else(|e| panic!("invalid Group-FEL configuration: {e}"))
    }

    /// [`Trainer::try_new`] over a [`VirtualPopulation`]: no client rows
    /// exist up front; each round derives shards for exactly the sampled
    /// clients and releases them afterwards, so steady-state memory is
    /// O(sampled clients), not O(population).
    pub fn try_new_virtual(
        config: GroupFelConfig,
        model: Network,
        population: VirtualPopulation,
        test: Dataset,
    ) -> Result<Self, ConfigError> {
        Self::try_from_data(config, model, FedData::Virtual(population), test)
    }

    fn try_from_data(
        config: GroupFelConfig,
        model: Network,
        data: FedData,
        test: Dataset,
    ) -> Result<Self, ConfigError> {
        if model.input_dim() != data.feature_dim() {
            return Err(ConfigError::DimensionMismatch {
                model: model.input_dim(),
                data: data.feature_dim(),
            });
        }
        if config.global_rounds == 0 {
            return Err(ConfigError::ZeroGlobalRounds);
        }
        if config.group_rounds == 0 {
            return Err(ConfigError::ZeroGroupRounds);
        }
        if config.eval_every == 0 {
            return Err(ConfigError::ZeroEvalCadence);
        }
        Ok(Self {
            config,
            model,
            data,
            test,
            faults: None,
            comm: CommModel::edge_default(),
            churn: None,
            adversary: None,
            robust_agg: RobustAggRule::Mean,
            scratch: ScratchPool::new(),
            param_pool: BufPool::new(),
            member_pool: BufPool::new(),
            shard_pool: BufPool::new(),
            slot_pool: BufPool::new(),
            eval_pool: gfl_nn::EvalPool::new(),
            obs: None,
        })
    }

    /// The link model charged for byte accounting: the fault state's when
    /// faults are enabled (it also drives upload retries there), the
    /// trainer's default otherwise, so clean and faulted runs price
    /// traffic identically.
    pub(crate) fn comm_model(&self) -> &CommModel {
        match &self.faults {
            Some(fs) => &fs.comm,
            None => &self.comm,
        }
    }

    /// Attaches a [`TraceCollector`]: every subsequent run records spans,
    /// per-round metrics, and event tallies into it. Observation is strictly
    /// one-way — nothing the collector measures feeds back into simulation
    /// state — so traced runs are bit-identical to untraced ones (asserted
    /// by the determinism suite). Without a collector the instrumentation
    /// path is a `None` check: no allocations, no atomics on the hot loop.
    pub fn with_observer(mut self, obs: Arc<TraceCollector>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables deterministic fault injection for every subsequent run.
    ///
    /// The `topology` maps clients to edge servers so outage windows know
    /// which groups they take down. Fault decisions never consume the
    /// engine's RNG streams, so a faulted run with `FaultPlan::none()` is
    /// bit-identical to a clean one, and two faulted runs with the same
    /// seeds and plan are bit-identical to each other.
    pub fn with_faults(
        mut self,
        plan: FaultPlan,
        policy: FaultPolicy,
        topology: &Topology,
    ) -> Self {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
        policy
            .validate()
            .unwrap_or_else(|e| panic!("invalid FaultPolicy: {e}"));
        let mut edge_of_client = vec![0usize; self.data.num_clients()];
        for j in 0..topology.num_edges() {
            for &c in topology.clients_of(j) {
                edge_of_client[c] = j;
            }
        }
        self.faults = Some(FaultState {
            injector: FaultInjector::new(plan),
            policy,
            comm: CommModel::edge_default(),
            cost: CostModel::for_task(self.config.task),
            edge_of_client,
        });
        self
    }

    /// Enables membership churn for healing runs (a
    /// [`crate::driver::RunSpec`] with a [`crate::driver::Regroup`]); runs
    /// over fixed groups ignore it. Like fault injection,
    /// churn decisions are pure hashes of the plan seed — a clean plan
    /// (or a disabled policy on a clean plan) leaves every run
    /// bit-identical to one without churn machinery.
    pub fn with_churn(mut self, plan: ChurnPlan, policy: RegroupPolicy) -> Self {
        plan.validate();
        self.churn = Some(ChurnState { plan, policy });
        self
    }

    /// Enables a deterministic poisoning campaign for every subsequent
    /// run. Compromised clients and their poisoned rows are pure hashes of
    /// the plan seed, so shards and attack-success evaluation sets are
    /// materialized once, here; training then swaps them in at the client
    /// update boundary. No engine RNG stream is consumed — a run with
    /// [`AdversaryPlan::none`] is bit-identical to one without this call,
    /// and attacked runs replay bit-identically at any thread count.
    ///
    /// Composes with faults, churn, robust aggregation, and
    /// `secure_aggregation` (data/model poison happens *before* masking,
    /// so attacks survive SecAgg — exactly the threat model that motivates
    /// running a defense inside the group).
    ///
    /// # Panics
    /// Panics when the plan's knobs are out of range
    /// ([`AdversaryPlan::validate`]) or a trigger/flip label is outside
    /// the dataset's class range.
    pub fn with_adversary(mut self, plan: AdversaryPlan) -> Self {
        plan.validate();
        if plan.is_clean() {
            self.adversary = None;
            return self;
        }
        let classes = self.data.num_classes();
        if plan.backdoor_fraction > 0.0 {
            assert!(plan.trigger_target < classes, "trigger target out of range");
            assert!(
                plan.trigger_width <= self.data.feature_dim(),
                "trigger wider than the feature space"
            );
        }
        if plan.label_flip_fraction > 0.0 {
            assert!(
                plan.flip_from < classes && plan.flip_to < classes,
                "flip labels out of range"
            );
        }
        let trigger = Trigger::corner(plan.trigger_width, plan.trigger_target);
        // Materialized federations pre-poison their compromised shards
        // here; virtual ones poison on the fly in `run_unit`, where the
        // shard is derived (same picks, same rows — `poisons_row` is a
        // pure hash of the plan seed either way).
        let mut shards = HashMap::new();
        if let FedData::Materialized { train, partition } = &self.data {
            for (client, indices) in partition.indices.iter().enumerate() {
                let kind = match plan.kind(client) {
                    Some(k @ (AttackKind::Backdoor | AttackKind::LabelFlip)) => k,
                    _ => continue,
                };
                if indices.is_empty() {
                    continue;
                }
                let local = train.subset(indices);
                let mut features = local.features().clone();
                let mut labels = local.labels().to_vec();
                let picked: Vec<usize> = (0..local.len())
                    .filter(|&r| plan.poisons_row(client, r))
                    .collect();
                let rows = match kind {
                    AttackKind::Backdoor => {
                        trigger.apply(&mut features, &mut labels, &picked);
                        picked.len()
                    }
                    AttackKind::LabelFlip => gfl_data::poison::label_flip(
                        &mut labels,
                        &picked,
                        plan.flip_from,
                        plan.flip_to,
                    ),
                    AttackKind::ModelPoison => unreachable!(),
                };
                if rows == 0 {
                    continue; // campaign touched nothing: the shard is honest
                }
                let len = labels.len();
                shards.insert(
                    client,
                    PoisonedShard {
                        data: Dataset::new(features, labels, classes),
                        indices: (0..len).collect(),
                        rows,
                        kind,
                    },
                );
            }
        }
        let trigger_eval = (plan.backdoor_fraction > 0.0).then(|| {
            let n = self.test.len().clamp(1, 256);
            // Plan-seeded stream: independent of every engine stream.
            let mut rng = init::rng(plan.seed ^ 0x5452_4947_4556_414C); // "TRIGEVAL"
            trigger.attack_eval_set(&self.test, n, &mut rng)
        });
        let flip_eval = (plan.label_flip_fraction > 0.0)
            .then(|| {
                let rows: Vec<usize> = (0..self.test.len())
                    .filter(|&i| self.test.labels()[i] == plan.flip_from)
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                let batch = self.test.batch(&rows);
                let labels = vec![plan.flip_to; rows.len()];
                Some(Dataset::new(batch.features, labels, classes))
            })
            .flatten();
        self.adversary = Some(AdversaryState {
            plan,
            shards,
            trigger,
            trigger_eval,
            flip_eval,
        });
        self
    }

    /// Selects the group-level aggregation rule for Line 14. The default
    /// [`RobustAggRule::Mean`] is the paper's weighted average; robust
    /// rules trade its unbiasedness for Byzantine tolerance.
    ///
    /// # Panics
    /// Panics when combined with `secure_aggregation`: the masking
    /// protocol can only compute linear functions of the updates.
    pub fn with_robust_agg(mut self, rule: RobustAggRule) -> Self {
        assert!(
            rule == RobustAggRule::Mean || !self.config.secure_aggregation,
            "robust aggregation is incompatible with secure aggregation"
        );
        self.robust_agg = rule;
        self
    }

    pub fn config(&self) -> &GroupFelConfig {
        &self.config
    }

    pub fn model(&self) -> &Network {
        &self.model
    }

    /// The materialized client partition.
    ///
    /// # Panics
    /// Panics for virtual populations, which have no row-index partition;
    /// check [`Trainer::virtual_population`] first when the representation
    /// is not known statically.
    pub fn partition(&self) -> &ClientPartition {
        self.data.partition()
    }

    /// The federated training dataset.
    ///
    /// # Panics
    /// Panics for virtual populations, which never materialize a pooled
    /// dataset.
    pub fn train_data(&self) -> &Dataset {
        self.data.train()
    }

    /// The virtual population, when this trainer runs over one.
    pub fn virtual_population(&self) -> Option<&VirtualPopulation> {
        self.data.as_virtual()
    }

    /// The federated data layout (materialized or virtual).
    pub fn fed_data(&self) -> &FedData {
        &self.data
    }

    /// The held-out test dataset.
    pub fn test_data(&self) -> &Dataset {
        &self.test
    }

    /// Number of samples held by a set of clients.
    pub fn group_samples(&self, group: &[usize]) -> usize {
        group.iter().map(|&c| self.data.client_size(c)).sum()
    }

    /// Evaluates parameters on the held-out test set. Uses pooled
    /// evaluation workspaces — bit-identical to [`Network::evaluate`],
    /// allocation-free once the pool is warm.
    pub fn evaluate(&self, params: &[Scalar]) -> gfl_nn::mlp::EvalResult {
        self.model.evaluate_pooled(
            params,
            self.test.features(),
            self.test.labels(),
            &self.eval_pool,
        )
    }

    /// Builds the cost ledger for a strategy (its op mix and train factor).
    pub fn ledger_for(&self, strategy: &dyn LocalUpdate) -> CostLedger {
        let mut model = CostModel::for_task(self.config.task);
        let f = strategy.training_cost_factor();
        model.training.a *= f;
        model.training.b *= f;
        CostLedger::new(model, strategy.group_ops())
    }

    /// Line 6: draws this round's `S` groups by `probs` (none when every
    /// group has dissolved). The stream is a pure function of `(seed, t)`,
    /// so a resumed session draws exactly the groups an uninterrupted one
    /// would, on either runtime.
    pub(crate) fn sample_groups(&self, t: usize, probs: &[Scalar]) -> Vec<usize> {
        let s = self.config.sampled_groups.max(1).min(probs.len());
        let mut rng = init::rng(self.config.seed ^ (t as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        sample_without_replacement(&mut rng, probs, s)
    }

    /// The sampled groups that can train this round. Empty groups
    /// (possible transiently under churn, before the next heal pass) sit
    /// out, and a dark edge server takes all of its sampled groups offline,
    /// each outage landing in `events`.
    pub(crate) fn reachable(
        &self,
        t: usize,
        groups: &[Group],
        sampled: &[usize],
        events: &mut Vec<FaultEvent>,
    ) -> Vec<usize> {
        sampled
            .iter()
            .copied()
            .filter(|&gi| !groups[gi].is_empty())
            .filter(|&gi| match &self.faults {
                Some(fs) => {
                    let edge = fs.edge_of_client[groups[gi][0]];
                    let down = fs.injector.edge_down(edge, t);
                    if down {
                        events.push(FaultEvent::EdgeOutage {
                            round: t,
                            edge,
                            group: gi,
                        });
                    }
                    !down
                }
                None => true,
            })
            .collect()
    }

    /// Charges Eq. 5 for every group that attempted the round — stale,
    /// rejected or lost, the work was done and the ledger is effort, not
    /// luck — plus every member's client↔edge bytes and the measured
    /// defense-filter work, then closes the ledger's round. Returns the
    /// defense counters `(similarity_evals, norm_passes)`.
    pub(crate) fn charge_round<S: LocalUpdate>(
        &self,
        outcomes: &[GroupOutcome],
        strategy: &S,
        param_len: usize,
        ledger: &mut CostLedger,
    ) -> (u64, u64) {
        let cfg = &self.config;
        let client_bytes = self.comm_model().client_bytes_per_round(
            param_len,
            cfg.group_rounds,
            strategy.upload_payload_factor(),
        );
        // One pooled size buffer serves every group.
        let mut sizes = self.member_pool.take();
        for o in outcomes {
            sizes.clear();
            sizes.extend(o.members.iter().map(|&c| self.data.client_size(c)));
            ledger.charge_group(&sizes, cfg.group_rounds, cfg.local_rounds);
            ledger.charge_client_edge_bytes(o.members.len() as u64 * client_bytes);
        }
        self.member_pool.put(sizes);
        // Measured defense work (FLAME-style cosine clustering) lands in
        // the ledger alongside the emulated group ops, so a real defense
        // shows up in the emulated round time.
        let defense = outcomes.iter().fold((0, 0), |(sims, norms), o| {
            (
                sims + o.defense.similarity_evals,
                norms + o.defense.norm_passes,
            )
        });
        if defense != (0, 0) {
            ledger.charge_defense(defense.0, defense.1);
        }
        ledger.end_round();
        defense
    }

    /// Evaluates the global model on the cadence — every `eval_every`
    /// rounds, and whenever `force`d (a run's last or over-budget round):
    /// test accuracy and loss, the attack-success rates of an attached
    /// adversary, and one [`RoundRecord`]. Returns the traced eval time
    /// and the ASR record, if any.
    pub(crate) fn evaluate_round(
        &self,
        t: usize,
        force: bool,
        params: &[Scalar],
        train_loss: Scalar,
        cost: f64,
        history: &mut RunHistory,
    ) -> (u64, Option<AsrRecord>) {
        if !(t.is_multiple_of(self.config.eval_every) || force) {
            return (0, None);
        }
        let obs = self.obs.as_deref();
        let eval_start = obs.map(|ob| ob.now_ns());
        let eval = self.evaluate(params);
        // Both attack eval sets carry the attacker's label, so plain
        // accuracy on them *is* the success rate.
        let asr = self.adversary.as_ref().map(|adv| {
            let rate = |d: &Dataset| {
                self.model
                    .evaluate_pooled(params, d.features(), d.labels(), &self.eval_pool)
                    .accuracy
            };
            let r = AsrRecord {
                round: t,
                trigger_asr: adv.trigger_eval.as_ref().map(&rate),
                flip_asr: adv.flip_eval.as_ref().map(&rate),
            };
            history.record_asr(r);
            r
        });
        let mut eval_ns = 0u64;
        if let Some(ob) = obs {
            let start = eval_start.unwrap();
            eval_ns =
                end_span(ob, SpanKind::Eval, start, SpanAttrs::round(t)).saturating_sub(start);
        }
        history.push(RoundRecord {
            round: t,
            cost,
            accuracy: eval.accuracy,
            loss: eval.loss,
            train_loss,
        });
        (eval_ns, asr)
    }

    /// The traced tail both round bodies share: closes the round span and
    /// records its [`RoundMetrics`] — `m` carries the body's phase times,
    /// fault count and pool figures; wall time, cost, group/client counts
    /// and byte deltas are filled in here — plus the common counters.
    /// Returns the registry for the body's own telemetry.
    pub(crate) fn close_round<'o>(
        &self,
        ob: &'o TraceCollector,
        start: u64,
        mut m: RoundMetrics,
        outcomes: &[GroupOutcome],
        ledger: &CostLedger,
        bytes_before: (u64, u64),
    ) -> &'o MetricsRegistry {
        let end = end_span(
            ob,
            SpanKind::Round,
            start,
            SpanAttrs::round(m.round as usize),
        );
        let ce_bytes = ledger.client_edge_bytes() - bytes_before.0;
        let ec_bytes = ledger.edge_cloud_bytes() - bytes_before.1;
        m.wall_ns = end.saturating_sub(start);
        m.groups_trained = outcomes.len() as u64;
        m.clients_trained = outcomes
            .iter()
            .map(|o| (o.members.len() * self.config.group_rounds) as u64)
            .sum();
        m.cost_total = ledger.total();
        m.client_edge_bytes = Some(ce_bytes);
        m.edge_cloud_bytes = Some(ec_bytes);
        let (fault_events, clients_trained) = (m.fault_events, m.clients_trained);
        ob.record_round(m);
        let metrics = ob.metrics();
        metrics.counter("rounds.total").inc();
        metrics.counter("events.faults").add(fault_events);
        metrics.counter("clients.trained").add(clients_trained);
        metrics.counter("comm.bytes.client_edge").add(ce_bytes);
        metrics.counter("comm.bytes.edge_cloud").add(ec_bytes);
        metrics.gauge("cost.total").set(ledger.total());
        metrics
    }

    /// One lockstep global round of Algorithm 1 (Lines 6–15): sample, train
    /// the sampled groups, degrade gracefully, aggregate, charge costs, and
    /// evaluate on the cadence. `groups` are the round's effective
    /// (availability-filtered) groups and `probs` their Line-4
    /// probabilities.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn round_once<S: LocalUpdate>(
        &self,
        t: usize,
        groups: &[Group],
        probs: &[Scalar],
        strategy: &S,
        params: &mut Params,
        ledger: &mut CostLedger,
        history: &mut RunHistory,
        last: bool,
    ) -> RoundReport {
        assert_eq!(groups.len(), probs.len(), "one probability per group");
        let cfg = &self.config;
        let total_samples = self.data.total_samples();
        // Observation is read-only: timestamps and counter snapshots are
        // taken around the simulation sections but never feed back into
        // them, keeping traced runs bit-identical to untraced ones.
        let obs = self.obs.as_deref();
        let round_start = obs.map(|o| o.now_ns());
        let pool_before = obs.map(|_| gfl_parallel::stats::snapshot());
        let allocs_before = obs.map(|_| gfl_obs::alloc::current_allocs());
        // Byte accounting is charged unconditionally (it is a deterministic
        // function of the sampled groups, never of timing); the snapshot
        // lets the round record report per-round deltas.
        let bytes_before = (ledger.client_edge_bytes(), ledger.edge_cloud_bytes());
        let lr = cfg.lr.at(t);
        let sampled = self.sample_groups(t, probs);
        let mut round_events: Vec<FaultEvent> = Vec::new();
        let mut quorum_missed: Vec<usize> = Vec::new();
        let active = self.reachable(t, groups, &sampled, &mut round_events);

        // Lines 7–14: every (group × client) pair of this round trains
        // on one shared work-stealing queue, client-granular.
        let group_refs: Vec<(usize, &[usize])> = active
            .iter()
            .map(|&gi| (gi, groups[gi].as_slice()))
            .collect();
        let outcomes = self.train_groups(params, &group_refs, strategy, t, lr, None);

        let train_end = obs.map(|o| {
            end_span(
                o,
                SpanKind::Train,
                round_start.unwrap(),
                SpanAttrs::round(t),
            )
        });
        let mut comm_ns = 0u64;
        let mut comm_bytes = 0u64;
        let (defense_sims, defense_norms) =
            self.charge_round(&outcomes, strategy, params.len(), ledger);

        // Graceful degradation: the survivor quorum, the non-finite
        // gate, and edge→cloud upload retries decide which group
        // models reach Line 15. Clean runs pass every outcome through.
        let mut included: Vec<&GroupOutcome> = Vec::with_capacity(outcomes.len());
        let mut round_attacks: Vec<AttackEvent> = Vec::new();
        for o in &outcomes {
            round_events.extend(o.events.iter().cloned());
            round_attacks.extend(o.attacks.iter().cloned());
            // Edge↔cloud bytes for this group's upload: first-try
            // uploads move one payload; retried uploads move one per
            // attempt (charged in the retry branch below, delivered or
            // not — failed attempts still put bytes on the wire).
            let mut upload_charged = false;
            if let Some(fs) = &self.faults {
                let required = (fs.policy.quorum_fraction * (cfg.group_rounds * o.samples) as f64)
                    .ceil() as usize;
                if o.upload_samples < required {
                    round_events.push(FaultEvent::GroupSkipped {
                        round: t,
                        group: o.group,
                        survivors: o.upload_samples,
                        required,
                    });
                    quorum_missed.push(o.group);
                    continue;
                }
                if fs.policy.reject_non_finite && !gfl_defense::is_update_finite(&o.params) {
                    round_events.push(FaultEvent::CorruptGroupRejected {
                        round: t,
                        group: o.group,
                    });
                    continue;
                }
                let failures = fs
                    .injector
                    .upload_failures(t, o.group, fs.policy.max_retries);
                if failures > 0 {
                    let retry_start = obs.map(|ob| ob.now_ns());
                    let payload = fs.comm.group_cloud_bytes(params.len());
                    let retry = fs.comm.upload_with_retries(
                        payload,
                        failures,
                        fs.policy.max_retries,
                        fs.policy.backoff_base_s,
                        fs.policy.max_backoff_s,
                    );
                    round_events.push(FaultEvent::UploadRetry {
                        round: t,
                        group: o.group,
                        attempts: retry.attempts,
                        extra_seconds: retry.seconds,
                        extra_bytes: retry.bytes,
                    });
                    ledger.charge_edge_cloud_bytes(retry.bytes);
                    upload_charged = true;
                    comm_bytes += retry.bytes;
                    let delivered = retry.delivered;
                    if let Some(ob) = obs {
                        let start = retry_start.unwrap();
                        let attrs = SpanAttrs::group(t, o.group).with_bytes(retry.bytes);
                        comm_ns +=
                            end_span(ob, SpanKind::UploadRetry, start, attrs).saturating_sub(start);
                    }
                    if !delivered {
                        round_events.push(FaultEvent::UploadLost {
                            round: t,
                            group: o.group,
                        });
                        continue;
                    }
                }
            }
            if !upload_charged {
                ledger.charge_edge_cloud_bytes(self.comm_model().group_cloud_bytes(params.len()));
            }
            included.push(o);
        }

        // Line 15: global aggregation — held (`x_{t+1} = x_t`, params
        // stay finite) when no surviving update reached the cloud.
        if included.iter().all(|o| o.uploads == 0) {
            round_events.push(FaultEvent::RoundHeld { round: t });
        } else {
            let mut sizes = self.member_pool.take();
            sizes.extend(included.iter().map(|o| o.samples));
            let mut sampled_probs = self.param_pool.take();
            sampled_probs.extend(included.iter().map(|o| probs[o.group]));
            let mut weights = self.param_pool.take();
            aggregation_weights_into(
                cfg.weighting,
                &sizes,
                &sampled_probs,
                total_samples,
                &mut weights,
            );
            // The exact fill-then-axpy loop of `ops::weighted_sum_into`,
            // inlined over `included` so no view vector is built.
            params.fill(0.0);
            for (o, &w) in included.iter().zip(weights.iter()) {
                ops::axpy(w, &o.params, params);
            }
            self.member_pool.put(sizes);
            self.param_pool.put(sampled_probs);
            self.param_pool.put(weights);
        }

        let participants: Vec<usize> = included
            .iter()
            .flat_map(|o| o.members.iter().copied())
            .collect();
        strategy.end_global_round(&participants);

        // Aggregate phase = charge + degradation + Line 15, minus the
        // upload-retry (comm) time carved out above, so the four phase
        // durations stay disjoint.
        let agg_end = obs.map(|ob| {
            let end = ob.now_ns();
            let start = train_end.unwrap();
            let wall = end.saturating_sub(start);
            ob.record_span_at(
                SpanKind::Aggregate,
                start,
                start + wall.saturating_sub(comm_ns),
                SpanAttrs::round(t),
            );
            if comm_ns > 0 {
                ob.record_span_at(
                    SpanKind::Comm,
                    start,
                    start + comm_ns,
                    SpanAttrs::round(t).with_bytes(comm_bytes),
                );
            }
            end
        });

        let train_loss =
            outcomes.iter().map(|o| o.train_loss).sum::<Scalar>() / outcomes.len().max(1) as Scalar;

        let fault_events = round_events.len() as u64;
        history.record_faults(round_events);
        let attack_summary = summarize_attacks(&round_attacks);
        history.record_attacks(round_attacks);

        let over_budget = cfg.cost_budget.is_some_and(|b| ledger.total() >= b);
        let (eval_ns, asr) = self.evaluate_round(
            t,
            last || over_budget,
            params,
            train_loss,
            ledger.total(),
            history,
        );

        if let Some(ob) = obs {
            let start = round_start.unwrap();
            let train_ns = train_end.unwrap().saturating_sub(start);
            let aggregate_ns = agg_end
                .unwrap()
                .saturating_sub(train_end.unwrap())
                .saturating_sub(comm_ns);
            let pool = gfl_parallel::stats::snapshot().since(pool_before.unwrap());
            let m = self.close_round(
                ob,
                start,
                RoundMetrics {
                    train_ns,
                    aggregate_ns,
                    comm_ns,
                    eval_ns,
                    fault_events,
                    pool_regions: pool.regions,
                    pool_claims: pool.claims,
                    pool_steals: pool.steals,
                    pool_utilization: pool.utilization(),
                    allocs: gfl_obs::alloc::current_allocs().saturating_sub(allocs_before.unwrap()),
                    ..RoundMetrics::empty(t)
                },
                &outcomes,
                ledger,
                bytes_before,
            );
            m.gauge("pool.utilization").set(pool.utilization());
            // Attack/defense telemetry only exists on runs that opted
            // in, so clean traces are byte-identical to pre-adversary
            // ones.
            if self.adversary.is_some() {
                m.counter("attacks.injected")
                    .add(attack_summary.injected() as u64);
                m.counter("attacks.filtered.flame")
                    .add(attack_summary.filtered_flame as u64);
                m.counter("attacks.filtered.non_finite")
                    .add(attack_summary.filtered_non_finite as u64);
                if let Some(r) = asr {
                    if let Some(v) = r.trigger_asr {
                        m.gauge("asr.trigger").set(v as f64);
                    }
                    if let Some(v) = r.flip_asr {
                        m.gauge("asr.flip").set(v as f64);
                    }
                }
            }
            if defense_sims > 0 || defense_norms > 0 {
                m.counter("defense.similarity_evals").add(defense_sims);
                m.counter("defense.norm_passes").add(defense_norms);
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            let buckets = &gfl_obs::metrics::PHASE_MS_BUCKETS;
            m.histogram("round.train_ms", buckets).observe(ms(train_ns));
            m.histogram("round.aggregate_ms", buckets)
                .observe(ms(aggregate_ns));
            m.histogram("round.comm_ms", buckets).observe(ms(comm_ns));
            m.histogram("round.eval_ms", buckets).observe(ms(eval_ns));
        }

        // Hand the round's parameter and member buffers back to the
        // pools so the next round's groups start from warm capacity.
        for o in outcomes {
            self.param_pool.put(o.params);
            self.member_pool.put(o.members);
        }

        RoundReport {
            over_budget,
            sampled,
            quorum_missed,
        }
    }

    /// A lockstep round in which nobody is reachable — every member of
    /// every group departed or flapped out. The round is held outright
    /// (`x_{t+1} = x_t`, nothing sampled or charged) and evaluated on the
    /// cadence.
    pub(crate) fn hold_round(
        &self,
        t: usize,
        last: bool,
        params: &[Scalar],
        ledger: &mut CostLedger,
        history: &mut RunHistory,
    ) {
        let obs = self.obs.as_deref();
        let held_start = obs.map(|ob| ob.now_ns());
        history.record_fault(FaultEvent::RoundHeld { round: t });
        ledger.end_round();
        let (eval_ns, _) = self.evaluate_round(t, last, params, 0.0, ledger.total(), history);
        if let Some(ob) = obs {
            let start = held_start.unwrap();
            let end = end_span(ob, SpanKind::Round, start, SpanAttrs::round(t));
            let mut m = RoundMetrics::empty(t);
            m.wall_ns = end.saturating_sub(start);
            m.eval_ns = eval_ns;
            m.fault_events = 1;
            m.cost_total = ledger.total();
            ob.record_round(m);
            ob.metrics().counter("rounds.total").inc();
            ob.metrics().counter("events.faults").inc();
        }
    }

    /// Trains one group for `K` group rounds starting from `global` (Lines
    /// 8–14). Public so baseline runners (FedCLAR) can reuse the exact same
    /// group mechanics.
    pub fn train_group<S: LocalUpdate>(
        &self,
        global: &[Scalar],
        group: &[usize],
        strategy: &S,
        t: usize,
        lr: Scalar,
    ) -> GroupOutcomePublic {
        let o = self
            .train_groups(global, &[(0, group)], strategy, t, lr, None)
            .pop()
            .expect("one group in, one outcome out");
        GroupOutcomePublic {
            params: o.params,
            samples: o.samples,
            train_loss: o.train_loss,
        }
    }

    /// Straggler deadline for a group: `deadline_factor ×` the slowest
    /// *nominal* client's wall-clock estimate (compute per Eq. 5's training
    /// cost, plus both client↔edge transfers). Returns `(deadline_s,
    /// transfer_s)`.
    pub(crate) fn group_deadline(&self, group: &[usize], param_len: usize) -> Option<(f64, f64)> {
        let fs = self.faults.as_ref()?;
        if fs.policy.deadline_factor <= 0.0 {
            return None;
        }
        let transfer = 2.0
            * fs.comm
                .client_edge
                .transfer_time(CommModel::model_bytes(param_len));
        let slowest = group
            .iter()
            .map(|&c| {
                fs.cost.training(self.data.client_size(c)) * self.config.local_rounds as f64
                    + transfer
            })
            .fold(0.0f64, f64::max);
        Some((fs.policy.deadline_factor * slowest, transfer))
    }

    /// Trains a batch of groups for `K` group rounds each (Lines 8–14),
    /// flattening every group round's (group × client) pairs into one
    /// work-stealing queue. Client-granular scheduling keeps all workers
    /// busy even when group sizes are skewed; each unit writes only its own
    /// [`Slot`], and slots are reduced sequentially in member order, so the
    /// result is bit-identical to the sequential engine for any thread
    /// count.
    ///
    /// The semi-async runtime passes precomputed time-domain straggler
    /// `cuts` (one [`GroupCuts`] per group, aligned with `groups`); they
    /// replace the lockstep in-unit deadline estimate, since the scheduler
    /// has already decided, in emulated time, exactly which reports missed
    /// each group round's close.
    pub(crate) fn train_groups<S: LocalUpdate>(
        &self,
        global: &[Scalar],
        groups: &[(usize, &[usize])],
        strategy: &S,
        t: usize,
        lr: Scalar,
        cuts: Option<&[GroupCuts]>,
    ) -> Vec<GroupOutcome> {
        if let Some(c) = cuts {
            assert_eq!(c.len(), groups.len(), "one cut set per group");
        }
        let cfg = &self.config;
        let mut ctxs: Vec<GroupCtx<'_>> = groups
            .iter()
            .map(|&(gi, group)| GroupCtx {
                gi,
                group,
                // Pooled: the group model and every slot buffer come back
                // with warm parameter-length capacity after round one.
                group_params: {
                    let mut gp = self.param_pool.take();
                    gp.extend_from_slice(global);
                    gp
                },
                slots: {
                    let mut slots = self.slot_pool.take();
                    slots.extend(group.iter().map(|_| Slot {
                        buf: self.param_pool.take(),
                        live: false,
                        event: None,
                        attack: None,
                        loss: None,
                    }));
                    slots
                },
                deadline: if cuts.is_some() {
                    None
                } else {
                    self.group_deadline(group, global.len())
                },
                loss_acc: 0.0,
                loss_n: 0,
                uploads: 0,
                upload_samples: 0,
                events: Vec::new(),
                attacks: Vec::new(),
                defense: DefenseCost::default(),
                n_g: self.group_samples(group).max(1),
            })
            .collect();
        let total_units: usize = groups.iter().map(|&(_, g)| g.len()).sum();
        let obs = self.obs.as_deref();

        for k in 0..cfg.group_rounds {
            let k_start = obs.map(|ob| ob.now_ns());
            // Flatten this group round into per-client units. Splitting a
            // ctx into its fields lets each unit hold the group model
            // immutably alongside a mutable borrow of its own slot.
            let mut units: Vec<Unit<'_>> = Vec::with_capacity(total_units);
            for (ci, ctx) in ctxs.iter_mut().enumerate() {
                let group_cuts = cuts.map(|c| &c[ci]);
                let GroupCtx {
                    gi,
                    group,
                    group_params,
                    slots,
                    deadline,
                    ..
                } = ctx;
                let start: &[Scalar] = group_params.as_slice();
                for (mi, (slot, &client)) in slots.iter_mut().zip(group.iter()).enumerate() {
                    units.push(Unit {
                        gi: *gi,
                        client,
                        roster: group.len(),
                        start,
                        deadline: *deadline,
                        timed_cut: group_cuts.and_then(|g| g.cut_for(k, mi)),
                        slot,
                    });
                }
            }
            gfl_parallel::par_for_each_init(
                &mut units,
                || self.scratch.acquire(&self.model),
                |scratch, _i, unit| {
                    // Client-step spans are timed around the unit from the
                    // worker thread; the mutex push happens after the unit's
                    // simulation work is complete and touches no shared
                    // simulation state.
                    let step_start = obs.map(|ob| ob.now_ns());
                    self.run_unit(t, k, lr, global, strategy, unit, scratch.get_mut());
                    if let Some(ob) = obs {
                        ob.record_span(
                            SpanKind::ClientStep,
                            step_start.unwrap(),
                            SpanAttrs::client_step(t, k, unit.gi, unit.client),
                        );
                    }
                },
            );
            drop(units);

            // Sequential reduction, group by group, slots in member order —
            // the exact event/loss/aggregation order of the old per-group
            // loop.
            for ctx in ctxs.iter_mut() {
                for slot in ctx.slots.iter_mut() {
                    if let Some(ev) = slot.event.take() {
                        ctx.events.push(ev);
                    }
                    if let Some(at) = slot.attack.take() {
                        ctx.attacks.push(at);
                    }
                    if let Some(loss) = slot.loss.take() {
                        ctx.loss_acc += loss;
                        ctx.loss_n += 1;
                    }
                }
                // The FLAME-style filter runs before the survivor tally so
                // rejected updates neither count as uploads nor reach the
                // group aggregate; accepted updates are clipped in place.
                if self.robust_agg == RobustAggRule::FlameFilter {
                    self.flame_filter(ctx, t, k);
                }
                // Line 14: group aggregation, weighted by n_i over this
                // round's survivors.
                let n_surv: usize = ctx
                    .group
                    .iter()
                    .zip(ctx.slots.iter())
                    .filter(|(_, s)| s.live)
                    .map(|(&c, _)| self.data.client_size(c))
                    .sum();
                ctx.uploads += ctx.slots.iter().filter(|s| s.live).count();
                ctx.upload_samples += n_surv;
                if n_surv == 0 {
                    continue; // every client dropped: group model unchanged
                }
                if cfg.secure_aggregation {
                    let weights: Vec<Scalar> = ctx
                        .group
                        .iter()
                        .zip(ctx.slots.iter())
                        .filter(|(_, s)| s.live)
                        .map(|(&c, _)| self.data.client_size(c) as Scalar / n_surv as Scalar)
                        .collect();
                    self.secure_group_aggregate(
                        ctx.group,
                        &ctx.slots,
                        &weights,
                        &mut ctx.group_params,
                        t,
                        k,
                    );
                } else if !matches!(
                    self.robust_agg,
                    RobustAggRule::Mean | RobustAggRule::FlameFilter
                ) && ctx.slots.iter().filter(|s| s.live).count() >= 3
                {
                    let survivors: Vec<Vec<Scalar>> = ctx
                        .slots
                        .iter()
                        .filter(|s| s.live)
                        .map(|s| s.buf.clone())
                        .collect();
                    ctx.group_params = robust_aggregate(self.robust_agg, &survivors);
                } else {
                    // The exact fill-then-axpy loop of
                    // `ops::weighted_sum_into` over the live slots in
                    // member order — bit-identical, without building the
                    // per-(group, k) weight and view vectors.
                    ctx.group_params.fill(0.0);
                    for (&c, s) in ctx
                        .group
                        .iter()
                        .zip(ctx.slots.iter())
                        .filter(|(_, s)| s.live)
                    {
                        let w = self.data.client_size(c) as Scalar / n_surv as Scalar;
                        ops::axpy(w, &s.buf, &mut ctx.group_params);
                    }
                }
            }

            if let Some(ob) = obs {
                ob.record_span(
                    SpanKind::GroupRound,
                    k_start.unwrap(),
                    SpanAttrs::group_round(t, k),
                );
            }
        }

        ctxs.into_iter()
            .map(|ctx| {
                // Slot buffers and shells go straight back to the pools;
                // the group model travels on inside the outcome and is
                // recycled by `round_once` once aggregation is done.
                let mut slots = ctx.slots;
                for s in slots.drain(..) {
                    self.param_pool.put(s.buf);
                }
                self.slot_pool.put(slots);
                let mut members = self.member_pool.take();
                members.extend_from_slice(ctx.group);
                GroupOutcome {
                    group: ctx.gi,
                    params: ctx.group_params,
                    samples: ctx.n_g,
                    train_loss: ctx.loss_acc / ctx.loss_n.max(1) as Scalar,
                    members,
                    uploads: ctx.uploads,
                    upload_samples: ctx.upload_samples,
                    events: ctx.events,
                    attacks: ctx.attacks,
                    defense: ctx.defense,
                }
            })
            .collect()
    }

    /// FLAME-style group defense (Line 14 pre-filter): clusters the live
    /// slots' *deltas* by cosine similarity, rejects the suspicious
    /// minority, and clips the accepted deltas to the median norm. Rejected
    /// slots are marked dead — they never reach the survivor tally or the
    /// aggregate — and rejected *adversaries* are logged as
    /// [`AttackEvent::AttackFiltered`]. Honest clients the filter cuts are
    /// collateral damage, not attacks, so they are not logged.
    fn flame_filter(&self, ctx: &mut GroupCtx<'_>, t: usize, k: usize) {
        let live: Vec<usize> = (0..ctx.slots.len())
            .filter(|&i| ctx.slots[i].live)
            .collect();
        if live.len() < 3 {
            return; // too few survivors to cluster: pass everyone through
        }
        let mut deltas: Vec<Vec<Scalar>> = live
            .iter()
            .map(|&i| {
                ctx.slots[i]
                    .buf
                    .iter()
                    .zip(ctx.group_params.iter())
                    .map(|(&w, &s)| w - s)
                    .collect()
            })
            .collect();
        let report =
            gfl_defense::filter_updates(&mut deltas, &gfl_defense::DefenseConfig::default());
        ctx.defense.similarity_evals += report.cost.similarity_evals;
        ctx.defense.norm_passes += report.cost.norm_passes;
        for (pos, delta) in deltas.iter().enumerate() {
            let slot_idx = live[pos];
            if report.rejected.contains(&pos) {
                ctx.slots[slot_idx].live = false;
                let client = ctx.group[slot_idx];
                if self
                    .adversary
                    .as_ref()
                    .is_some_and(|a| a.plan.is_adversary(client))
                {
                    ctx.attacks.push(AttackEvent::AttackFiltered {
                        round: t,
                        group_round: k,
                        group: ctx.gi,
                        client,
                        stage: DefenseStage::FlameFilter,
                    });
                }
            } else {
                // Write the clipped delta back so the weighted-mean path
                // aggregates exactly what the defense admitted.
                for (w, (&d, &s)) in ctx.slots[slot_idx]
                    .buf
                    .iter_mut()
                    .zip(delta.iter().zip(ctx.group_params.iter()))
                {
                    *w = s + d;
                }
            }
        }
    }

    /// One client's local training within one group round (Line 13, plus
    /// the fault gates around it). Writes only `unit.slot`; every decision
    /// is a pure function of `(seed, t, k, client)`, so the outcome does
    /// not depend on which worker thread runs the unit or when.
    #[allow(clippy::too_many_arguments)]
    fn run_unit<S: LocalUpdate>(
        &self,
        t: usize,
        k: usize,
        lr: Scalar,
        global: &[Scalar],
        strategy: &S,
        unit: &mut Unit<'_>,
        scratch: &mut LocalScratch,
    ) {
        let cfg = &self.config;
        let fs = self.faults.as_ref();
        let client = unit.client;
        let slot = &mut *unit.slot;
        slot.live = false;
        slot.event = None;
        slot.attack = None;
        slot.loss = None;
        let client_samples = self.data.client_size(client);
        // Injected faults: crashes vanish mid-round, stragglers past the
        // deadline are cut. Decisions are pure hashes — they never touch
        // `crng`, so the clean path is bit-identical with faults compiled
        // in but disabled.
        if let Some(fs) = fs {
            if fs.injector.crashes(t, k, client) {
                slot.event = Some(FaultEvent::ClientCrash {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                });
                return;
            }
        }
        // Semi-async: the scheduler's timing pass already placed this
        // client's report after the group-round close (quorum filled or
        // deadline fired first). Clean clients can be cut here too — with
        // `slowdown = 1.0` — when a partial quorum closes the round early.
        if let Some(slowdown) = unit.timed_cut {
            slot.event = Some(FaultEvent::StragglerCut {
                round: t,
                group_round: k,
                group: unit.gi,
                client,
                slowdown,
            });
            return;
        }
        if let Some(fs) = fs {
            if let Some((deadline_s, transfer)) = unit.deadline {
                let slowdown = fs.injector.slowdown(t, k, client);
                if slowdown > 1.0 {
                    let estimated =
                        fs.cost.training(client_samples) * cfg.local_rounds as f64 * slowdown
                            + transfer;
                    if estimated > deadline_s {
                        slot.event = Some(FaultEvent::StragglerCut {
                            round: t,
                            group_round: k,
                            group: unit.gi,
                            client,
                            slowdown,
                        });
                        return;
                    }
                }
            }
        }
        // Independent, reproducible stream per (seed, t, k, client).
        let mut crng = init::rng(
            cfg.seed
                ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ (client as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // Device churn: the client trains but drops before its upload
        // reaches the edge aggregator.
        let dropped = cfg.dropout_prob > 0.0 && crng.gen::<f64>() < cfg.dropout_prob;
        if dropped {
            return;
        }
        slot.buf.clear();
        slot.buf.extend_from_slice(unit.start);
        // Compromised data poisoners train on a poisoned shard; everyone
        // else trains on their honest rows. Swapping the shard here —
        // inside the client update boundary — means the poison is already
        // baked in *before* any masking or robust aggregation, so attacks
        // survive SecAgg exactly as they would in deployment. Materialized
        // federations use prebuilt shards; virtual ones derive the client's
        // rows on demand into pooled buffers (released below) and apply the
        // campaign to the fresh rows — same picks, same rows, bitwise the
        // shard `with_adversary` would have prebuilt.
        let adv = self.adversary.as_ref();
        let mut owned: Option<(Dataset, Vec<usize>)> = None;
        let mut poisoned: Option<(AttackKind, usize)> = None;
        let (data, indices): (&Dataset, &[usize]) = match &self.data {
            FedData::Materialized { train, partition } => {
                match adv.and_then(|a| a.shards.get(&client)) {
                    Some(s) => {
                        poisoned = Some((s.kind, s.rows));
                        (&s.data, s.indices.as_slice())
                    }
                    None => (train, partition.indices[client].as_slice()),
                }
            }
            FedData::Virtual(pop) => {
                let features = self.shard_pool.take();
                let labels = self.member_pool.take();
                let mut ds = pop.shard_from_parts(client, features, labels);
                let kind = adv.and_then(|a| match a.plan.kind(client) {
                    Some(k @ (AttackKind::Backdoor | AttackKind::LabelFlip)) => Some(k),
                    _ => None,
                });
                if let (Some(a), Some(kind)) = (adv, kind) {
                    let classes = ds.num_classes();
                    let (mut features, mut labels) = ds.into_parts();
                    let picked: Vec<usize> = (0..labels.len())
                        .filter(|&r| a.plan.poisons_row(client, r))
                        .collect();
                    let rows = match kind {
                        AttackKind::Backdoor => {
                            a.trigger.apply(&mut features, &mut labels, &picked);
                            picked.len()
                        }
                        AttackKind::LabelFlip => gfl_data::poison::label_flip(
                            &mut labels,
                            &picked,
                            a.plan.flip_from,
                            a.plan.flip_to,
                        ),
                        AttackKind::ModelPoison => unreachable!(),
                    };
                    if rows > 0 {
                        poisoned = Some((kind, rows));
                    }
                    ds = Dataset::new(features, labels, classes);
                }
                let mut idx = self.member_pool.take();
                idx.extend(0..ds.len());
                owned = Some((ds, idx));
                let (d, i) = owned.as_ref().expect("just set");
                (d, i.as_slice())
            }
        };
        if let Some((kind, rows)) = poisoned {
            slot.attack = Some(match kind {
                AttackKind::Backdoor => AttackEvent::BackdoorInjected {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                    rows,
                },
                AttackKind::LabelFlip => AttackEvent::LabelsFlipped {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                    rows,
                },
                AttackKind::ModelPoison => unreachable!("model poisoners have no shard"),
            });
        }
        let task = LocalTask {
            client,
            model: &self.model,
            group_start: unit.start,
            global_start: global,
            data,
            indices,
            epochs: cfg.local_rounds,
            batch_size: cfg.batch_size,
            lr,
            round: t,
        };
        let loss = strategy.train(&task, &mut slot.buf, scratch, &mut crng);
        if !indices.is_empty() {
            slot.loss = Some(loss);
        }
        // Model poisoners train honestly, then amplify their uploaded
        // delta (scale and/or sign-flip) — the model-replacement attack.
        // Boosted backdoor clients amplify their poison-trained delta the
        // same way, keeping the BackdoorInjected classification.
        if let Some(a) = adv {
            match a.plan.kind(client) {
                Some(AttackKind::ModelPoison) => {
                    let factor =
                        a.plan.scale_factor as Scalar * if a.plan.sign_flip { -1.0 } else { 1.0 };
                    for (w, &s) in slot.buf.iter_mut().zip(unit.start.iter()) {
                        *w = s + factor * (*w - s);
                    }
                    slot.attack = Some(AttackEvent::UpdatePoisoned {
                        round: t,
                        group_round: k,
                        group: unit.gi,
                        client,
                    });
                }
                Some(AttackKind::Backdoor) if a.plan.backdoor_boost != 1.0 => {
                    let factor = a.plan.backdoor_boost as Scalar;
                    for (w, &s) in slot.buf.iter_mut().zip(unit.start.iter()) {
                        *w = s + factor * (*w - s);
                    }
                }
                _ => {}
            }
        }
        let mut rejected = false;
        if let Some(fs) = fs {
            if fs.injector.corrupts(t, k, client) {
                // The update arrives garbled: all weights NaN.
                for w in slot.buf.iter_mut() {
                    *w = Scalar::NAN;
                }
            }
            rejected = fs.policy.reject_non_finite && !gfl_defense::is_update_finite(&slot.buf);
        }
        // SecAgg encodes the *weighted* update for the group's roster. The
        // weights are ≤ 1, so an unweighted update that encodes guarantees
        // the weighted one does; one that cannot is rejected here, exactly
        // like a non-finite one, rather than panicking the masking.
        if !rejected && cfg.secure_aggregation {
            rejected = gfl_secagg::check(&slot.buf, unit.roster).is_err();
        }
        if rejected {
            // An adversary whose amplified update overflowed (or left the
            // SecAgg ring's range) is caught here: the injection becomes
            // an interception.
            if slot.attack.take().is_some() {
                slot.attack = Some(AttackEvent::AttackFiltered {
                    round: t,
                    group_round: k,
                    group: unit.gi,
                    client,
                    stage: DefenseStage::NonFiniteGate,
                });
            }
            slot.event = Some(FaultEvent::CorruptRejected {
                round: t,
                group_round: k,
                group: unit.gi,
                client,
            });
        } else {
            slot.live = true;
        }
        // Virtual shards live exactly as long as the unit that trained on
        // them: hand the feature/label/index buffers back for the next
        // sampled client, on every exit path past materialization.
        if let Some((ds, idx)) = owned {
            let (features, labels) = ds.into_parts();
            self.shard_pool.put(features.into_vec());
            self.member_pool.put(labels);
            self.member_pool.put(idx);
        }
    }

    /// Group aggregation through the real pairwise-masking protocol:
    /// every surviving client masks its *weighted* model, the server
    /// unmasks the survivor sum — including mask recovery for clients that
    /// dropped mid-round (`weights` aligns with the surviving members in
    /// group order).
    fn secure_group_aggregate(
        &self,
        group: &[usize],
        slots: &[Slot],
        weights: &[Scalar],
        out: &mut Params,
        t: usize,
        k: usize,
    ) {
        let dim = out.len();
        let members: Vec<u32> = group.iter().map(|&c| c as u32).collect();
        let session_seed =
            self.config.seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((t as u64) << 20) ^ k as u64;
        let session = gfl_secagg::SecAggSession::new(members, dim, session_seed);
        let mut survivors = Vec::with_capacity(group.len());
        let mut masked = Vec::with_capacity(group.len());
        let mut scaled = self.param_pool.take();
        let mut w_iter = weights.iter();
        for (&c, slot) in group.iter().zip(slots.iter()) {
            if !slot.live {
                continue;
            }
            let w = *w_iter.next().expect("one weight per survivor");
            scaled.clear();
            scaled.extend_from_slice(&slot.buf);
            ops::scale(w, &mut scaled);
            masked.push(session.mask(c as u32, &scaled).0);
            survivors.push(c as u32);
        }
        self.param_pool.put(scaled);
        let (sum, _) = session.unmask_sum(&survivors, &masked);
        out.copy_from_slice(&sum);
    }
}

/// Public view of a group's training outcome (for baseline runners).
pub struct GroupOutcomePublic {
    /// The trained group model `x^g_{t,K−1}`.
    pub params: Params,
    /// Group data volume `n_g`.
    pub samples: usize,
    /// Mean local loss observed.
    pub train_loss: Scalar,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{RunSpec, Runtime};
    use crate::grouping::{CovGrouping, RandomGrouping};
    use crate::local::FedAvg;
    use crate::sampling::SamplingStrategy;
    use gfl_data::{PartitionSpec, SyntheticSpec};

    fn tiny_world(seed: u64) -> (Trainer, Vec<Group>) {
        let data = SyntheticSpec::tiny().generate(600, seed);
        let (train, test) = data.split_holdout(5);
        let part = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, seed));
        let topo = Topology::even_split(2, part.sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 2,
                max_cov: 0.8,
            },
            &topo,
            &part.label_matrix,
            seed,
        );
        let model = gfl_nn::zoo::tiny(4, 3);
        let trainer = Trainer::new(GroupFelConfig::tiny(), model, train, part, test);
        (trainer, groups)
    }

    #[test]
    fn run_produces_monotone_cost_history() {
        let (trainer, groups) = tiny_world(1);
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        assert!(!h.is_empty());
        let costs: Vec<f64> = h.records().iter().map(|r| r.cost).collect();
        for w in costs.windows(2) {
            assert!(w[1] >= w[0], "cost must be nondecreasing: {costs:?}");
        }
        assert!(costs[0] > 0.0);
    }

    #[test]
    fn training_improves_over_initial_model() {
        let (trainer, groups) = tiny_world(2);
        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 12;
        cfg.lr = LrSchedule::Constant(0.2);
        let trainer = Trainer::new(
            cfg,
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        );
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        let first = h.first_record().expect("eval on cadence").accuracy;
        let best = h.best_accuracy();
        assert!(
            best > first + 0.1 || best > 0.8,
            "no learning: first {first}, best {best}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let (trainer, groups) = tiny_world(3);
        let a = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::SRCov)
            .0;
        let b = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::SRCov)
            .0;
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x.accuracy, y.accuracy);
            assert_eq!(x.cost, y.cost);
        }
    }

    #[test]
    fn secure_aggregation_matches_plain_aggregation() {
        let (trainer, groups) = tiny_world(4);
        let plain = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        let mut cfg = trainer.config.clone();
        cfg.secure_aggregation = true;
        let secure_trainer = Trainer::new(
            cfg,
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        );
        let secure = secure_trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        // Same trajectory up to f32 mask-cancellation rounding.
        for (p, s) in plain.records().iter().zip(secure.records()) {
            assert!(
                (p.accuracy - s.accuracy).abs() < 0.05,
                "plain {} vs secure {}",
                p.accuracy,
                s.accuracy
            );
        }
    }

    #[test]
    fn cost_budget_stops_training_early() {
        let (trainer, groups) = tiny_world(5);
        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 50;
        cfg.eval_every = 1;
        cfg.cost_budget = Some(1000.0);
        let trainer = Trainer::new(
            cfg,
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        );
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        let last = h.last_record().expect("eval on cadence");
        assert!(last.round < 49, "budget should stop before round 50");
    }

    #[test]
    fn zero_round_configs_are_typed_errors_not_panics() {
        let (trainer, _groups) = tiny_world(8);
        let build = |cfg: GroupFelConfig, model: Network| match Trainer::try_new(
            cfg,
            model,
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("invalid configuration must be rejected"),
        };

        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 0;
        assert_eq!(
            build(cfg, trainer.model.clone()),
            ConfigError::ZeroGlobalRounds
        );

        let mut cfg = GroupFelConfig::tiny();
        cfg.group_rounds = 0;
        assert_eq!(
            build(cfg, trainer.model.clone()),
            ConfigError::ZeroGroupRounds
        );

        let mut cfg = GroupFelConfig::tiny();
        cfg.eval_every = 0;
        assert_eq!(
            build(cfg, trainer.model.clone()),
            ConfigError::ZeroEvalCadence
        );

        let err = build(GroupFelConfig::tiny(), gfl_nn::zoo::tiny(9, 3));
        assert!(matches!(
            err,
            ConfigError::DimensionMismatch { model: 9, .. }
        ));
    }

    #[test]
    fn observer_records_rounds_and_phase_spans() {
        let (trainer, groups) = tiny_world(9);
        let obs = gfl_obs::TraceCollector::new();
        let trainer = Trainer::try_new(
            trainer.config.clone(),
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        )
        .unwrap()
        .with_observer(std::sync::Arc::clone(&obs));
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
            .0;
        let trace = obs.finish(gfl_parallel::default_parallelism());
        let rounds = trainer.config.global_rounds as u64;
        assert_eq!(trace.rounds.len() as u64, rounds);
        let summary = trace.summary.as_ref().unwrap();
        assert_eq!(summary.rounds, rounds);
        assert_eq!(summary.metrics.counter("rounds.total"), Some(rounds));
        // One Round/Train/Aggregate span per round, K GroupRound spans each.
        let per_kind = |k| trace.spans.iter().filter(|s| s.kind == k).count() as u64;
        assert_eq!(per_kind(SpanKind::Round), rounds);
        assert_eq!(per_kind(SpanKind::Train), rounds);
        assert_eq!(per_kind(SpanKind::Aggregate), rounds);
        assert_eq!(
            per_kind(SpanKind::GroupRound),
            rounds * trainer.config.group_rounds as u64
        );
        assert!(per_kind(SpanKind::ClientStep) > 0);
        // Evaluation runs every round under the tiny config's cadence.
        assert_eq!(per_kind(SpanKind::Eval), h.records().len() as u64);
        // The four phase durations never exceed round wall time.
        for r in &trace.rounds {
            assert!(r.train_ns + r.aggregate_ns + r.comm_ns + r.eval_ns <= r.wall_ns);
            assert!(r.clients_trained > 0);
        }
        assert!(
            trace.round_coverage() > 0.5,
            "tiny rounds are mostly phases"
        );
    }

    #[test]
    fn form_groups_per_edge_respects_edge_boundaries() {
        let data = SyntheticSpec::tiny().generate(400, 6);
        let part = ClientPartition::dirichlet(&data, &PartitionSpec::tiny(0.5, 6));
        let topo = Topology::even_split(3, part.sizes());
        let groups = form_groups_per_edge(
            &RandomGrouping { group_size: 3 },
            &topo,
            &part.label_matrix,
            9,
        );
        // Every group's members must live on a single edge server.
        for g in &groups {
            let edges: std::collections::HashSet<usize> = g
                .iter()
                .map(|&c| (0..3).find(|&j| topo.clients_of(j).contains(&c)).unwrap())
                .collect();
            assert_eq!(edges.len(), 1, "group {g:?} spans edges {edges:?}");
        }
        // And the union of groups is all clients.
        let total: usize = groups.iter().map(Group::len).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn clean_self_healing_run_matches_static_run_bit_for_bit() {
        // With no churn plan, the self-healing loop must reproduce the
        // static engine exactly: same formation, same draws, same model.
        let (trainer, _) = tiny_world(11);
        let algo = CovGrouping {
            min_group_size: 2,
            max_cov: 0.8,
        };
        let topo = Topology::even_split(2, trainer.partition().sizes());
        // The self-healing loop forms its partition with the config seed.
        let groups = form_groups_per_edge(
            &algo,
            &topo,
            &trainer.partition().label_matrix,
            trainer.config.seed,
        );
        let (h_static, p_static) =
            trainer.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);
        let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::ESRCov).healing(&algo, &topo);
        let membership = trainer
            .form_membership(&algo, &topo, spec.sampling)
            .unwrap();
        let mut heal = trainer.start(&FedAvg, membership);
        trainer
            .advance(&spec, &mut heal, &FedAvg, trainer.config.global_rounds)
            .unwrap();
        assert_eq!(heal.membership.groups, groups);
        assert_eq!(p_static, heal.params);
        assert_eq!(h_static, heal.history);
        assert!(heal.history.regroup_events().is_empty());
    }

    #[test]
    fn robust_aggregation_rules_complete_and_stay_finite() {
        let (trainer, groups) = tiny_world(12);
        for rule in [
            RobustAggRule::CoordinateMedian,
            RobustAggRule::TrimmedMean { trim: 1 },
            RobustAggRule::Krum { byzantine: 1 },
            RobustAggRule::MultiKrum {
                byzantine: 1,
                select: 2,
            },
        ] {
            let t = Trainer::new(
                trainer.config.clone(),
                trainer.model.clone(),
                trainer.train_data().clone(),
                trainer.partition().clone(),
                trainer.test.clone(),
            )
            .with_robust_agg(rule);
            let (h, p) = t.run_returning_params(&groups, &FedAvg, SamplingStrategy::Random);
            assert!(!h.is_empty(), "{rule:?} produced no records");
            assert!(
                p.iter().all(|w| w.is_finite()),
                "{rule:?} produced non-finite weights"
            );
        }
    }

    #[test]
    fn robust_aggregation_clamps_small_groups() {
        // Breakdown parameters far beyond what tiny groups support must
        // clamp rather than panic inside gfl-defense.
        let (trainer, groups) = tiny_world(13);
        let t = Trainer::new(
            trainer.config.clone(),
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        )
        .with_robust_agg(RobustAggRule::MultiKrum {
            byzantine: 50,
            select: 50,
        });
        let h = t
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "incompatible with secure aggregation")]
    fn robust_aggregation_rejects_secure_aggregation() {
        let (trainer, _) = tiny_world(14);
        let mut cfg = trainer.config.clone();
        cfg.secure_aggregation = true;
        let _ = Trainer::new(
            cfg,
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        )
        .with_robust_agg(RobustAggRule::CoordinateMedian);
    }

    #[test]
    fn sampled_groups_clamped_to_available() {
        let (trainer, groups) = tiny_world(7);
        let mut cfg = GroupFelConfig::tiny();
        cfg.sampled_groups = 500; // more than exist
        let trainer = Trainer::new(
            cfg,
            trainer.model.clone(),
            trainer.train_data().clone(),
            trainer.partition().clone(),
            trainer.test.clone(),
        );
        let h = trainer
            .run_returning_params(&groups, &FedAvg, SamplingStrategy::Random)
            .0;
        assert!(!h.is_empty());
    }
}
