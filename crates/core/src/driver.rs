//! The round driver: one loop for every run.
//!
//! A run's whole state is one [`RunState`] — model, ledger, history,
//! membership, semi-async scheduler and report — and it is also what a
//! [`crate::checkpoint::Checkpoint`] stores. [`Trainer::advance`] moves a
//! state forward by some rounds. Each round runs one prologue, then one of
//! the two round bodies:
//!
//! ```text
//! for t in round..round + rounds:
//!     apply churn, heal, refresh p      (only with a `Regroup`)
//!     drop unavailable clients          (only with a churn plan)
//!     Lockstep  → round_once            (engine.rs)
//!     SemiAsync → semi_async_round      (semi_async.rs)
//! ```
//!
//! A run over fixed groups is a [`MembershipState::frozen`] state driven
//! without a [`Regroup`]: the prologue does nothing and the round reads the
//! groups and probabilities in place. Healing runs pass the grouping
//! algorithm and topology the policy re-forms with; the trainer's churn
//! plan, if any, applies to them alone.

use std::borrow::Cow;

use gfl_nn::Params;
use gfl_obs::{SpanAttrs, SpanKind};
use gfl_sim::{CostLedger, Topology};
use gfl_tensor::init;
use serde::{Deserialize, Serialize};

use crate::engine::Trainer;
use crate::grouping::{GroupingAlgorithm, PartitionError};
use crate::history::RunHistory;
use crate::local::LocalUpdate;
use crate::membership::{MembershipState, RegroupPolicy};
use crate::sampling::SamplingStrategy;
use crate::semi_async::{AsyncConfig, AsyncReport, SchedulerState};
use crate::Group;

/// Which round body closes each global round.
#[derive(Debug, Clone, Copy)]
pub enum Runtime {
    /// Every round waits at a global barrier (Algorithm 1 as written).
    Lockstep,
    /// Quorum-or-deadline rounds on the emulated clock
    /// ([`crate::semi_async`]).
    SemiAsync(AsyncConfig),
}

/// What a healing run re-forms groups with.
#[derive(Clone, Copy)]
pub struct Regroup<'a> {
    pub algo: &'a dyn GroupingAlgorithm,
    pub topology: &'a Topology,
}

/// How a run proceeds: its runtime, its Line-4 sampling strategy, and —
/// for healing runs — what the regroup policy re-forms with.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    pub runtime: Runtime,
    pub sampling: SamplingStrategy,
    /// `None` drives the membership as it stands: no churn, no healing.
    pub regroup: Option<Regroup<'a>>,
}

impl<'a> RunSpec<'a> {
    /// A run over fixed groups.
    pub fn new(runtime: Runtime, sampling: SamplingStrategy) -> Self {
        Self {
            runtime,
            sampling,
            regroup: None,
        }
    }

    /// The same run under online membership: the trainer's churn plan
    /// applies each round, and the state's [`RegroupPolicy`] heals the
    /// partition with `algo` over `topology`.
    pub fn healing(self, algo: &'a dyn GroupingAlgorithm, topology: &'a Topology) -> Self {
        Self {
            regroup: Some(Regroup { algo, topology }),
            ..self
        }
    }
}

/// Everything a run carries from one round to the next. Checkpointing it
/// after any round and resuming with the same trainer and [`RunSpec`]
/// reproduces the uninterrupted run bit for bit: every other input is a
/// pure function of `(seed, round)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunState {
    /// Next global round to run (rounds `0..round` are complete).
    pub round: usize,
    /// The global model `x_t`.
    pub params: Params,
    /// Emulated cost so far (Eq. 5) and bytes moved.
    pub ledger: CostLedger,
    /// Evaluation trajectory and event logs so far.
    pub history: RunHistory,
    /// The partition, its health, and the sampling probabilities in force.
    pub membership: MembershipState,
    /// Emulated clock, busy edges and parked stale uploads; idle under
    /// the lockstep runtime.
    pub scheduler: SchedulerState,
    /// Emulated-time trajectory; empty under the lockstep runtime.
    pub report: AsyncReport,
}

impl Trainer {
    /// Round-0 state of a run over `membership`: the seeded initial model,
    /// an empty ledger priced for `strategy`, an empty history and an idle
    /// scheduler.
    pub fn start(&self, strategy: &dyn LocalUpdate, membership: MembershipState) -> RunState {
        RunState {
            round: 0,
            params: self.model.init_params(&mut init::rng(self.config.seed)),
            ledger: self.ledger_for(strategy),
            history: RunHistory::default(),
            membership,
            scheduler: SchedulerState::new(),
            report: AsyncReport::default(),
        }
    }

    /// The frozen membership of a run over fixed `groups`.
    pub fn frozen_membership(
        &self,
        groups: &[Group],
        sampling: SamplingStrategy,
    ) -> MembershipState {
        MembershipState::frozen(groups.to_vec(), self.data.label_matrix(), sampling)
    }

    /// The round-0 membership of a healing run: `algo` per edge over the
    /// clients present at round 0 under the churn plan, governed by the
    /// churn's [`RegroupPolicy`] (the default one without
    /// [`Trainer::with_churn`]). With every client present this is exactly
    /// [`crate::engine::form_groups_per_edge`].
    pub fn form_membership(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        sampling: SamplingStrategy,
    ) -> Result<MembershipState, PartitionError> {
        let churn = self.churn.as_ref();
        MembershipState::form(
            algo,
            topology,
            self.data.label_matrix(),
            churn.map(|c| &c.plan),
            churn.map_or_else(RegroupPolicy::default, |c| c.policy.clone()),
            self.config.seed,
            sampling,
            0,
        )
    }

    /// Runs `rounds` global rounds from `state.round`, stopping early once
    /// the cost budget is spent. Errors only if a heal produced a
    /// non-partition.
    ///
    /// With a [`Regroup`], each round first applies the churn plan, heals
    /// the partition, refreshes the sampling probabilities (healing
    /// policies only), and drops flapping clients from the round; any
    /// transition resets the semi-async scheduler's in-flight state. The
    /// lockstep health monitor sees every round's quorum misses; the
    /// semi-async runtime cuts stragglers on its own clock and feeds it
    /// none.
    pub fn advance<S: LocalUpdate>(
        &self,
        spec: &RunSpec<'_>,
        state: &mut RunState,
        strategy: &S,
        rounds: usize,
    ) -> Result<(), PartitionError> {
        let labels = self.data.label_matrix();
        let plan = spec.regroup.and(self.churn.as_ref()).map(|c| &c.plan);
        let semi_async = match spec.runtime {
            Runtime::SemiAsync(acfg) => Some((acfg, self.timing_ctx())),
            Runtime::Lockstep => None,
        };
        let obs = self.obs.as_deref();
        let RunState {
            round,
            params,
            ledger,
            history,
            membership,
            scheduler,
            report,
        } = state;
        history.reserve_rounds(rounds.div_ceil(self.config.eval_every) + 1);
        let end = *round + rounds;
        for t in *round..end {
            if let Some(Regroup { algo, topology }) = spec.regroup {
                let regroup_start = obs.map(|ob| ob.now_ns());
                let mut events = Vec::new();
                if let Some(plan) = plan {
                    events.extend(membership.apply_churn(plan, t, labels, topology));
                }
                let seed = self.config.seed;
                events.extend(membership.heal(t, labels, algo, topology, seed, spec.sampling)?);
                if !events.is_empty() {
                    scheduler.reset_in_flight();
                }
                if let Some(ob) = obs {
                    ob.record_span(
                        SpanKind::Regroup,
                        regroup_start.unwrap(),
                        SpanAttrs::round(t),
                    );
                    ob.metrics()
                        .counter("events.regroups")
                        .add(events.len() as u64);
                }
                history.record_regroups(events);
                // CoVs shift with membership, so a healing policy refreshes
                // sampling probabilities every round; a frozen policy keeps
                // the formation-time values.
                if membership.policy.enabled {
                    membership.refresh_probs(labels, spec.sampling);
                }
            }
            *round = t + 1;
            let last = t + 1 == end;
            // Flapping clients sit out the round without leaving their
            // group; the round trains each group's available members.
            let groups: Cow<'_, [Group]> = match plan {
                Some(p) => membership
                    .groups
                    .iter()
                    .map(|g| g.iter().copied().filter(|&c| p.available(c, t)).collect())
                    .collect(),
                None => Cow::Borrowed(&membership.groups),
            };
            let probs = &membership.probs;
            let over_budget = match &semi_async {
                Some((acfg, tc)) => self.semi_async_round(
                    t, &groups, probs, strategy, acfg, tc, params, ledger, history, scheduler,
                    report, last,
                ),
                // Nobody reachable: hold the round outright. (The
                // semi-async body covers this case itself: its clock
                // sleeps to the next upload resolution.)
                None if groups.iter().all(|g| g.is_empty()) => {
                    self.hold_round(t, last, params, ledger, history);
                    false
                }
                None => {
                    let r =
                        self.round_once(t, &groups, probs, strategy, params, ledger, history, last);
                    drop(groups);
                    if spec.regroup.is_some() {
                        membership.observe_round(&r.sampled, &r.quorum_missed);
                    }
                    r.over_budget
                }
            };
            if over_budget {
                break;
            }
        }
        Ok(())
    }

    /// Runs Algorithm 1 over fixed `groups` under the lockstep runtime for
    /// all `T` rounds. Returns the evaluation trajectory and the final
    /// global model.
    pub fn run_returning_params<S: LocalUpdate>(
        &self,
        groups: &[Group],
        strategy: &S,
        sampling: SamplingStrategy,
    ) -> (RunHistory, Params) {
        let mut state = self.start(strategy, self.frozen_membership(groups, sampling));
        let spec = RunSpec::new(Runtime::Lockstep, sampling);
        self.advance(&spec, &mut state, strategy, self.config.global_rounds)
            .expect("a frozen membership never regroups");
        (state.history, state.params)
    }

    /// Runs the semi-async runtime under online membership for all `T`
    /// rounds: the partition forms over the clients present at round 0
    /// ([`Trainer::form_membership`]) and heals as the churn plan moves
    /// clients. Without [`Trainer::with_churn`] no transition fires, and
    /// the run is bit-identical to a semi-async run over the
    /// formation-time groups.
    pub fn run_semi_async_self_healing<S: LocalUpdate>(
        &self,
        algo: &dyn GroupingAlgorithm,
        topology: &Topology,
        strategy: &S,
        sampling: SamplingStrategy,
        acfg: &AsyncConfig,
    ) -> Result<(RunHistory, Params, AsyncReport, MembershipState), PartitionError> {
        let mut state = self.start(strategy, self.form_membership(algo, topology, sampling)?);
        let spec = RunSpec::new(Runtime::SemiAsync(*acfg), sampling).healing(algo, topology);
        self.advance(&spec, &mut state, strategy, self.config.global_rounds)?;
        Ok((state.history, state.params, state.report, state.membership))
    }
}
