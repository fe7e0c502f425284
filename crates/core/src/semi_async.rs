//! Deterministic semi-async runtime: quorum-or-deadline rounds over an
//! event-driven cost ledger.
//!
//! The lockstep round body closes every round at a global barrier: the
//! slowest sampled client paces the whole fleet. This module replaces the
//! barrier with events on an **emulated clock** (never the wall clock,
//! never an RNG):
//!
//! * every client report, group-round close, and edge→cloud arrival is a
//!   timed event, priced by the same [`gfl_sim::cost`] / [`gfl_sim::comm`]
//!   models the ledger charges (Eq. 5);
//! * each **edge** closes group round `k` at the *first* of: a quorum of
//!   member reports (`quorum_fraction`), every deliverable report in, or
//!   `deadline_factor ×` the slowest *nominal* member's elapsed time.
//!   Late reports are cut as timed [`gfl_faults::FaultEvent::StragglerCut`]s;
//! * the **cloud** admits edge results as they arrive. Results landing
//!   after the cloud's own close are *stale*: dropped
//!   ([`StalenessPolicy::DropStale`]) or parked and folded into a later
//!   round with a staleness-decayed weight ([`StalenessPolicy::Weighted`]),
//!   after HierFAVG-style semi-async aggregation.
//!
//! # Determinism
//!
//! The runtime is two passes per round. The *timing pass* is pure
//! arithmetic over the cost/comm models and the fault oracle — it decides,
//! in emulated time, which reports miss which close, using
//! [`gfl_sim::EventQueue`] (ties broken by the stable `(round, group,
//! client)` id). The *compute pass* is the lockstep engine's own
//! client-granular parallel trainer, fed the precomputed cut sets. Neural
//! results therefore stay bit-identical across thread counts and across
//! checkpoint resume, and the degenerate limit — full quorum, disabled
//! deadlines, clean fault plan — reproduces the lockstep [`RunHistory`]
//! bit for bit (asserted by `tests/semi_async.rs`).
//!
//! A run selects this runtime with [`crate::driver::Runtime::SemiAsync`];
//! [`Trainer::advance`] runs the membership prologue and then this
//! module's round body each round, and [`SchedulerState`] plus
//! [`AsyncReport`] travel in the [`crate::driver::RunState`] a checkpoint
//! stores.
//!
//! Two knowing simplifications, both documented in `docs/ASYNC.md`: client
//! dropout (`dropout_prob`) drops the *payload*, not the timing — a
//! dropped client still counts toward the quorum clock; and a membership
//! transition resets in-flight edge state (busy map + parked stale
//! uploads), since both are keyed by group indices the transition
//! invalidates.

use gfl_faults::{FaultEvent, FaultInjector, FaultPlan, FaultPolicy};
use gfl_nn::Params;
use gfl_obs::{RoundMetrics, SpanAttrs, SpanKind};
use gfl_sim::{CommModel, CostLedger, CostModel, EventId, EventQueue, RetryOutcome};
use gfl_tensor::{ops, Scalar};
use serde::{Deserialize, Serialize};

use crate::engine::{end_span, GroupCuts, GroupOutcome, Trainer};
use crate::history::{RunHistory, TimedEvent};
use crate::local::LocalUpdate;
use crate::sampling::aggregation_weights;
use crate::Group;

/// What the cloud does with an edge result that arrives after its round
/// already closed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StalenessPolicy {
    /// Discard it. Simple, biased toward fast edges.
    #[default]
    DropStale,
    /// Park it and fold it into the first round whose close covers the
    /// arrival, damping its aggregation weight by `(1 + s)^{-decay}`
    /// where `s` is the staleness in global rounds (HierFAVG-style).
    Weighted { decay: f64 },
}

/// Knobs of the semi-async runtime that have no lockstep counterpart.
/// Edge-level quorum and deadlines come from the attached
/// [`FaultPolicy`] (`quorum_fraction`, `deadline_factor`,
/// `backoff_base_s`, `max_backoff_s`); without [`Trainer::with_faults`]
/// the runtime defaults to the degenerate lockstep limit (full quorum,
/// no deadline) so plain runs stay bit-identical to the sync engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Stale-arrival handling at the cloud.
    pub staleness: StalenessPolicy,
    /// The cloud closes its round at `cloud_deadline_factor ×` the slowest
    /// dispatched group's *nominal* duration after dispatch. `0.0` (or any
    /// non-positive / non-finite value) disables the deadline: the cloud
    /// waits for every dispatched result, and nothing ever goes stale.
    pub cloud_deadline_factor: f64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        Self {
            staleness: StalenessPolicy::DropStale,
            cloud_deadline_factor: 0.0,
        }
    }
}

impl AsyncConfig {
    fn cloud_deadline_enabled(&self) -> bool {
        self.cloud_deadline_factor > 0.0 && self.cloud_deadline_factor.is_finite()
    }
}

/// An edge result that arrived after its dispatch round closed, parked by
/// [`StalenessPolicy::Weighted`] until a later round's close covers it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingUpload {
    /// Global group index at dispatch time.
    pub group: usize,
    /// The round that dispatched (and already charged) this work.
    pub dispatch_round: usize,
    /// Absolute emulated arrival time at the cloud, seconds.
    pub arrival_s: f64,
    /// Group data volume `n_g` at dispatch time.
    pub samples: usize,
    /// Sampling probability of the group at dispatch time.
    pub prob: Scalar,
    /// Surviving uploads across the group's `K` rounds (0 ⇒ the result
    /// carries no update and cannot lift a held round).
    pub uploads: usize,
    /// Member client ids at dispatch time (for `end_global_round`).
    pub members: Vec<usize>,
    /// The trained group model.
    pub params: Params,
}

/// Persistent scheduler state of a semi-async run: everything the event
/// loop needs beyond `(params, ledger, history)` to resume bit-identically
/// from a checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerState {
    /// The emulated clock, seconds: the close time of the last round.
    pub clock_s: f64,
    /// Sparse `group → busy-until` map: an edge is busy from dispatch
    /// until its upload lands (or its loss is known).
    pub busy: Vec<(usize, f64)>,
    /// Stale results awaiting admission under [`StalenessPolicy::Weighted`].
    pub pending: Vec<PendingUpload>,
}

impl SchedulerState {
    pub fn new() -> Self {
        Self::default()
    }

    fn busy_until(&self, group: usize) -> f64 {
        self.busy
            .iter()
            .find(|&&(g, _)| g == group)
            .map_or(0.0, |&(_, until)| until)
    }

    fn set_busy(&mut self, group: usize, until_s: f64) {
        match self.busy.iter_mut().find(|(g, _)| *g == group) {
            Some(entry) => entry.1 = until_s,
            None => self.busy.push((group, until_s)),
        }
    }

    /// Drops in-flight edge state after a membership transition: busy
    /// entries and parked stale uploads are keyed by group indices that
    /// may now name a different member set, so results in flight are
    /// dropped rather than misattributed. The clock keeps running.
    pub(crate) fn reset_in_flight(&mut self) {
        self.busy.clear();
        self.pending.clear();
    }
}

/// Per-round emulated-clock accounting of a semi-async run. This is the
/// runtime's own report — deliberately *not* part of [`RunHistory`], so
/// the degenerate-limit bit-identity of histories is never at stake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AsyncRoundRecord {
    /// Global round index `t`.
    pub round: usize,
    /// Absolute emulated close time of the round, seconds.
    pub clock_s: f64,
    /// Groups dispatched and trained this round.
    pub trained: usize,
    /// Fresh (on-time) results admitted at the close.
    pub admitted: usize,
    /// Parked stale results folded in this round (weighted policy).
    pub stale_admitted: usize,
    /// Stale results discarded this round (drop policy).
    pub stale_dropped: usize,
    /// Sampled groups skipped because their edge was still busy.
    pub busy_skipped: usize,
    /// Member reports cut at group-round closes this round.
    pub cut_reports: usize,
}

/// The emulated-time trajectory of a semi-async run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncReport {
    pub rounds: Vec<AsyncRoundRecord>,
}

impl AsyncReport {
    /// The emulated clock at the end of the run, seconds.
    pub fn final_clock_s(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.clock_s)
    }

    /// Total member reports cut across the run.
    pub fn total_cut_reports(&self) -> usize {
        self.rounds.iter().map(|r| r.cut_reports).sum()
    }

    /// CSV rows (`round,clock_s,trained,admitted,stale_admitted,
    /// stale_dropped,busy_skipped,cut_reports`) with a header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,clock_s,trained,admitted,stale_admitted,stale_dropped,busy_skipped,cut_reports\n",
        );
        for r in &self.rounds {
            out.push_str(&format!(
                "{},{:.4},{},{},{},{},{},{}\n",
                r.round,
                r.clock_s,
                r.trained,
                r.admitted,
                r.stale_admitted,
                r.stale_dropped,
                r.busy_skipped,
                r.cut_reports
            ));
        }
        out
    }
}

/// The timing models of the run: the fault oracle plus the cost/comm
/// tables, either borrowed from the trainer's [`Trainer::with_faults`]
/// state or defaulted to the degenerate lockstep limit.
pub(crate) struct TimingCtx {
    injector: FaultInjector,
    policy: FaultPolicy,
    comm: CommModel,
    cost: CostModel,
}

/// One group's fully-resolved round in the time domain: when each of its
/// `K` group rounds closed, who got cut, and when (or whether) the final
/// upload reached the cloud.
struct GroupTimeline {
    /// Per-`k` straggler cuts, ready for the compute pass.
    cuts: GroupCuts,
    /// Per-`k` `(close_s_rel, reported, cut)` — close time relative to
    /// the group's dispatch.
    closes: Vec<(f64, usize, usize)>,
    /// Edge→cloud retry accounting of the final upload.
    upload: RetryOutcome,
    /// Seconds from dispatch until the upload lands at the cloud — or,
    /// for a lost upload, until the loss is known.
    arrival_rel_s: f64,
    /// Nominal (fault-free) duration estimate, for the cloud deadline.
    nominal_rel_s: f64,
}

impl Trainer {
    pub(crate) fn timing_ctx(&self) -> TimingCtx {
        match &self.faults {
            Some(fs) => TimingCtx {
                injector: fs.injector.clone(),
                policy: fs.policy,
                comm: fs.comm,
                cost: fs.cost,
            },
            // No fault state attached: run in the degenerate lockstep
            // limit (wait for every report, never cut) so a plain
            // semi-async run stays bit-identical to the sync engine.
            None => TimingCtx {
                injector: FaultInjector::new(FaultPlan::none()),
                policy: FaultPolicy {
                    quorum_fraction: 1.0,
                    deadline_factor: 0.0,
                    ..FaultPolicy::default()
                },
                comm: CommModel::edge_default(),
                cost: CostModel::for_task(self.config.task),
            },
        }
    }

    /// Resolves one dispatched group in the time domain. Pure arithmetic:
    /// nothing here consumes an RNG stream or touches model state.
    fn group_timeline(
        &self,
        tc: &TimingCtx,
        t: usize,
        gi: usize,
        members: &[usize],
        param_len: usize,
    ) -> GroupTimeline {
        let cfg = &self.config;
        let m = members.len();
        let e = cfg.local_rounds as f64;
        let transfer = 2.0
            * tc.comm
                .client_edge
                .transfer_time(CommModel::model_bytes(param_len));
        let nominal_slowest = members
            .iter()
            .map(|&c| tc.cost.training(self.data.client_size(c)) * e + transfer)
            .fold(0.0f64, f64::max);
        let deadline_rel =
            if tc.policy.deadline_factor > 0.0 && tc.policy.deadline_factor.is_finite() {
                tc.policy.deadline_factor * nominal_slowest
            } else {
                f64::INFINITY
            };
        let required = ((tc.policy.quorum_fraction * m as f64).ceil() as usize).clamp(1, m);

        let mut cuts = GroupCuts {
            by_round: Vec::with_capacity(cfg.group_rounds),
        };
        let mut closes = Vec::with_capacity(cfg.group_rounds);
        let mut start = 0.0f64;
        for k in 0..cfg.group_rounds {
            // Every member's report (or crash-detection) time this `k`.
            let reports: Vec<(f64, f64, bool)> = members
                .iter()
                .map(|&c| {
                    let slowdown = tc.injector.slowdown(t, k, c);
                    let elapsed =
                        tc.cost.training(self.data.client_size(c)) * e * slowdown + transfer;
                    (start + elapsed, slowdown, tc.injector.crashes(t, k, c))
                })
                .collect();
            let deadline_abs = start + deadline_rel;
            let mut q = EventQueue::new();
            for (mi, (&c, &(time, _, _))) in members.iter().zip(reports.iter()).enumerate() {
                q.push(time, EventId::new(t, gi, c), mi);
            }
            // Walk the queue to the close: the first of quorum filled,
            // every report accounted for, or the deadline.
            let mut close = deadline_abs;
            let mut delivered = 0usize;
            let mut seen = 0usize;
            while let Some(ev) = q.pop() {
                if ev.time > deadline_abs {
                    break; // deadline fires before this report lands
                }
                seen += 1;
                if !reports[ev.payload].2 {
                    delivered += 1;
                }
                if delivered >= required {
                    // Reports landing at the exact close instant still
                    // make it: the cut rule below is strictly `> close`.
                    close = ev.time;
                    break;
                }
                if seen == m {
                    close = ev.time; // all deliverable reports accounted
                    break;
                }
            }
            let cut_k: Vec<(usize, f64)> = reports
                .iter()
                .enumerate()
                .filter(|(_, &(time, _, crashed))| !crashed && time > close)
                .map(|(mi, &(_, slowdown, _))| (mi, slowdown))
                .collect();
            let reported = reports
                .iter()
                .filter(|&&(time, _, crashed)| !crashed && time <= close)
                .count();
            closes.push((close, reported, cut_k.len()));
            cuts.by_round.push(cut_k);
            start = close;
        }

        let failures = tc.injector.upload_failures(t, gi, tc.policy.max_retries);
        let payload = tc.comm.group_cloud_bytes(param_len);
        let upload = tc.comm.upload_with_retries(
            payload,
            failures,
            tc.policy.max_retries,
            tc.policy.backoff_base_s,
            tc.policy.max_backoff_s,
        );
        let arrival_rel_s = start + upload.seconds;
        let nominal_rel_s =
            cfg.group_rounds as f64 * nominal_slowest + tc.comm.edge_cloud.transfer_time(payload);
        GroupTimeline {
            cuts,
            closes,
            upload,
            arrival_rel_s,
            nominal_rel_s,
        }
    }

    /// One semi-async global round: sample, resolve timings, train with
    /// the precomputed cuts, charge Eq. 5, admit arrivals at the cloud
    /// close, aggregate (fresh + matured stale), and evaluate on the
    /// lockstep cadence. Returns `true` when the cost budget is exhausted.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn semi_async_round<S: LocalUpdate>(
        &self,
        t: usize,
        groups: &[Group],
        probs: &[Scalar],
        strategy: &S,
        acfg: &AsyncConfig,
        tc: &TimingCtx,
        params: &mut Params,
        ledger: &mut CostLedger,
        history: &mut RunHistory,
        sched: &mut SchedulerState,
        report: &mut AsyncReport,
        last: bool,
    ) -> bool {
        let cfg = &self.config;
        let total_samples = self.data.total_samples();
        let obs = self.obs.as_deref();
        let round_start = obs.map(|o| o.now_ns());
        let bytes_before = (ledger.client_edge_bytes(), ledger.edge_cloud_bytes());
        let dispatch = sched.clock_s;
        let lr = cfg.lr.at(t);
        // The lockstep engine's sampling stream, so the degenerate limit
        // draws the same groups.
        let sampled = self.sample_groups(t, probs);

        let mut round_events: Vec<FaultEvent> = Vec::new();
        let mut timed: Vec<TimedEvent> = Vec::new();
        let mut busy_skipped = 0usize;
        let mut active = self.reachable(t, groups, &sampled, &mut round_events);
        active.retain(|&gi| {
            let busy_until = sched.busy_until(gi);
            if busy_until > dispatch {
                timed.push(TimedEvent::GroupBusySkipped {
                    round: t,
                    group: gi,
                    busy_until_s: busy_until,
                });
                busy_skipped += 1;
                false
            } else {
                true
            }
        });

        // Timing pass: resolve every dispatched group in emulated time.
        let timelines: Vec<GroupTimeline> = active
            .iter()
            .map(|&gi| self.group_timeline(tc, t, gi, &groups[gi], params.len()))
            .collect();
        let mut cut_reports = 0usize;
        for (tl, &gi) in timelines.iter().zip(active.iter()) {
            for (k, &(close_rel, reported, cut)) in tl.closes.iter().enumerate() {
                if cut > 0 {
                    cut_reports += cut;
                    timed.push(TimedEvent::GroupRoundClosed {
                        round: t,
                        group: gi,
                        group_round: k,
                        close_s: dispatch + close_rel,
                        reported,
                        cut,
                    });
                }
            }
        }

        // Compute pass: the lockstep parallel trainer, fed the cut sets.
        let cuts: Vec<GroupCuts> = timelines.iter().map(|tl| tl.cuts.clone()).collect();
        let group_refs: Vec<(usize, &[usize])> = active
            .iter()
            .map(|&gi| (gi, groups[gi].as_slice()))
            .collect();
        let outcomes = self.train_groups(params, &group_refs, strategy, t, lr, Some(&cuts));
        let train_end = obs.map(|o| {
            end_span(
                o,
                SpanKind::Train,
                round_start.unwrap(),
                SpanAttrs::round(t),
            )
        });

        self.charge_round(&outcomes, strategy, params.len(), ledger);

        // Arrival resolution: corrupt results are rejected, lost uploads
        // never land, everything else gets an arrival time. The edge stays
        // busy until its upload resolves either way.
        let mut arrival_of: Vec<Option<f64>> = vec![None; outcomes.len()];
        let mut round_attacks = Vec::new();
        let mut expected_end = dispatch;
        for (i, (o, tl)) in outcomes.iter().zip(timelines.iter()).enumerate() {
            round_events.extend(o.events.iter().cloned());
            round_attacks.extend(o.attacks.iter().cloned());
            // The upload put bytes on the edge↔cloud wire no matter how it
            // resolves — rejected and lost results still transmitted.
            ledger.charge_edge_cloud_bytes(tl.upload.bytes);
            let resolved = dispatch + tl.arrival_rel_s;
            sched.set_busy(o.group, resolved);
            expected_end = expected_end.max(resolved);
            if self.faults.as_ref().is_some_and(|fs| {
                fs.policy.reject_non_finite && !gfl_defense::is_update_finite(&o.params)
            }) {
                round_events.push(FaultEvent::CorruptGroupRejected {
                    round: t,
                    group: o.group,
                });
                continue;
            }
            if tl.upload.attempts > 1 {
                round_events.push(FaultEvent::UploadRetry {
                    round: t,
                    group: o.group,
                    attempts: tl.upload.attempts,
                    extra_seconds: tl.upload.seconds,
                    extra_bytes: tl.upload.bytes,
                });
            }
            if !tl.upload.delivered {
                round_events.push(FaultEvent::UploadLost {
                    round: t,
                    group: o.group,
                });
                continue;
            }
            arrival_of[i] = Some(resolved);
        }

        // The cloud close: wait for every dispatched result, unless its
        // own deadline (scaled off the slowest *nominal* group) fires
        // first and strands the rest as stale.
        let close = if acfg.cloud_deadline_enabled() {
            let nominal = timelines
                .iter()
                .map(|tl| tl.nominal_rel_s)
                .fold(0.0f64, f64::max);
            expected_end.min(dispatch + acfg.cloud_deadline_factor * nominal)
        } else {
            expected_end
        };
        // If every sampled group sat the round out (busy, dark, or empty),
        // nothing was dispatched and `close == dispatch` — the cloud
        // sleeps to the next upload resolution instead of freezing the
        // emulated clock, so parked stale results can still mature.
        let close = if active.is_empty() {
            let next = sched
                .busy
                .iter()
                .map(|&(_, until)| until)
                .filter(|&until| until > dispatch)
                .fold(f64::INFINITY, f64::min);
            if next.is_finite() {
                next
            } else {
                close
            }
        } else {
            close
        };

        // Admission: fresh results in sampled order, then matured stale
        // results in parking order — both deterministic.
        let mut fresh: Vec<&GroupOutcome> = Vec::new();
        let mut stale_dropped = 0usize;
        let mut late = 0usize;
        for (i, o) in outcomes.iter().enumerate() {
            let Some(arrival) = arrival_of[i] else {
                continue;
            };
            if arrival <= close {
                fresh.push(o);
            } else {
                late += 1;
                match acfg.staleness {
                    StalenessPolicy::DropStale => {
                        stale_dropped += 1;
                        timed.push(TimedEvent::StaleArrival {
                            round: t,
                            group: o.group,
                            dispatch_round: t,
                            arrival_s: arrival,
                            admitted: false,
                        });
                    }
                    StalenessPolicy::Weighted { .. } => {
                        sched.pending.push(PendingUpload {
                            group: o.group,
                            dispatch_round: t,
                            arrival_s: arrival,
                            samples: o.samples,
                            prob: probs[o.group],
                            uploads: o.uploads,
                            members: o.members.clone(),
                            params: o.params.clone(),
                        });
                    }
                }
            }
        }
        if late > 0 {
            timed.push(TimedEvent::CloudRoundClosed {
                round: t,
                close_s: close,
                admitted: fresh.len(),
                late,
            });
        }
        let mut matured: Vec<PendingUpload> = Vec::new();
        sched.pending.retain(|p| {
            if p.arrival_s <= close && p.dispatch_round < t {
                matured.push(p.clone());
                false
            } else {
                true
            }
        });
        for p in &matured {
            timed.push(TimedEvent::StaleArrival {
                round: t,
                group: p.group,
                dispatch_round: p.dispatch_round,
                arrival_s: p.arrival_s,
                admitted: true,
            });
        }

        // Line 15, semi-async flavor: aggregate fresh + matured results,
        // damping matured weights by staleness, holding the round when no
        // surviving update reached the cloud at all.
        let no_update =
            fresh.iter().all(|o| o.uploads == 0) && matured.iter().all(|p| p.uploads == 0);
        if no_update {
            round_events.push(FaultEvent::RoundHeld { round: t });
        } else {
            let mut sizes: Vec<usize> = fresh.iter().map(|o| o.samples).collect();
            sizes.extend(matured.iter().map(|p| p.samples));
            let mut sampled_probs: Vec<Scalar> = fresh.iter().map(|o| probs[o.group]).collect();
            sampled_probs.extend(matured.iter().map(|p| p.prob));
            let mut weights =
                aggregation_weights(cfg.weighting, &sizes, &sampled_probs, total_samples);
            if !matured.is_empty() {
                if let StalenessPolicy::Weighted { decay } = acfg.staleness {
                    // Damp matured weights by (1+s)^-decay, then rescale so
                    // the total mass aggregation_weights assigned is
                    // preserved — the update never shrinks toward zero.
                    let before: Scalar = weights.iter().sum();
                    for (j, p) in matured.iter().enumerate() {
                        let staleness = (t - p.dispatch_round) as f64;
                        weights[fresh.len() + j] *= (1.0 + staleness).powf(-decay) as Scalar;
                    }
                    let after: Scalar = weights.iter().sum();
                    if after > 0.0 {
                        let scale = before / after;
                        for w in weights.iter_mut() {
                            *w *= scale;
                        }
                    }
                }
            }
            let mut views: Vec<&[Scalar]> = fresh.iter().map(|o| o.params.as_slice()).collect();
            views.extend(matured.iter().map(|p| p.params.as_slice()));
            ops::weighted_sum_into(&views, &weights, params);
        }

        let mut participants: Vec<usize> = fresh
            .iter()
            .flat_map(|o| o.members.iter().copied())
            .collect();
        participants.extend(matured.iter().flat_map(|p| p.members.iter().copied()));
        strategy.end_global_round(&participants);

        let agg_end = obs.map(|o| {
            end_span(
                o,
                SpanKind::Aggregate,
                train_end.unwrap(),
                SpanAttrs::round(t),
            )
        });

        let train_loss =
            outcomes.iter().map(|o| o.train_loss).sum::<Scalar>() / outcomes.len().max(1) as Scalar;

        let fault_events = round_events.len() as u64;
        history.record_faults(round_events);
        history.record_attacks(round_attacks);
        let stale_admitted = matured.len();
        let admitted = fresh.len();
        let trained = outcomes.len();
        history.record_timed(timed);

        let over_budget = cfg.cost_budget.is_some_and(|b| ledger.total() >= b);
        let (eval_ns, _) = self.evaluate_round(
            t,
            last || over_budget,
            params,
            train_loss,
            ledger.total(),
            history,
        );

        // Advance the emulated clock to the close; the next round
        // dispatches from here.
        sched.clock_s = close;
        report.rounds.push(AsyncRoundRecord {
            round: t,
            clock_s: close,
            trained,
            admitted,
            stale_admitted,
            stale_dropped,
            busy_skipped,
            cut_reports,
        });

        if let Some(ob) = obs {
            let start = round_start.unwrap();
            let m = self.close_round(
                ob,
                start,
                RoundMetrics {
                    train_ns: train_end.unwrap().saturating_sub(start),
                    aggregate_ns: agg_end.unwrap().saturating_sub(train_end.unwrap()),
                    eval_ns,
                    fault_events,
                    ..RoundMetrics::empty(t)
                },
                &outcomes,
                ledger,
                bytes_before,
            );
            // Semi-async telemetry only exists on semi-async runs, so
            // lockstep traces stay byte-identical to pre-async ones.
            m.gauge("async.clock_s").set(close);
            m.counter("async.cut_reports").add(cut_reports as u64);
            m.counter("async.busy_skips").add(busy_skipped as u64);
            m.counter("async.stale.admitted").add(stale_admitted as u64);
            m.counter("async.stale.dropped").add(stale_dropped as u64);
        }

        over_budget
    }
}
