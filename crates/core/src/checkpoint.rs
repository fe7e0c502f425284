//! Checkpointing: persist and resume a training session.
//!
//! A checkpoint is a [`RunState`] plus the configuration it ran under.
//! Save one after any global round, and a new process resumes from the
//! file alone: build the same trainer, take the state from
//! [`Checkpoint::into_state`], and [`crate::engine::Trainer::advance`] it
//! with the same [`crate::driver::RunSpec`]. The resumed run matches the
//! uninterrupted one bit for bit — on either runtime, over fixed or
//! healing groups — since everything else in the engine is a pure function
//! of `(seed, round)`.

use std::path::Path;

use gfl_nn::Params;
use gfl_sim::CostLedger;
use serde::{Deserialize, Serialize};

use crate::driver::RunState;
use crate::engine::GroupFelConfig;
use crate::history::RunHistory;
use crate::membership::MembershipState;
use crate::semi_async::{AsyncReport, SchedulerState};

/// A resumable training snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The global model `x_t`.
    pub params: Params,
    /// Next global round to run (rounds `0..round` are complete).
    pub round: usize,
    /// Evaluation trajectory so far.
    pub history: RunHistory,
    /// The configuration the run was started with.
    pub config: GroupFelConfig,
    /// Cumulative emulated cost so far (Eq. 5).
    pub cost_so_far: f64,
    /// The run's membership (partition, activity mask, group health,
    /// sampling probabilities). The `Option` fields below keep checkpoints
    /// written before each field existed loadable without a version bump;
    /// a checkpoint missing any of them cannot resume.
    pub membership: Option<MembershipState>,
    /// Semi-async scheduler state (emulated clock, busy edges, parked
    /// stale uploads); idle for lockstep runs.
    pub scheduler: Option<SchedulerState>,
    /// The cost ledger: breakdown, per-round totals and bytes moved.
    pub ledger: Option<CostLedger>,
    /// Semi-async emulated-time report; empty for lockstep runs.
    pub report: Option<AsyncReport>,
}

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    Io(std::io::Error),
    Format(serde_json::Error),
    /// Found version, supported version.
    Version(u32, u32),
    /// The checkpoint predates this run-state field, so it cannot resume.
    Missing(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::Format(e) => write!(f, "format error: {e}"),
            CheckpointError::Version(found, want) => {
                write!(f, "checkpoint version {found}, supported {want}")
            }
            CheckpointError::Missing(field) => {
                write!(f, "checkpoint has no {field}: it cannot resume a run")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Snapshots `state`, a run under `config`.
    pub fn new(state: &RunState, config: GroupFelConfig) -> Self {
        let state = state.clone();
        Self {
            version: CHECKPOINT_VERSION,
            params: state.params,
            round: state.round,
            history: state.history,
            config,
            cost_so_far: state.ledger.total(),
            membership: Some(state.membership),
            scheduler: Some(state.scheduler),
            ledger: Some(state.ledger),
            report: Some(state.report),
        }
    }

    /// The run state to resume from.
    pub fn into_state(self) -> Result<RunState, CheckpointError> {
        let missing = CheckpointError::Missing;
        Ok(RunState {
            round: self.round,
            params: self.params,
            ledger: self.ledger.ok_or(missing("ledger"))?,
            history: self.history,
            membership: self.membership.ok_or(missing("membership"))?,
            scheduler: self.scheduler.ok_or(missing("scheduler"))?,
            report: self.report.ok_or(missing("report"))?,
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses from JSON, validating the version.
    pub fn from_json(json: &str) -> Result<Self, CheckpointError> {
        let cp: Checkpoint = serde_json::from_str(json).map_err(CheckpointError::Format)?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(cp.version, CHECKPOINT_VERSION));
        }
        Ok(cp)
    }

    /// Writes the checkpoint to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        std::fs::write(path, self.to_json()).map_err(CheckpointError::Io)
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let json = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RoundRecord;

    fn sample() -> Checkpoint {
        let mut history = RunHistory::default();
        history.push(RoundRecord {
            round: 0,
            cost: 12.5,
            accuracy: 0.4,
            loss: 1.2,
            train_loss: 1.5,
        });
        // Only the fields every checkpoint version has.
        Checkpoint {
            version: CHECKPOINT_VERSION,
            params: vec![0.25, -1.5, 3.0],
            round: 1,
            history,
            config: GroupFelConfig::tiny(),
            cost_so_far: 12.5,
            membership: None,
            scheduler: None,
            ledger: None,
            report: None,
        }
    }

    #[test]
    fn json_roundtrip() {
        let cp = sample();
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back.params, cp.params);
        assert_eq!(back.round, 1);
        assert_eq!(back.history.records().len(), 1);
        assert_eq!(back.cost_so_far, 12.5);
        assert_eq!(back.config.global_rounds, cp.config.global_rounds);
    }

    #[test]
    fn file_roundtrip() {
        let cp = sample();
        // Unique per-process path: `cargo test` runs suites in parallel,
        // and a shared fixed name races between them.
        let path = std::env::temp_dir().join(format!(
            "gfl_checkpoint_test_{}_{:p}.json",
            std::process::id(),
            &cp
        ));
        cp.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.params, cp.params);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_checkpoint_without_membership_field_loads() {
        // A checkpoint serialized before the self-healing work has no
        // `membership` key; it must still parse at the same version.
        let json = sample().to_json();
        assert!(json.contains("\"membership\""));
        let legacy = json.replace(",\n  \"membership\": null", "");
        assert!(!legacy.contains("membership"), "{legacy}");
        let back = Checkpoint::from_json(&legacy).unwrap();
        assert!(back.membership.is_none());
    }

    #[test]
    fn legacy_checkpoint_without_scheduler_field_loads() {
        // A checkpoint serialized before the semi-async runtime has no
        // `scheduler` key; it must still parse at the same version.
        let json = sample().to_json();
        assert!(json.contains("\"scheduler\""));
        let legacy = json.replace(",\n  \"scheduler\": null", "");
        assert!(!legacy.contains("scheduler"), "{legacy}");
        let back = Checkpoint::from_json(&legacy).unwrap();
        assert!(back.scheduler.is_none());
    }

    #[test]
    fn scheduler_state_roundtrips_exactly() {
        use crate::semi_async::PendingUpload;
        let sched = SchedulerState {
            clock_s: 1_234.562_500_001,
            busy: vec![(3, 1300.25), (0, 1250.125)],
            pending: vec![PendingUpload {
                group: 3,
                dispatch_round: 7,
                arrival_s: 1300.25,
                samples: 42,
                prob: 0.125,
                uploads: 9,
                members: vec![1, 4, 6],
                params: vec![0.5, -1.25, 3.75],
            }],
        };
        let cp = Checkpoint {
            scheduler: Some(sched.clone()),
            ..sample()
        };
        let back = Checkpoint::from_json(&cp.to_json()).unwrap();
        // Exact equality, including every f64: resume bit-identity hangs
        // on the JSON float round-trip being lossless.
        assert_eq!(back.scheduler, Some(sched));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut cp = sample();
        cp.version = 999;
        let json = serde_json::to_string(&cp).unwrap();
        assert!(matches!(
            Checkpoint::from_json(&json).unwrap_err(),
            CheckpointError::Version(999, CHECKPOINT_VERSION)
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            Checkpoint::from_json("not json").unwrap_err(),
            CheckpointError::Format(_)
        ));
    }

    #[test]
    fn checkpoint_without_a_ledger_cannot_resume() {
        assert!(matches!(
            sample().into_state().unwrap_err(),
            CheckpointError::Missing("ledger")
        ));
    }

    #[test]
    fn checkpointed_session_resumes_equivalently() {
        // Run 6 rounds straight vs 3 rounds → checkpoint → a fresh trainer
        // restores every piece of state from the JSON alone → 3 more: the
        // resumed run must match the straight one bit for bit.
        use crate::driver::{RunSpec, Runtime};
        use crate::engine::{form_groups_per_edge, Trainer};
        use crate::grouping::CovGrouping;
        use crate::local::FedAvg;
        use crate::sampling::SamplingStrategy;
        use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
        use gfl_sim::Topology;

        let mut cfg = GroupFelConfig::tiny();
        cfg.global_rounds = 6;
        cfg.seed = 77;
        let make = || {
            let data = SyntheticSpec::tiny().generate(500, 77);
            let (train, test) = data.split_holdout(5);
            let partition = ClientPartition::dirichlet(&train, &PartitionSpec::tiny(0.5, 77));
            Trainer::new(cfg.clone(), gfl_nn::zoo::tiny(4, 3), train, partition, test)
        };
        let trainer = make();
        let topology = Topology::even_split(2, trainer.partition().sizes());
        let groups = form_groups_per_edge(
            &CovGrouping {
                min_group_size: 2,
                max_cov: 1.0,
            },
            &topology,
            &trainer.partition().label_matrix,
            77,
        );
        let spec = RunSpec::new(Runtime::Lockstep, SamplingStrategy::Random);
        let fresh = || trainer.start(&FedAvg, trainer.frozen_membership(&groups, spec.sampling));

        let mut straight = fresh();
        trainer.advance(&spec, &mut straight, &FedAvg, 6).unwrap();

        let mut half = fresh();
        trainer.advance(&spec, &mut half, &FedAvg, 3).unwrap();
        let json = Checkpoint::new(&half, cfg.clone()).to_json();
        drop((trainer, half));

        let restarted = make();
        let mut resumed = Checkpoint::from_json(&json).unwrap().into_state().unwrap();
        assert_eq!(resumed.round, 3);
        restarted.advance(&spec, &mut resumed, &FedAvg, 3).unwrap();
        assert_eq!(resumed.params, straight.params);
        assert_eq!(resumed.ledger.total(), straight.ledger.total());
        assert_eq!(
            resumed.ledger.round_totals(),
            straight.ledger.round_totals()
        );
        assert_eq!(resumed.membership, straight.membership);
        // `tiny()` evaluates every round, so the split adds no record.
        assert_eq!(resumed.history, straight.history);
    }
}
