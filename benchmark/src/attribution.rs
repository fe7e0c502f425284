//! Splits a traced run's wall time into the engine's own spans (`round`,
//! `train`, `group_round`, `client_step`, `aggregate`, `comm`, `eval`)
//! and the gaps no span covers.

use std::collections::BTreeMap;

use gfl_obs::{SpanKind, SpanRecord, Trace};

/// Where the wall time of one traced run went, in seconds.
///
/// The parts below partition the run's wall time exactly:
/// `client_step_wall + group_round_self + train_self + aggregate + comm +
/// eval + round_self + between_rounds = run`.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Wall time of the run call, measured by the benchmark.
    pub run_s: f64,
    pub rounds: usize,
    pub round_s: f64,
    /// Time inside group rounds during which at least one client step ran.
    pub client_step_wall_s: f64,
    /// Summed client-step durations across workers.
    pub client_step_busy_s: f64,
    pub client_step_count: usize,
    pub client_step_p50_ms: f64,
    /// Group-round time with no client step running: SecAgg, the FLAME
    /// filter, group aggregation and unit set-up.
    pub group_round_self_s: f64,
    /// Train-phase time outside group rounds: sampling, outage filtering
    /// and the semi-async timing pass.
    pub train_self_s: f64,
    pub aggregate_s: f64,
    pub comm_s: f64,
    pub eval_s: f64,
    pub eval_count: usize,
    /// Round time outside the four phase spans.
    pub round_self_s: f64,
    /// Run wall time outside every round span.
    pub between_rounds_s: f64,
    /// Distinct (round, group round, group) triples with a client step:
    /// the group aggregations the run performed.
    pub group_rounds_trained: usize,
    /// Mean size of the groups that trained, per round (clients with a
    /// client step in group round 0; 0 for a round no group trained in).
    pub sampled_group_size: Vec<f64>,
    /// Mean size of a trained group over the whole run.
    pub mean_sampled_group_size: f64,
}

impl Attribution {
    /// Share of the run that no span below the run explains: time between
    /// rounds plus round time outside its phase spans.
    pub fn unexplained_frac(&self) -> f64 {
        if self.run_s > 0.0 {
            (self.between_rounds_s + self.round_self_s) / self.run_s
        } else {
            0.0
        }
    }

    /// The exact split of the run's wall time, largest part first.
    pub fn parts(&self) -> Vec<(&'static str, f64)> {
        let mut parts = vec![
            ("client_step (wall covered)", self.client_step_wall_s),
            ("group_round self", self.group_round_self_s),
            ("train self", self.train_self_s),
            ("aggregate", self.aggregate_s),
            ("comm", self.comm_s),
            ("eval", self.eval_s),
            ("round self (no span)", self.round_self_s),
            ("between rounds (no span)", self.between_rounds_s),
        ];
        parts.sort_by(|a, b| b.1.total_cmp(&a.1));
        parts
    }
}

fn total_s(spans: &[&SpanRecord]) -> f64 {
    spans.iter().map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9
}

/// Length of the union of the spans' intervals, in seconds.
fn union_s(spans: &[&SpanRecord]) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in iv {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered as f64 / 1e9
}

/// Attributes the run that spanned `run_ns` on the collector's clock.
pub fn attribute(trace: &Trace, run_ns: (u64, u64)) -> Attribution {
    let of = |kind: SpanKind| -> Vec<&SpanRecord> {
        trace.spans.iter().filter(|s| s.kind == kind).collect()
    };
    let rounds = of(SpanKind::Round);
    let train = of(SpanKind::Train);
    let group_rounds = of(SpanKind::GroupRound);
    let steps = of(SpanKind::ClientStep);
    let aggregate = of(SpanKind::Aggregate);
    let comm = of(SpanKind::Comm);
    let eval = of(SpanKind::Eval);

    let run_s = run_ns.1.saturating_sub(run_ns.0) as f64 / 1e9;
    let round_s = total_s(&rounds);
    let train_s = total_s(&train);
    let group_round_s = total_s(&group_rounds);
    let client_step_wall_s = union_s(&steps);
    let aggregate_s = total_s(&aggregate);
    let comm_s = total_s(&comm);
    let eval_s = total_s(&eval);

    let mut step_ns: Vec<u64> = steps.iter().map(|s| s.dur_ns).collect();
    step_ns.sort_unstable();
    let client_step_p50_ms = step_ns
        .get(step_ns.len() / 2)
        .map_or(0.0, |&ns| ns as f64 / 1e6);

    let mut triples: Vec<(Option<u64>, Option<u64>, Option<u64>)> = steps
        .iter()
        .map(|s| (s.round, s.group_round, s.group))
        .collect();
    triples.sort_unstable();
    triples.dedup();

    // Group sizes as trained: distinct clients per (round, group) in the
    // first group round.
    let mut members: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for s in steps.iter().filter(|s| s.group_round == Some(0)) {
        if let (Some(t), Some(g)) = (s.round, s.group) {
            *members.entry((t, g)).or_default() += 1;
        }
    }
    let mut per_round = vec![(0usize, 0usize); rounds.len()];
    for (&(t, _), &n) in &members {
        if let Some(e) = per_round.get_mut(t as usize) {
            e.0 += n;
            e.1 += 1;
        }
    }
    let sampled_group_size = per_round
        .iter()
        .map(|&(clients, groups)| clients as f64 / groups.max(1) as f64)
        .collect();
    let mean_sampled_group_size =
        members.values().sum::<usize>() as f64 / members.len().max(1) as f64;

    Attribution {
        run_s,
        rounds: rounds.len(),
        round_s,
        client_step_wall_s,
        client_step_busy_s: total_s(&steps),
        client_step_count: steps.len(),
        client_step_p50_ms,
        group_round_self_s: group_round_s - client_step_wall_s,
        train_self_s: train_s - group_round_s,
        aggregate_s,
        comm_s,
        eval_s,
        eval_count: eval.len(),
        round_self_s: round_s - (train_s + aggregate_s + comm_s + eval_s),
        between_rounds_s: run_s - round_s,
        group_rounds_trained: triples.len(),
        sampled_group_size,
        mean_sampled_group_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfl_obs::{RoundMetrics, SpanAttrs, TraceCollector};

    #[test]
    fn parts_partition_the_run() {
        let c = TraceCollector::new();
        let span = |kind, start, end, attrs| c.record_span_at(kind, start, end, attrs);
        span(SpanKind::Round, 10, 100, SpanAttrs::round(0));
        span(SpanKind::Train, 10, 80, SpanAttrs::round(0));
        span(SpanKind::GroupRound, 12, 78, SpanAttrs::group_round(0, 0));
        // Two overlapping steps and one disjoint one.
        span(
            SpanKind::ClientStep,
            12,
            40,
            SpanAttrs::client_step(0, 0, 1, 5),
        );
        span(
            SpanKind::ClientStep,
            20,
            50,
            SpanAttrs::client_step(0, 0, 1, 6),
        );
        span(
            SpanKind::ClientStep,
            60,
            70,
            SpanAttrs::client_step(0, 0, 2, 7),
        );
        span(SpanKind::Aggregate, 80, 90, SpanAttrs::round(0));
        span(SpanKind::Eval, 90, 99, SpanAttrs::round(0));
        c.record_round(RoundMetrics::empty(0));
        let a = attribute(&c.finish(1), (0, 120));
        let ns = |s: f64| (s * 1e9).round() as i64;
        assert_eq!(ns(a.client_step_wall_s), 48);
        assert_eq!(ns(a.client_step_busy_s), 68);
        assert_eq!(ns(a.group_round_self_s), 66 - 48);
        assert_eq!(ns(a.between_rounds_s), 30);
        assert_eq!(ns(a.round_self_s), 1);
        let sum: f64 = a.parts().iter().map(|p| p.1).sum();
        assert_eq!(ns(sum), 120);
        assert_eq!(a.sampled_group_size, vec![1.5]);
        assert_eq!(a.group_rounds_trained, 2);
    }
}
