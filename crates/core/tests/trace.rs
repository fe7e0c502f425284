//! End-to-end trace acceptance: a traced paper-shaped run must emit a
//! JSONL trace that (a) round-trips through [`gfl_obs::TraceReader`]
//! byte-faithfully and (b) accounts ≥ 95% of every round's wall-clock time
//! across the four disjoint phase spans (train / aggregate / comm / eval).

use gfl_core::prelude::*;
use gfl_data::{ClientPartition, PartitionSpec, SyntheticSpec};
use gfl_obs::{SpanKind, TraceCollector, TraceReader};
use gfl_sim::Topology;

/// A paper_vision-shaped federation (§7.2: K=5, E=2, batch 32, vision
/// model, CoV grouping, stabilized weighting), scaled down from 60 to 24
/// clients and 3 global rounds so the test stays fast in debug builds.
fn paper_shaped() -> (Trainer, Vec<Group>, usize) {
    let data = SyntheticSpec::vision_like().generate(1_200, 1);
    let (train, test) = data.split_holdout(6);
    let partition = ClientPartition::dirichlet(
        &train,
        &PartitionSpec {
            num_clients: 24,
            alpha: 0.1,
            min_size: 10,
            max_size: 80,
            seed: 1,
        },
    );
    let topology = Topology::even_split(3, partition.sizes());
    let groups = form_groups_per_edge(
        &CovGrouping {
            min_group_size: 3,
            max_cov: 0.5,
        },
        &topology,
        &partition.label_matrix,
        1,
    );
    let mut config = GroupFelConfig::paper_vision();
    config.global_rounds = 3;
    config.sampled_groups = config.sampled_groups.min(groups.len());
    config.eval_every = 1;
    config.cost_budget = None;
    config.seed = 1;
    let rounds = config.global_rounds;
    (
        Trainer::new(config, gfl_nn::zoo::vision_model(), train, partition, test),
        groups,
        rounds,
    )
}

#[test]
fn paper_shaped_trace_round_trips_and_covers_rounds() {
    let (trainer, groups, rounds) = paper_shaped();
    let obs = TraceCollector::new();
    let trainer = trainer.with_observer(std::sync::Arc::clone(&obs));
    let history = trainer
        .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
        .0;
    assert_eq!(history.records().len(), rounds);
    let trace = obs.finish(1);

    // --- File round-trip: save JSONL, read it back, compare faithfully.
    let path = std::env::temp_dir().join(format!("gfl_trace_test_{}.jsonl", std::process::id()));
    trace.save(&path).expect("write trace");
    let back = TraceReader::read(&path).expect("trace must parse");
    std::fs::remove_file(&path).ok();

    assert_eq!(back.meta.schema_version, gfl_obs::SCHEMA_VERSION);
    assert_eq!(back.meta.threads, 1);
    assert_eq!(back.spans, trace.spans, "spans must round-trip unchanged");
    assert_eq!(
        back.rounds, trace.rounds,
        "rounds must round-trip unchanged"
    );
    let summary = back.summary.as_ref().expect("summary record present");
    assert_eq!(summary.rounds, rounds as u64);

    // --- Structure: every round carries the full phase-span complement.
    assert_eq!(back.rounds.len(), rounds);
    assert_eq!(back.span_count(SpanKind::Round), rounds);
    assert_eq!(back.span_count(SpanKind::Train), rounds);
    assert_eq!(back.span_count(SpanKind::Aggregate), rounds);
    assert_eq!(back.span_count(SpanKind::Eval), rounds);
    assert!(back.span_count(SpanKind::ClientStep) > 0);

    // --- Coverage: the four disjoint phases must account for ≥ 95% of
    // every round's wall-clock time (the acceptance bar for the layer).
    for r in &back.rounds {
        let covered = r.train_ns + r.aggregate_ns + r.comm_ns + r.eval_ns;
        assert!(
            covered <= r.wall_ns,
            "round {}: phases ({covered} ns) exceed wall ({} ns)",
            r.round,
            r.wall_ns
        );
        assert!(
            r.coverage() >= 0.95,
            "round {}: phase spans cover only {:.1}% of wall-clock time",
            r.round,
            r.coverage() * 100.0
        );
        assert!(r.clients_trained > 0);
        assert!(r.cost_total > 0.0);
    }
    assert!(back.round_coverage() >= 0.95);

    // --- Metrics made it into the summary.
    let metrics = &summary.metrics;
    assert_eq!(
        metrics.counter("rounds.total"),
        Some(rounds as u64),
        "rounds.total counter"
    );
    assert!(metrics.counter("clients.trained").unwrap_or(0) > 0);
    assert!(metrics.gauge("cost.total").unwrap_or(0.0) > 0.0);

    // --- Byte accounting (schema v2): every round carries per-link wire
    // bytes and they sum into the comm.bytes.* counters.
    for r in &back.rounds {
        assert!(
            r.client_edge_bytes.unwrap_or(0) > 0,
            "round {}: no client-edge bytes",
            r.round
        );
        assert!(
            r.edge_cloud_bytes.unwrap_or(0) > 0,
            "round {}: no edge-cloud bytes",
            r.round
        );
    }
    let ce_sum: u64 = back.rounds.iter().filter_map(|r| r.client_edge_bytes).sum();
    let ec_sum: u64 = back.rounds.iter().filter_map(|r| r.edge_cloud_bytes).sum();
    assert_eq!(metrics.counter("comm.bytes.client_edge"), Some(ce_sum));
    assert_eq!(metrics.counter("comm.bytes.edge_cloud"), Some(ec_sum));
}

#[test]
fn streaming_collector_keeps_span_memory_bounded_on_a_paper_shaped_run() {
    // A deliberately tiny buffer (4 spans per shard) forces mid-round
    // spills on a run producing thousands of client-step spans. The
    // collector must (a) never buffer more than its configured bound,
    // (b) drain to zero at every round barrier, and (c) still stream a
    // complete, parseable trace.
    let (trainer, groups, rounds) = paper_shaped();
    let path = std::env::temp_dir().join(format!(
        "gfl_stream_bound_test_{}.jsonl",
        std::process::id()
    ));
    let obs = TraceCollector::streaming_to(
        &path,
        1,
        gfl_obs::StreamConfig {
            span_buffer_cap: 4 * gfl_obs::SHARDS,
            ..gfl_obs::StreamConfig::default()
        },
    )
    .expect("open trace sink");
    let trainer = trainer.with_observer(std::sync::Arc::clone(&obs));
    trainer.run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov);

    let bound = obs.span_buffer_bound();
    assert_eq!(bound, 4 * gfl_obs::SHARDS);
    assert!(
        obs.max_buffered_spans() <= bound,
        "buffered {} spans, bound {bound}",
        obs.max_buffered_spans()
    );
    assert_eq!(obs.buffered_spans(), 0, "round barrier must drain shards");

    let trace = obs.finish(1);
    assert!(
        trace.spans.is_empty(),
        "non-tee streaming must not retain spans in memory"
    );
    let back = TraceReader::read(&path).expect("streamed trace parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(back.rounds.len(), rounds);
    let summary = back.summary.as_ref().expect("summary present");
    assert_eq!(summary.rounds, rounds as u64);
    // The streamed file holds far more spans than the collector was ever
    // allowed to buffer — the memory bound is real, not slack.
    assert!(
        back.spans.len() > bound,
        "run produced {} spans, bound {bound}: cap never exercised",
        back.spans.len()
    );
}
