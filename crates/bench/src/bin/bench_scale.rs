//! Million-client scale harness: measures virtual-population build, stream
//! group formation, and one churn regroup tick at 10⁶ paper_vision-shaped
//! clients, then merges a `scale` section into `BENCH_ROUND.json` so
//! `gfl-trace regress --max-formation-seconds` can *gate* the sub-second
//! formation claim instead of asserting it in prose (docs/SCALE.md).
//!
//! Like `bench_round`, this binary read-modify-writes the file through
//! `gfl_bench::merge_bench_sections`: only `scale` is replaced, so the two
//! harnesses may run in either order.
//!
//! `GFL_SCALE_CLIENTS` overrides the population size (default 1_000_000)
//! for quick local iteration; the emitted key names stay `*_1m` because
//! the regress gate keys on them — the actual size is recorded alongside.

use std::time::Instant;

use gfl_core::prelude::*;
use gfl_data::{VirtualPopulation, VirtualSpec};
use gfl_faults::ChurnPlan;
use gfl_sim::Topology;

fn main() {
    let clients: usize = std::env::var("GFL_SCALE_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let seed = 1u64;

    let t0 = Instant::now();
    let pop = VirtualPopulation::new(VirtualSpec::paper_vision(clients, 0.1, seed));
    let build_s = t0.elapsed().as_secs_f64();

    let sizes: Vec<usize> = (0..pop.num_clients()).map(|c| pop.client_size(c)).collect();
    let topo = Topology::even_split(8, sizes);
    let algo = StreamGrouping { group_size: 8 };

    // Formation: the paper's Fig. 5 quantity, over the full population.
    let t0 = Instant::now();
    let groups = form_groups_per_edge(&algo, &topo, pop.label_matrix(), seed);
    let formation_s = t0.elapsed().as_secs_f64();
    assert!(
        groups.len() >= clients / 16,
        "stream formation collapsed: {} groups for {clients} clients",
        groups.len()
    );

    // Regroup: one apply_churn + heal tick at moderate churn rates — at
    // 10⁶ clients a round sees ~2 000 departures and ~1 000 greedy
    // arrival placements, plus heal's full degradation sweep. A zero
    // cooldown lets heal repair immediately. This exercises the
    // incremental GroupStats path (and the per-edge candidate index)
    // end to end.
    let plan = ChurnPlan {
        seed: seed ^ 0x5CA1E,
        horizon: 50,
        departure_fraction: 0.1,
        arrival_fraction: 0.05,
        flap_prob: 0.0,
    };
    let policy = RegroupPolicy {
        cooldown: 0,
        ..RegroupPolicy::default()
    };
    let mut membership = MembershipState::form(
        &algo,
        &topo,
        pop.label_matrix(),
        Some(&plan),
        policy,
        seed,
        SamplingStrategy::ESRCov,
        0,
    )
    .expect("initial membership partition");

    let t0 = Instant::now();
    let churn_events = membership.apply_churn(&plan, 1, pop.label_matrix(), &topo);
    let heal_events = membership
        .heal(
            1,
            pop.label_matrix(),
            &algo,
            &topo,
            seed,
            SamplingStrategy::ESRCov,
        )
        .expect("heal pass");
    let regroup_s = t0.elapsed().as_secs_f64();
    assert!(
        !churn_events.is_empty(),
        "churn tick was a no-op; the regroup timing would measure nothing"
    );

    let scale = serde_json::json!({
        "workload": "paper_vision-shaped virtual population, 8 edges, stream grouping (group_size 8)",
        "clients": clients,
        "groups_formed": groups.len(),
        "population_build_seconds_1m": build_s,
        "formation_seconds_1m": formation_s,
        "regroup_seconds_1m": regroup_s,
        "regroup_events": churn_events.len() + heal_events.len(),
        "note": "formation_seconds_1m and regroup_seconds_1m are gated sub-second by `gfl-trace regress --max-formation-seconds` in CI's scale-smoke job",
    });

    gfl_bench::merge_bench_sections("BENCH_ROUND.json", serde_json::json!({ "scale": scale }));

    println!(
        "scale: {clients} clients — build {build_s:.3}s, formation {formation_s:.3}s \
         ({} groups), regroup {regroup_s:.3}s ({} events)",
        groups.len(),
        churn_events.len() + heal_events.len()
    );
}
