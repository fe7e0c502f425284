//! Table 1 — Group-FEL under α ∈ {0.1, 0.5, 1.0} × MaxCoV ∈ {0.1, 0.5, 1.0}:
//! group-size range/average, average group CoV, and budget-constrained
//! accuracy (MinGS=5, K=5, E=2).
//!
//! Expected structure (§7.2): larger MaxCoV ⇒ smaller groups with larger
//! CoV; larger α (more IID data) ⇒ higher accuracy and smaller achievable
//! CoV.

use gfl_core::cov::mean_group_cov;
use gfl_core::engine::form_groups_per_edge;
use gfl_core::grouping::CovGrouping;
use gfl_core::local::FedAvg;
use gfl_core::sampling::{AggregationWeighting, SamplingStrategy};
use gfl_core::Group;
use gfl_experiments::emit::{f, print_series, to_csv, write_csv};
use gfl_experiments::world::{ExpScale, World};

fn main() {
    let scale = ExpScale::from_env();
    let header = [
        "alpha", "max_cov", "gs_min", "gs_max", "gs_avg", "avg_cov", "accuracy",
    ];
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    for &alpha in &[0.1f64, 0.5, 1.0] {
        let world = World::vision(alpha, 42, scale);
        for &max_cov in &[0.1f32, 0.5, 1.0] {
            let groups = form_groups_per_edge(
                &CovGrouping {
                    min_group_size: 5,
                    max_cov,
                },
                &world.topology,
                &world.partition.label_matrix,
                world.seed,
            );
            let sizes: Vec<usize> = groups.iter().map(Group::len).collect();
            let gs_min = *sizes.iter().min().unwrap();
            let gs_max = *sizes.iter().max().unwrap();
            let gs_avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            let avg_cov = mean_group_cov(&world.partition.label_matrix, &groups);

            let trainer = world.trainer(world.config(AggregationWeighting::Stabilized));
            let history = trainer
                .run_returning_params(&groups, &FedAvg, SamplingStrategy::ESRCov)
                .0;
            let acc = history.accuracy_within_cost(scale.budget);

            println!(
                "alpha={alpha} MaxCoV={max_cov}: GS [{gs_min},{gs_max}]({gs_avg:.2}) CoV {avg_cov:.3} acc {acc:.4}"
            );
            rows.push(vec![
                alpha.to_string(),
                max_cov.to_string(),
                gs_min.to_string(),
                gs_max.to_string(),
                f(gs_avg, 2),
                f(f64::from(avg_cov), 3),
                f(f64::from(acc), 4),
            ]);
            cells.push((alpha, max_cov, gs_avg, f64::from(avg_cov), f64::from(acc)));
        }
    }

    print_series("Table 1: Group-FEL across alpha × MaxCoV", &header, &rows);
    let path = write_csv("table1", &to_csv(&header, &rows));
    println!("\nwrote {}", path.display());

    // Structural checks from §7.2.
    for &alpha in &[0.1f64, 0.5, 1.0] {
        let row = |mc: f32| {
            cells
                .iter()
                .find(|&&(a, m, ..)| a == alpha && m == mc)
                .copied()
                .unwrap()
        };
        let tight = row(0.1);
        let loose = row(1.0);
        assert!(
            tight.2 >= loose.2,
            "alpha={alpha}: tighter MaxCoV must give larger groups"
        );
        // Greedy leftover-tail groups add noise to the mean CoV at reduced
        // scale; require the ordering up to a small tolerance.
        assert!(
            tight.3 <= loose.3 + 0.1,
            "alpha={alpha}: tighter MaxCoV must give smaller CoV ({} vs {})",
            tight.3,
            loose.3
        );
    }
    // More IID data ⇒ better best-case accuracy.
    let best_acc = |alpha: f64| {
        cells
            .iter()
            .filter(|&&(a, ..)| a == alpha)
            .map(|&(.., acc)| acc)
            .fold(0.0f64, f64::max)
    };
    assert!(
        best_acc(1.0) >= best_acc(0.1) - 0.02,
        "alpha=1.0 should reach at least alpha=0.1's accuracy"
    );
    println!("structural checks passed");
}
