//! Fig. 2(a)/Fig. 8 — secure-aggregation cost scaling with group size.
//!
//! Per-client masking is O(|g|·d); the whole round is O(|g|²·d). Dropout
//! recovery adds O(dropped × survivors × d) on the server.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gfl_bench::random_vectors;
use gfl_secagg::SecAggSession;
use std::hint::black_box;

fn bench_secagg(c: &mut Criterion) {
    let dim = 4096; // roughly the speech model's parameter count
    let mut group = c.benchmark_group("fig8_secagg_scaling");
    group.sample_size(10);
    for &g in &[5usize, 10, 20, 40] {
        let updates = random_vectors(g, dim, g as u64);
        let session = SecAggSession::new((0..g as u32).collect(), dim, 7);
        group.throughput(Throughput::Elements(g as u64));

        group.bench_with_input(BenchmarkId::new("mask_one_client", g), &g, |b, _| {
            b.iter(|| black_box(session.mask(0, &updates[0])));
        });
        group.bench_with_input(BenchmarkId::new("full_round", g), &g, |b, _| {
            b.iter(|| black_box(session.aggregate(&updates)));
        });

        // Dropout recovery: 20% of the group drops after masking.
        let masked: Vec<Vec<u32>> = (0..g)
            .map(|i| session.mask(i as u32, &updates[i]).0)
            .collect();
        let survivors: Vec<u32> = (0..g as u32).filter(|&m| m % 5 != 0).collect();
        let masked_surv: Vec<Vec<u32>> = survivors
            .iter()
            .map(|&m| masked[m as usize].clone())
            .collect();
        group.bench_with_input(BenchmarkId::new("unmask_with_dropouts", g), &g, |b, _| {
            b.iter(|| black_box(session.unmask_sum(&survivors, &masked_surv)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_secagg);
criterion_main!(benches);
