//! Per-layer probes: the benchmark's own timed calls into one layer's
//! public functions, at the shapes the workload runs.

use std::hint::black_box;
use std::time::Instant;

use gfl_core::cov::group_cov;
use gfl_core::grouping::GroupingAlgorithm;
use gfl_core::membership::{MembershipState, RegroupPolicy};
use gfl_core::sampling::{sample_without_replacement, SamplingStrategy};
use gfl_core::Group;
use gfl_data::{Dataset, LabelMatrix, VirtualPopulation};
use gfl_faults::ChurnPlan;
use gfl_nn::Network;
use gfl_sim::Topology;
use gfl_tensor::simd::{self, SimdTier};
use gfl_tensor::{ops, Scalar};

/// Median seconds per call of `f`, over five repetitions of a loop sized
/// to take about `target_s`.
fn per_call(target_s: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target_s / once).ceil() as usize).clamp(1, 1_000_000);
    let mut reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    reps.sort_by(f64::total_cmp);
    reps[2]
}

/// Deterministic values in `[-0.5, 0.5)` from `(seed, stream, index)`.
fn fill(len: usize, seed: u64, stream: u64) -> Vec<Scalar> {
    (0..len as u64)
        .map(|i| {
            let mut z = seed
                .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as Scalar / (1u64 << 24) as Scalar - 0.5
        })
        .collect()
}

/// One kernel timed at one shape on one SIMD tier.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub kernel: &'static str,
    /// `m×n×k` for `gemm_nt`, `r×m×n` for `gemm_tn`, `d` for `axpy`.
    pub shape: String,
    pub tier: &'static str,
    pub flops: u64,
    /// Bytes the kernel must read and write at minimum: each operand
    /// read once, the output written once.
    pub bytes: u64,
    pub secs_per_call: f64,
}

impl KernelRow {
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.secs_per_call / 1e9
    }

    pub fn gbps(&self) -> f64 {
        self.bytes as f64 / self.secs_per_call / 1e9
    }
}

/// Kernel throughput over one pass of the model's real shapes.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub active_tier: &'static str,
    pub rows: Vec<KernelRow>,
}

impl KernelReport {
    fn sum(&self, kernel: &str, tier: &str) -> (u64, u64, f64) {
        self.rows
            .iter()
            .filter(|r| r.kernel == kernel && r.tier == tier)
            .fold((0, 0, 0.0), |acc, r| {
                (acc.0 + r.flops, acc.1 + r.bytes, acc.2 + r.secs_per_call)
            })
    }

    /// Total flops over total time across the model's shapes.
    pub fn gflops(&self, kernel: &str, tier: &str) -> f64 {
        let (flops, _, secs) = self.sum(kernel, tier);
        flops as f64 / secs / 1e9
    }

    pub fn gbps(&self, kernel: &str, tier: &str) -> f64 {
        let (_, bytes, secs) = self.sum(kernel, tier);
        bytes as f64 / secs / 1e9
    }

    /// Bytes one pass over the model's shapes moves through `kernel`.
    pub fn bytes(&self, kernel: &str) -> u64 {
        self.sum(kernel, self.active_tier).1
    }
}

/// Times `gemm_nt` (forward) and `gemm_tn` (weight gradient) at every
/// layer of an MLP with `dims` at `batch` rows, and `axpy` over `d`
/// parameters (the aggregation shape), on the active tier and the scalar
/// tier. Restores the active tier before returning.
pub fn kernels(dims: &[usize], batch: usize, d: usize) -> KernelReport {
    let active = simd::active_tier();
    let mut tiers = vec![active];
    if active != SimdTier::Scalar {
        tiers.push(SimdTier::Scalar);
    }
    let mut rows = Vec::new();
    let target = 0.004;
    for tier in tiers {
        let previous = simd::set_tier(tier);
        for layer in dims.windows(2) {
            let (i, o) = (layer[0], layer[1]);
            let x = fill(batch * i, 1, 1);
            let w = fill(o * i, 1, 2);
            let mut out = vec![0.0; batch * o];
            let secs = per_call(target, || {
                simd::gemm_nt(black_box(&x), black_box(&w), &mut out, batch, o, i);
                black_box(&out);
            });
            rows.push(KernelRow {
                kernel: "gemm_nt",
                shape: format!("{batch}x{o}x{i}"),
                tier: tier.name(),
                flops: (2 * batch * o * i) as u64,
                bytes: (4 * (batch * i + o * i + batch * o)) as u64,
                secs_per_call: secs,
            });
            let delta = fill(batch * o, 1, 3);
            let mut grad = vec![0.0; o * i];
            let secs = per_call(target, || {
                simd::gemm_tn(black_box(&delta), black_box(&x), &mut grad, batch, o, i);
                black_box(&grad);
            });
            rows.push(KernelRow {
                kernel: "gemm_tn",
                shape: format!("{batch}x{o}x{i}"),
                tier: tier.name(),
                flops: (2 * batch * o * i) as u64,
                bytes: (4 * (batch * o + batch * i + o * i)) as u64,
                secs_per_call: secs,
            });
        }
        let x = fill(d, 2, 1);
        let mut y = fill(d, 2, 2);
        let secs = per_call(target, || {
            simd::axpy(black_box(1e-3), black_box(&x), &mut y);
            black_box(&y);
        });
        rows.push(KernelRow {
            kernel: "axpy",
            shape: format!("{d}"),
            tier: tier.name(),
            flops: (2 * d) as u64,
            bytes: (4 * 3 * d) as u64,
            secs_per_call: secs,
        });
        simd::set_tier(previous);
    }
    KernelReport {
        active_tier: active.name(),
        rows,
    }
}

/// Microseconds per `loss_and_grad` call on a `batch`-row minibatch.
pub fn loss_and_grad_us(model: &Network, data: &Dataset, batch: usize, seed: u64) -> f64 {
    let rows: Vec<usize> = (0..batch.min(data.len())).collect();
    let batch = data.subset(&rows);
    let params = model.init_params(&mut gfl_tensor::init::rng(seed));
    let mut grad = vec![0.0; params.len()];
    let mut ws = model.workspace();
    1e6 * per_call(0.02, || {
        black_box(model.loss_and_grad(
            &params,
            batch.features(),
            batch.labels(),
            &mut grad,
            &mut ws,
        ));
    })
}

/// SecAgg cost and exactness for one group aggregation.
#[derive(Debug, Clone)]
pub struct SecAggProbe {
    pub group: usize,
    pub dim: usize,
    pub survivors: usize,
    /// `SecAggSession` (f32 masks, the engine's path): masking by every
    /// survivor, and the server's unmask with dropout recovery.
    pub mask_ms: f64,
    pub unmask_ms: f64,
    /// Largest coordinate error of the unmasked sum against the plain
    /// weighted sum.
    pub max_abs_err: f64,
    /// The same for `ExactSecAgg` (fixed point mod 2⁴⁸).
    pub exact_mask_ms: f64,
    pub exact_unmask_ms: f64,
    pub exact_max_abs_err: f64,
}

fn median3(mut f: impl FnMut() -> f64) -> f64 {
    let mut v = [f(), f(), f()];
    v.sort_by(f64::total_cmp);
    v[1]
}

fn max_abs_err(a: &[Scalar], b: &[Scalar]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

/// Aggregates `survivors` of a `group`-member roster's `dim`-wide updates
/// the way the engine's secure path does (scale each update by its weight,
/// mask, unmask the survivor sum), through both SecAgg implementations.
pub fn secagg(group: usize, dim: usize, survivors: usize, seed: u64) -> SecAggProbe {
    let members: Vec<u32> = (0..group as u32).map(|i| 7 * i + 3).collect();
    let live = &members[..survivors];
    let weights: Vec<Scalar> = (0..survivors)
        .map(|i| (1 + i % 4) as Scalar / (survivors as Scalar * 2.5))
        .collect();
    let updates: Vec<Vec<Scalar>> = (0..survivors)
        .map(|i| fill(dim, seed, 100 + i as u64))
        .collect();
    let scaled: Vec<Vec<Scalar>> = updates
        .iter()
        .zip(&weights)
        .map(|(u, &w)| {
            let mut s = u.clone();
            ops::scale(w, &mut s);
            s
        })
        .collect();
    // The engine's plain path: fill, then one axpy per survivor in order.
    let mut plain = vec![0.0; dim];
    for (u, &w) in updates.iter().zip(&weights) {
        ops::axpy(w, u, &mut plain);
    }
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let session = gfl_secagg::SecAggSession::new(members.clone(), dim, seed);
    let mut masked = Vec::new();
    let mask_ms = median3(|| {
        let t = Instant::now();
        masked = live
            .iter()
            .zip(&scaled)
            .map(|(&c, s)| session.mask(c, s).0)
            .collect();
        ms(t)
    });
    let mut sum = Vec::new();
    let unmask_ms = median3(|| {
        let t = Instant::now();
        sum = session.unmask_sum(live, &masked).0;
        ms(t)
    });

    let exact = gfl_secagg::quantized::ExactSecAgg::new(members.clone(), dim, seed);
    let mut exact_masked = Vec::new();
    let exact_mask_ms = median3(|| {
        let t = Instant::now();
        exact_masked = live
            .iter()
            .zip(&scaled)
            .map(|(&c, s)| exact.mask(c, s))
            .collect();
        ms(t)
    });
    let mut exact_sum = Vec::new();
    let exact_unmask_ms = median3(|| {
        let t = Instant::now();
        exact_sum = exact.unmask_sum(live, &exact_masked);
        ms(t)
    });
    SecAggProbe {
        group,
        dim,
        survivors,
        mask_ms,
        unmask_ms,
        max_abs_err: max_abs_err(&sum, &plain),
        exact_mask_ms,
        exact_unmask_ms,
        exact_max_abs_err: max_abs_err(&exact_sum, &plain),
    }
}

/// Milliseconds per FLAME-style filter call over one group of `n`
/// `dim`-wide updates, a tenth of them sign-flipped and scaled 5×.
pub fn defense_filter_ms(n: usize, dim: usize, seed: u64) -> f64 {
    let base = fill(dim, seed, 1);
    let updates: Vec<Vec<Scalar>> = (0..n)
        .map(|i| {
            let noise = fill(dim, seed, 10 + i as u64);
            let scale = if i % 10 == 9 { -5.0 } else { 1.0 };
            base.iter()
                .zip(&noise)
                .map(|(&b, &e)| scale * (0.02 * b + 0.01 * e))
                .collect()
        })
        .collect();
    let config = gfl_defense::DefenseConfig::default();
    median3(|| {
        let mut batch = updates.clone();
        let t = Instant::now();
        black_box(gfl_defense::filter_updates(&mut batch, &config));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// Microseconds per ESRCov probability computation over the groups'
/// CoVs, and per draw of `s` groups without replacement.
pub fn sampling_us(labels: &LabelMatrix, groups: &[Group], s: usize, seed: u64) -> (f64, f64) {
    let covs: Vec<Scalar> = groups.iter().map(|g| group_cov(labels, g)).collect();
    let strategy = SamplingStrategy::ESRCov;
    let probs = strategy.probabilities(&covs);
    let probabilities = per_call(0.02, || {
        black_box(strategy.probabilities(black_box(&covs)));
    });
    let mut rng = gfl_tensor::init::rng(seed);
    let s = s.min(probs.len());
    let draw = per_call(0.02, || {
        black_box(sample_without_replacement(&mut rng, &probs, s));
    });
    (1e6 * probabilities, 1e6 * draw)
}

/// Microseconds per on-demand shard derivation, over `n` clients spread
/// across the population.
pub fn shard_us(pop: &VirtualPopulation, n: usize) -> f64 {
    let clients = pop.num_clients();
    let picks: Vec<usize> = (0..n).map(|i| (i * 7919 + 13) % clients).collect();
    let t = Instant::now();
    for &c in &picks {
        black_box(pop.shard(c));
    }
    1e6 * t.elapsed().as_secs_f64() / n as f64
}

/// The membership layer's work over a run, replayed call for call.
#[derive(Debug, Clone)]
pub struct MembershipReplay {
    pub apply_churn_s: f64,
    pub heal_s: f64,
    pub refresh_probs_s: f64,
    /// Largest group after each round's heal.
    pub max_group_size: Vec<usize>,
    pub groups: Vec<usize>,
    pub state: MembershipState,
}

/// Replays the membership transitions of a semi-async healing run —
/// `apply_churn`, `heal` and `refresh_probs` each round, in the runner's
/// order — timing each call. The semi-async runner feeds membership no
/// training signal, so the replay reaches the run's exact final state.
#[allow(clippy::too_many_arguments)]
pub fn replay_membership(
    algo: &dyn GroupingAlgorithm,
    topology: &Topology,
    labels: &LabelMatrix,
    plan: &ChurnPlan,
    seed: u64,
    sampling: SamplingStrategy,
    rounds: usize,
) -> Result<MembershipReplay, String> {
    let mut state = MembershipState::form(
        algo,
        topology,
        labels,
        Some(plan),
        RegroupPolicy::default(),
        seed,
        sampling,
        0,
    )
    .map_err(|e| format!("group formation failed: {e}"))?;
    let mut replay = MembershipReplay {
        apply_churn_s: 0.0,
        heal_s: 0.0,
        refresh_probs_s: 0.0,
        max_group_size: Vec::with_capacity(rounds),
        groups: Vec::with_capacity(rounds),
        state: state.clone(),
    };
    for t in 0..rounds {
        let start = Instant::now();
        black_box(state.apply_churn(plan, t, labels, topology));
        replay.apply_churn_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        state
            .heal(t, labels, algo, topology, seed, sampling)
            .map_err(|e| format!("heal failed at round {t}: {e}"))?;
        replay.heal_s += start.elapsed().as_secs_f64();
        if state.policy.enabled {
            let start = Instant::now();
            state.refresh_probs(labels, sampling);
            replay.refresh_probs_s += start.elapsed().as_secs_f64();
        }
        replay
            .max_group_size
            .push(state.groups.iter().map(Vec::len).max().unwrap_or(0));
        replay.groups.push(state.groups.len());
    }
    replay.state = state;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_secagg_paths_recover_the_sum_with_dropouts() {
        let p = secagg(6, 64, 4, 3);
        assert!(p.max_abs_err < 1e-3, "{}", p.max_abs_err);
        assert!(p.exact_max_abs_err < 1e-3, "{}", p.exact_max_abs_err);
    }

    #[test]
    fn kernel_probe_covers_every_layer_and_restores_the_tier() {
        let before = simd::active_tier();
        let r = kernels(&[8, 4, 2], 4, 32);
        assert_eq!(simd::active_tier(), before);
        let per_tier = if before == SimdTier::Scalar { 1 } else { 2 };
        assert_eq!(r.rows.len(), per_tier * (2 * 2 + 1));
        assert!(r.gflops("gemm_nt", r.active_tier) > 0.0);
        assert_eq!(r.bytes("axpy"), 4 * 3 * 32);
    }
}
