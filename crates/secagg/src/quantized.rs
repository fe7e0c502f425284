//! [`ExactSecAgg`]: a thin shim over [`SecAggSession`], the crate's one
//! masking arithmetic, for callers that name it and want the ring vectors
//! and the sum without the work counters.

use crate::{ClientId, SecAggSession};

/// [`SecAggSession`] without the [`crate::SecAggCost`] counters.
#[derive(Debug, Clone)]
pub struct ExactSecAgg(SecAggSession);

impl ExactSecAgg {
    pub fn new(members: Vec<ClientId>, dim: usize, session_seed: u64) -> Self {
        Self(SecAggSession::new(members, dim, session_seed))
    }

    /// [`SecAggSession::mask`] (same panics).
    pub fn mask(&self, client: ClientId, update: &[f32]) -> Vec<u32> {
        self.0.mask(client, update).0
    }

    /// [`SecAggSession::unmask_sum`].
    pub fn unmask_sum(&self, survivors: &[ClientId], masked: &[Vec<u32>]) -> Vec<f32> {
        self.0.unmask_sum(survivors, masked).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{assert_bitwise, ring_sum};
    use crate::{decode, encode, SecAggError};
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip_within_quantization_error() {
        for x in [-3.25f32, 0.0, 0.5, 100.125, -999.9] {
            let err = (decode(encode(x, 1).unwrap()) - x).abs();
            assert!(err <= 1.0 / 65536.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn out_of_range_is_an_error_not_a_clamp() {
        assert_eq!(encode(1e9, 1), Err(SecAggError::OutOfRange));
        assert_eq!(encode(-1e9, 1), Err(SecAggError::OutOfRange));
        // The bound shrinks with the roster: 2¹⁵/|roster| in value terms.
        assert!(encode(1000.0, 32).is_ok());
        assert_eq!(encode(1000.0, 33), Err(SecAggError::OutOfRange));
    }

    #[test]
    fn exact_sum_equals_sum_of_quantized_values() {
        let dim = 17;
        let n = 5u32;
        let session = ExactSecAgg::new((0..n).collect(), dim, 9);
        let updates: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| (i as f32 - 2.0) * 0.1 + j as f32 * 0.01)
                    .collect()
            })
            .collect();
        let masked: Vec<Vec<u32>> = updates
            .iter()
            .enumerate()
            .map(|(i, u)| session.mask(i as u32, u))
            .collect();
        let sum = session.unmask_sum(&(0..n).collect::<Vec<_>>(), &masked);
        let views: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        assert_bitwise(&sum, &ring_sum(&views, n as usize));
    }

    #[test]
    fn dropout_recovery_is_exact() {
        let dim = 9;
        let session = ExactSecAgg::new(vec![0, 1, 2, 3, 4], dim, 11);
        let updates: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 * 0.25 - 0.5; dim]).collect();
        let masked: Vec<Vec<u32>> = updates
            .iter()
            .enumerate()
            .map(|(i, u)| session.mask(i as u32, u))
            .collect();
        let survivors = vec![0u32, 2, 4];
        let masked_surv: Vec<Vec<u32>> = survivors
            .iter()
            .map(|&s| masked[s as usize].clone())
            .collect();
        let sum = session.unmask_sum(&survivors, &masked_surv);
        // Multiples of 2⁻² are exact in the ring: −0.5 + 0 + 0.5.
        assert_eq!(sum, vec![0.0; dim]);
    }

    #[test]
    fn negative_values_survive_the_ring() {
        let session = ExactSecAgg::new(vec![0, 1], 3, 13);
        let a = vec![-1.5f32, -0.25, -100.0];
        let b = vec![0.5f32, 0.25, 50.0];
        let masked = vec![session.mask(0, &a), session.mask(1, &b)];
        let sum = session.unmask_sum(&[0, 1], &masked);
        assert_eq!(sum, vec![-1.0, 0.0, -50.0]);
    }

    proptest! {
        /// Secure sum == decode(Σ encode(xᵢ) mod 2³²), bitwise, over random
        /// rosters, dimensions and dropout subsets.
        #[test]
        fn prop_exact_cancellation(
            dim in 1usize..24,
            ids in proptest::collection::vec(0u32..64, 2..10),
            dropped in proptest::collection::vec(0u8..2, 10),
            seed in 0u64..1000,
            raw in proptest::collection::vec(-50.0f32..50.0, 1..192),
        ) {
            let mut members = ids;
            members.sort_unstable();
            members.dedup();
            let n = members.len();
            let session = ExactSecAgg::new(members.clone(), dim, seed);
            let updates: Vec<Vec<f32>> = (0..n)
                .map(|i| (0..dim).map(|j| raw[(i * dim + j) % raw.len()]).collect())
                .collect();
            let live: Vec<usize> = (0..n).filter(|&i| dropped[i] == 0).collect();
            let masked: Vec<Vec<u32>> =
                live.iter().map(|&i| session.mask(members[i], &updates[i])).collect();
            let survivors: Vec<u32> = live.iter().map(|&i| members[i]).collect();
            let sum = session.unmask_sum(&survivors, &masked);
            let want: Vec<f32> = if live.is_empty() {
                vec![0.0; dim]
            } else {
                let views: Vec<&[f32]> = live.iter().map(|&i| updates[i].as_slice()).collect();
                ring_sum(&views, n)
            };
            for (a, b) in sum.iter().zip(&want) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
