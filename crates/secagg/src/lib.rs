//! Pairwise-masking secure aggregation (Bonawitz et al., CCS'17 — simplified
//! to the honest-but-curious core).
//!
//! This is the group operation whose **quadratic per-group cost** motivates
//! the whole paper: Fig. 2(a)/Fig. 8 show SecAgg time growing quadratically
//! in group size and dwarfing training time on edge devices. We implement
//! the protocol's arithmetic for real so that (a) the group aggregation in
//! the simulator can actually run privately-summed updates end to end, and
//! (b) operation counters empirically certify the O(|g|²·d) total cost that
//! `gfl-sim`'s analytic model assumes.
//!
//! ## Protocol (one round, dimension d, group g)
//!
//! 1. Every ordered pair `i < j` shares a pairwise seed `s_ij` (derived here
//!    from a session seed; a deployment would run Diffie–Hellman — the
//!    asymptotics per client, |g|−1 key agreements, are identical).
//! 2. Client `i` sends `y_i = x_i + Σ_{j>i} PRG(s_ij) − Σ_{j<i} PRG(s_ji)`.
//! 3. The server sums the `y_i`; all masks cancel pairwise, leaving `Σ x_i`.
//! 4. **Dropouts:** if a client drops after masks were applied, survivors
//!    reveal their pairwise seeds with the dropped client (stand-in for the
//!    Shamir-share recovery of the full protocol) and the server subtracts
//!    the orphaned masks.
//!
//! ## Arithmetic: one fixed-point ring, Z_{2³²}
//!
//! A coordinate `x` is encoded as `round(x · 2¹⁶)` in two's complement
//! ([`encode`]). Each pairwise mask is one ChaCha8 word per coordinate,
//! added or subtracted with wrapping `u32` arithmetic and streamed straight
//! into the client's (or server's) accumulator. Ring addition is exact and
//! commutative, so the masks cancel bit for bit and the unmasked sum is
//! exactly `decode(Σ encode(x_i) mod 2³²)` whatever the order: the only
//! error left is quantization, at most 2⁻¹⁷ per coordinate per client.
//!
//! [`decode`] reads the sum as a signed 32-bit integer, so a sum of up to
//! `|roster|` encodings must stay inside that range. [`encode`] refuses a
//! coordinate that could break this (|x|·2¹⁶·|roster| past `i32::MAX`), or
//! one that is not finite, with a typed [`SecAggError`] — never a silent
//! clamp or wrap.

pub mod quantized;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Client identifier within a secure-aggregation session.
pub type ClientId = u32;

/// Fixed-point scale: 16 fractional bits.
const SCALE: f32 = 65536.0;

/// Why an update coordinate cannot enter the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecAggError {
    /// The coordinate is NaN or infinite.
    NonFinite,
    /// `|x|·2¹⁶·|roster|` would leave the signed 32-bit range, so a sum of
    /// the roster's encodings could wrap.
    OutOfRange,
}

impl fmt::Display for SecAggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SecAggError::NonFinite => "coordinate is not finite",
            SecAggError::OutOfRange => {
                "coordinate too large for the 32-bit ring at this roster size"
            }
        })
    }
}

impl std::error::Error for SecAggError {}

/// Encodes one coordinate for a session of `roster` members: `round(x·2¹⁶)`
/// as a two's-complement ring element, provided `roster` such values sum
/// inside the signed 32-bit range.
pub fn encode(x: f32, roster: usize) -> Result<u32, SecAggError> {
    if !x.is_finite() {
        return Err(SecAggError::NonFinite);
    }
    // Scaling by a power of two is exact; the cast saturates on overflow.
    let q = (x * SCALE).round() as i64;
    if q.unsigned_abs() > i32::MAX as u64 / roster.max(1) as u64 {
        return Err(SecAggError::OutOfRange);
    }
    Ok(q as i32 as u32)
}

/// Decodes a ring element holding a (possibly summed) value, reading the
/// upper half of the ring as negative.
pub fn decode(v: u32) -> f32 {
    v as i32 as f32 / SCALE
}

/// `Ok` exactly when every coordinate of `update` encodes for a roster of
/// `roster` — the condition [`SecAggSession::mask`] panics without.
pub fn check(update: &[f32], roster: usize) -> Result<(), SecAggError> {
    update.iter().try_for_each(|&x| encode(x, roster).map(drop))
}

/// Work counters used to validate the cost model empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecAggCost {
    /// Pairwise PRG mask expansions performed (each costs O(d)).
    pub prg_expansions: u64,
    /// Ring additions performed on vectors of length d.
    pub vector_adds: u64,
    /// Pairwise key agreements performed.
    pub key_agreements: u64,
}

impl SecAggCost {
    fn merge(&mut self, other: SecAggCost) {
        self.prg_expansions += other.prg_expansions;
        self.vector_adds += other.vector_adds;
        self.key_agreements += other.key_agreements;
    }
}

/// One secure-aggregation session over a fixed group roster.
#[derive(Debug, Clone)]
pub struct SecAggSession {
    members: Vec<ClientId>,
    dim: usize,
    session_seed: u64,
}

impl SecAggSession {
    /// Creates a session for `members` aggregating vectors of length `dim`.
    ///
    /// # Panics
    /// Panics on duplicate members or an empty roster.
    pub fn new(members: Vec<ClientId>, dim: usize, session_seed: u64) -> Self {
        assert!(!members.is_empty(), "empty secure-aggregation group");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate member ids");
        Self {
            members,
            dim,
            session_seed,
        }
    }

    pub fn members(&self) -> &[ClientId] {
        &self.members
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The pairwise seed for the unordered pair `{a, b}`.
    fn pair_seed(&self, a: ClientId, b: ClientId) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // SplitMix-style mixing of (session, lo, hi).
        let mut z = self
            .session_seed
            .wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(1 + lo as u64))
            .wrapping_add(0xBF58476D1CE4E5B9u64.wrapping_mul(1 + hi as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Streams the pairwise mask for `{a, b}` into `acc`: added when `add`,
    /// subtracted otherwise.
    fn apply_mask(&self, a: ClientId, b: ClientId, add: bool, acc: &mut [u32]) {
        let mut rng = ChaCha8Rng::seed_from_u64(self.pair_seed(a, b));
        if add {
            acc.iter_mut()
                .for_each(|v| *v = v.wrapping_add(rng.next_u32()));
        } else {
            acc.iter_mut()
                .for_each(|v| *v = v.wrapping_sub(rng.next_u32()));
        }
    }

    /// Client-side masking: returns `encode(x) + Σ_{j>i} m_ij − Σ_{j<i} m_ji`
    /// in the ring, and the client's work counters.
    ///
    /// # Panics
    /// Panics if `client` is not a member, `update` has the wrong length, or
    /// a coordinate does not [`encode`] for this roster (not finite, or
    /// |x|·2¹⁶·|roster| past the signed 32-bit range; see [`check`]).
    pub fn mask(&self, client: ClientId, update: &[f32]) -> (Vec<u32>, SecAggCost) {
        assert!(
            self.members.contains(&client),
            "client {client} not in session"
        );
        assert_eq!(update.len(), self.dim, "update dimension mismatch");
        let roster = self.members.len();
        let mut masked: Vec<u32> = update
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                encode(x, roster).unwrap_or_else(|e| panic!("update coordinate {i} ({x}): {e}"))
            })
            .collect();
        let mut cost = SecAggCost {
            // One key agreement per peer, performed at session setup in the
            // real protocol; accounted to the masking client here.
            key_agreements: (roster - 1) as u64,
            ..SecAggCost::default()
        };
        for &peer in self.members.iter().filter(|&&p| p != client) {
            self.apply_mask(client, peer, client < peer, &mut masked);
            cost.prg_expansions += 1;
            cost.vector_adds += 1;
        }
        (masked, cost)
    }

    /// Server-side aggregation of masked updates from `survivors`.
    ///
    /// `masked` must align with `survivors`. Members missing from
    /// `survivors` are treated as dropouts: their orphaned pairwise masks
    /// (with every survivor) are regenerated and cancelled.
    ///
    /// Returns exactly `decode(Σ_{i ∈ survivors} encode(x_i) mod 2³²)` plus
    /// server cost.
    pub fn unmask_sum(
        &self,
        survivors: &[ClientId],
        masked: &[Vec<u32>],
    ) -> (Vec<f32>, SecAggCost) {
        assert_eq!(survivors.len(), masked.len(), "roster/update mismatch");
        for s in survivors {
            assert!(self.members.contains(s), "survivor {s} not a member");
        }
        let mut sum = vec![0u32; self.dim];
        let mut cost = SecAggCost::default();
        for m in masked {
            assert_eq!(m.len(), self.dim, "masked update dimension");
            for (acc, &v) in sum.iter_mut().zip(m) {
                *acc = acc.wrapping_add(v);
            }
            cost.vector_adds += 1;
        }
        for &d in self.members.iter().filter(|m| !survivors.contains(m)) {
            for &s in survivors {
                // Survivor s added the {s, d} mask when s < d; take it back.
                self.apply_mask(d, s, s > d, &mut sum);
                cost.prg_expansions += 1;
                cost.vector_adds += 1;
            }
        }
        (sum.into_iter().map(decode).collect(), cost)
    }

    /// Runs the whole round for convenience: masks every member's update and
    /// unmasks the sum, returning `(sum, total_cost)`. `updates[k]` belongs
    /// to `self.members()[k]`.
    pub fn aggregate(&self, updates: &[Vec<f32>]) -> (Vec<f32>, SecAggCost) {
        assert_eq!(updates.len(), self.members.len(), "one update per member");
        let mut total = SecAggCost::default();
        let mut masked = Vec::with_capacity(updates.len());
        for (&client, update) in self.members.iter().zip(updates.iter()) {
            let (m, c) = self.mask(client, update);
            total.merge(c);
            masked.push(m);
        }
        let (sum, c) = self.unmask_sum(&self.members, &masked);
        total.merge(c);
        (sum, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn toy_updates(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }

    /// The reference the protocol promises, bit for bit: the wrapping sum
    /// of the survivors' encodings, decoded.
    pub(crate) fn ring_sum(updates: &[&[f32]], roster: usize) -> Vec<f32> {
        (0..updates[0].len())
            .map(|j| {
                decode(updates.iter().fold(0u32, |acc, u| {
                    acc.wrapping_add(encode(u[j], roster).unwrap())
                }))
            })
            .collect()
    }

    pub(crate) fn assert_bitwise(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (j, (a, b)) in got.iter().zip(want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "coord {j}: {a} vs {b}");
        }
    }

    #[test]
    fn masks_cancel_exactly() {
        let n = 5;
        let d = 33;
        let updates = toy_updates(n, d, 1);
        let session = SecAggSession::new((0..n as u32).collect(), d, 99);
        let (sum, _) = session.aggregate(&updates);
        let views: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        assert_bitwise(&sum, &ring_sum(&views, n));
    }

    #[test]
    fn masked_update_hides_plaintext() {
        let d = 16;
        let updates = toy_updates(3, d, 2);
        let session = SecAggSession::new(vec![0, 1, 2], d, 7);
        let (masked, _) = session.mask(0, &updates[0]);
        // Every coordinate of the masked vector must differ from the
        // plaintext's encoding.
        let exposed = masked
            .iter()
            .zip(&updates[0])
            .filter(|&(&m, &x)| m == encode(x, 3).unwrap())
            .count();
        assert_eq!(exposed, 0, "mask looks degenerate");
    }

    #[test]
    fn single_member_group_is_passthrough() {
        let session = SecAggSession::new(vec![42], 4, 0);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let (masked, cost) = session.mask(42, &x);
        let encoded: Vec<u32> = x.iter().map(|&v| encode(v, 1).unwrap()).collect();
        assert_eq!(masked, encoded, "no peers → no masks");
        assert_eq!(cost.prg_expansions, 0);
        let (sum, _) = session.unmask_sum(&[42], &[masked]);
        assert_eq!(sum, x);
    }

    #[test]
    fn dropout_recovery_yields_survivor_sum() {
        let n = 6;
        let d = 20;
        let updates = toy_updates(n, d, 3);
        let members: Vec<u32> = (0..n as u32).collect();
        let session = SecAggSession::new(members.clone(), d, 5);
        let mut masked = Vec::new();
        for (i, u) in updates.iter().enumerate() {
            masked.push(session.mask(i as u32, u).0);
        }
        // Clients 1 and 4 drop after masking; the server only receives the
        // other four masked updates.
        let survivors: Vec<u32> = vec![0, 2, 3, 5];
        let masked_surv: Vec<Vec<u32>> = survivors
            .iter()
            .map(|&s| masked[s as usize].clone())
            .collect();
        let (sum, _) = session.unmask_sum(&survivors, &masked_surv);
        let views: Vec<&[f32]> = survivors
            .iter()
            .map(|&s| updates[s as usize].as_slice())
            .collect();
        assert_bitwise(&sum, &ring_sum(&views, n));
    }

    #[test]
    fn per_client_cost_is_linear_in_group_size_total_quadratic() {
        let d = 8;
        let mut per_client = Vec::new();
        for &n in &[4usize, 8, 16] {
            let updates = toy_updates(n, d, 4);
            let session = SecAggSession::new((0..n as u32).collect(), d, 1);
            let (m, cost) = session.mask(0, &updates[0]);
            assert_eq!(m.len(), d);
            per_client.push(cost.prg_expansions);
            // Full round total is quadratic: n clients × (n−1) expansions.
            let (_, total) = session.aggregate(&updates);
            assert_eq!(total.prg_expansions, (n * (n - 1)) as u64);
        }
        assert_eq!(per_client, vec![3, 7, 15], "per-client = |g|−1");
    }

    #[test]
    fn deterministic_given_session_seed() {
        let updates = toy_updates(4, 10, 6);
        let s1 = SecAggSession::new(vec![0, 1, 2, 3], 10, 11);
        let s2 = SecAggSession::new(vec![0, 1, 2, 3], 10, 11);
        assert_eq!(s1.mask(2, &updates[2]).0, s2.mask(2, &updates[2]).0);
        let s3 = SecAggSession::new(vec![0, 1, 2, 3], 10, 12);
        assert_ne!(s1.mask(2, &updates[2]).0, s3.mask(2, &updates[2]).0);
    }

    #[test]
    fn encoding_is_a_typed_error_at_the_ring_bound() {
        // 25 members: |round(x·2¹⁶)| may not exceed ⌊(2³¹−1)/25⌋.
        let limit = (i32::MAX / 25) as f32 / SCALE;
        assert!(encode(limit, 25).is_ok());
        assert!(encode(-limit, 25).is_ok());
        assert_eq!(encode(limit + 0.01, 25), Err(SecAggError::OutOfRange));
        assert_eq!(encode(-limit - 0.01, 25), Err(SecAggError::OutOfRange));
        assert_eq!(encode(f32::MAX, 1), Err(SecAggError::OutOfRange));
        assert_eq!(encode(f32::NAN, 1), Err(SecAggError::NonFinite));
        assert_eq!(encode(f32::NEG_INFINITY, 1), Err(SecAggError::NonFinite));
        assert_eq!(
            check(&[0.5, limit + 0.01], 25),
            Err(SecAggError::OutOfRange)
        );
        assert_eq!(check(&[0.5, -limit], 25), Ok(()));
    }

    #[test]
    fn sums_at_the_bound_do_not_wrap() {
        let n = 25;
        let limit = (i32::MAX / n as i32) as f32 / SCALE;
        let updates: Vec<Vec<f32>> = vec![vec![limit, -limit]; n];
        let session = SecAggSession::new((0..n as u32).collect(), 2, 3);
        let (sum, _) = session.aggregate(&updates);
        assert!(sum[0] > 0.0 && sum[1] < 0.0, "{sum:?}");
        let views: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
        assert_bitwise(&sum, &ring_sum(&views, n));
    }

    #[test]
    #[should_panic(expected = "too large for the 32-bit ring")]
    fn mask_panics_on_an_out_of_range_coordinate() {
        let s = SecAggSession::new(vec![0, 1], 2, 0);
        s.mask(0, &[0.0, 20_000.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate member ids")]
    fn duplicate_members_panic() {
        SecAggSession::new(vec![1, 1], 4, 0);
    }

    #[test]
    #[should_panic(expected = "not in session")]
    fn foreign_client_panics() {
        let s = SecAggSession::new(vec![0, 1], 4, 0);
        s.mask(9, &[0.0; 4]);
    }
}
