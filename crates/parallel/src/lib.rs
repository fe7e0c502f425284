//! Parallelism primitives for the Group-FEL simulator.
//!
//! Algorithm 1 of the paper runs three nested "in parallel" loops: edge
//! servers form groups in parallel, sampled groups train in parallel, and
//! clients inside a group run local SGD in parallel. This crate provides the
//! small set of data-parallel building blocks those loops need, running on a
//! persistent fork-join pool ([`fork`]) so regions cost channel sends rather
//! than OS thread spawn/join cycles.
//!
//! Two execution styles are offered:
//!
//! * [`par_map`] / [`par_for_each_mut`] / [`par_reduce`]: fork-join regions
//!   over slices, scheduled by atomic index stealing so uneven per-item work
//!   (clients with very different data sizes) balances automatically.
//! * [`par_map_init`] / [`par_for_each_init`]: the same, with worker-local
//!   state built once per participating thread (scratch buffers, workspaces).
//!
//! All entry points degrade gracefully to sequential execution when the
//! requested parallelism is 1, the input is tiny, or the caller is already
//! inside a parallel region (see [`fork::in_region`]), so unit tests remain
//! deterministic and nested parallelism cannot oversubscribe the machine.

pub mod fork;
mod scope;
pub mod stats;

pub use fork::{in_region, region, worker_index};
pub use scope::{
    par_for_each_init, par_for_each_mut, par_map, par_map_init, par_map_with, par_reduce, Chunking,
};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global override for the default parallelism degree (0 = autodetect).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `GFL_THREADS` environment override, read once (0 = unset/invalid).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("GFL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// Returns the default degree of parallelism used by the fork-join helpers.
///
/// Resolution order: [`set_default_parallelism`] pin (e.g. the CLI
/// `--threads` flag), then the `GFL_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Pinning keeps benchmarks
/// comparable across machines and forces sequential execution in tests.
pub fn default_parallelism() -> usize {
    let forced = DEFAULT_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pins the default parallelism degree for the whole process.
///
/// `0` restores autodetection.
pub fn set_default_parallelism(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// Splits `len` items into at most `threads` contiguous chunk ranges of
/// near-equal size. Returns `(start, end)` pairs; never returns empty chunks.
pub fn chunk_ranges(len: usize, threads: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, len);
    let base = len / threads;
    let extra = len % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_all_items_without_overlap() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 3, 8, 33] {
                let ranges = chunk_ranges(len, threads);
                let mut covered = 0;
                let mut prev_end = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, prev_end, "chunks must be contiguous");
                    assert!(e > s, "chunks must be non-empty");
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len);
                if len > 0 {
                    assert!(ranges.len() <= threads.max(1));
                    assert!(ranges.len() <= len);
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_balance_within_one() {
        let ranges = chunk_ranges(100, 7);
        let sizes: Vec<usize> = ranges.iter().map(|(s, e)| e - s).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?} must differ by at most 1");
    }

    #[test]
    fn default_parallelism_is_positive_and_pinnable() {
        assert!(default_parallelism() >= 1);
        set_default_parallelism(3);
        assert_eq!(default_parallelism(), 3);
        set_default_parallelism(0);
        assert!(default_parallelism() >= 1);
    }
}
