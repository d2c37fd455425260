//! A tiny thread-local xorshift generator for the concurrent schedulers.
//!
//! The hot path of a MultiQueue pop is two random indices; pulling
//! `rand::thread_rng` there costs a TLS handle and ChaCha rounds per call.
//! This xorshift64* keeps queue selection cheap. It is *not* used anywhere
//! reproducibility matters — the sequential simulation models take a caller
//! seeded `rand::Rng`. [`sticky_pair`] goes one step further and reuses a
//! drawn pair for several pops, so the pop also stays in its own cache.

use rsched_sync::atomic::{AtomicU64, Ordering};
use std::cell::Cell;

static SEED_COUNTER: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);

thread_local! {
    static STATE: Cell<u64> = Cell::new(fresh_seed());
    /// The thread's sticky two-choice pair: `(bound, i, j, pops left)`.
    static PAIR: Cell<(usize, usize, usize, u32)> = const { Cell::new((0, 0, 0, 0)) };
}

/// Consecutive pops a thread serves from one two-choice pair before
/// re-drawing it ([`sticky_pair`]). Definition 1's `k` of a MultiQueue
/// grows by about this factor (DESIGN.md "Hot-path contention").
pub const STICKY_POPS: u32 = 8;

/// The SplitMix64 finalizer, shared with the stable hash in [`crate::hash`]
/// (one audited implementation for seeding and routing alike).
use crate::hash::splitmix64;

fn fresh_seed() -> u64 {
    // SplitMix64 step over a global counter: distinct, well-mixed per thread.
    let z = SEED_COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    // The counter already strides by the SplitMix increment, so mix the raw
    // value (splitmix64 adds the same increment once more — harmless).
    splitmix64(z) | 1 // xorshift state must be non-zero
}

/// Returns the next thread-local pseudo-random `u64`.
#[inline]
pub fn next_u64() -> u64 {
    STATE.with(|s| {
        let mut x = s.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    })
}

/// Returns a thread-local pseudo-random index in `0..bound`.
///
/// # Panics
///
/// Panics in debug builds if `bound == 0`.
#[inline]
pub fn next_index(bound: usize) -> usize {
    debug_assert!(bound > 0);
    // Lemire-style multiply-shift range reduction (slight bias is irrelevant
    // for queue selection).
    ((next_u64() as u128 * bound as u128) >> 64) as usize
}

/// Returns the thread's current two-choice pair of indices in `0..bound`,
/// re-drawing it after [`STICKY_POPS`] uses, after [`redraw_pair`], or when
/// `bound` differs from the one it was drawn for. Reusing a pair keeps its
/// two lock lines and queue heads in the popping core's cache.
///
/// # Panics
///
/// Panics in debug builds if `bound == 0`.
#[inline]
pub fn sticky_pair(bound: usize) -> (usize, usize) {
    PAIR.with(|p| {
        let (drawn_for, mut i, mut j, mut left) = p.get();
        if left == 0 || drawn_for != bound {
            (i, j, left) = (next_index(bound), next_index(bound), STICKY_POPS);
        }
        p.set((bound, i, j, left - 1));
        (i, j)
    })
}

/// Makes the thread's next [`sticky_pair`] call draw a fresh pair: the
/// current one lost a `try_lock` race or ran empty.
#[inline]
pub fn redraw_pair() {
    PAIR.with(|p| p.set((0, 0, 0, 0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_in_range() {
        for bound in [1usize, 2, 3, 7, 100] {
            for _ in 0..1000 {
                assert!(next_index(bound) < bound);
            }
        }
    }

    #[test]
    fn values_vary() {
        let a = next_u64();
        let b = next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn threads_get_distinct_streams() {
        let h = std::thread::spawn(next_u64);
        let mine = next_u64();
        let theirs = h.join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn sticky_pair_holds_for_its_quota_then_redraws() {
        redraw_pair();
        let first = sticky_pair(1 << 20);
        for _ in 1..STICKY_POPS {
            assert_eq!(sticky_pair(1 << 20), first);
        }
        // 2^-40 chance of drawing the same pair again.
        assert_ne!(sticky_pair(1 << 20), first);
        // A different bound or an explicit redraw drops the pair at once.
        let (i, j) = sticky_pair(3);
        assert!(i < 3 && j < 3);
        let held = sticky_pair(1 << 20);
        redraw_pair();
        assert_ne!(sticky_pair(1 << 20), held);
    }

    #[test]
    fn rough_uniformity() {
        let mut buckets = [0usize; 4];
        for _ in 0..40_000 {
            buckets[next_index(4)] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b} far from 10k");
        }
    }
}
