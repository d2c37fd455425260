//! Incremental algorithms under relaxed schedulers.
//!
//! The follow-up line of work to the source paper — *Efficiency Guarantees
//! for Parallel Incremental Algorithms under Relaxed Schedulers* (arXiv
//! 2003.09363) and *Many Sequential Iterative Algorithms Can Be Parallel
//! and (Nearly) Work-efficient* (arXiv 2205.13077) — shows that classic
//! *incremental constructions* stay nearly work-efficient when their
//! insertion sequence is driven by a relaxed scheduler: the dependency
//! structure of a randomized insertion order is shallow (`O(log n)` depth
//! with high probability), so a `k`-relaxed scheduler reordering within a
//! window of ~`k` only ever collides with a bounded number of genuine
//! dependencies.
//!
//! This subsystem reproduces that claim with two workloads spanning the
//! dependency spectrum, both implementing the framework's one task oracle
//! so every sequential model and every concurrent scheduler drives them
//! unmodified:
//!
//! * [`connectivity`] — incremental graph connectivity. Edge insertions
//!   into a union-find structure **commute**: the final partition is
//!   insertion-order independent, so the dependency depth is trivial and
//!   relaxation is free. The "wasted" pops (edges whose endpoints are
//!   already connected) are exactly `m − (n − c)` for *any* pop order —
//!   the flat end of the spectrum.
//! * [`delaunay`] — randomized incremental 2D Delaunay triangulation.
//!   Point insertions genuinely conflict (a point depends on earlier
//!   points that fall in its cavity), so an out-of-order pop can be a
//!   *failed delete* that retries later — the `poly(k)` end of the
//!   spectrum, whose waste the `incremental` bench binary measures against
//!   the dependency-depth bound.
//!
//! Insertion orders come from [`insertion_order`], a deterministic shuffle
//! built on the workspace's stable task hash (`rsched_queues::hash`) — the
//! same audited implementation that routes tasks in the sharded scheduler —
//! so a pinned seed reproduces the identical order on every run, toolchain,
//! and machine.

pub mod connectivity;
pub mod delaunay;

use rsched_graph::Permutation;
use rsched_queues::hash::stable_hash64;

/// A deterministic random-looking insertion order over `n` tasks, derived
/// from the stable task hash: task `v` sorts by `stable_hash64((seed, v))`
/// (ties — which the 64-bit hash makes vanishingly unlikely — break by id).
///
/// Unlike `Permutation::random`, this does not consume an RNG stream: it is
/// a pure function of `(n, seed)`, shares the audited hash with sharded
/// routing, and is therefore reproducible across toolchains — the property
/// the incremental benches pin their ground-truth comparisons on.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::incremental::insertion_order;
///
/// let pi = insertion_order(100, 7);
/// assert_eq!(pi, insertion_order(100, 7));      // pure function of (n, seed)
/// assert_ne!(pi, insertion_order(100, 8));      // seed-sensitive
/// ```
pub fn insertion_order(n: usize, seed: u64) -> Permutation {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_cached_key(|&v| (stable_hash64(&(seed, v)), v));
    Permutation::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_is_a_permutation() {
        let pi = insertion_order(1_000, 42);
        let mut seen = vec![false; 1_000];
        for pos in 0..1_000u32 {
            let t = pi.task_at(pos);
            assert!(!std::mem::replace(&mut seen[t as usize], true));
        }
    }

    #[test]
    fn insertion_order_actually_shuffles() {
        let pi = insertion_order(1_000, 0);
        // Not the identity and not a near-identity: count fixed points.
        let fixed = (0..1_000u32).filter(|&v| pi.label(v) == v).count();
        assert!(fixed < 10, "{fixed} fixed points — hash shuffle is degenerate");
    }
}
