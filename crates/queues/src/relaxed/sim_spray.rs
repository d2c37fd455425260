//! A sequential simulation of the SprayList \[3\].
//!
//! The SprayList's `ApproxGetMin` performs a *spray*: a random descent of a
//! skiplist starting at height `h = ⌊log₂ p⌋ + K` that walks a uniformly
//! random number of steps at every level. The landing position — the rank of
//! the deleted element — is therefore distributed as
//! `Σ_level jump_level · 2^level` with `jump_level ~ Uniform[0, max_jump]`,
//! which is the near-uniform-over-`O(p log³p)` distribution proved in \[3\].
//! This module simulates exactly that landing distribution over an indexed
//! set, giving a `k`-relaxed scheduler with `k = Θ(max_jump · 2^h)`.

use crate::{IndexedSet, PriorityScheduler};
use rand::Rng;
use std::fmt;

/// Sequential SprayList model over dense unique priorities.
///
/// # Examples
///
/// ```
/// use rsched_queues::{PriorityScheduler, relaxed::SimSprayList};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut q = SimSprayList::with_threads(8, StdRng::seed_from_u64(1));
/// for p in 0..100u64 {
///     q.insert(p, ());
/// }
/// let (p, _) = q.pop().unwrap();
/// assert!(p < 100);
/// ```
pub struct SimSprayList<T, R> {
    set: IndexedSet,
    items: Vec<Option<T>>,
    rng: R,
    height: u32,
    max_jump: u64,
}

impl<T, R: Rng> SimSprayList<T, R> {
    /// Creates a spray model tuned for `p` simulated threads: height
    /// `⌊log₂ p⌋ + 1`, jump length up to 1 per level (so typical spray reach
    /// is `Θ(p)`).
    pub fn with_threads(p: usize, rng: R) -> Self {
        let p = p.max(1);
        let height = (usize::BITS - 1 - p.next_power_of_two().leading_zeros()) + 1;
        Self::with_parameters(height, 1, rng)
    }

    /// Creates a spray model with explicit descent `height` and per-level
    /// `max_jump`. Spray reach (≈ relaxation factor) is
    /// `max_jump · (2^(height+1) − 1)`.
    pub fn with_parameters(height: u32, max_jump: u64, rng: R) -> Self {
        SimSprayList { set: IndexedSet::new(), items: Vec::new(), rng, height, max_jump }
    }

    fn spray(&mut self) -> u64 {
        let mut rank = 0u64;
        for level in (0..=self.height).rev() {
            let jump = self.rng.gen_range(0..=self.max_jump);
            rank += jump << level;
        }
        rank
    }
}

impl<T, R: Rng> PriorityScheduler<T> for SimSprayList<T, R> {
    fn insert(&mut self, priority: u64, item: T) {
        let idx = usize::try_from(priority).expect("dense priority out of usize range");
        if idx >= self.items.len() {
            self.items.resize_with(idx + 1, || None);
        }
        assert!(
            self.set.insert(priority),
            "priority {priority} already present (spray model needs unique priorities)"
        );
        self.items[idx] = Some(item);
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        let len = self.set.len();
        if len == 0 {
            return None;
        }
        let rank = (self.spray() as usize).min(len - 1);
        let p = self.set.remove_by_rank(rank)?;
        let item = self.items[p as usize].take().expect("slab out of sync");
        Some((p, item))
    }

    fn len(&self) -> usize {
        self.set.len()
    }
}

impl<T, R> fmt::Debug for SimSprayList<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSprayList")
            .field("len", &self.set.len())
            .field("height", &self.height)
            .field("max_jump", &self.max_jump)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spray_rank_within_reach() {
        let mut q = SimSprayList::with_parameters(3, 2, StdRng::seed_from_u64(1));
        // max_jump · (2^(height+1) − 1)
        let reach = 2 * 15;
        for p in 0..1000u64 {
            q.insert(p, ());
        }
        let mut present: std::collections::BTreeSet<u64> = (0..1000).collect();
        while let Some((p, _)) = q.pop() {
            let rank = present.iter().take_while(|&&x| x < p).count() as u64;
            assert!(rank <= reach, "rank {rank} beyond spray reach");
            present.remove(&p);
        }
    }

    #[test]
    fn pops_everything_exactly_once() {
        let mut q = SimSprayList::with_threads(16, StdRng::seed_from_u64(2));
        for p in 0..500u64 {
            q.insert(p, p);
        }
        let mut out: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        out.sort_unstable();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn small_reach_behaves_nearly_exactly() {
        // height 0, jump ≤ 1 → rank ∈ {0, 1}.
        let mut q = SimSprayList::with_parameters(0, 1, StdRng::seed_from_u64(3));
        for p in 0..100u64 {
            q.insert(p, ());
        }
        let mut present: std::collections::BTreeSet<u64> = (0..100).collect();
        while let Some((p, _)) = q.pop() {
            let rank = present.iter().take_while(|&&x| x < p).count();
            assert!(rank <= 1);
            present.remove(&p);
        }
    }

    #[test]
    fn with_threads_height_grows_logarithmically() {
        let q1 = SimSprayList::<(), _>::with_threads(1, StdRng::seed_from_u64(0));
        let q8 = SimSprayList::<(), _>::with_threads(8, StdRng::seed_from_u64(0));
        let q64 = SimSprayList::<(), _>::with_threads(64, StdRng::seed_from_u64(0));
        assert_eq!((q1.height, q8.height, q64.height), (1, 4, 7));
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut q = SimSprayList::<u8, _>::with_threads(4, StdRng::seed_from_u64(0));
        assert_eq!(q.pop(), None);
    }
}
