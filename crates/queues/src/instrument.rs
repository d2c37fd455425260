//! Rank-error and priority-inversion instrumentation.
//!
//! Wraps any sequential scheduler and tracks, per pop, the *rank* of the
//! returned element among all elements present, and per element the number
//! of *priority inversions* it suffered before removal — precisely the two
//! quantities bounded by Definition 1 of the paper. The `rank_tails` bench
//! uses this to validate that every scheduler model has exponential tails.

use crate::{IndexedSet, PriorityScheduler};

/// A scheduler wrapper recording rank and inversion distributions.
///
/// Requires dense priorities (the wrapper keeps per-priority inversion
/// counters in a slab). Counter semantics when elements are re-inserted with
/// the same priority (the framework's failed deletes): inversion counts
/// accumulate across re-insertions, matching the paper's `inv(u)` which runs
/// until the task is *processed*.
///
/// # Examples
///
/// ```
/// use rsched_queues::{PriorityScheduler, instrument::Instrumented};
/// use rsched_queues::exact::BinaryHeapScheduler;
///
/// let mut q = Instrumented::new(BinaryHeapScheduler::new());
/// q.insert(1, ());
/// q.insert(0, ());
/// q.pop();
/// q.pop();
/// assert_eq!(q.max_rank(), 1); // exact queue: always rank 1
/// ```
#[derive(Debug)]
pub struct Instrumented<S> {
    inner: S,
    present: IndexedSet,
    /// Inversions suffered so far, per priority.
    inv_live: Vec<u64>,
    /// Histogram: `rank_counts[r]` = number of pops that returned rank `r`
    /// (1-based; index 0 unused).
    rank_counts: Vec<u64>,
    /// Histogram of `inv(u)` recorded at each pop of `u`.
    inv_counts: Vec<u64>,
    pops: u64,
}

impl<S> Instrumented<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Instrumented {
            inner,
            present: IndexedSet::new(),
            inv_live: Vec::new(),
            rank_counts: vec![0; 2],
            inv_counts: vec![0; 1],
            pops: 0,
        }
    }

    /// Largest rank ever returned (0 if nothing was popped).
    pub fn max_rank(&self) -> usize {
        self.rank_counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Mean rank over all pops.
    pub fn mean_rank(&self) -> f64 {
        if self.pops == 0 {
            return 0.0;
        }
        let total: u64 = self.rank_counts.iter().enumerate().map(|(r, &c)| r as u64 * c).sum();
        total as f64 / self.pops as f64
    }

    /// Total pops recorded.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Empirical `Pr[rank ≥ ℓ]` for each `ℓ` up to the max rank.
    pub fn rank_tail(&self) -> Vec<f64> {
        tail_from_histogram(&self.rank_counts, self.pops)
    }

    /// Empirical `Pr[inv ≥ ℓ]` for each `ℓ` up to the max inversion count.
    pub fn inversion_tail(&self) -> Vec<f64> {
        tail_from_histogram(&self.inv_counts, self.pops)
    }

    /// Consumes the wrapper, returning the inner scheduler.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

fn tail_from_histogram(hist: &[u64], total: u64) -> Vec<f64> {
    if total == 0 {
        return Vec::new();
    }
    let mut tail = vec![0.0; hist.len() + 1];
    let mut acc = 0u64;
    for l in (0..hist.len()).rev() {
        acc += hist[l];
        tail[l] = acc as f64 / total as f64;
    }
    tail.pop();
    tail
}

fn bump(hist: &mut Vec<u64>, idx: usize) {
    if idx >= hist.len() {
        hist.resize(idx + 1, 0);
    }
    hist[idx] += 1;
}

impl<S, T> PriorityScheduler<T> for Instrumented<S>
where
    S: PriorityScheduler<T>,
{
    fn insert(&mut self, priority: u64, item: T) {
        let idx = usize::try_from(priority).expect("instrumentation needs dense priorities");
        if idx >= self.inv_live.len() {
            self.inv_live.resize(idx + 1, 0);
        }
        assert!(self.present.insert(priority), "duplicate live priority {priority}");
        self.inner.insert(priority, item);
    }

    /// Records the pop: rank against the live set, one inversion for every
    /// smaller live element, removal from the live set.
    fn pop(&mut self) -> Option<(u64, T)> {
        let (priority, item) = self.inner.pop()?;
        self.pops += 1;
        let rank = self.present.rank_of(priority); // elements strictly smaller
        bump(&mut self.rank_counts, rank + 1);
        // Every smaller live element suffers one inversion (unless rank 0:
        // this pop was exact).
        for r in 0..rank {
            let smaller = self.present.select(r).expect("rank within len");
            self.inv_live[smaller as usize] += 1;
        }
        bump(&mut self.inv_counts, self.inv_live[priority as usize] as usize);
        self.present.remove(priority);
        Some((priority, item))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::BinaryHeapScheduler;
    use crate::relaxed::{AdversarialTopK, TopKUniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_queue_always_rank_one() {
        let mut q = Instrumented::new(BinaryHeapScheduler::new());
        for p in (0..100u64).rev() {
            q.insert(p, ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.max_rank(), 1);
        assert!((q.mean_rank() - 1.0).abs() < 1e-12);
        assert_eq!(q.inversion_tail(), vec![1.0]); // nobody suffers inversions
    }

    #[test]
    fn top_k_rank_bounded_by_k() {
        let k = 7;
        let mut q = Instrumented::new(TopKUniform::new(k, StdRng::seed_from_u64(1)));
        for p in 0..500u64 {
            q.insert(p, ());
        }
        while q.pop().is_some() {}
        assert!(q.max_rank() <= k);
        assert!(q.mean_rank() > 1.0);
        assert_eq!(q.pops(), 500);
    }

    #[test]
    fn adversarial_inversions_grow() {
        // AdversarialTopK(3) starves the minimum: the min suffers an
        // inversion on every pop while ≥3 elements remain.
        let mut q = Instrumented::new(AdversarialTopK::new(3));
        for p in 0..10u64 {
            q.insert(p, ());
        }
        while q.pop().is_some() {}
        let tail = q.inversion_tail();
        // Element 0 was starved for 8 pops (until only 2 remained... it pops last).
        assert!(tail.len() >= 8, "tail too short: {tail:?}");
        assert!(*tail.last().unwrap() > 0.0);
    }

    #[test]
    fn tails_are_monotone_decreasing() {
        let mut q = Instrumented::new(TopKUniform::new(4, StdRng::seed_from_u64(2)));
        for p in 0..200u64 {
            q.insert(p, ());
        }
        while q.pop().is_some() {}
        let tail = q.rank_tail();
        assert!((tail[1] - 1.0).abs() < 1e-12, "Pr[rank ≥ 1] must be 1, got {}", tail[1]);
        for w in tail.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn reinsertion_accumulates_inversions() {
        // Pop priority 5 (rank 2 pop makes 0 and 1 suffer), reinsert, ensure
        // counters persist.
        let mut q = Instrumented::new(AdversarialTopK::new(3));
        q.insert(0, ());
        q.insert(1, ());
        q.insert(5, ());
        let (p, _) = q.pop().unwrap(); // pops 5, inversion for 0 and 1
        assert_eq!(p, 5);
        q.insert(5, ());
        let (p, _) = q.pop().unwrap(); // pops 5 again
        assert_eq!(p, 5);
        while q.pop().is_some() {}
        // 0 suffered 2 inversions (recorded when finally popped).
        let tail = q.inversion_tail();
        assert!(tail.len() >= 3);
        assert!(tail[2] > tail.get(3).copied().unwrap_or(0.0));
    }
}
