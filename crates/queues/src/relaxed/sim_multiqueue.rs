//! A sequential simulation of the MultiQueue \[21\].
//!
//! `q` internal exact priority queues; inserts go to a uniformly random
//! queue; deletes peek **two** uniformly random queues and pop the better
//! top (power-of-two-choices). Per \[2\], this process is `O(q)`-rank-bounded
//! and `O(q log q)`-fair with exponential tails — i.e. a `k`-relaxed
//! scheduler with `k = O(q)`. This is the scheduler Table 1 sweeps.

use crate::{Entry, PriorityScheduler};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Sequential MultiQueue model.
///
/// # Examples
///
/// ```
/// use rsched_queues::{PriorityScheduler, relaxed::SimMultiQueue};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let mut q = SimMultiQueue::new(4, StdRng::seed_from_u64(1));
/// for p in 0..100u64 {
///     q.insert(p, p);
/// }
/// let mut n = 0;
/// while q.pop().is_some() {
///     n += 1;
/// }
/// assert_eq!(n, 100); // every element popped exactly once
/// ```
pub struct SimMultiQueue<T, R> {
    queues: Vec<BinaryHeap<Reverse<Entry<T>>>>,
    len: usize,
    /// The next tie-break, wrapping (`Entry` has the rule).
    seq: u32,
    rng: R,
}

impl<T, R: Rng> SimMultiQueue<T, R> {
    /// Creates a MultiQueue with `num_queues` internal queues.
    ///
    /// With one queue this degenerates to an exact scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn new(num_queues: usize, rng: R) -> Self {
        assert!(num_queues >= 1, "need at least one internal queue");
        SimMultiQueue {
            queues: (0..num_queues).map(|_| BinaryHeap::new()).collect(),
            len: 0,
            seq: 0,
            rng,
        }
    }

    /// Number of internal queues.
    pub fn num_queues(&self) -> usize {
        self.queues.len()
    }

    fn top_key(&self, i: usize) -> Option<(u64, u32)> {
        self.queues[i].peek().map(|Reverse(e)| e.key())
    }
}

impl<T, R: Rng> PriorityScheduler<T> for SimMultiQueue<T, R> {
    fn insert(&mut self, priority: u64, item: T) {
        let i = self.rng.gen_range(0..self.queues.len());
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        self.queues[i].push(Reverse(Entry::new(priority, seq, item)));
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let q = self.queues.len();
        // Power-of-two-choices; retry on empty picks, falling back to a scan
        // (the sequential model never has to fail while non-empty).
        for _ in 0..8 {
            let i = self.rng.gen_range(0..q);
            let j = self.rng.gen_range(0..q);
            let best = match (self.top_key(i), self.top_key(j)) {
                (Some(a), Some(b)) => {
                    if a <= b {
                        i
                    } else {
                        j
                    }
                }
                (Some(_), None) => i,
                (None, Some(_)) => j,
                (None, None) => continue,
            };
            let Reverse(e) = self.queues[best].pop().expect("peeked non-empty");
            self.len -= 1;
            return Some((e.priority, e.item));
        }
        // Deterministic fallback: first non-empty queue.
        let best = (0..q).find(|&i| !self.queues[i].is_empty())?;
        let Reverse(e) = self.queues[best].pop().expect("found non-empty");
        self.len -= 1;
        Some((e.priority, e.item))
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<T, R> fmt::Debug for SimMultiQueue<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMultiQueue")
            .field("num_queues", &self.queues.len())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_queue_is_exact() {
        let mut q = SimMultiQueue::new(1, StdRng::seed_from_u64(2));
        for p in [5u64, 1, 4, 2, 3] {
            q.insert(p, ());
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pops_each_element_exactly_once() {
        let mut q = SimMultiQueue::new(8, StdRng::seed_from_u64(3));
        for p in 0..1000u64 {
            q.insert(p, ());
        }
        let mut popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        popped.sort_unstable();
        assert_eq!(popped, (0..1000).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn mean_rank_error_scales_with_queues() {
        // Empirical sanity for the O(q) rank bound: mean rank with q queues
        // should be well below a few multiples of q.
        let q_count = 16;
        let mut q = SimMultiQueue::new(q_count, StdRng::seed_from_u64(4));
        let n = 20_000u64;
        for p in 0..n {
            q.insert(p, ());
        }
        let mut present: std::collections::BTreeSet<u64> = (0..n).collect();
        let mut total_rank = 0usize;
        let mut pops = 0usize;
        while let Some((p, _)) = q.pop() {
            total_rank += present.iter().take_while(|&&x| x < p).count();
            present.remove(&p);
            pops += 1;
        }
        let mean_rank = total_rank as f64 / pops as f64;
        assert!(
            mean_rank < 3.0 * q_count as f64,
            "mean rank {mean_rank:.1} too large for q = {q_count}"
        );
        assert!(mean_rank > 0.5, "suspiciously exact for a relaxed queue");
    }

    #[test]
    fn interleaved_insert_pop_keeps_len() {
        let mut q = SimMultiQueue::new(4, StdRng::seed_from_u64(5));
        q.insert(1, 1);
        q.insert(2, 2);
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        q.insert(3, 3);
        assert_eq!(q.len(), 2);
        let _ = q.pop();
        let _ = q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_queues_rejected() {
        let _ = SimMultiQueue::<(), _>::new(0, StdRng::seed_from_u64(1));
    }
}
