//! The exact concurrent scheduler: a prefilled fetch-and-add array queue.
//!
//! The paper's exact baseline loads all tasks into a wait-free FIFO queue
//! \[27\] in priority order and pops concurrently. For that prefilled,
//! pop-only access pattern the queue reduces to an immutable sorted array
//! with an atomic head index — one `fetch_add` per pop, wait-free. This is
//! what we implement (DESIGN.md substitution #2).

use crossbeam::utils::CachePadded;
use rsched_sync::atomic::{AtomicUsize, Ordering};

/// A wait-free, pop-only exact scheduler over a prefilled task array.
///
/// Does **not** implement [`crate::ConcurrentScheduler`]: it deliberately has
/// no `insert`, because the exact concurrent executor never re-inserts (it
/// backs off on unprocessed predecessors instead, as in the paper §4).
///
/// # Examples
///
/// ```
/// use rsched_queues::concurrent::FaaArrayQueue;
///
/// let q = FaaArrayQueue::from_sorted(vec![(1u64, 'a'), (2, 'b')]);
/// assert_eq!(q.pop(), Some((1, 'a')));
/// assert_eq!(q.pop(), Some((2, 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct FaaArrayQueue<T> {
    entries: Box<[(u64, T)]>,
    head: CachePadded<AtomicUsize>,
}

impl<T: Copy + Send> FaaArrayQueue<T> {
    /// Builds the queue from entries already sorted by priority.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entries are not sorted.
    pub fn from_sorted(entries: Vec<(u64, T)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "entries not sorted");
        FaaArrayQueue {
            entries: entries.into_boxed_slice(),
            head: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Pops the next entry in exact priority order (wait-free).
    pub fn pop(&self) -> Option<(u64, T)> {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        self.entries.get(i).copied()
    }

    /// Number of entries not yet claimed (snapshot).
    pub fn remaining(&self) -> usize {
        self.entries.len().saturating_sub(self.head.load(Ordering::Relaxed))
    }

    /// Total number of entries loaded.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn pops_in_exact_order() {
        let q = FaaArrayQueue::from_sorted(vec![(1u64, 1u32), (2, 2), (3, 3), (4, 4), (5, 5)]);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_queue() {
        let q: FaaArrayQueue<u32> = FaaArrayQueue::from_sorted(Vec::new());
        assert_eq!(q.pop(), None);
        assert_eq!(q.remaining(), 0);
        assert_eq!(q.capacity(), 0);
    }

    #[test]
    fn remaining_decreases() {
        let q = FaaArrayQueue::from_sorted(vec![(1u64, 0u32), (2, 1)]);
        assert_eq!(q.remaining(), 2);
        q.pop();
        assert_eq!(q.remaining(), 1);
        q.pop();
        q.pop(); // over-pop is harmless
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn concurrent_pops_claim_disjoint_entries() {
        let n = 20_000u64;
        let q = FaaArrayQueue::from_sorted((0..n).map(|i| (i, i)).collect());
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((_, v)) = q.pop() {
                        local.push(v);
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "entry {v} claimed twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), n as usize);
    }

    #[test]
    fn ties_keep_insertion_order() {
        let q = FaaArrayQueue::from_sorted(vec![(0u64, 0u32), (1, 10), (1, 20)]);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((1, 10)));
        assert_eq!(q.pop(), Some((1, 20)));
    }
}
