//! A MultiQueue specialized for the framework's *prefilled* workload.
//!
//! The scheduling framework bulk-loads all `n` tasks up front and re-inserts
//! only the `poly(k)` failed deletes (Theorem 2). A heap wastes that
//! structure: every pop is an `O(log n)` sift-down over a cache-hostile
//! array. The paper's implementation instead keeps each internal queue as a
//! *sorted list* whose pops are `O(1)` head reads — this module is the
//! array-backed equivalent: each internal queue is a **sorted run consumed
//! from the front** (one cache line per pop, hardware-prefetcher friendly)
//! plus a small **overflow** [`Heap`] — the one heap behind every locked
//! bucket — receiving runtime re-insertions. Pop takes the smaller of the
//! run head and the overflow top. Only the bucket lives here; the scheduler
//! around it is [`MultiQueueCore`].

use super::multiqueue::{BucketQueue, Heap, Locked, MultiQueueCore};
use crate::Entry;
use std::fmt;

/// One [`BulkMultiQueue`] bucket: a sorted prefilled run consumed from the
/// front plus a small overflow heap for runtime re-insertions. Public
/// (fields private) because the [`BulkMultiQueue`] alias names it.
pub struct Run<T> {
    /// Prefilled entries, sorted ascending; `sorted[head..]` are live.
    sorted: Vec<Entry<T>>,
    head: usize,
    /// Runtime insertions (failed-delete re-inserts); stays tiny.
    overflow: Heap<T>,
}

impl<T: fmt::Debug> fmt::Debug for Run<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Run")
            .field("live", &(self.sorted.len() - self.head))
            .field("overflow", &self.overflow)
            .finish()
    }
}

/// `T: Copy` since the run is consumed in place.
impl<T: Copy + Send> BucketQueue<T> for Run<T> {
    fn from_sorted(sorted: Vec<Entry<T>>) -> Self {
        Run { sorted, head: 0, overflow: Heap::default() }
    }

    fn peek_min(&self) -> Option<u64> {
        let run = self.sorted.get(self.head).map(|e| e.priority);
        match (run, self.overflow.peek_min()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pop_min(&mut self) -> Option<Entry<T>> {
        let run = self.sorted.get(self.head).map(Entry::key);
        let over = self.overflow.peek().map(Entry::key);
        match (run, over) {
            (Some(a), Some(b)) if b < a => self.overflow.pop_min(),
            (Some(_), _) => {
                let e = self.sorted[self.head];
                self.head += 1;
                Some(e)
            }
            (None, Some(_)) => self.overflow.pop_min(),
            (None, None) => None,
        }
    }

    fn push_entry(&mut self, entry: Entry<T>) {
        self.overflow.push_entry(entry);
    }
}

/// MultiQueue over sorted runs with overflow heaps; the fast scheduler for
/// prefilled task sets (`T: Copy` since runs are consumed in place).
///
/// # Examples
///
/// ```
/// use rsched_queues::{ConcurrentScheduler, concurrent::BulkMultiQueue};
///
/// let q = BulkMultiQueue::prefilled(4, (0..100u64).map(|p| (p, p as u32)));
/// let (p, _) = q.pop().unwrap();
/// assert!(p < 100);
/// q.insert(0, 999); // re-insertions go to the overflow heap
/// ```
pub type BulkMultiQueue<T> = MultiQueueCore<T, Locked<Run<T>>>;

impl<T: Copy + Send> BulkMultiQueue<T> {
    /// Bulk-loads `entries`, scattering them over `num_queues` runs.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn prefilled<I>(num_queues: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        Self::build(num_queues, entries, 1)
    }

    /// Creates a queue sized as in the paper (four per thread), prefilled;
    /// large inputs sort their runs on up to `threads` scoped threads.
    pub fn prefilled_for_threads<I>(threads: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        let threads = threads.max(1);
        Self::build(4 * threads, entries, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentScheduler;

    #[test]
    fn overflow_interleaves_with_run() {
        let q = BulkMultiQueue::prefilled(1, [(10u64, 10u32), (20, 20), (30, 30)]);
        q.insert(15, 15);
        q.insert(5, 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![5, 10, 15, 20, 30]);
    }

    #[test]
    fn ties_keep_insertion_order_within_run() {
        let q = BulkMultiQueue::prefilled(1, [(7u64, 1u32), (7, 2), (7, 3)]);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }
}
