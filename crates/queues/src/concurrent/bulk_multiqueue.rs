//! A MultiQueue specialized for the framework's *prefilled* workload.
//!
//! The scheduling framework bulk-loads all `n` tasks up front and re-inserts
//! only the `poly(k)` failed deletes (Theorem 2). A binary heap wastes that
//! structure: every pop is an `O(log n)` sift-down over a cache-hostile
//! array. The paper's implementation instead keeps each internal queue as a
//! *sorted list* whose pops are `O(1)` head reads — this module is the
//! array-backed equivalent: each internal queue is a **sorted run consumed
//! from the front** (one cache line per pop, hardware-prefetcher friendly)
//! plus a small **overflow heap** receiving runtime re-insertions. Pop takes
//! the smaller of the run head and the overflow top.

use crate::lock::BucketLock;
use crate::rng;
use crate::{ConcurrentScheduler, Entry, BATCH_SCATTER_RUN};
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use rsched_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// One [`BulkMultiQueue`] bucket: a sorted prefilled run consumed from the
/// front plus a small overflow heap for runtime re-insertions. Public
/// (fields private) because it names the default bucket lock's contents
/// (`Mutex<Run<T>>`) in the type parameter list.
pub struct Run<T> {
    /// Prefilled entries, sorted ascending; `sorted[head..]` are live.
    sorted: Vec<Entry<T>>,
    head: usize,
    /// Runtime insertions (failed-delete re-inserts); stays tiny.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T: fmt::Debug> fmt::Debug for Run<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Run")
            .field("live", &(self.sorted.len() - self.head))
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

impl<T> Run<T> {
    /// Entries still to be popped.
    fn live(&self) -> usize {
        self.sorted.len() - self.head + self.overflow.len()
    }

    fn peek_key(&self) -> Option<(u64, u64)> {
        let run = self.sorted.get(self.head).map(Entry::key);
        let over = self.overflow.peek().map(|Reverse(e)| e.key());
        match (run, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn pop(&mut self) -> Option<Entry<T>>
    where
        T: Copy,
    {
        let run = self.sorted.get(self.head).map(Entry::key);
        let over = self.overflow.peek().map(|Reverse(e)| e.key());
        match (run, over) {
            (Some(a), Some(b)) if b < a => self.overflow.pop().map(|Reverse(e)| e),
            (Some(_), _) => {
                let e = self.sorted[self.head];
                self.head += 1;
                Some(e)
            }
            (None, Some(_)) => self.overflow.pop().map(|Reverse(e)| e),
            (None, None) => None,
        }
    }
}

/// A bucket lock and, on the same padded line, the live count of the run
/// behind it. Only the lock's holder stores `live`, so counting costs the
/// hot path no line it does not already own and [`BulkMultiQueue::len`]
/// sums the buckets without locking any.
struct Bucket<L> {
    lock: L,
    live: AtomicUsize,
}

impl<L> Bucket<L> {
    /// Runs `f` on this bucket's locked `run` and republishes its count.
    fn update<T, R>(&self, run: &mut Run<T>, f: impl FnOnce(&mut Run<T>) -> R) -> R {
        let out = f(run);
        self.live.store(run.live(), Ordering::Release);
        out
    }
}

/// MultiQueue over sorted runs with overflow heaps; the fast scheduler for
/// prefilled task sets (`T: Copy` since runs are consumed in place).
///
/// As for [`super::MultiQueue`], the bucket lock is pluggable: `L` is any
/// [`BucketLock`] — `parking_lot::Mutex` by default, or a queue lock from
/// [`crate::lock`] via [`BulkMultiQueue::prefilled_with_lock`].
///
/// The two-choice pair of a pop is *sticky* (`rng::sticky_pair`): a thread
/// keeps it for `rng::STICKY_POPS` pops, so no line that every worker
/// writes is touched per pop, at the price of a rank bound larger by about
/// that factor (DESIGN.md "Hot-path contention").
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
pub struct BulkMultiQueue<T, L = Mutex<Run<T>>> {
    buckets: Box<[CachePadded<Bucket<L>>]>,
    seq: CachePadded<AtomicU64>,
    _elem: std::marker::PhantomData<fn() -> T>,
}

/// Prefills smaller than this are sorted on the calling thread: spawning
/// sort threads would cost more than the sort.
const PARALLEL_SORT_MIN: u64 = 1 << 14;

impl<T: Copy + Send> BulkMultiQueue<T> {
    /// Bulk-loads `entries`, scattering them over `num_queues` runs behind
    /// the default bucket lock (`parking_lot::Mutex`).
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn prefilled<I>(num_queues: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        Self::prefilled_with_lock(num_queues, entries)
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

impl<T: Copy + Send, L: BucketLock<Run<T>>> BulkMultiQueue<T, L> {
    /// Bulk-loads `entries` over `num_queues` runs behind the bucket lock
    /// chosen by the `L` type parameter.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn prefilled_with_lock<I>(num_queues: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        Self::build(num_queues, entries, 1)
    }

    fn build<I>(num_queues: usize, entries: I, sort_threads: usize) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        assert!(num_queues >= 1, "need at least one internal queue");
        let entries = entries.into_iter();
        // The scatter is binomial: a sixteenth over the mean covers its
        // spread at every size where a regrowth would cost anything.
        let per_run = entries.size_hint().0 / num_queues;
        let mut runs: Vec<Vec<Entry<T>>> =
            (0..num_queues).map(|_| Vec::with_capacity(per_run + per_run / 16)).collect();
        let mut seq = 0u64;
        for (priority, item) in entries {
            runs[rng::next_index(num_queues)].push(Entry::new(priority, seq, item));
            seq += 1;
        }
        if sort_threads > 1 && seq >= PARALLEL_SORT_MIN {
            std::thread::scope(|s| {
                for chunk in runs.chunks_mut(num_queues.div_ceil(sort_threads)) {
                    s.spawn(move || chunk.iter_mut().for_each(|r| r.sort_unstable()));
                }
            });
        } else {
            runs.iter_mut().for_each(|r| r.sort_unstable());
        }
        let buckets = runs
            .into_iter()
            .map(|sorted| {
                let run = Run { sorted, head: 0, overflow: BinaryHeap::new() };
                let live = AtomicUsize::new(run.live());
                CachePadded::new(Bucket { lock: L::new(run), live })
            })
            .collect();
        BulkMultiQueue {
            buckets,
            seq: CachePadded::new(AtomicU64::new(seq)),
            _elem: std::marker::PhantomData,
        }
    }

    /// Locks the two-choice winner — of the thread's sticky pair, the
    /// nonempty bucket with the smaller head — runs `f` on it and
    /// republishes its count. `None` iff the queue was observed empty.
    fn with_winner<R>(&self, f: impl FnOnce(&mut Run<T>) -> R) -> Option<R> {
        let (bucket, mut guard) = self.lock_winner()?;
        Some(bucket.update(&mut guard, f))
    }

    fn lock_winner(&self) -> Option<(&Bucket<L>, L::Guard<'_>)> {
        let q = self.buckets.len();
        for _ in 0..16 {
            let (i, j) = rng::sticky_pair(q);
            let (bi, bj): (&Bucket<L>, &Bucket<L>) = (&self.buckets[i], &self.buckets[j]);
            let gi = bi.lock.try_lock();
            let gj = if j != i { bj.lock.try_lock() } else { None };
            let contended = gi.is_none() || (j != i && gj.is_none());
            // The loser's guard drops with its match arm.
            let winner = match (gi, gj) {
                (Some(a), Some(b)) => match (a.peek_key(), b.peek_key()) {
                    (Some(x), Some(y)) if y < x => Some((bj, b)),
                    (Some(_), _) => Some((bi, a)),
                    (None, Some(_)) => Some((bj, b)),
                    (None, None) => None,
                },
                (Some(a), None) => a.peek_key().map(|_| (bi, a)),
                (None, Some(b)) => b.peek_key().map(|_| (bj, b)),
                (None, None) => None,
            };
            if contended || winner.is_none() {
                rng::redraw_pair(); // pop elsewhere next time
            }
            if winner.is_some() {
                return winner;
            }
            if self.is_empty() {
                return None;
            }
        }
        // Sparse queue: blocking scan for the first nonempty bucket.
        self.buckets.iter().find_map(|b| {
            let guard = b.lock.lock();
            (guard.live() > 0).then_some((&**b, guard))
        })
    }

    /// Runs `f` on a random bucket — where insertions go — and
    /// republishes its count.
    fn with_random(&self, f: impl FnOnce(&mut Run<T>)) {
        let (bucket, mut guard) = loop {
            let b = &self.buckets[rng::next_index(self.buckets.len())];
            if let Some(g) = b.lock.try_lock() {
                break (b, g);
            }
        };
        bucket.update(&mut guard, f);
    }
}

impl<T, L> BulkMultiQueue<T, L> {
    /// Number of internal queues.
    pub fn num_queues(&self) -> usize {
        self.buckets.len()
    }

    /// Number of elements currently stored: the sum of the per-bucket
    /// counts, a snapshot under concurrency and exact at quiescence.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.live.load(Ordering::Acquire)).sum()
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy + Send, L: BucketLock<Run<T>>> ConcurrentScheduler<T> for BulkMultiQueue<T, L> {
    fn insert(&self, priority: u64, item: T) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.with_random(|run| run.overflow.push(Reverse(Entry::new(priority, seq, item))));
    }

    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        // One sequence-number claim per batch; each run of up to
        // BATCH_SCATTER_RUN entries goes to one overflow heap under one lock.
        let mut seq = self.seq.fetch_add(entries.len() as u64, Ordering::Relaxed);
        for chunk in entries.chunks(BATCH_SCATTER_RUN) {
            self.with_random(|run| {
                for &(priority, item) in chunk {
                    run.overflow.push(Reverse(Entry::new(priority, seq, item)));
                    seq += 1;
                }
            });
        }
    }

    /// The winning run/overflow pair is drained for the whole batch under
    /// its single lock acquisition.
    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let drain = |run: &mut Run<T>| {
            let before = out.len();
            out.extend(std::iter::from_fn(|| run.pop()).take(max).map(|e| (e.priority, e.item)));
            out.len() - before
        };
        self.with_winner(drain).unwrap_or(0)
    }

    fn pop(&self) -> Option<(u64, T)> {
        self.with_winner(Run::pop).flatten().map(|e| (e.priority, e.item))
    }
}

impl<T, L> fmt::Debug for BulkMultiQueue<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BulkMultiQueue")
            .field("num_queues", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn prefilled_pops_everything_roughly_in_order() {
        let q = BulkMultiQueue::prefilled(4, (0..1000u64).map(|p| (p, p as u32)));
        assert_eq!(q.len(), 1000);
        let mut out = Vec::new();
        while let Some((p, _)) = q.pop() {
            out.push(p);
        }
        assert_eq!(out.len(), 1000);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        // First pop near the front.
        assert!(out[0] < 100);
    }

    #[test]
    fn overflow_interleaves_with_run() {
        let q = BulkMultiQueue::prefilled(1, [(10u64, 10u32), (20, 20), (30, 30)]);
        q.insert(15, 15);
        q.insert(5, 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![5, 10, 15, 20, 30]);
    }

    #[test]
    fn empty_prefill_works() {
        let q: BulkMultiQueue<u32> = BulkMultiQueue::prefilled(2, std::iter::empty());
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.insert(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
    }

    #[test]
    fn concurrent_churn_exact_once() {
        let q = BulkMultiQueue::prefilled(8, (0..20_000u64).map(|p| (p, p)));
        let seen = StdMutex::new(HashSet::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    let mut i = 0u64;
                    while let Some((_, v)) = q.pop() {
                        local.push(v);
                        // Sporadic re-insertions with fresh ids.
                        if i.is_multiple_of(100) {
                            q.insert(30_000 + t * 1_000 + i / 100, 30_000 + t * 1_000 + i / 100);
                        }
                        i += 1;
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "element {v} popped twice");
                    }
                });
            }
        });
        assert!(seen.lock().unwrap().len() >= 20_000);
    }

    #[test]
    fn ties_keep_insertion_order_within_run() {
        let q = BulkMultiQueue::prefilled(1, [(7u64, 1u32), (7, 2), (7, 3)]);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }
}
