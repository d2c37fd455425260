//! The MultiQueue relaxed scheduler \[21\], implemented once:
//! [`MultiQueueCore`] over a choice of [`Bucket`]. This file holds the core,
//! the lock-based bucket [`Locked`] (a sorted run consumed from the front
//! plus the sequential [`Heap`] that takes later inserts) and its
//! instantiation, [`MultiQueue`]; the Harris-list bucket is in
//! `lf_multiqueue.rs`.

use crate::rng;
use crate::{ConcurrentScheduler, Entry, BATCH_SCATTER_RUN};
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use rsched_sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::fmt;
use std::marker::PhantomData;

/// One internal queue of a [`MultiQueueCore`]. Which bucket to pop, when
/// to retry, where an insert goes and what `len` is are the core's; the
/// bucket supplies access and its **count discipline**: [`Bucket::close`]
/// decides when a change shows in [`Bucket::count`] (DESIGN.md "Hot-path
/// contention" has the table).
pub trait Bucket<T>: Send + Sync + Sized {
    /// Taken at most once per core operation and shared by every bucket
    /// the operation touches: a reclamation guard, or `()` under locks.
    type Guard;

    /// Access to an opened bucket: a lock guard, or the borrowed
    /// reclamation guard of a lock-free list.
    type Open<'a>
    where
        Self: 'a;

    /// Builds a bucket holding `run`, which is sorted ascending.
    fn from_sorted(run: Vec<Entry<T>>) -> Self;

    /// Enters the per-operation critical section.
    fn guard(&self) -> Self::Guard;

    /// Opens the bucket unless that would block.
    fn try_open<'a>(&'a self, guard: &'a Self::Guard) -> Option<Self::Open<'a>>;

    /// Opens the bucket, waiting for it if need be.
    fn open<'a>(&'a self, guard: &'a Self::Guard) -> Self::Open<'a>;

    /// The smallest priority held, `None` if the bucket is empty.
    fn peek(&self, open: &Self::Open<'_>) -> Option<u64>;

    /// Removes up to `max` entries, smallest first, into `out`; returns how
    /// many. Fewer than `max` means the bucket was observed empty (or, for
    /// a lock-free bucket, a racing pop cut the run short).
    fn pop_run(&self, open: &mut Self::Open<'_>, max: usize, out: impl FnMut((u64, T))) -> usize;

    /// Adds every entry of `run` and returns how many it added.
    fn push_run(&self, open: &mut Self::Open<'_>, run: impl Iterator<Item = Entry<T>>) -> isize;

    /// Publishes the count after `delta` net insertions through `open`,
    /// then gives the bucket up.
    fn close(&self, open: Self::Open<'_>, delta: isize);

    /// The published live count: exact at quiescence, and transiently
    /// behind — below zero even — for a bucket that counts after linking.
    fn count(&self) -> isize;
}

/// The MultiQueue over buckets of kind `B`: the padded bucket array, the
/// two-choice pop, random-bucket inserts scattered in runs, `len` as the
/// sum of the bucket counts, the radix-sorted bulk load. Use it through the
/// aliases [`MultiQueue`] and [`super::LockFreeMultiQueue`], which carry
/// the constructors.
///
/// `insert` pushes to a random bucket; `pop` compares the heads of two
/// buckets and pops the smaller (power-of-two-choices). With `q = c·threads`
/// buckets this is an `O(q)`-rank-bounded, `O(q log q)`-fair scheduler with
/// exponential tails \[2\] — a `k`-relaxed scheduler in the paper's sense.
/// The pair is *sticky* (`rng::sticky_pair`): a thread keeps it for
/// `rng::STICKY_POPS` pops, so no line that every worker writes is touched
/// per pop, at the price of a `k` larger by about that factor (DESIGN.md
/// "Hot-path contention").
pub struct MultiQueueCore<T, B> {
    buckets: Box<[CachePadded<B>]>,
    seq: CachePadded<AtomicU64>,
    _elem: PhantomData<fn() -> T>,
}

/// Prefills smaller than this are radix-sorted on the calling thread:
/// spawning sort threads would cost more than the sort.
const PARALLEL_SORT_MIN: u64 = 1 << 14;

/// Widest digit of [`radix_sort`]: 2¹¹ counters (16 KiB) per pass stay in
/// L1, and a 20-bit span (`mis_sparse`'s million labels) takes two passes.
const RADIX_BITS: u32 = 11;

/// Sorts `run`, which is in `seq` order, into `(priority, seq)` order: a
/// stable LSD radix sort on `priority − min` over the bits in which the
/// run's priorities differ, so equal priorities keep their `seq` order and
/// the result is the one a comparison sort of the keys gives. One read
/// finds the span, one counts every digit, and each digit that varies is
/// one scatter through `scratch`, which the caller may reuse across runs.
fn radix_sort<T>(run: &mut Vec<Entry<T>>, scratch: &mut Vec<Entry<T>>) {
    let n = run.len();
    if n < 2 {
        return;
    }
    let (min, max) =
        run.iter().fold((u64::MAX, 0), |(lo, hi), e| (lo.min(e.priority), hi.max(e.priority)));
    let bits = u64::BITS - (max - min).leading_zeros();
    if bits == 0 {
        return;
    }
    // No wider than the run is long, so a short run clears few counters;
    // then evened out over the passes the span needs.
    let passes = bits.div_ceil(RADIX_BITS.min(usize::BITS - n.leading_zeros()));
    let width = bits.div_ceil(passes);
    let (radix, mask) = (1usize << width, (1u64 << width) - 1);
    let digit = |e: &Entry<T>, pass: u32| (((e.priority - min) >> (pass * width)) & mask) as usize;
    let mut offsets = vec![0usize; passes as usize * radix];
    for e in run.iter() {
        for pass in 0..passes {
            offsets[pass as usize * radix + digit(e, pass)] += 1;
        }
    }
    for (pass, next) in (0..passes).zip(offsets.chunks_exact_mut(radix)) {
        if next.contains(&n) {
            continue; // one digit value throughout: the order stands
        }
        let mut at = 0;
        for slot in next.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        scatter(run, scratch, |e| {
            let d = digit(e, pass);
            next[d] += 1;
            next[d] - 1
        });
        std::mem::swap(run, scratch);
    }
}

/// Moves every entry of `src` to `dst[place(entry)]`, leaving `src` empty
/// and `dst` holding exactly those entries. `place` must map the entries
/// one-to-one onto `0..src.len()`, in the order they are handed to it.
fn scatter<T>(
    src: &mut Vec<Entry<T>>,
    dst: &mut Vec<Entry<T>>,
    mut place: impl FnMut(&Entry<T>) -> usize,
) {
    let n = src.len();
    dst.clear();
    dst.reserve(n);
    let slots = &mut dst.spare_capacity_mut()[..n];
    // SAFETY: with its length 0, `src` no longer owns (or drops) its first
    // `n` elements, which stay initialized in its buffer; the loop below
    // moves each out exactly once. A panic on the way leaks, never frees
    // twice: the moved-out entry is dropped by the unwind, the rest by nobody.
    unsafe { src.set_len(0) };
    for i in 0..n {
        // SAFETY: `i < n`, so this slot was initialized and is read once.
        let e = unsafe { src.as_ptr().add(i).read() };
        slots[place(&e)].write(e);
    }
    // SAFETY: `place` hit each of the first `n` slots once, so all are
    // initialized, and `dst` was empty before them.
    unsafe { dst.set_len(n) };
}

impl<T: Send, B: Bucket<T>> MultiQueueCore<T, B> {
    /// Scatters `entries` over `num_queues` buckets, then puts each run in
    /// `(priority, seq)` order with [`radix_sort`] — in linear time, on up
    /// to `sort_threads` scoped threads when there is enough to sort.
    pub(super) fn build<I>(num_queues: usize, entries: I, sort_threads: usize) -> Self
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
        let sort = |runs: &mut [Vec<Entry<T>>]| {
            let mut scratch = Vec::new();
            runs.iter_mut().for_each(|r| radix_sort(r, &mut scratch));
        };
        if sort_threads > 1 && seq >= PARALLEL_SORT_MIN {
            std::thread::scope(|s| {
                for chunk in runs.chunks_mut(num_queues.div_ceil(sort_threads)) {
                    s.spawn(move || sort(chunk));
                }
            });
        } else {
            sort(&mut runs);
        }
        MultiQueueCore {
            buckets: runs.into_iter().map(|run| CachePadded::new(B::from_sorted(run))).collect(),
            seq: CachePadded::new(AtomicU64::new(seq)),
            _elem: PhantomData,
        }
    }

    /// Number of internal queues.
    pub fn num_queues(&self) -> usize {
        self.buckets.len()
    }

    /// Number of elements currently stored: the sum of the per-bucket
    /// counts, clamped at zero (a bucket that counts after linking can be
    /// popped before it is counted). A snapshot under concurrency, exact at
    /// quiescence, and never more than the entries ever inserted.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.count()).sum::<isize>().max(0) as usize
    }

    /// Whether the queue was observed empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops up to `max` live entries into `sink` from the two-choice winner
    /// — of the thread's sticky pair, the nonempty bucket with the smaller
    /// head — under its single opening, dropping on the way every popped
    /// entry `obsolete` reports (DESIGN.md "Purging semantics"). Returns
    /// `(live, purged)`; both 0 iff the queue was observed empty, which is
    /// decided from the published counts before any guard is taken or lock
    /// tried.
    fn pop_into(
        &self,
        max: usize,
        obsolete: impl Fn(u64, &T) -> bool,
        mut sink: impl FnMut((u64, T)),
    ) -> (usize, usize) {
        // Pops of one opened bucket, in runs of what is still wanted live
        // (purged entries do not count toward `max`); publishes its count
        // once, live and purged together, and gives it up.
        let mut drain = |bucket: &B, mut open: B::Open<'_>| {
            let (mut live, mut purged) = (0usize, 0usize);
            loop {
                let want = max - live;
                let got = bucket.pop_run(&mut open, want, |e| {
                    if obsolete(e.0, &e.1) {
                        purged += 1;
                    } else {
                        sink(e);
                        live += 1;
                    }
                });
                if got < want || live == max {
                    break;
                }
            }
            bucket.close(open, -((live + purged) as isize));
            (live, purged)
        };
        let mut guard = None;
        for _ in 0..16 {
            let (i, j) = rng::sticky_pair(self.buckets.len());
            let (bi, bj): (&B, &B) = (&self.buckets[i], &self.buckets[j]);
            let (mut got, mut contended) = ((0, 0), false);
            if bi.count() > 0 || bj.count() > 0 {
                let g = &*guard.get_or_insert_with(|| bi.guard());
                let oi = bi.try_open(g);
                let oj = if j != i { bj.try_open(g) } else { None };
                contended = oi.is_none() || (j != i && oj.is_none());
                // The loser's opening drops with its match arm.
                let winner = match (oi, oj) {
                    (Some(a), Some(b)) => match (bi.peek(&a), bj.peek(&b)) {
                        (Some(x), Some(y)) if y < x => Some((bj, b)),
                        (Some(_), _) => Some((bi, a)),
                        (None, Some(_)) => Some((bj, b)),
                        (None, None) => None,
                    },
                    (Some(a), None) => Some((bi, a)),
                    (None, Some(b)) => Some((bj, b)),
                    (None, None) => None,
                };
                got = winner.map_or((0, 0), |(bucket, open)| drain(bucket, open));
            }
            if contended || got == (0, 0) {
                rng::redraw_pair(); // pop elsewhere next time
            }
            if got != (0, 0) || self.is_empty() {
                return got;
            }
        }
        // Sparse queue: blocking scan for the first nonempty bucket.
        let g = &*guard.get_or_insert_with(|| self.buckets[0].guard());
        self.buckets
            .iter()
            .map(|b| drain(b, b.open(g)))
            .find(|&got| got != (0, 0))
            .unwrap_or((0, 0))
    }

    /// Pushes `run` into one random bucket — where insertions go — under
    /// one guard and one opening, and publishes it with one count update.
    fn push_run(&self, run: impl Iterator<Item = Entry<T>>) {
        let guard = self.buckets[0].guard();
        let (bucket, mut open) = loop {
            let b: &B = &self.buckets[rng::next_index(self.buckets.len())];
            if let Some(open) = b.try_open(&guard) {
                break (b, open);
            }
        };
        let pushed = bucket.push_run(&mut open, run);
        bucket.close(open, pushed);
    }
}

impl<T: Send, B: Bucket<T>> ConcurrentScheduler<T> for MultiQueueCore<T, B> {
    fn insert(&self, priority: u64, item: T) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push_run(std::iter::once(Entry::new(priority, seq, item)));
    }

    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        // One sequence-number claim per batch; each run of up to
        // BATCH_SCATTER_RUN entries goes to one bucket under one opening, so
        // small batches synchronize once and no bucket swallows a bulk load.
        let mut seq = self.seq.fetch_add(entries.len() as u64, Ordering::Relaxed);
        for chunk in entries.chunks(BATCH_SCATTER_RUN) {
            self.push_run(chunk.iter().map(|(priority, item)| {
                seq += 1;
                Entry::new(*priority, seq - 1, item.clone())
            }));
        }
    }

    /// The winning bucket is drained for the whole batch under its single
    /// opening; a batch never spans buckets.
    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        self.pop_purging_for(0, out, max, |_, _| false).0
    }

    fn pop(&self) -> Option<(u64, T)> {
        let mut out = None;
        self.pop_into(1, |_, _| false, |e| out = Some(e));
        out
    }

    /// Purges at the head of the winning bucket, under the opening the pop
    /// pays for anyway; the batch and the purge never span buckets.
    fn pop_purging_for<F>(
        &self,
        _worker: usize,
        out: &mut Vec<(u64, T)>,
        max: usize,
        obsolete: F,
    ) -> (usize, usize)
    where
        F: Fn(u64, &T) -> bool,
    {
        if max == 0 {
            return (0, 0);
        }
        self.pop_into(max, obsolete, |e| out.push(e))
    }
}

impl<T: Send, B: Bucket<T>> fmt::Debug for MultiQueueCore<T, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiQueue")
            .field("bucket", &std::any::type_name::<B>())
            .field("num_queues", &self.buckets.len())
            .field("len", &self.len())
            .finish()
    }
}

/// The lock-based bucket: a sorted run plus a heap behind a
/// `parking_lot::Mutex` and, on the same padded line, their length. Only
/// the lock's holder updates the count, before it releases: counting costs
/// the hot path no line it does not already own, and an entry is never
/// poppable before it is counted. Which mutex guards the queue is a
/// constant, not a parameter (DESIGN.md "Locking semantics").
#[derive(Debug)]
pub struct Locked<T> {
    lock: Mutex<LockedQueue<T>>,
    live: AtomicIsize,
}

impl<T: Send> Bucket<T> for Locked<T> {
    type Guard = ();
    type Open<'a>
        = MutexGuard<'a, LockedQueue<T>>
    where
        Self: 'a;

    fn from_sorted(run: Vec<Entry<T>>) -> Self {
        let live = AtomicIsize::new(run.len() as isize);
        let queue = LockedQueue { run: run.into_iter(), overflow: Heap::default() };
        Locked { lock: Mutex::new(queue), live }
    }

    fn guard(&self) {}

    fn try_open<'a>(&'a self, (): &'a ()) -> Option<Self::Open<'a>> {
        self.lock.try_lock()
    }

    fn open<'a>(&'a self, (): &'a ()) -> Self::Open<'a> {
        self.lock.lock()
    }

    fn peek(&self, open: &Self::Open<'_>) -> Option<u64> {
        open.peek()
    }

    fn pop_run(
        &self,
        open: &mut Self::Open<'_>,
        max: usize,
        mut out: impl FnMut((u64, T)),
    ) -> usize {
        let mut popped = 0;
        while popped < max {
            let Some(e) = open.pop() else { break };
            out((e.priority, e.item));
            popped += 1;
        }
        popped
    }

    fn push_run(&self, open: &mut Self::Open<'_>, run: impl Iterator<Item = Entry<T>>) -> isize {
        let mut pushed = 0;
        for entry in run {
            open.overflow.push(entry);
            pushed += 1;
        }
        pushed
    }

    fn close(&self, _open: Self::Open<'_>, delta: isize) {
        // `_open` holds the lock until return, so no other writer: a plain
        // load and store, no read-modify-write.
        self.live.store(self.live.load(Ordering::Relaxed) + delta, Ordering::Release);
    }

    fn count(&self) -> isize {
        self.live.load(Ordering::Acquire)
    }
}

/// What a [`Locked`] bucket guards: the sorted run it was built from,
/// consumed from the front (one cache line per pop, prefetcher friendly),
/// and the [`Heap`] that takes every later insert. A pop takes the smaller
/// of the run head and the heap top by `(priority, seq)`; with nothing
/// prefilled the run is empty and the bucket is the heap alone. Public
/// (fields private) only because [`Locked`]'s opening names it.
pub struct LockedQueue<T> {
    /// The prefilled entries still queued, ascending.
    run: std::vec::IntoIter<Entry<T>>,
    /// Every entry inserted after the bulk load.
    overflow: Heap<T>,
}

impl<T> LockedQueue<T> {
    /// The smallest priority held.
    fn peek(&self) -> Option<u64> {
        match (self.run.as_slice().first(), self.overflow.peek()) {
            (Some(a), Some(b)) => Some(a.priority.min(b.priority)),
            (a, b) => a.or(b).map(|e| e.priority),
        }
    }

    /// Removes and returns the minimum.
    fn pop(&mut self) -> Option<Entry<T>> {
        match (self.run.as_slice().first(), self.overflow.peek()) {
            (Some(a), Some(b)) if b.key() < a.key() => self.overflow.pop(),
            (Some(_), _) => self.run.next(),
            (None, _) => self.overflow.pop(),
        }
    }
}

impl<T> fmt::Debug for LockedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedQueue")
            .field("run", &self.run.len())
            .field("overflow", &self.overflow.entries.len())
            .finish()
    }
}

/// Children per node of a [`Heap`]. Chosen from {2, 4, 8} by `sssp_gnm`
/// pairs (DESIGN.md "The bucket heap"); a constant, not a parameter.
const HEAP_ARITY: usize = 8;

/// The sequential min-heap behind every [`Locked`] bucket, which takes
/// everything inserted after the bulk load. An implicit `HEAP_ARITY`-ary
/// heap over a `Vec`, ordered by the entry key `(priority, seq)`; seqs are
/// unique per scheduler, so a pop returns the one exact minimum. Its
/// sift-down picks the smaller child with a predicted branch, so an
/// out-of-cache descent can load the next level before the comparison
/// resolves (DESIGN.md "The bucket heap").
struct Heap<T> {
    entries: Vec<Entry<T>>,
}

impl<T> Heap<T> {
    /// The minimum entry.
    fn peek(&self) -> Option<&Entry<T>> {
        self.entries.first()
    }

    /// Removes and returns the minimum.
    fn pop(&mut self) -> Option<Entry<T>> {
        if self.entries.len() <= 1 {
            return self.entries.pop();
        }
        let min = self.entries.swap_remove(0);
        self.sift_down();
        Some(min)
    }

    /// Adds `entry`.
    fn push(&mut self, entry: Entry<T>) {
        let (mut at, key) = (self.entries.len(), entry.key());
        self.entries.push(entry);
        while at > 0 {
            let parent = (at - 1) / HEAP_ARITY;
            if self.entries[parent].key() <= key {
                return;
            }
            self.entries.swap(at, parent);
            at = parent;
        }
    }

    /// Moves the root down to where no child is smaller.
    fn sift_down(&mut self) {
        let (len, key, mut at) = (self.entries.len(), self.entries[0].key(), 0);
        loop {
            let first = HEAP_ARITY * at + 1;
            if first >= len {
                return;
            }
            let children = &self.entries[first..len.min(first + HEAP_ARITY)];
            let (mut min, mut min_key) = (0, children[0].key());
            for (i, child) in children.iter().enumerate().skip(1) {
                if child.key() < min_key {
                    (min, min_key) = (i, child.key());
                }
            }
            if key <= min_key {
                return;
            }
            self.entries.swap(at, first + min);
            at = first + min;
        }
    }
}

impl<T> Default for Heap<T> {
    fn default() -> Self {
        Heap { entries: Vec::new() }
    }
}

/// The lock-based MultiQueue of Rihani–Sanders–Dementiev \[21\]: `q`
/// sequential queues behind try-locks ([`Locked`]), scheduled by
/// [`MultiQueueCore`]. The paper's experiments use four per thread. A
/// prefilled queue pops its bulk load as sorted runs, `O(1)` per pop, and
/// every later insert goes to a small per-bucket heap.
///
/// # Examples
///
/// ```
/// use rsched_queues::{ConcurrentScheduler, concurrent::MultiQueue};
///
/// let q = MultiQueue::for_threads(2);
/// q.insert(3, "c");
/// q.insert(1, "a");
/// assert!(q.pop().is_some());
///
/// let q = MultiQueue::prefilled(4, (0..100u64).map(|p| (p, p as u32)));
/// let (p, _) = q.pop().unwrap();
/// assert!(p < 100);
/// q.insert(0, 999); // later inserts go to the bucket heaps
/// ```
pub type MultiQueue<T> = MultiQueueCore<T, Locked<T>>;

impl<T: Send> MultiQueue<T> {
    /// Creates a MultiQueue with `num_queues` internal queues.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn new(num_queues: usize) -> Self {
        Self::build(num_queues, std::iter::empty(), 1)
    }

    /// Creates a MultiQueue sized as in the paper's experiments: four
    /// queues per thread.
    pub fn for_threads(threads: usize) -> Self {
        Self::new(4 * threads.max(1))
    }

    /// Bulk-loads `entries`, scattering them over `num_queues` sorted runs.
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

    /// [`MultiQueue::prefilled`] sized as [`MultiQueue::for_threads`];
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
    //! What the MultiQueue core promises beyond the scheduler contract
    //! (`tests/scheduler_conformance.rs`): the locked bucket's run and heap
    //! against a sorted model, the radix bulk load against a comparison
    //! sort, and exact order behind one bucket.

    use super::*;
    use crate::concurrent::LockFreeMultiQueue;
    use crate::reclaim::{Ebr, Vbr};
    use proptest::prelude::*;

    /// One bucket on one thread is an exact scheduler: a shuffled insert set
    /// with many ties drains in `(priority, insertion)` order, by `pop` and
    /// by `pop_batch(.., 32)`. The benchmark's `exact_s` rows of `sssp_gnm`
    /// and `service_conn` run on `MultiQueue::new(1)`.
    #[test]
    fn one_heap_drains_in_exact_order() {
        let entries: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i * 7919 % 3_001 / 16, i)).collect();
        let mut want = entries.clone();
        want.sort_unstable();
        for batched in [false, true] {
            let q = MultiQueue::new(1);
            // Both seq claims: one per insert, one range per insert_batch.
            let (singles, batch) = entries.split_at(1_000);
            singles.iter().for_each(|&(p, i)| q.insert(p, i));
            q.insert_batch(batch);
            let mut got = Vec::new();
            if batched {
                while q.pop_batch(&mut got, 32) > 0 {}
            } else {
                got.extend(std::iter::from_fn(|| q.pop()));
            }
            assert_eq!(got, want, "batched: {batched}");
        }
    }

    /// A key generator for the heap model: small priorities so that most
    /// entries tie and `seq`, unique but not monotone, decides.
    fn tie_key(priority: u64, n: u64) -> (u64, u64) {
        (priority, n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Replays `ops` against a sorted `Vec` on a locked bucket's queue
    /// holding `initial`, as its sorted run if `prefilled`, else pushed
    /// into its heap: `0` pushes, `1` pops, `2` peeks; every entry carries
    /// its seq.
    fn heap_model(initial: &[u64], prefilled: bool, ops: &[(u8, u64)]) -> TestCaseResult {
        let mut model: Vec<(u64, u64)> =
            initial.iter().enumerate().map(|(n, &p)| tie_key(p, n as u64)).collect();
        model.sort_unstable();
        let entries = model.iter().map(|&(p, s)| Entry::new(p, s, s));
        let mut q = if prefilled {
            LockedQueue { run: entries.collect::<Vec<_>>().into_iter(), overflow: Heap::default() }
        } else {
            let mut overflow = Heap::default();
            entries.for_each(|e| overflow.push(e));
            LockedQueue { run: Vec::new().into_iter(), overflow }
        };
        for (n, &(op, priority)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let (p, s) = tie_key(priority, (initial.len() + n) as u64);
                    q.overflow.push(Entry::new(p, s, s));
                    let at = model.partition_point(|&k| k < (p, s));
                    model.insert(at, (p, s));
                }
                1 => {
                    let got = q.pop().map(|e| (e.priority, e.seq, e.item));
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(got, want.map(|(p, s)| (p, s, s)));
                }
                _ => prop_assert_eq!(q.peek(), model.first().map(|&(p, _)| p)),
            }
        }
        while let Some(e) = q.pop() {
            prop_assert_eq!((e.priority, e.seq), model.remove(0));
        }
        prop_assert!(model.is_empty(), "{} entries lost", model.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A locked bucket pops exactly what a sorted `Vec` pops, ties
        /// broken by `seq`: its heap alone, and its run with the heap
        /// taking every later push.
        #[test]
        fn heap_matches_sorted_model(
            initial in collection::vec(0u64..6, 0..40),
            ops in collection::vec((0u8..3, 0u64..6), 0..300),
        ) {
            heap_model(&initial, false, &ops)?;
            heap_model(&initial, true, &ops)?;
        }
    }

    #[test]
    fn overflow_interleaves_with_run() {
        let q = MultiQueue::prefilled(1, [(10u64, 10u32), (20, 20), (30, 30)]);
        q.insert(15, 15);
        q.insert(5, 5);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![5, 10, 15, 20, 30]);
    }

    #[test]
    fn ties_keep_insertion_order_within_run() {
        let q = MultiQueue::prefilled(1, [(7u64, 1u32), (7, 2), (7, 3)]);
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }

    /// Every bucket's entries as `(priority, item)`, in the order the bucket
    /// pops them, emptying it.
    fn bucket_contents<B: Bucket<u64>>(q: &MultiQueueCore<u64, B>) -> Vec<Vec<(u64, u64)>> {
        let contents = q.buckets.iter().map(|b| {
            let guard = b.guard();
            let mut open = b.open(&guard);
            let mut out = Vec::new();
            b.pop_run(&mut open, usize::MAX, |e| out.push(e));
            b.close(open, -(out.len() as isize));
            out
        });
        contents.collect()
    }

    /// Checks a bulk load of `entries` (items are insertion indices): one
    /// bucket drains in exactly `(priority, insertion)` order; with
    /// `queues` buckets each drains in that order and the drain, sorted, is
    /// the input.
    fn bulk_load_is_exact(entries: &[(u64, u64)], queues: usize) -> TestCaseResult {
        let mut want = entries.to_vec();
        want.sort_unstable();
        let input = || entries.iter().copied();
        for contents in [
            bucket_contents(&MultiQueue::prefilled(1, input())),
            bucket_contents(&LockFreeMultiQueue::<u64, Ebr>::prefilled_in(1, input())),
            bucket_contents(&LockFreeMultiQueue::<u64, Vbr>::prefilled_in(1, input())),
        ] {
            prop_assert_eq!(&contents, &vec![want.clone()]);
        }
        for contents in [
            bucket_contents(&MultiQueue::prefilled(queues, input())),
            bucket_contents(&LockFreeMultiQueue::<u64, Ebr>::prefilled_in(queues, input())),
        ] {
            prop_assert!(contents.iter().all(|run| run.is_sorted()), "a bucket out of order");
            let mut all = contents.concat();
            all.sort_unstable();
            prop_assert_eq!(&all, &want);
        }
        Ok(())
    }

    /// Priorities that stress the radix sort's span, shaped from `raw` by
    /// `shape`: arbitrary; all equal (span 0); many ties; within 64 of a
    /// multiple of 2³², either side; `0` beside `u64::MAX`; none; one.
    fn bulk_priorities() -> impl Strategy<Value = Vec<u64>> {
        (0u8..7, collection::vec(any::<u64>(), 0..300)).prop_map(|(shape, raw)| match shape {
            0 => raw,
            1 => vec![raw.first().copied().unwrap_or(u64::MAX); raw.len()],
            2 => raw.iter().map(|r| r % 6).collect(),
            3 => raw.iter().map(|r| ((1 + r % 3) << 32) + (r >> 57) - 64).collect(),
            4 => raw.iter().map(|r| if r & 1 == 0 { 0 } else { u64::MAX }).collect(),
            _ => raw.into_iter().take(usize::from(shape - 5)).collect(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bulk load's radix sort equals a comparison sort of the
        /// `(priority, seq)` keys, alone and behind every prefill
        /// constructor.
        #[test]
        fn bulk_load_matches_comparison_sort(
            priorities in bulk_priorities(),
            queues in 2usize..9,
        ) {
            let entries: Vec<(u64, u64)> = priorities.into_iter().zip(0..).collect();
            let mut run: Vec<Entry<u64>> =
                entries.iter().map(|&(p, i)| Entry::new(p, i, i)).collect();
            let mut want = run.clone();
            want.sort_unstable();
            radix_sort(&mut run, &mut Vec::new());
            let fields = |r: &[Entry<u64>]| -> Vec<_> {
                r.iter().map(|e| (e.priority, e.seq, e.item)).collect()
            };
            prop_assert_eq!(fields(&run), fields(&want));
            bulk_load_is_exact(&entries, queues)?;
        }
    }

    /// A prefill large enough to sort its runs on several threads, reusing
    /// each thread's scratch buffer across runs, with many ties: behind one
    /// bucket the drain is in exact `(priority, insertion)` order, and at
    /// every thread count each bucket is sorted and nothing is lost.
    #[test]
    fn parallel_bulk_load_is_exact() {
        let entries: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i * 7919 % 3_001, i)).collect();
        let mut want = entries.clone();
        want.sort_unstable();
        let one = MultiQueue::prefilled(1, entries.iter().copied());
        assert_eq!(bucket_contents(&one), vec![want.clone()], "one run out of order");
        for threads in [1, 2, 7] {
            let q = MultiQueue::prefilled_for_threads(threads, entries.iter().copied());
            let contents = bucket_contents(&q);
            assert!(contents.iter().all(|run| run.is_sorted()), "threads={threads}: out of order");
            let mut all = contents.concat();
            all.sort_unstable();
            assert_eq!(all, want, "threads={threads}");
        }
    }

    #[test]
    fn for_threads_is_four_buckets_per_thread() {
        assert_eq!(MultiQueue::<()>::for_threads(3).num_queues(), 12);
        assert_eq!(MultiQueue::<()>::prefilled_for_threads(3, []).num_queues(), 12);
        assert_eq!(LockFreeMultiQueue::<()>::for_threads(2).num_queues(), 8);
        assert_eq!(LockFreeMultiQueue::<(), Vbr>::for_threads_in(2).num_queues(), 8);
    }
}
