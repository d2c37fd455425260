//! The MultiQueue relaxed scheduler \[21\], implemented once:
//! [`MultiQueueCore`] over a choice of [`Bucket`]. This file holds the core,
//! the lock-based bucket [`Locked`], the one sequential [`Heap`] behind
//! every locked bucket, and the classic instantiation over heaps,
//! [`MultiQueue`]; the sorted-run and Harris-list buckets are in
//! `bulk_multiqueue.rs` and `lf_multiqueue.rs`.

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
/// aliases [`MultiQueue`], [`super::BulkMultiQueue`] and
/// [`super::LockFreeMultiQueue`], which carry the constructors.
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

/// What a [`Locked`] bucket guards: a sequential min-queue of entries.
pub trait BucketQueue<T>: Send {
    /// Builds the queue from `run`, which is sorted ascending.
    fn from_sorted(run: Vec<Entry<T>>) -> Self;
    /// The smallest priority held.
    fn peek_min(&self) -> Option<u64>;
    /// Removes and returns the minimum.
    fn pop_min(&mut self) -> Option<Entry<T>>;
    /// Adds `entry`.
    fn push_entry(&mut self, entry: Entry<T>);
}

/// The lock-based bucket: a sequential queue `Q` behind a
/// `parking_lot::Mutex` and, on the same padded line, the queue's length.
/// Only the lock's holder updates the count, before it releases: counting
/// costs the hot path no line it does not already own, and an entry is
/// never poppable before it is counted. Which mutex guards the queue is a
/// constant, not a parameter (DESIGN.md "Locking semantics").
#[derive(Debug)]
pub struct Locked<Q> {
    lock: Mutex<Q>,
    live: AtomicIsize,
}

impl<T, Q: BucketQueue<T>> Bucket<T> for Locked<Q> {
    type Guard = ();
    type Open<'a>
        = MutexGuard<'a, Q>
    where
        Self: 'a;

    fn from_sorted(run: Vec<Entry<T>>) -> Self {
        let live = AtomicIsize::new(run.len() as isize);
        Locked { lock: Mutex::new(Q::from_sorted(run)), live }
    }

    fn guard(&self) {}

    fn try_open<'a>(&'a self, (): &'a ()) -> Option<MutexGuard<'a, Q>> {
        self.lock.try_lock()
    }

    fn open<'a>(&'a self, (): &'a ()) -> MutexGuard<'a, Q> {
        self.lock.lock()
    }

    fn peek(&self, open: &MutexGuard<'_, Q>) -> Option<u64> {
        open.peek_min()
    }

    fn pop_run(
        &self,
        open: &mut MutexGuard<'_, Q>,
        max: usize,
        mut out: impl FnMut((u64, T)),
    ) -> usize {
        let mut popped = 0;
        while popped < max {
            let Some(e) = open.pop_min() else { break };
            out((e.priority, e.item));
            popped += 1;
        }
        popped
    }

    fn push_run(&self, open: &mut MutexGuard<'_, Q>, run: impl Iterator<Item = Entry<T>>) -> isize {
        let mut pushed = 0;
        for entry in run {
            open.push_entry(entry);
            pushed += 1;
        }
        pushed
    }

    fn close(&self, _open: MutexGuard<'_, Q>, delta: isize) {
        // `_open` holds the lock until return, so no other writer: a plain
        // load and store, no read-modify-write.
        self.live.store(self.live.load(Ordering::Relaxed) + delta, Ordering::Release);
    }

    fn count(&self) -> isize {
        self.live.load(Ordering::Acquire)
    }
}

/// Children per node of a [`Heap`]. Chosen from {2, 4, 8} by `sssp_gnm`
/// pairs (DESIGN.md "The bucket heap"); a constant, not a parameter.
const HEAP_ARITY: usize = 8;

/// The sequential min-heap behind every [`Locked`] bucket: the whole queue
/// of a [`MultiQueue`] bucket and the overflow of a
/// [`super::BulkMultiQueue`] run. An implicit `HEAP_ARITY`-ary heap over a
/// `Vec`, ordered by the entry key `(priority, seq)`; seqs are unique per
/// scheduler, so a pop returns the one exact minimum. Its sift-down picks
/// the smaller child with a predicted branch, so an out-of-cache descent
/// can load the next level before the comparison resolves (DESIGN.md "The
/// bucket heap"). Public because the [`MultiQueue`] alias names it.
pub struct Heap<T> {
    entries: Vec<Entry<T>>,
}

impl<T> Heap<T> {
    /// The minimum entry.
    pub(super) fn peek(&self) -> Option<&Entry<T>> {
        self.entries.first()
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

impl<T> fmt::Debug for Heap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap").field("len", &self.entries.len()).finish()
    }
}

impl<T: Send> BucketQueue<T> for Heap<T> {
    /// An ascending run already is a heap: every parent precedes its
    /// children.
    fn from_sorted(run: Vec<Entry<T>>) -> Self {
        Heap { entries: run }
    }

    fn peek_min(&self) -> Option<u64> {
        self.peek().map(|e| e.priority)
    }

    fn pop_min(&mut self) -> Option<Entry<T>> {
        if self.entries.len() <= 1 {
            return self.entries.pop();
        }
        let min = self.entries.swap_remove(0);
        self.sift_down();
        Some(min)
    }

    fn push_entry(&mut self, entry: Entry<T>) {
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
}

/// The lock-based MultiQueue of Rihani–Sanders–Dementiev \[21\]: `q`
/// sequential min-heaps ([`Heap`]) behind try-locks, scheduled by
/// [`MultiQueueCore`]. The paper's experiments use four heaps per thread.
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
/// ```
pub type MultiQueue<T> = MultiQueueCore<T, Locked<Heap<T>>>;

impl<T: Send> MultiQueue<T> {
    /// Creates a MultiQueue with `num_queues` internal heaps.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn new(num_queues: usize) -> Self {
        Self::build(num_queues, std::iter::empty(), 1)
    }

    /// Creates a MultiQueue sized as in the paper's experiments: four heaps
    /// per thread.
    pub fn for_threads(threads: usize) -> Self {
        Self::new(4 * threads.max(1))
    }
}

#[cfg(test)]
mod tests {
    //! The MultiQueue contract, written once over [`MultiQueueCore`] and run
    //! for every bucket kind × reclamation backend the aliases offer.

    use super::*;
    use crate::concurrent::{BulkMultiQueue, LockFreeMultiQueue};
    use crate::reclaim::{Ebr, Reclaim, Vbr};
    use proptest::prelude::*;
    use rsched_sync::atomic::{AtomicBool, AtomicUsize};
    use std::collections::HashSet;
    use std::ops::Range;
    use std::sync::Mutex as StdMutex;

    /// Adds `popped` to `seen`, failing on an element popped twice.
    fn record(seen: &StdMutex<HashSet<u64>>, popped: impl IntoIterator<Item = u64>) {
        let mut seen = seen.lock().unwrap();
        popped.into_iter().for_each(|v| assert!(seen.insert(v), "element {v} popped twice"));
    }

    fn drain_sorted<B: Bucket<u64>>(q: &MultiQueueCore<u64, B>) -> Vec<u64> {
        let mut out: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        out.sort_unstable();
        out
    }

    /// `make(q, r)` builds the variant under test with `q` buckets holding
    /// `(p, p)` for `p` in `r`, the way its callers build it.
    fn contract<B: Bucket<u64>>(make: impl Fn(usize, Range<u64>) -> MultiQueueCore<u64, B>) {
        // Quiescent: len is exact, a full drain returns every entry once.
        let q = make(4, 0..1000);
        assert_eq!((q.num_queues(), q.len(), q.is_empty()), (4, 1000, false));
        assert_eq!(drain_sorted(&q), (0..1000).collect::<Vec<_>>());
        assert_eq!((q.len(), q.is_empty(), q.pop()), (0, true, None));
        // An emptied (or never filled) queue takes runtime inserts.
        for q in [q, make(2, 0..0)] {
            assert_eq!((q.is_empty(), q.pop()), (true, None));
            [9u64, 3, 7, 1].into_iter().for_each(|p| q.insert(p, p));
            assert_eq!(q.len(), 4);
            assert_eq!(drain_sorted(&q), vec![1, 3, 7, 9]);
        }
        // Two choices over two buckets: the first pop is near the front.
        let (p, _) = make(2, 0..10_000).pop().unwrap();
        assert!(p < 100, "first pop rank {p} absurd for q = 2");
        // Batched ops round-trip, never exceeding `max`.
        let q = make(4, 0..0);
        q.insert_batch(&(0..500u64).map(|p| (p, p)).collect::<Vec<_>>());
        assert_eq!(q.len(), 500);
        let mut out = Vec::new();
        while let got @ 1.. = q.pop_batch(&mut out, 64) {
            assert!(got <= 64);
        }
        let mut got: Vec<u64> = out.into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>());

        // 4 producers, then 4 consumers: len exact in between, each once.
        let (q, seen) = (make(8, 0..0), StdMutex::new(HashSet::new()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = &q;
                // Scrambled priorities: a list insert walks half its list.
                s.spawn(move || {
                    (t * 5_000..(t + 1) * 5_000).for_each(|v| q.insert(v * 7919 % 20_011, v))
                });
            }
        });
        assert_eq!(q.len(), 20_000);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| record(&seen, drain_sorted(&q)));
            }
        });
        assert_eq!((seen.lock().unwrap().len(), q.len()), (20_000, 0));

        // 4 threads mixing inserts and pops over a prefill conserve elements.
        let (q, seen) = (make(4, 0..4_000), StdMutex::new(HashSet::new()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, seen) = (&q, &seen);
                s.spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..2_000u64 {
                        q.insert(i, 10_000 + t * 2_000 + i);
                        if i % 2 == 1 {
                            local.extend(q.pop().map(|(_, v)| v));
                        }
                    }
                    record(seen, local);
                });
            }
        });
        let popped = seen.lock().unwrap().len();
        assert_eq!(q.len(), 12_000 - popped, "len exact at quiescence");
        record(&seen, drain_sorted(&q));
        assert_eq!(seen.into_inner().unwrap().len(), 12_000, "every element exactly once");

        // Batch churn: whatever a pop has debited and an insert not yet
        // credited, `len` never reads more than was ever inserted.
        let (q, inserted, done) = (make(4, 0..0), AtomicUsize::new(0), AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while !done.load(Ordering::Acquire) || !q.is_empty() {
                        q.pop_batch(&mut out, 8);
                        let len = q.len();
                        assert!(len <= inserted.load(Ordering::Acquire), "len() read {len}");
                        out.clear();
                    }
                });
            }
            for run in 0..500u64 {
                inserted.fetch_add(100, Ordering::AcqRel);
                q.insert_batch(&(run * 100..(run + 1) * 100).map(|p| (p, p)).collect::<Vec<_>>());
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(q.len(), 0);

        // Purging pops, 4 threads, a dead set that only grows (level 0 of 8
        // at the start, 7 of 8 after ~450 calls): every entry is returned
        // xor purged, once; the count covers both; no call exceeds `max`.
        let (q, seen, calls) =
            (make(8, 0..20_000), StdMutex::new(HashSet::new()), AtomicUsize::new(0));
        let totals = StdMutex::new((0usize, 0usize));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (q, seen, calls, totals) = (&q, &seen, &calls, &totals);
                s.spawn(move || {
                    let (max, purged_here) = (1 + t, std::cell::RefCell::new(Vec::new()));
                    let obsolete = |p: u64, v: &u64| {
                        assert_eq!(p, *v, "priority detached from its item");
                        let level = (calls.load(Ordering::Acquire) / 64).min(7) as u64;
                        let dead = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 < level;
                        if dead {
                            purged_here.borrow_mut().push(*v);
                        }
                        dead
                    };
                    let (mut out, mut sums) = (Vec::new(), (0, 0));
                    loop {
                        calls.fetch_add(1, Ordering::AcqRel);
                        let (live, purged) = q.pop_purging_for(t, &mut out, max, obsolete);
                        if live + purged == 0 {
                            break;
                        }
                        sums = (sums.0 + live, sums.1 + purged);
                        assert!(live <= max, "{live} live entries from a call with max {max}");
                        assert_eq!((out.len(), purged_here.borrow().len()), sums);
                    }
                    record(seen, out.into_iter().map(|(_, v)| v).chain(purged_here.into_inner()));
                    let mut totals = totals.lock().unwrap();
                    *totals = (totals.0 + sums.0, totals.1 + sums.1);
                });
            }
        });
        let (live, purged) = totals.into_inner().unwrap();
        assert!(live > 0 && purged > 0, "live {live}, purged {purged}: one path never ran");
        assert_eq!((live + purged, seen.lock().unwrap().len(), q.len()), (20_000, 20_000, 0));
        // A predicate that is never true purges nothing.
        let (q, mut out) = (make(4, 0..300), Vec::new());
        while let (live @ 1.., purged) = q.pop_purging_for(0, &mut out, 7, |_, _| false) {
            assert!(live <= 7 && purged == 0);
        }
        assert_eq!((out.len(), q.len()), (300, 0));
    }

    fn heap(queues: usize, fill: Range<u64>) -> MultiQueue<u64> {
        let q = MultiQueue::new(queues);
        fill.for_each(|p| q.insert(p, p));
        q
    }

    fn list<R: Reclaim>(queues: usize, fill: Range<u64>) -> LockFreeMultiQueue<u64, R> {
        LockFreeMultiQueue::prefilled_in(queues, fill.map(|p| (p, p)))
    }

    #[test]
    fn heap_buckets_behind_mutex() {
        contract(heap);
    }

    #[test]
    fn run_buckets_behind_mutex() {
        contract(|queues, fill| BulkMultiQueue::prefilled(queues, fill.map(|p| (p, p))));
    }

    #[test]
    fn list_buckets_over_ebr() {
        contract(list::<Ebr>);
    }

    #[test]
    fn list_buckets_over_vbr() {
        contract(list::<Vbr>);
    }

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

    /// Replays `ops` on `Q` built from `initial`, against a sorted `Vec`:
    /// `0` pushes, `1` pops, `2` peeks; every entry carries its seq.
    fn heap_model<Q: BucketQueue<u64>>(initial: &[u64], ops: &[(u8, u64)]) -> TestCaseResult {
        let mut model: Vec<(u64, u64)> =
            initial.iter().enumerate().map(|(n, &p)| tie_key(p, n as u64)).collect();
        model.sort_unstable();
        let mut q = Q::from_sorted(model.iter().map(|&(p, s)| Entry::new(p, s, s)).collect());
        for (n, &(op, priority)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let (p, s) = tie_key(priority, (initial.len() + n) as u64);
                    q.push_entry(Entry::new(p, s, s));
                    let at = model.partition_point(|&k| k < (p, s));
                    model.insert(at, (p, s));
                }
                1 => {
                    let got = q.pop_min().map(|e| (e.priority, e.seq, e.item));
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    prop_assert_eq!(got, want.map(|(p, s)| (p, s, s)));
                }
                _ => prop_assert_eq!(q.peek_min(), model.first().map(|&(p, _)| p)),
            }
        }
        while let Some(e) = q.pop_min() {
            prop_assert_eq!((e.priority, e.seq), model.remove(0));
        }
        prop_assert!(model.is_empty(), "{} entries lost", model.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Heap` — and `Run`, whose overflow is a `Heap` — pop exactly
        /// what a sorted `Vec` pops, ties broken by `seq`.
        #[test]
        fn heap_matches_sorted_model(
            initial in collection::vec(0u64..6, 0..40),
            ops in collection::vec((0u8..3, 0u64..6), 0..300),
        ) {
            heap_model::<Heap<u64>>(&initial, &ops)?;
            heap_model::<crate::concurrent::Run<u64>>(&initial, &ops)?;
        }
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
            bucket_contents(&BulkMultiQueue::prefilled(1, input())),
            bucket_contents(&LockFreeMultiQueue::<u64, Ebr>::prefilled_in(1, input())),
            bucket_contents(&LockFreeMultiQueue::<u64, Vbr>::prefilled_in(1, input())),
        ] {
            prop_assert_eq!(&contents, &vec![want.clone()]);
        }
        for contents in [
            bucket_contents(&BulkMultiQueue::prefilled(queues, input())),
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

    /// A prefill large enough to sort its runs on two threads, reusing each
    /// thread's scratch buffer across runs, with many ties.
    #[test]
    fn parallel_bulk_load_is_exact() {
        let entries: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i * 7919 % 3_001, i)).collect();
        let q = BulkMultiQueue::prefilled_for_threads(2, entries.iter().copied());
        let contents = bucket_contents(&q);
        assert!(contents.iter().all(|run| run.is_sorted()), "a bucket out of order");
        let mut all = contents.concat();
        all.sort_unstable();
        let mut want = entries;
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn for_threads_is_four_buckets_per_thread() {
        assert_eq!(MultiQueue::<()>::for_threads(3).num_queues(), 12);
        assert_eq!(BulkMultiQueue::<()>::prefilled_for_threads(3, []).num_queues(), 12);
        assert_eq!(LockFreeMultiQueue::<()>::for_threads(2).num_queues(), 8);
        assert_eq!(LockFreeMultiQueue::<(), Vbr>::for_threads_in(2).num_queues(), 8);
    }
}
