//! The MultiQueue relaxed scheduler \[21\], implemented once:
//! [`MultiQueueCore`] over a choice of [`Bucket`]. This file holds the core,
//! the lock-based bucket [`Locked`] (a run bucket, [`LockedQueue`]: the
//! sorted prefill consumed from the front, and later inserts buffered in a
//! small [`Heap`] that is sorted, when full, into a run of slab blocks and
//! merged with the runs no larger) and its instantiation, [`MultiQueue`];
//! the Harris-list bucket is in `lf_multiqueue.rs`.

use crate::rng;
use crate::{ConcurrentScheduler, Entry, SchedulerLoad};
use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use rsched_sync::atomic::{AtomicIsize, AtomicU32, Ordering};
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;

/// Longest contiguous run of a batch that `insert_batch` places in a single
/// bucket. Small batches (≤ this) pay exactly one lock / pin; huge bulk
/// loads (e.g. the framework's initial fill) still scatter across buckets
/// in runs of this length, so no single bucket swallows the whole load.
pub(super) const BATCH_SCATTER_RUN: usize = 64;

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
    /// The claim counter every entry's `seq` is taken from; it wraps
    /// (`Entry` has the rule).
    seq: CachePadded<AtomicU32>,
    _elem: PhantomData<fn() -> T>,
}

/// Prefills smaller than this are radix-sorted on the calling thread:
/// spawning sort threads would cost more than the sort.
const PARALLEL_SORT_MIN: u64 = 1 << 14;

/// Widest digit of [`radix_sort`]: 2¹¹ counters (16 KiB) per pass stay in
/// L1, and a 20-bit span (`mis_sparse`'s million labels) takes two passes.
const RADIX_BITS: u32 = 11;

/// Sorts `run`, which is in claim order, by priority: a stable LSD radix
/// sort on `priority − min` over the bits in which the run's priorities
/// differ, so equal priorities keep their claim order, and the result is
/// the one a comparison sort of the `(priority, seq)` keys gives for any
/// run claimed within 2³² (a wrapped one stays sorted by priority). One read
/// finds the span, one counts every digit into `offsets`, and each digit
/// that varies is one scatter through `scratch`. The caller may reuse both
/// across runs: once they are as large as a run needs, a sort allocates
/// nothing.
fn radix_sort<T>(run: &mut Vec<Entry<T>>, scratch: &mut Vec<Entry<T>>, offsets: &mut Vec<usize>) {
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
    offsets.clear();
    offsets.resize(passes as usize * radix, 0);
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
        let mut claimed = 0u64;
        for (priority, item) in entries {
            // The tie-break is the claim modulo 2³² (`Entry`).
            runs[rng::next_index(num_queues)].push(Entry::new(priority, claimed as u32, item));
            claimed += 1;
        }
        let sort = |runs: &mut [Vec<Entry<T>>]| {
            let (mut scratch, mut offsets) = (Vec::new(), Vec::new());
            runs.iter_mut().for_each(|r| radix_sort(r, &mut scratch, &mut offsets));
        };
        if sort_threads > 1 && claimed >= PARALLEL_SORT_MIN {
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
            seq: CachePadded::new(AtomicU32::new(claimed as u32)),
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

    /// Moves the claim counter to `seq`: a test hook that runs the queue
    /// across the counter's wrap without 2³² claims first.
    #[cfg(test)]
    pub(crate) fn claim_from(&self, seq: u32) {
        self.seq.store(seq, Ordering::Relaxed);
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
        // One sequence-number claim per batch, wrapping like every claim;
        // each run of up to BATCH_SCATTER_RUN entries goes to one bucket
        // under one opening, so small batches synchronize once and no bucket
        // swallows a bulk load.
        let mut seq = self.seq.fetch_add(entries.len() as u32, Ordering::Relaxed);
        for chunk in entries.chunks(BATCH_SCATTER_RUN) {
            self.push_run(chunk.iter().map(|(priority, item)| {
                seq = seq.wrapping_add(1);
                Entry::new(*priority, seq.wrapping_sub(1), item.clone())
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

/// Unpartitioned: both loads are [`MultiQueueCore::len`], the census the
/// pop's emptiness test reads.
impl<T: Send, B: Bucket<T>> SchedulerLoad for MultiQueueCore<T, B> {
    fn total_load(&self) -> usize {
        self.len()
    }

    fn max_partition_load(&self) -> usize {
        self.len()
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

/// The lock-based bucket: a `LockedQueue` (the run bucket) behind a
/// `parking_lot::Mutex` and, on the same padded line, its length. Only the
/// lock's holder updates the count, before it releases: counting costs the
/// hot path no line it does not already own, and an entry is never
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
        Locked { lock: Mutex::new(LockedQueue::new(run)), live }
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
            open.push(entry);
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

/// Entries the insert buffer of a [`LockedQueue`] holds before a flush
/// sorts them into a run: 4 096 `Entry<u32>` are 64 KiB, so a bucket's
/// buffer and its flush's radix scratch stay in L2, and a flushed entry is
/// merged about `log₂(n / BUF)` times in a bucket of `n` (DESIGN.md "The
/// run bucket" has the sizing). A constant, not a parameter.
const BUF: usize = 4096;

/// Entries per block of a run: a flush fills `BUF / BLOCK` blocks, and a
/// block drained by pops or by a merge goes back to the slab's free list.
/// A constant.
const BLOCK: usize = 128;

const _: () = assert!(BUF.is_multiple_of(BLOCK) && BLOCK <= u32::MAX as usize);

/// Blocks a bucket's slab is built with: two flushes' worth, so the slab's
/// first allocation is made by the thread that builds the queue.
const SLAB_INIT: usize = 2 * BUF / BLOCK;

/// No block: the end of a run's chain or of the free list.
const NIL: u32 = u32::MAX;

/// What a [`Locked`] bucket guards, a run bucket after Sanders' sequence
/// heap: the sorted run it was built from, consumed from the front; an
/// in-cache [`Heap`] buffer of up to [`BUF`] later inserts; and the runs
/// that full buffers were radix-sorted into, each a chain of
/// [`BLOCK`]-entry blocks in one slab, ordered by their smallest entries in
/// a small [`Heap`] of [`Tail`]s. A new run is merged with every run no
/// larger, block by block, so a bucket of `n` entries holds
/// `O(log(n / BUF))` runs and every flush and merge is linear. A pop takes the
/// smallest of the three heads by `(priority, seq)`, so from a run it reads
/// the next entry of a sequential block instead of sifting a large heap
/// out of cache (DESIGN.md "The run bucket").
///
/// Keys need not be unique: `seq` wraps (see [`Entry`]), so two entries
/// claimed 2³² apart can tie. Nothing here finds an entry by its key. A pop
/// moves the entry out of the one place holding it (the prefill, a buffer
/// slot, a run's block) and a flush or a merge moves each entry once, so
/// every entry leaves exactly once whatever the order of ties; a pop of
/// tied minima returns one of them. Within 2³² claims keys are unique, and
/// one bucket pops the order one heap would. Public (fields private) only
/// because [`Locked`]'s opening names it.
pub struct LockedQueue<T> {
    /// The prefilled entries still queued, ascending.
    prefill: std::vec::IntoIter<Entry<T>>,
    /// The latest inserts, at most [`BUF`] of them.
    buf: Heap<Entry<T>>,
    /// One per run, keyed by the run's smallest entry.
    tails: Heap<Tail>,
    /// Every run's blocks and the free ones. It grows by `Vec` doubling and
    /// never shrinks: flushes and merges take free blocks first, so they
    /// allocate only when the bucket holds more than ever before.
    slab: Vec<Block<T>>,
    /// Head of the free list, linked through [`Block::next`].
    free: u32,
    /// The flush's radix-sort scratch, swapped with the buffer by each
    /// digit pass: allocated by the bucket's first flush, reused after.
    scratch: Vec<Entry<T>>,
    /// The flush's radix-sort digit counters, reused likewise.
    offsets: Vec<usize>,
}

/// A run's next entries: a block of the slab, holding its entries in
/// descending order so that the run's smallest entry is its last live one.
struct Block<T> {
    /// The first `len` are live for the block a [`Tail`] points at, all of
    /// them for the later blocks of its chain, none for a free block.
    entries: [MaybeUninit<Entry<T>>; BLOCK],
    /// The block with the run's next-larger entries, or the next free block.
    next: u32,
}

/// A run in the tail heap: the key of its smallest entry, cached so that
/// sifting never reads the slab, the block holding it, and how many of
/// that block's entries are live. The key is two fields, not a tuple, so
/// that `seq` shares a word with `block`: 24 bytes, not 32.
#[derive(Clone, Copy)]
struct Tail {
    priority: u64,
    seq: u32,
    block: u32,
    len: u32,
    /// Blocks of the chain after `block`, all full.
    rest: u32,
}

const _: () = assert!(std::mem::size_of::<Tail>() == 24);

impl Tail {
    /// Caches `key` as the run's smallest.
    fn set_key(&mut self, (priority, seq): (u64, u32)) {
        (self.priority, self.seq) = (priority, seq);
    }

    /// Entries in the run.
    fn size(&self) -> usize {
        self.len as usize + self.rest as usize * BLOCK
    }
}

/// Where a [`LockedQueue`]'s minimum is.
#[derive(Clone, Copy)]
enum Head {
    Prefill,
    Buf,
    Run,
}

impl<T> LockedQueue<T> {
    /// A queue holding `prefill`, which is sorted ascending, with its buffer
    /// and slab allocated by the calling thread.
    fn new(prefill: Vec<Entry<T>>) -> Self {
        LockedQueue {
            prefill: prefill.into_iter(),
            buf: Heap { entries: Vec::with_capacity(BUF) },
            tails: Heap { entries: Vec::with_capacity(HEAP_ARITY) },
            slab: Vec::with_capacity(SLAB_INIT),
            free: NIL,
            scratch: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// Where the minimum is, and its key.
    #[inline]
    fn head(&self) -> Option<(Head, (u64, u32))> {
        let mut head = self.prefill.as_slice().first().map(|e| (Head::Prefill, e.key()));
        if let Some(e) = self.buf.peek() {
            if head.is_none_or(|(_, min)| e.key() < min) {
                head = Some((Head::Buf, e.key()));
            }
        }
        if let Some(t) = self.tails.peek() {
            if head.is_none_or(|(_, min)| t.key() < min) {
                head = Some((Head::Run, t.key()));
            }
        }
        head
    }

    /// The smallest priority held.
    fn peek(&self) -> Option<u64> {
        self.head().map(|(_, (priority, _))| priority)
    }

    /// Removes and returns the minimum.
    fn pop(&mut self) -> Option<Entry<T>> {
        match self.head()?.0 {
            Head::Prefill => self.prefill.next(),
            Head::Buf => self.buf.pop(),
            Head::Run => Some(self.pop_tail()),
        }
    }

    /// Adds `entry`, first sorting a full buffer into a run.
    fn push(&mut self, entry: Entry<T>) {
        if self.buf.entries.len() == BUF {
            self.flush();
        }
        self.buf.push(entry);
    }

    /// Removes the smallest run's smallest entry; a drained block goes to
    /// the free list, a drained run leaves the tail heap.
    fn pop_tail(&mut self) -> Entry<T> {
        let tail = &mut self.tails.entries[0];
        let block = &mut self.slab[tail.block as usize];
        tail.len -= 1;
        // SAFETY: the first `tail.len + 1` entries of the block a tail
        // points at are live; the last of them is read here once, and the
        // decrement above makes it dead before anything can read it again.
        let min = unsafe { block.entries[tail.len as usize].assume_init_read() };
        if tail.len == 0 {
            let (drained, next) = (tail.block, block.next);
            block.next = self.free;
            self.free = drained;
            if next == NIL {
                self.tails.pop();
                return min;
            }
            (tail.block, tail.len, tail.rest) = (next, BLOCK as u32, tail.rest - 1);
        }
        // SAFETY: `tail.len ≥ 1` entries of `tail.block` are live: what was
        // left of this block, or all of the chain's next one.
        let next = unsafe {
            self.slab[tail.block as usize].entries[tail.len as usize - 1].assume_init_ref()
        };
        tail.set_key(next.key());
        self.tails.sift_down(0);
        min
    }

    /// A block off the free list, or a new one at the end of the slab.
    fn take_block(&mut self) -> u32 {
        if self.free == NIL {
            // An index must not alias another block or `NIL`.
            assert!(self.slab.len() < NIL as usize, "a bucket's slab is out of block indices");
            let entries = [const { MaybeUninit::uninit() }; BLOCK];
            self.slab.push(Block { entries, next: NIL });
            (self.slab.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.slab[at as usize].next;
            at
        }
    }

    /// A free block linked after `out`, the merged run's newest block.
    fn chain_block(&mut self, out: u32) -> u32 {
        let next = self.take_block();
        self.slab[out as usize].next = next;
        next
    }

    /// Moves `run` on from a drained head block, which goes to the free
    /// list, to the next block of its chain; a run with none left stays
    /// drained (`len` 0). Does nothing while the head block has entries.
    fn next_block(&mut self, run: &mut Tail) {
        if run.len > 0 {
            return;
        }
        let block = &mut self.slab[run.block as usize];
        let next = block.next;
        block.next = self.free;
        self.free = run.block;
        if next != NIL {
            (run.block, run.len, run.rest) = (next, BLOCK as u32, run.rest - 1);
        }
    }

    /// Where block `at`'s entries start, off `slab`, the slab's base pointer.
    ///
    /// # Safety
    ///
    /// `at` is a block index of the slab `slab` points at, which has not
    /// grown since `slab` was taken.
    unsafe fn entries(slab: *mut Block<T>, at: u32) -> *mut Entry<T> {
        // SAFETY: the caller's `at` is in bounds of a live slab; no
        // reference is made, so other blocks' pointers stay valid.
        unsafe { (&raw mut (*slab.add(at as usize)).entries).cast() }
    }

    /// Merges runs `a` and `b`, which have left the tail heap, into one,
    /// smallest first, filling the merged run's blocks from their last slot
    /// down; each block of theirs goes to the free list as soon as it is
    /// drained, for the merged run's next ones. While both runs last,
    /// entries move in stretches that end where one of the three blocks
    /// does, each step a branch-free pick of the smaller head and a copy;
    /// then the rest of the other run is copied block-wise.
    fn merge(&mut self, mut a: Tail, mut b: Tail) -> Tail {
        let size = a.size() + b.size();
        // The merged run's head block holds what is left over from full
        // blocks; it is filled from its last live slot down.
        let head_len = (size - 1) % BLOCK + 1;
        let head = self.take_block();
        let (mut out, mut at) = (head, head_len);
        while a.len > 0 && b.len > 0 {
            if at == 0 {
                (out, at) = (self.chain_block(out), BLOCK);
            }
            let (mut la, mut lb) = (a.len as usize, b.len as usize);
            let slab = self.slab.as_mut_ptr();
            // SAFETY: `a`'s, `b`'s and `out`'s blocks are three distinct
            // blocks of the slab, which does not grow in the loop. With
            // `at.min(la).min(lb)` steps, each step that decrements one of
            // `la` and `lb` once, both stay ≥ 1 until the last step ends:
            // every step reads the last live entry of `a`'s or `b`'s block,
            // makes it dead by the decrement, and writes it to slot
            // `at − 1` of `out`, which is free (the slots above it were
            // filled before). The two heads are in the one slab
            // allocation, so the masked offset from `a`'s lands on one of
            // them. Nothing in the loop can panic.
            unsafe {
                let (pa, pb) = (Self::entries(slab, a.block), Self::entries(slab, b.block));
                let po = Self::entries(slab, out);
                for _ in 0..at.min(la).min(lb) {
                    let (ea, eb) = (pa.add(la - 1), pb.add(lb - 1));
                    let take_b = packed(&*eb) < packed(&*ea);
                    at -= 1;
                    // All-ones to take `b`: opaque to the optimizer, which
                    // would otherwise turn the pick back into a branch.
                    let mask = std::hint::black_box(-isize::from(take_b));
                    po.add(at).write(ea.byte_offset(eb.byte_offset_from(ea) & mask).read());
                    la -= usize::from(!take_b);
                    lb -= usize::from(take_b);
                }
            }
            (a.len, b.len) = (la as u32, lb as u32);
            self.next_block(&mut a);
            self.next_block(&mut b);
        }
        let mut rest = if a.len > 0 { a } else { b };
        while rest.len > 0 {
            if at == 0 {
                (out, at) = (self.chain_block(out), BLOCK);
            }
            let n = at.min(rest.len as usize);
            (rest.len, at) = (rest.len - n as u32, at - n);
            let slab = self.slab.as_mut_ptr();
            // SAFETY: the last `n` live entries of `rest`'s block, the
            // smallest it holds, are descending like the `n` free slots of
            // `out` below the ones filled before, so they move there in one
            // copy; the decrement above made them dead. The two blocks are
            // distinct.
            unsafe {
                let from = Self::entries(slab, rest.block).add(rest.len as usize);
                std::ptr::copy_nonoverlapping(from, Self::entries(slab, out).add(at), n);
            }
            self.next_block(&mut rest);
        }
        self.slab[out as usize].next = NIL;
        // SAFETY: the merged run's head block holds `head_len` live entries,
        // the smallest last.
        let min = unsafe { self.slab[head as usize].entries[head_len - 1].assume_init_ref() };
        let rest = ((size - head_len) / BLOCK) as u32;
        let (priority, seq) = min.key();
        Tail { priority, seq, block: head, len: head_len as u32, rest }
    }

    /// Sorts the full buffer into a new run — in `(priority, seq)` order,
    /// then cut descending into blocks of [`BLOCK`] entries from the largest
    /// down, chained smallest first — and merges it with the runs no larger
    /// than it.
    fn flush(&mut self) {
        let entries = &mut self.buf.entries;
        radix_sort(entries, &mut self.scratch, &mut self.offsets);
        // The radix sort is stable, but the buffer is in heap order, not
        // claim order: each run of equal priorities is put in `seq` order.
        entries.chunk_by_mut(|x, y| x.priority == y.priority).for_each(|tie| {
            tie.sort_unstable_by_key(|e| e.seq);
        });
        entries.reverse();
        let (priority, seq) = self.buf.entries[BUF - 1].key();
        let mut chain = NIL;
        for chunk in 0..BUF / BLOCK {
            let at = self.take_block();
            let block = &mut self.slab[at as usize];
            // SAFETY: the chunk and the free block are disjoint and `BLOCK`
            // entries long. The copies own the entries once the buffer
            // gives its own up (`set_len(0)` below); until then no tail
            // points at them, so a panic in `take_block` drops each entry
            // once, with the buffer.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self.buf.entries.as_ptr().add(chunk * BLOCK),
                    block.entries.as_mut_ptr().cast::<Entry<T>>(),
                    BLOCK,
                );
            }
            block.next = chain;
            chain = at;
        }
        // SAFETY: every entry of the buffer was moved into the slab above.
        unsafe { self.buf.entries.set_len(0) };
        let rest = (BUF / BLOCK - 1) as u32;
        let mut run = Tail { priority, seq, block: chain, len: BLOCK as u32, rest };
        // Merged with every run no larger, smallest first: the sizes of the
        // runs held then at least double from one to the next, and an entry
        // is merged about once per doubling of the bucket.
        loop {
            let sizes = self.tails.entries.iter().map(Tail::size).enumerate();
            match sizes.min_by_key(|&(_, size)| size) {
                Some((at, size)) if size <= run.size() => {
                    let smaller = self.tails.remove(at);
                    run = self.merge(smaller, run);
                }
                _ => break,
            }
        }
        self.tails.push(run);
    }
}

impl<T> Drop for LockedQueue<T> {
    /// Drops the entries still in runs; the prefill and the buffer drop
    /// their own.
    fn drop(&mut self) {
        if !std::mem::needs_drop::<T>() {
            return;
        }
        for tail in &self.tails.entries {
            let (mut at, mut len) = (tail.block, tail.len as usize);
            while at != NIL {
                let block = &mut self.slab[at as usize];
                for e in &mut block.entries[..len] {
                    // SAFETY: a run's live entries: the first `tail.len` of
                    // its tail block, every entry of the blocks after it.
                    // Each is dropped once, and the queue is going away.
                    unsafe { e.assume_init_drop() };
                }
                (at, len) = (block.next, BLOCK);
            }
        }
    }
}

impl<T> fmt::Debug for LockedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedQueue")
            .field("prefill", &self.prefill.len())
            .field("buf", &self.buf.entries.len())
            .field("runs", &self.tails.entries.len())
            .field("slab_blocks", &self.slab.len())
            .finish()
    }
}

/// Children per node of a [`Heap`]. Chosen from {2, 4, 8} by `sssp_gnm`
/// pairs when the heap was the whole bucket (DESIGN.md "The run bucket");
/// a constant, not a parameter.
const HEAP_ARITY: usize = 8;

/// `e`'s `(priority, seq)` as one integer that orders as the pair does,
/// so that the merge compares two entries without a branch.
#[inline]
fn packed<T>(e: &Entry<T>) -> u128 {
    (u128::from(e.priority) << 64) | u128::from(e.seq)
}

/// What a [`Heap`] orders by: an entry's `(priority, seq)`.
trait Keyed {
    fn key(&self) -> (u64, u32);
}

impl<T> Keyed for Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u32) {
        Entry::key(self)
    }
}

impl Keyed for Tail {
    #[inline]
    fn key(&self) -> (u64, u32) {
        (self.priority, self.seq)
    }
}

/// The sequential min-heap of a [`LockedQueue`], as its insert buffer and
/// as its heap of run tails: an implicit `HEAP_ARITY`-ary heap over a
/// `Vec`, ordered by [`Keyed::key`]. Its sift-down picks the smaller child
/// with a predicted branch, so a descent can load the next level before
/// the comparison resolves.
struct Heap<E> {
    entries: Vec<E>,
}

impl<E: Keyed> Heap<E> {
    /// The minimum entry.
    fn peek(&self) -> Option<&E> {
        self.entries.first()
    }

    /// Removes and returns the minimum.
    fn pop(&mut self) -> Option<E> {
        if self.entries.len() <= 1 {
            return self.entries.pop();
        }
        let min = self.entries.swap_remove(0);
        self.sift_down(0);
        Some(min)
    }

    /// Adds `entry`.
    fn push(&mut self, entry: E) {
        self.entries.push(entry);
        self.sift_up(self.entries.len() - 1);
    }

    /// Removes and returns the entry at index `at`.
    fn remove(&mut self, at: usize) -> E {
        let entry = self.entries.swap_remove(at);
        if at < self.entries.len() {
            self.sift_down(at);
            self.sift_up(at);
        }
        entry
    }

    /// Moves the entry at `at` up to where no parent is larger.
    fn sift_up(&mut self, mut at: usize) {
        let key = self.entries[at].key();
        while at > 0 {
            let parent = (at - 1) / HEAP_ARITY;
            if self.entries[parent].key() <= key {
                return;
            }
            self.entries.swap(at, parent);
            at = parent;
        }
    }

    /// Moves the entry at `at` down to where no child is smaller.
    fn sift_down(&mut self, mut at: usize) {
        let (len, key) = (self.entries.len(), self.entries[at].key());
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

/// The lock-based MultiQueue of Rihani–Sanders–Dementiev \[21\]: `q`
/// sequential queues behind try-locks ([`Locked`]), scheduled by
/// [`MultiQueueCore`]. The paper's experiments use four per thread. A
/// prefilled queue pops its bulk load as sorted runs, `O(1)` per pop, and
/// every later insert goes to a bucket's in-cache buffer, which is sorted
/// into a run of its own when it fills.
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
/// q.insert(0, 999); // later inserts go to the bucket buffers
/// ```
pub type MultiQueue<T> = MultiQueueCore<T, Locked<T>>;

impl<T: Send> MultiQueue<T> {
    /// Entries a bucket's insert buffer takes before a flush sorts them
    /// into a run. Public only so that the allocation test counts flushes
    /// in the bucket's own unit.
    #[doc(hidden)]
    pub const FLUSH_ENTRIES: usize = BUF;

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
    //! (`tests/scheduler_conformance.rs`): the locked bucket's prefill,
    //! buffer and runs against a sorted model with drop-counting payloads,
    //! the radix bulk load against a comparison sort, and exact order
    //! behind one bucket.

    use super::*;
    use crate::concurrent::{HarrisList, LockFreeMultiQueue};
    use crate::reclaim::{Ebr, Vbr};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `case` on a thread of its own, passes its panic on, and fails if
    /// it is still running after two minutes (the run-bucket cases take a
    /// few seconds in debug, so the bound leaves room for AddressSanitizer):
    /// a slab fault that links a block into two chains or the free list
    /// into a cycle can leave a walk that never ends, and the case must fail
    /// rather than hang.
    fn within_watchdog(case: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(case)));
        });
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(result) => result.unwrap_or_else(|panic| resume_unwind(panic)),
            Err(_) => panic!("still running after 120 s: a slab walk never ended"),
        }
    }

    /// One bucket on one thread is an exact scheduler: a shuffled insert set
    /// with many ties drains in `(priority, insertion)` order, by `pop` and
    /// by `pop_batch(.., 32)`, across the three flushes (and their merges)
    /// of its `3.5 · BUF` inserts.
    /// The benchmark's `exact_s` rows of `sssp_gnm` and `service_conn` run
    /// on `MultiQueue::new(1)`. With the claim counter started 100 short of
    /// its wrap, the batch's one claim straddles it, and the drain is in
    /// `(priority, wrapped seq)` order: ties claimed after the wrap first.
    #[test]
    fn one_heap_drains_in_exact_order() {
        let n = (3 * BUF + BUF / 2) as u64;
        let entries: Vec<(u64, u64)> = (0..n).map(|i| (i * 7919 % 3_001 / 16, i)).collect();
        for (start, key_of) in [(0, claim_key as KeyOf), (NEAR_WRAP, wrap_key)] {
            let mut want = entries.clone();
            want.sort_unstable_by_key(|&(p, i)| key_of(p, i));
            for batched in [false, true] {
                let q = MultiQueue::new(1);
                q.claim_from(start);
                // Both seq claims: one per insert, one range per insert_batch.
                let (singles, batch) = entries.split_at(50);
                singles.iter().for_each(|&(p, i)| q.insert(p, i));
                q.insert_batch(batch);
                let mut got = Vec::new();
                if batched {
                    while q.pop_batch(&mut got, 32) > 0 {}
                } else {
                    got.extend(std::iter::from_fn(|| q.pop()));
                }
                assert_eq!(got, want, "start: {start}, batched: {batched}");
            }
        }
    }

    /// The `n`-th key of a queue model, from a priority.
    type KeyOf = fn(u64, u64) -> (u64, u32);

    /// Keys in claim order from 0, as a fresh queue hands them out.
    fn claim_key(priority: u64, n: u64) -> (u64, u32) {
        (priority, n as u32)
    }

    /// A key generator for the queue model: small priorities so that most
    /// entries tie and `seq`, unique but not monotone, decides.
    fn tie_key(priority: u64, n: u64) -> (u64, u32) {
        (priority, (n as u32).wrapping_mul(0x9E37_79B9))
    }

    /// The claim counter 100 claims short of its wrap.
    const NEAR_WRAP: u32 = u32::MAX - 99;

    /// Keys as a claim counter started at [`NEAR_WRAP`] hands them out: the
    /// 101st claim is 0, so later entries sort before earlier ties.
    fn wrap_key(priority: u64, n: u64) -> (u64, u32) {
        (priority, NEAR_WRAP.wrapping_add(n as u32))
    }

    /// Keys as if that counter wrapped every 150 claims: many live entries
    /// share one `(priority, seq)`.
    fn twin_key(priority: u64, n: u64) -> (u64, u32) {
        (priority, NEAR_WRAP.wrapping_add((n % 150) as u32))
    }

    thread_local! {
        /// [`Tracked`] payloads made minus those dropped, on this thread.
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    /// A drop-counting payload carrying its entry's seq: it holds one count
    /// in [`LIVE`] from creation to drop, so a slab slot read twice or
    /// leaked shows in the count.
    #[derive(Debug, PartialEq)]
    struct Tracked(u32);

    impl Tracked {
        fn new(seq: u32) -> Self {
            LIVE.with(|live| live.set(live.get() + 1));
            Tracked(seq)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE.with(|live| live.set(live.get() - 1));
        }
    }

    /// A locked bucket's queue beside a min-heap of the keys it holds.
    /// Tied keys carry equal payloads, so the model need not say which of
    /// two twins a pop returns.
    struct Model {
        q: LockedQueue<Tracked>,
        keys: BinaryHeap<Reverse<(u64, u32)>>,
        key_of: KeyOf,
        pushed: u64,
    }

    impl Model {
        /// A queue holding `initial`, keyed by `key_of`, as its sorted
        /// prefill if `prefilled`, else pushed.
        fn new(key_of: KeyOf, initial: &[u64], prefilled: bool) -> Self {
            let mut keys: Vec<(u64, u32)> =
                initial.iter().enumerate().map(|(n, &p)| key_of(p, n as u64)).collect();
            keys.sort_unstable();
            let entries = keys.iter().map(|&(p, s)| Entry::new(p, s, Tracked::new(s)));
            let q = if prefilled {
                LockedQueue::new(entries.collect())
            } else {
                let mut q = LockedQueue::new(Vec::new());
                entries.for_each(|e| q.push(e));
                q
            };
            let keys = keys.into_iter().map(Reverse).collect();
            Model { q, keys, key_of, pushed: initial.len() as u64 }
        }

        /// Applies `op` to both: `0` pushes `priority`, `1` pops, `2` peeks.
        fn apply(&mut self, op: u8, priority: u64) -> TestCaseResult {
            match op {
                0 => {
                    let (p, s) = (self.key_of)(priority, self.pushed);
                    self.pushed += 1;
                    self.q.push(Entry::new(p, s, Tracked::new(s)));
                    self.keys.push(Reverse((p, s)));
                }
                1 => {
                    let got = self.q.pop().map(|e| (e.priority, e.seq, e.item.0));
                    let want = self.keys.pop().map(|Reverse(key)| key);
                    prop_assert_eq!(got, want.map(|(p, s)| (p, s, s)));
                }
                _ => prop_assert_eq!(self.q.peek(), self.keys.peek().map(|&Reverse((p, _))| p)),
            }
            Ok(())
        }

        /// Pops down to `keep` entries, then drops the queue with them and
        /// checks that every payload ever made was dropped exactly once.
        fn drain_to(mut self, keep: usize) -> TestCaseResult {
            while self.keys.len() > keep {
                self.apply(1, 0)?;
            }
            let made = LIVE.with(Cell::get);
            drop(self.q);
            let left = made - LIVE.with(Cell::get);
            let queued = self.keys.len() as isize;
            prop_assert!(left == queued, "the drop freed {left} payloads of {queued} queued");
            Ok(())
        }
    }

    /// Replays `ops` on a queue holding `initial` both ways, keys made by
    /// `key_of`, then pops down to `keep` entries and drops it; every
    /// payload is dropped once.
    fn queue_model(
        key_of: KeyOf,
        initial: &[u64],
        ops: &[(u8, u64)],
        keep: usize,
    ) -> TestCaseResult {
        for prefilled in [false, true] {
            let before = LIVE.with(Cell::get);
            let mut model = Model::new(key_of, initial, prefilled);
            for &(op, priority) in ops {
                model.apply(op, priority)?;
            }
            model.drain_to(keep)?;
            let live = LIVE.with(Cell::get) - before;
            prop_assert!(live == 0, "{live} payloads leaked (< 0: dropped twice)");
        }
        Ok(())
    }

    /// Ops for long replays: five pushes to two pops and a peek, so the
    /// queue grows past several buffers while runs are popped from.
    fn long_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
        let op = (0u8..8).prop_map(|o| match o {
            0..=4 => 0,
            5 | 6 => 1,
            _ => 2,
        });
        // 5/8 of 6–10 buffers' worth of ops are pushes.
        collection::vec((op, 0u64..6), 6 * BUF..10 * BUF)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A locked bucket pops exactly what a sorted `Vec` pops, ties
        /// broken by `seq`: its buffer alone, and its prefill with the
        /// buffer taking every later push. Each with unique keys, with keys
        /// claimed across the counter's wrap, and with repeating keys, so
        /// that twins are live at once.
        #[test]
        fn heap_matches_sorted_model(
            initial in collection::vec(0u64..6, 0..40),
            ops in collection::vec((0u8..3, 0u64..6), 0..300),
        ) {
            for key_of in [tie_key as KeyOf, wrap_key, twin_key] {
                queue_model(key_of, &initial, &ops, 0)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The cases of `runs_match_sorted_model`.
        fn runs_match_sorted_model_cases(
            initial in collection::vec(0u64..6, 0..40),
            ops in long_ops(),
            keep in 0..BUF + BUF / 2,
        ) {
            for key_of in [tie_key as KeyOf, wrap_key, twin_key] {
                queue_model(key_of, &initial, &ops, keep)?;
            }
        }
    }

    /// The same across flushes: some `3.75–6.25 · BUF` pushes fill the
    /// buffer three to six times, so runs merge, and runs are popped across
    /// block boundaries while later ones are flushed and merged into
    /// recycled blocks; then the queue is dropped holding `keep` entries in
    /// its runs, buffer and prefill. The same three key kinds: twins are
    /// sorted, merged and popped together.
    #[test]
    fn runs_match_sorted_model() {
        within_watchdog(runs_match_sorted_model_cases);
    }

    /// The sizes of the runs `q` holds, ascending, after checking that
    /// every block of its slab is in a run or on the free list.
    fn run_sizes<T>(q: &LockedQueue<T>) -> Vec<usize> {
        let (mut free, mut at) = (0, q.free);
        while at != NIL {
            assert!(free < q.slab.len(), "the free list is longer than the slab: a cycle");
            (free, at) = (free + 1, q.slab[at as usize].next);
        }
        let held: usize = q.tails.entries.iter().map(|t| 1 + t.rest as usize).sum();
        assert_eq!(held + free, q.slab.len(), "blocks lost");
        let mut sizes: Vec<usize> = q.tails.entries.iter().map(Tail::size).collect();
        sizes.sort_unstable();
        sizes
    }

    /// A deterministic walk through the run bucket's life cycle against the
    /// model, peeking at every fifth step, with priorities that rise over
    /// time as in SSSP: three flushes, the first two merged; pops that cut
    /// across block boundaries into the oldest run; flushes that merge into
    /// one run the cut one, a new one and one of equal size, taking drained
    /// blocks back from the free list; pops that drain that run to its last
    /// entry; and a drop with entries in a run and the buffer.
    #[test]
    fn runs_cross_flushes_and_recycle_blocks() {
        within_watchdog(|| {
            // Sizes in buffers: 3.5 pushed, 1.5 popped, 3 pushed, 2.5 popped.
            const FILL: usize = 3 * BUF + BUF / 2;
            const CUT: usize = BUF + BUF / 2;
            const MORE: usize = 3 * BUF;
            let base = LIVE.with(Cell::get);
            let mut m = Model::new(tie_key, &[], false);
            let mut steps = 0;
            let mut step = |m: &mut Model, op: u8| {
                m.apply(op, m.pushed / 64).unwrap();
                steps += 1;
                if steps % 5 == 0 {
                    m.apply(2, 0).unwrap();
                }
            };
            (0..FILL).for_each(|_| step(&mut m, 0));
            assert_eq!(run_sizes(&m.q), [BUF, 2 * BUF]);
            assert_eq!(m.q.buf.entries.len(), FILL - 3 * BUF);
            (0..CUT).for_each(|_| step(&mut m, 1));
            assert_eq!(run_sizes(&m.q), [2 * BUF - CUT, BUF]);
            let blocks = m.q.slab.len();
            (0..MORE).for_each(|_| step(&mut m, 0));
            assert_eq!(run_sizes(&m.q), [2 * BUF, 4 * BUF - CUT]);
            let grown = m.q.slab.len() - blocks;
            assert!(grown < 3 * BUF / BLOCK, "{grown} new blocks for three flushes");
            (0..4 * BUF - CUT).for_each(|_| step(&mut m, 1));
            assert_eq!(run_sizes(&m.q), [2 * BUF]);
            m.drain_to(3 * BUF / 4).unwrap();
            assert_eq!(LIVE.with(Cell::get), base);
        });
    }

    /// One `Locked` bucket, through the interface the core drives it by,
    /// over four cycles of pushes in runs of 64 — three to six flushes
    /// each, with merges — and a drain in pops of 32: each cycle pops
    /// every entry once and in key order, drops every payload once, and
    /// leaves every slab block on the free list, which the next cycle's
    /// flushes and merges take their blocks from.
    #[test]
    fn locked_bucket_drains_and_refills() {
        within_watchdog(|| {
            let base = LIVE.with(Cell::get);
            let bucket = Locked::from_sorted(Vec::new());
            let mut seq = 0u32;
            for cycle in 0..4 {
                let n = (3 + cycle) * BUF + 100 * cycle;
                let first = seq;
                let mut open = bucket.open(&());
                for run in 0..n.div_ceil(64) {
                    let entries = (run * 64..n.min(run * 64 + 64)).map(|i| {
                        seq += 1;
                        let priority = (i as u64 * 7919 % 3_001) / 8;
                        Entry::new(priority, seq - 1, Tracked::new(seq - 1))
                    });
                    bucket.push_run(&mut open, entries);
                }
                bucket.close(open, n as isize);
                let mut got = Vec::with_capacity(n);
                loop {
                    let mut open = bucket.open(&());
                    let popped = bucket.pop_run(&mut open, 32, |(p, item)| got.push((p, item.0)));
                    bucket.close(open, -(popped as isize));
                    if popped < 32 {
                        break;
                    }
                }
                assert_eq!(bucket.count(), 0, "cycle {cycle}");
                assert!(got.is_sorted(), "cycle {cycle}: popped out of key order");
                let mut seqs: Vec<u32> = got.iter().map(|&(_, s)| s).collect();
                seqs.sort_unstable();
                assert_eq!(seqs, (first..seq).collect::<Vec<_>>(), "cycle {cycle}");
                assert_eq!(LIVE.with(Cell::get), base, "cycle {cycle}: payloads not dropped once");
                assert_eq!(run_sizes(&bucket.lock.lock()), [], "cycle {cycle}");
            }
        });
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
                entries.iter().map(|&(p, i)| Entry::new(p, i as u32, i)).collect();
            let mut want = run.clone();
            want.sort_unstable();
            radix_sort(&mut run, &mut Vec::new(), &mut Vec::new());
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

    /// Live twins: two batches of 200 claimed from the same counter value
    /// 100 short of the wrap, so every entry of the second shares its
    /// `(priority, seq)` with one of the first, then ten inserts that
    /// repeat some of those keys a third time. One bucket pops each entry
    /// exactly once, in `(priority, seq)` order with twins side by side.
    fn twins_pop_once<B: Bucket<u64>>(q: MultiQueueCore<u64, B>) {
        let batch: Vec<(u64, u64)> = (0..200).map(|i| (i % 4, i)).collect();
        q.claim_from(NEAR_WRAP);
        q.insert_batch(&batch);
        q.claim_from(NEAR_WRAP);
        q.insert_batch(&batch.iter().map(|&(p, i)| (p, i + 200)).collect::<Vec<_>>());
        q.claim_from(NEAR_WRAP.wrapping_add(150));
        (150..160).for_each(|i| q.insert(i % 4, i + 400));
        // Entry `i` was the `n`-th claim from `NEAR_WRAP`.
        let key = |i: u64| wrap_key(i % 4, if i < 400 { i % 200 } else { i - 400 });
        let mut got = Vec::new();
        while q.pop_batch(&mut got, 7) > 0 {}
        let keys: Vec<(u64, u32)> = got.iter().map(|&(_, i)| key(i)).collect();
        assert!(keys.is_sorted(), "popped out of key order: {keys:?}");
        let mut ids: Vec<u64> = got.into_iter().map(|(_, i)| i).collect();
        ids.sort_unstable();
        let want: Vec<u64> = (0..400).chain(550..560).collect();
        assert_eq!(ids, want, "an entry lost or popped twice");
    }

    #[test]
    fn live_twins_pop_exactly_once() {
        twins_pop_once(MultiQueue::new(1));
        twins_pop_once(LockFreeMultiQueue::<u64, Ebr>::new_in(1));
        twins_pop_once(LockFreeMultiQueue::<u64, Vbr>::new_in(1));
        // The list itself: twins bulk-loaded and inserted, run and single.
        fn list_twins<R: crate::reclaim::Reclaim>() {
            let list: HarrisList<u64, R> = HarrisList::from_sorted_in([(1, 5, 0), (1, 5, 1)]);
            list.insert_run_with([(1, 5, 2)], &list.guard());
            list.insert_run_with([(0, 5, 3), (1, 5, 4), (1, 5, 5)], &list.guard());
            let mut got = Vec::new();
            while list.pop_run_with(2, |(p, i)| got.push((p, i)), &list.guard()) > 0 {}
            assert_eq!(got[0], (0, 3));
            got.sort_unstable();
            assert_eq!(got, [(0, 3), (1, 0), (1, 1), (1, 2), (1, 4), (1, 5)]);
        }
        list_twins::<Ebr>();
        list_twins::<Vbr>();
    }

    /// Three threads churn one queue of four buckets with tie-heavy
    /// batches while one of them keeps winding the claim counter back to
    /// 100 short of the wrap, so twins are inserted and popped in races:
    /// every entry comes out exactly once.
    fn churn_across_the_wrap<B: Bucket<u64>>(q: MultiQueueCore<u64, B>) {
        const ROUNDS: u64 = 2_000;
        let popped = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let (q, popped) = (&q, &popped);
                s.spawn(move || {
                    let mut out = Vec::new();
                    for r in 0..ROUNDS {
                        if t == 0 && r % 64 == 0 {
                            q.claim_from(NEAR_WRAP);
                        }
                        let batch: Vec<(u64, u64)> =
                            (0..4).map(|j| (r % 8, (t * ROUNDS + r) * 4 + j)).collect();
                        q.insert_batch(&batch);
                        q.pop_batch(&mut out, 3);
                    }
                    popped.lock().extend(out);
                });
            }
        });
        let mut got = popped.into_inner();
        while q.pop_batch(&mut got, 64) > 0 {}
        let mut ids: Vec<u64> = got.into_iter().map(|(_, i)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..3 * ROUNDS * 4).collect::<Vec<_>>(), "lost or duplicated");
        assert!(q.is_empty());
    }

    #[test]
    fn churn_across_the_wrap_delivers_once() {
        churn_across_the_wrap(MultiQueue::new(4));
        churn_across_the_wrap(LockFreeMultiQueue::<u64, Ebr>::new_in(4));
        churn_across_the_wrap(LockFreeMultiQueue::<u64, Vbr>::new_in(4));
    }

    #[test]
    fn for_threads_is_four_buckets_per_thread() {
        assert_eq!(MultiQueue::<()>::for_threads(3).num_queues(), 12);
        assert_eq!(MultiQueue::<()>::prefilled_for_threads(3, []).num_queues(), 12);
    }
}
