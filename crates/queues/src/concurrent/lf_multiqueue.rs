//! The lock-free MultiQueue: the paper's §4 scheduler construction.
//!
//! "We implemented a simple version of our scheduling framework, using a
//! variant of the MultiQueue \[21\] … We use lock-free lists to maintain the
//! individual priority queues." — this module is exactly that: the
//! [`MultiQueueCore`] over buckets that are [`HarrisList`]s, generic over the
//! [`Reclaim`] backend (epoch pins by default; version validation under
//! [`Vbr`](crate::reclaim::Vbr), which removes the per-pop pin fence).

use super::multiqueue::{Bucket, MultiQueueCore, BATCH_SCATTER_RUN};
use crate::concurrent::HarrisList;
use crate::reclaim::{Ebr, Reclaim};
use crate::Entry;
use rsched_sync::atomic::{AtomicIsize, Ordering};
use std::mem::MaybeUninit;

/// The lock-free bucket: a [`HarrisList`] and, on the same padded line, its
/// live count. Opening never blocks and needs only the operation's
/// reclamation guard. The count is published **after** a run is linked
/// (counted first, early pops see half-inserted runs and shrink their
/// batches — DESIGN.md "Hot-path contention"), so a racing pop can debit
/// entries not yet credited and [`Bucket::count`] can dip below zero.
#[derive(Debug)]
pub struct ListBucket<T: Send, R: Reclaim> {
    list: HarrisList<T, R>,
    live: AtomicIsize,
}

impl<T: Send, R: Reclaim> Bucket<T> for ListBucket<T, R> {
    type Guard = R::Guard<T>;
    type Open<'a>
        = &'a R::Guard<T>
    where
        Self: 'a;

    fn from_sorted(run: Vec<Entry<T>>) -> Self {
        let live = AtomicIsize::new(run.len() as isize);
        let run = run.into_iter().map(|e| (e.priority, e.seq, e.item));
        ListBucket { list: HarrisList::from_sorted_in(run), live }
    }

    fn guard(&self) -> R::Guard<T> {
        self.list.guard()
    }

    fn try_open<'a>(&'a self, guard: &'a R::Guard<T>) -> Option<&'a R::Guard<T>> {
        Some(guard)
    }

    fn open<'a>(&'a self, guard: &'a R::Guard<T>) -> &'a R::Guard<T> {
        guard
    }

    fn peek(&self, open: &&R::Guard<T>) -> Option<u64> {
        self.list.peek_min_with(open)
    }

    /// One walk from the sentinel, one mark per entry, one unlink CAS per
    /// run ([`HarrisList::pop_run_with`]).
    fn pop_run(&self, open: &mut &R::Guard<T>, max: usize, out: impl FnMut((u64, T))) -> usize {
        self.list.pop_run_with(max, out, open)
    }

    /// One walk per run, starting at the list's finger: each search
    /// resumes from the node the entry before linked
    /// ([`HarrisList::insert_run_with`]), so the run is linked in key
    /// order. A run that does not ascend is sorted first, in a stash on the
    /// stack; one that does is linked as it comes. Entries are taken
    /// `BATCH_SCATTER_RUN` (64) at a time, the longest run an `insert_batch`
    /// hands a bucket.
    fn push_run(&self, open: &mut &R::Guard<T>, run: impl Iterator<Item = Entry<T>>) -> isize {
        let (mut run, mut pushed) = (run.peekable(), 0);
        while run.peek().is_some() {
            let (mut stash, mut ascending, mut last) = (Stash::new(), true, None);
            for e in run.by_ref().take(BATCH_SCATTER_RUN) {
                ascending &= last <= Some(e.key());
                last = Some(e.key());
                stash.push(e);
            }
            if !ascending {
                stash.sort();
            }
            pushed += stash.len as isize;
            self.list.insert_run_with(stash.drain().map(|e| (e.priority, e.seq, e.item)), open);
        }
        pushed
    }

    fn close(&self, _open: &R::Guard<T>, delta: isize) {
        if delta != 0 {
            self.live.fetch_add(delta, Ordering::AcqRel);
        }
    }

    fn count(&self) -> isize {
        self.live.load(Ordering::Acquire)
    }
}

/// Up to `BATCH_SCATTER_RUN` entries of one run, on the stack: the first
/// `len` slots are initialized, and dropped with the stash unless drained.
struct Stash<T> {
    slots: [MaybeUninit<Entry<T>>; BATCH_SCATTER_RUN],
    len: usize,
}

impl<T> Stash<T> {
    fn new() -> Self {
        Stash { slots: [const { MaybeUninit::uninit() }; BATCH_SCATTER_RUN], len: 0 }
    }

    /// The initialized entries.
    fn entries(&mut self) -> &mut [Entry<T>] {
        // SAFETY: the first `len` slots are initialized.
        unsafe { &mut *(&raw mut self.slots[..self.len] as *mut [Entry<T>]) }
    }

    /// Adds `e`; the stash must not be full.
    fn push(&mut self, e: Entry<T>) {
        self.slots[self.len].write(e);
        self.len += 1;
    }

    fn sort(&mut self) {
        self.entries().sort_unstable_by_key(Entry::key);
    }

    /// Moves the entries out, in order.
    fn drain(&mut self) -> impl ExactSizeIterator<Item = Entry<T>> + '_ {
        let len = std::mem::take(&mut self.len);
        // SAFETY: the first `len` slots were initialized, and with `len`
        // reset nothing else reads or drops them: each is moved out once.
        // An iteration cut short by a panic leaks the rest.
        self.slots[..len].iter().map(|slot| unsafe { slot.assume_init_read() })
    }
}

impl<T> Drop for Stash<T> {
    fn drop(&mut self) {
        // SAFETY: the first `len` slots are initialized and not drained;
        // they are dropped once, here.
        unsafe { std::ptr::drop_in_place(self.entries()) };
    }
}

/// A MultiQueue over Harris lists.
///
/// A `pop_batch` takes a prefix of one sorted list: one mark CAS per entry
/// and one unlink CAS for the run. Runtime inserts are sorted walks, and
/// not rare: the prefill executors bulk-load
/// ([`LockFreeMultiQueue::prefilled_in`]) and re-insert only failed deletes,
/// but the streaming service sends every task through `insert_batch`. Each
/// run of an `insert_batch` costs at most one walk of its list, not one per
/// entry: the first search starts at the list's finger (the last node a run
/// linked), every later one at the node the entry before linked.
///
/// The second type parameter selects the reclamation backend (default
/// [`Ebr`]); the `*_in` constructors build a queue over the backend the
/// caller names, e.g. `LockFreeMultiQueue::<u64, Vbr>::prefilled_in(..)`
/// for the pin-free read path. Every `pop`, `pop_batch` and ≤ 64-entry run
/// of an `insert_batch` takes one guard (an epoch pin under EBR; free under
/// VBR), so a large batch never stalls other threads' reclamation.
///
/// # Examples
///
/// ```
/// use rsched_queues::{ConcurrentScheduler, concurrent::LockFreeMultiQueue, reclaim::Ebr};
///
/// let q = LockFreeMultiQueue::<_, Ebr>::prefilled_in(4, (0..10u64).map(|p| (p, p)));
/// let (p, _) = q.pop().unwrap();
/// assert!(p < 10);
/// ```
pub type LockFreeMultiQueue<T, R = Ebr> = MultiQueueCore<T, ListBucket<T, R>>;

impl<T: Send, R: Reclaim> LockFreeMultiQueue<T, R> {
    /// Creates an empty queue with `num_queues` lists over backend `R`.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn new_in(num_queues: usize) -> Self {
        Self::prefilled_in(num_queues, std::iter::empty())
    }

    /// Bulk-loads `entries` over backend `R`, scattering them randomly
    /// across the `num_queues` lists with no CAS traffic. This is how the
    /// framework loads its initial task set.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues == 0`.
    pub fn prefilled_in<I>(num_queues: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, T)>,
    {
        Self::build(num_queues, entries, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentScheduler;

    /// Prefilled and inserted entries share one order on a list: the
    /// `(priority, seq)` key, with `seq` continuing past the prefill.
    #[test]
    fn prefill_and_insert_share_one_order() {
        let q = LockFreeMultiQueue::<_, Ebr>::prefilled_in(1, [(10u64, 'a'), (20, 'b'), (20, 'c')]);
        q.insert(20, 'd');
        q.insert(5, 'e');
        let order: String = std::iter::from_fn(|| q.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, "eabcd");
    }
}
