//! Harris's lock-free sorted linked list, generic over memory reclamation.
//!
//! The paper's §4 implementation "uses lock-free lists to maintain the
//! individual priority queues" of its MultiQueue; this is that building
//! block. Keys are `(priority, seq)` pairs (not unique: see below), nodes
//! are logically deleted by tagging their link word and physically unlinked
//! later, a whole chain of marked nodes with one CAS (SNIPPETS.md's
//! `find_harris`). A *run* is the unit of the list's traffic both ways:
//! [`HarrisList::insert_run_with`] walks once per ascending run, starting
//! at the finger, and [`HarrisList::pop_run_with`] marks a prefix and
//! unlinks it with one CAS; each unlinked chain is retired as one unit.
//! Memory management is pluggable through [`Reclaim`]: under
//! [`Ebr`](crate::reclaim::Ebr) a chain is one deferred epoch item whose
//! nodes go back to the list's node pool after the grace period; under
//! [`Vbr`](crate::reclaim::Vbr) nodes live in a version-stamped slot arena
//! and readers validate instead of pinning. Every operation takes the
//! caller's guard, so one pin covers a run; runs long enough to stall
//! global reclamation should take a fresh guard each, as the MultiQueue
//! core does.
//!
//! The list is rooted at a never-retired sentinel node, so every traversal
//! step — including the head — is a uniform `(node, link word)` pair for
//! the backend to validate.
//!
//! # Keys need not be unique
//!
//! `seq` is a `u32` that wraps (see [`crate::Entry`]), so two live nodes can
//! share a key. Keys only place nodes; nothing finds a node by its key. An
//! insert links its node before the first live node with a key at least
//! its own, so a duplicate lands before its twin; a search resumes from a
//! node only if that node's key is strictly below the one sought, so a
//! twin of the finger's key searches from the sentinel. A pop marks nodes
//! by position, and an unlink swings links and compares the finger by node
//! identity. Each node is therefore linked once, marked once and unlinked
//! once, whatever its key. Only the FIFO order of ties claimed on both
//! sides of a wrap is lost.
//!
//! # The finger
//!
//! The list remembers the last node an insert run linked, and the next run
//! starts its walk there, so a producer appending ascending runs never
//! walks the head region the poppers are marking. The finger must never
//! name a node past its retire (under EBR a recycled node would be resumed
//! from). Two rules keep it so. An insert run stores the finger, then
//! re-reads that node's mark and clears the finger if it is marked. Every
//! unlink clears the finger if it names a node of the chain, before
//! retiring the chain. The two sides are a store-buffering pair (store the
//! finger, read the mark / write the mark, read the finger), so each has a
//! `SeqCst` fence between its write and its read: at least one side sees
//! the other. DESIGN.md "Reclamation semantics" has the argument.

use crate::reclaim::Reclaim;
use rsched_sync::atomic::{fence, AtomicU64, Ordering::SeqCst};
use std::fmt;

/// A sorted lock-free linked list of `(priority, seq)`-keyed entries.
///
/// Optimized for the scheduling workload: pops take the head region (the
/// minimum is first) and inserts are sorted walks. Runtime inserts are not
/// rare — the streaming service sends every task through them — so both
/// directions work in runs, under a guard the caller takes once per run:
/// [`HarrisList::insert_run_with`] starts at the list's finger, the last
/// node a run linked, and [`HarrisList::pop_run_with`] unlinks a popped
/// prefix with one CAS.
///
/// The second type parameter selects the reclamation backend; there is no
/// default, so every list names its backend at [`HarrisList::new_in`] or
/// [`HarrisList::from_sorted_in`].
///
/// # Examples
///
/// ```
/// use rsched_queues::concurrent::HarrisList;
/// use rsched_queues::reclaim::Ebr;
///
/// let list = HarrisList::<_, Ebr>::new_in();
/// list.insert_run_with([(2, 0, "b"), (1, 1, "a")], &list.guard());
/// assert_eq!(list.peek_min_with(&list.guard()), Some(1));
/// let mut popped = Vec::new();
/// assert_eq!(list.pop_run_with(8, |e| popped.push(e), &list.guard()), 2);
/// assert_eq!(popped, [(1, "a"), (2, "b")]);
/// assert_eq!(list.pop_run_with(8, drop, &list.guard()), 0);
/// ```
pub struct HarrisList<T: Send, R: Reclaim> {
    dom: R::Domain<T>,
    /// Sentinel node: allocated at construction, never marked or retired.
    head: R::Ptr<T>,
    /// The last node an insert run linked ([`Reclaim::to_word`]), or the
    /// null pointer once an unlink or that run's re-check cleared it.
    finger: AtomicU64,
}

// SAFETY: nodes are shared across threads but the payload is only ever
// moved out by the single thread that wins the marking CAS, so `T: Send`
// suffices; all other shared state is the backend's (`Domain: Send+Sync`)
// or the finger, an atomic word.
unsafe impl<T: Send, R: Reclaim> Send for HarrisList<T, R> {}
// SAFETY: as for Send — all shared mutation goes through the backend's
// atomics plus its reclamation protocol, which serializes (EBR) or
// version-validates (VBR) reclamation against readers.
unsafe impl<T: Send, R: Reclaim> Sync for HarrisList<T, R> {}

impl<T: Send, R: Reclaim> HarrisList<T, R> {
    /// Creates an empty list in a fresh domain of backend `R`.
    pub fn new_in() -> Self {
        Self::from_sorted_in(std::iter::empty())
    }

    /// Builds a list in a fresh domain of backend `R` from entries sorted
    /// by `(priority, seq)` without any CAS traffic — the bulk-load path
    /// used to prefill schedulers. A prefill claimed across the `seq` wrap
    /// is sorted by priority only, which is all the list relies on.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the priorities are not ascending.
    pub fn from_sorted_in<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, u32, T)>,
    {
        let items: Vec<(u64, u32, T)> = entries.into_iter().collect();
        debug_assert!(
            items.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk-load entries must be sorted by priority"
        );
        let dom = R::new_domain();
        let mut stash = R::stash(&dom, 1 + items.len());
        let head = R::alloc(&dom, &mut stash, (0, 0), None);
        // The list is not yet shared: every link is set through the
        // exclusive-owner path, no CAS.
        let mut last = head;
        for (priority, seq, item) in items {
            let node = R::alloc(&dom, &mut stash, (priority, seq), Some(item));
            R::set_next_exclusive(&dom, last, node);
            last = node;
        }
        R::unstash(&dom, stash);
        let finger =
            AtomicU64::new(if last == head { Self::no_finger() } else { R::to_word(last) });
        HarrisList { dom, head, finger }
    }

    /// Enters the read-side critical section every operation runs under (an
    /// epoch pin under EBR; free under VBR).
    pub fn guard(&self) -> R::Guard<T> {
        R::pin(&self.dom)
    }

    /// Inserts `(priority, seq, item)` entries under one guard, each before
    /// any live entry with an equal key (the MultiQueue's `seq` is a
    /// wrapping claim counter, so a key repeats only 2³² claims later). The
    /// first search starts at the finger, each later one at the node the
    /// entry before linked: an ascending run above the last one starts where
    /// that run ended, not at the head. An entry below or equal to its
    /// start, or whose start a pop claimed, searches from the sentinel, so
    /// the run need not be sorted. Takes its nodes from the domain once per
    /// run.
    pub fn insert_run_with<I>(&self, run: I, guard: &R::Guard<T>)
    where
        I: IntoIterator<Item = (u64, u32, T)>,
    {
        let run = run.into_iter();
        let mut stash = R::stash(&self.dom, run.size_hint().0);
        let start = R::from_word(self.finger.load(SeqCst));
        let mut last = start;
        for (priority, seq, item) in run {
            let key = (priority, seq);
            let node = R::alloc(&self.dom, &mut stash, key, Some(item));
            loop {
                let (prev, cur) = self.find(last, key, guard);
                // `node` is still exclusively ours until the CAS publishes it.
                R::set_next_exclusive(&self.dom, node, cur);
                if self.cas(prev, cur, node, guard) {
                    break;
                }
                last = self.head;
            }
            last = node;
        }
        R::unstash(&self.dom, stash);
        if last != start {
            self.set_finger(last, guard);
        }
    }

    /// Points the finger at `node`, just linked by this thread, then
    /// re-checks `node`'s mark: a pop that marked and unlinked it before
    /// the store cannot have seen the finger, so this side clears it.
    fn set_finger(&self, node: R::Ptr<T>, guard: &R::Guard<T>) {
        let word = R::to_word(node);
        self.finger.store(word, SeqCst);
        // Store-buffering pair with the fence in `unlink` (module docs):
        // finger store → fence → mark read here, mark → fence → finger read
        // there; at least one side sees the other's write.
        fence(SeqCst);
        #[cfg(rsched_model)]
        if rsched_sync::model::mutation_enabled("list-finger-skip-recheck") {
            return; // Seeded mutant (tests/model_list.rs).
        }
        if R::load_next(&self.dom, node, guard).is_none_or(|next| R::tag(next) == 1) {
            self.clear_finger(word);
        }
    }

    /// The finger's cleared value.
    fn no_finger() -> u64 {
        R::to_word(R::null::<T>())
    }

    fn clear_finger(&self, word: u64) {
        let _ = self.finger.compare_exchange(word, Self::no_finger(), SeqCst, SeqCst);
    }

    /// Pops up to `max` entries, smallest first, into `out`; returns how
    /// many, 0 iff the list was observed empty (or `max` is 0).
    ///
    /// One `find` from the sentinel reaches the first live node. From there
    /// the run marks up to `max` consecutive live nodes, one CAS each: each
    /// mark is that entry's linearization point, so a racing pop skips it,
    /// and nodes a racing pop marked join the chain. Then one CAS swings
    /// the sentinel past the whole chain, which is retired as one unit. If
    /// that CAS fails, the marked nodes are left for a later `find` to
    /// unlink, as in Harris's list.
    pub fn pop_run_with(
        &self,
        max: usize,
        mut out: impl FnMut((u64, T)),
        guard: &R::Guard<T>,
    ) -> usize {
        if max == 0 {
            return 0;
        }
        loop {
            // Every key is ≥ (0, 0): `first` is the first live node, a
            // minimum, and `prev` the sentinel.
            let (prev, first) = self.find(self.head, (0, 0), guard);
            if R::is_null(first) {
                return 0;
            }
            let (mut cur, mut last, mut len, mut popped) = (first, first, 0, 0);
            while popped < max && !R::is_null(cur) {
                #[cfg(test)]
                tests::VISITS.with(|v| v.set(v.get() + 1));
                // Claimed and recycled since we reached it (VBR): the chain
                // is no longer linked, so it ends here and the unlink fails.
                let Some(next) = R::load_next(&self.dom, cur, guard) else { break };
                if R::tag(next) == 0 {
                    let Some(key) = R::key(&self.dom, cur, guard) else { break };
                    #[cfg(rsched_model)]
                    if len == 0 && rsched_sync::model::mutation_enabled("list-unlink-before-mark") {
                        // Seeded mutant (tests/model_list.rs): unlink first.
                        let _ = self.cas(prev, cur, next, guard);
                    }
                    // SAFETY: speculative copy (`cur` is non-null, loaded
                    // under `guard`); it is claimed only if the marking CAS
                    // below succeeds, and silently discarded otherwise.
                    let payload = unsafe { R::peek_payload(&self.dom, cur, guard) };
                    // Logical delete: tag cur's link word. Winning this CAS
                    // grants ownership of the payload copy.
                    if !self.cas(cur, next, R::with_tag(next, 1), guard) {
                        continue; // a racing insert or mark: re-read the link
                    }
                    // SAFETY: exactly one thread wins the marking CAS, and
                    // the backend guarantees the pre-CAS copy read the
                    // claimed lifetime; `Drop` skips items of marked nodes.
                    out((key.0, unsafe { payload.assume_init() }));
                    popped += 1;
                }
                (last, len) = (cur, len + 1);
                cur = R::with_tag(next, 0);
            }
            if len > 0 {
                self.unlink(prev, first, last, cur, len, guard);
            }
            if popped > 0 {
                return popped;
            }
        }
    }

    /// The smallest live priority, or `None` if the list was observed empty.
    ///
    /// A racy snapshot, used by the MultiQueue's two-choice comparison.
    pub fn peek_min_with(&self, guard: &R::Guard<T>) -> Option<u64> {
        'retry: loop {
            let mut cur = match R::load_next(&self.dom, self.head, guard) {
                Some(c) => c,
                None => continue 'retry,
            };
            loop {
                if R::is_null(cur) {
                    return None;
                }
                let next = match R::load_next(&self.dom, cur, guard) {
                    Some(n) => n,
                    None => continue 'retry,
                };
                if R::tag(next) == 0 {
                    match R::key(&self.dom, cur, guard) {
                        Some(k) => return Some(k.0),
                        None => continue 'retry,
                    }
                }
                cur = R::with_tag(next, 0);
            }
        }
    }

    /// Finds the insertion point for `key`: returns `(prev, cur)` where
    /// `cur` is the first live node with key ≥ `key` (or null) and `prev`
    /// its predecessor (possibly the sentinel), unlinking each chain of
    /// marked nodes on the way with one CAS. The walk starts `at` a node
    /// this list linked — if its key is below `key` and its link word reads
    /// unmarked — and at the sentinel otherwise (`at` null included) and
    /// after any failed validation or CAS.
    fn find(&self, at: R::Ptr<T>, key: (u64, u32), guard: &R::Guard<T>) -> (R::Ptr<T>, R::Ptr<T>) {
        let mut at = Some(at);
        'retry: loop {
            // A retry is a spin iteration: the model checker parks it.
            let mut prev = at.take().unwrap_or_else(|| {
                rsched_sync::spin_wait();
                self.head
            });
            if prev != self.head
                && (R::is_null(prev) || R::key(&self.dom, prev, guard).is_none_or(|k| k >= key))
            {
                prev = self.head;
            }
            let mut cur = match R::load_next(&self.dom, prev, guard) {
                Some(c) if R::tag(c) == 0 => c,
                // Seeded mutant (tests/model_list.rs): resume from a marked node.
                #[cfg(rsched_model)]
                Some(c) if rsched_sync::model::mutation_enabled("list-resume-marked-node") => c,
                // A start node claimed or recycled since: start over at the
                // sentinel, whose link is never marked or stale.
                _ => {
                    at = Some(self.head);
                    continue 'retry;
                }
            };
            loop {
                #[cfg(test)]
                tests::VISITS.with(|v| v.set(v.get() + 1));
                if R::is_null(cur) {
                    return (prev, cur);
                }
                let Some(mut next) = R::load_next(&self.dom, cur, guard) else { continue 'retry };
                if R::tag(next) == 1 {
                    // `cur` starts a chain of marked nodes: walk to its end,
                    // then unlink all of it with one CAS.
                    let (first, mut last, mut len) = (cur, cur, 1);
                    cur = R::with_tag(next, 0);
                    while !R::is_null(cur) {
                        #[cfg(test)]
                        tests::VISITS.with(|v| v.set(v.get() + 1));
                        let Some(n) = R::load_next(&self.dom, cur, guard) else { continue 'retry };
                        next = n;
                        if R::tag(n) == 0 {
                            break;
                        }
                        (last, len, cur) = (cur, len + 1, R::with_tag(n, 0));
                    }
                    if !self.unlink(prev, first, last, cur, len, guard) {
                        continue 'retry;
                    }
                    if R::is_null(cur) {
                        return (prev, cur);
                    }
                }
                let Some(ckey) = R::key(&self.dom, cur, guard) else { continue 'retry };
                if ckey >= key {
                    return (prev, cur);
                }
                prev = cur;
                cur = next;
            }
        }
    }

    /// Swings `prev`'s link from `first` to `end`, past the chain of `len`
    /// marked nodes `first..=last`, with one CAS. If it wins, clears the
    /// finger if it names a node of the chain, then retires the chain.
    fn unlink(
        &self,
        prev: R::Ptr<T>,
        first: R::Ptr<T>,
        last: R::Ptr<T>,
        end: R::Ptr<T>,
        len: usize,
        guard: &R::Guard<T>,
    ) -> bool {
        if !self.cas(prev, first, end, guard) {
            return false;
        }
        // The other half of `set_finger`'s store-buffering pair: every node
        // of the chain was read marked before this fence.
        fence(SeqCst);
        let finger = self.finger.load(SeqCst);
        let mut node = first;
        while finger != Self::no_finger() {
            if R::to_word(node) == finger {
                self.clear_finger(finger);
                break;
            }
            if node == last {
                break;
            }
            let next =
                R::load_next(&self.dom, node, guard).expect("an unlinked chain is unretired");
            node = R::with_tag(next, 0);
        }
        // SAFETY: our CAS unlinked the chain and its nodes are marked; only
        // the unlinking thread retires it.
        unsafe { R::retire_chain(&self.dom, first, last, len, guard) };
        true
    }

    /// [`Reclaim::cas_next`], counted by the tests.
    fn cas(&self, node: R::Ptr<T>, cur: R::Ptr<T>, new: R::Ptr<T>, guard: &R::Guard<T>) -> bool {
        #[cfg(test)]
        tests::CASES.with(|c| c.set(c.get() + 1));
        R::cas_next(&self.dom, node, cur, new, guard)
    }

    /// Whether the finger is clear or names a node still linked behind the
    /// sentinel — what the finger protocol keeps true at quiescence. A
    /// model-checker probe: call it only with no operation in flight.
    #[cfg(rsched_model)]
    #[doc(hidden)]
    pub fn finger_is_linked(&self) -> bool {
        let (finger, guard) = (R::from_word(self.finger.load(SeqCst)), self.guard());
        let mut cur = self.head;
        while !R::is_null(finger) && finger != cur {
            match R::load_next(&self.dom, cur, &guard) {
                Some(next) if !R::is_null(next) => cur = R::with_tag(next, 0),
                _ => return false,
            }
        }
        true
    }
}

impl<T: Send, R: Reclaim> Drop for HarrisList<T, R> {
    fn drop(&mut self) {
        // &mut self: no concurrent access. Free every node, dropping
        // payloads only where no popper took them. Every node still linked
        // is in its live lifetime (retire only follows unlink), so the
        // exclusive loads below always validate.
        let guard = R::pin(&self.dom);
        let mut cur = R::load_next(&self.dom, self.head, &guard)
            .expect("exclusive access: sentinel load cannot fail validation");
        // SAFETY: exclusive access; the sentinel has no payload and this is
        // its unique free.
        unsafe { R::dealloc_exclusive(&self.dom, self.head, false) };
        while !R::is_null(cur) {
            let next = R::load_next(&self.dom, cur, &guard)
                .expect("exclusive access: linked-node load cannot fail validation");
            // SAFETY: exclusive access and the unique free of each node;
            // tag 0 means no popper moved the payload out.
            unsafe { R::dealloc_exclusive(&self.dom, cur, R::tag(next) == 0) };
            cur = R::with_tag(next, 0);
        }
    }
}

impl<T: Send, R: Reclaim> fmt::Debug for HarrisList<T, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisList").field("reclaim", &R::name()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reclaim::{Ebr, Vbr};
    use proptest::prelude::*;
    use rsched_sync::atomic::{AtomicUsize, Ordering};
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Nodes `find` and `pop_run_with` have visited on this thread: the
        /// walk-count probe.
        pub(super) static VISITS: Cell<usize> = const { Cell::new(0) };
        /// Link-word CASes this thread has issued: marks, links, unlinks.
        pub(super) static CASES: Cell<usize> = const { Cell::new(0) };
    }

    /// Pops everything left, in runs of up to 8.
    fn drain<T: Send, R: Reclaim>(list: &HarrisList<T, R>) -> Vec<(u64, T)> {
        let mut left = Vec::new();
        while list.pop_run_with(8, |e| left.push(e), &list.guard()) > 0 {}
        left
    }

    /// The priorities [`drain`] pops.
    fn drain_priorities<T: Send, R: Reclaim>(list: &HarrisList<T, R>) -> Vec<u64> {
        drain(list).into_iter().map(|(p, _)| p).collect()
    }

    fn walk_is_paid_once_per_run_impl<R: Reclaim>() {
        const L: usize = 256;
        // Above a backlog of L, and interleaved with one (odd keys between
        // even ones): 64 ascending entries visit ≤ L + 2·64 nodes, where a
        // search from the sentinel per entry visits about 64·L.
        let backlogs = [(0..L as u64).collect::<Vec<_>>(), (0..L as u64).map(|p| 2 * p).collect()];
        let runs =
            [(10_000..10_064u64).collect::<Vec<_>>(), (50..114u64).map(|p| 2 * p + 1).collect()];
        for (backlog, run) in backlogs.into_iter().zip(runs) {
            let list: HarrisList<u64, R> =
                HarrisList::from_sorted_in(backlog.iter().map(|&p| (p, p as u32, p)));
            let before = VISITS.get();
            list.insert_run_with(run.iter().map(|&p| (p, p as u32, p)), &list.guard());
            let visits = VISITS.get() - before;
            assert!(visits <= L + 2 * 64, "{visits} node visits for one run over {L} entries");
            let mut all: Vec<u64> = backlog.into_iter().chain(run).collect();
            all.sort_unstable();
            assert_eq!(drain_priorities(&list), all);
        }
    }

    #[test]
    fn walk_is_paid_once_per_run() {
        walk_is_paid_once_per_run_impl::<Ebr>();
        walk_is_paid_once_per_run_impl::<Vbr>();
    }

    /// The same bound for a run that arrives out of order: 64 odd keys in
    /// a scrambled order, interleaved with a backlog of L even ones, through
    /// `insert_batch` into a one-list `LockFreeMultiQueue`, which sorts the
    /// run before linking it. Linked as they came, they would search from
    /// the sentinel at every descent: thousands of visits.
    fn unsorted_run_is_walked_once_impl<R: Reclaim>() {
        const L: usize = 256;
        let backlog = (0..L as u64).map(|p| (2 * p, p));
        let q = crate::concurrent::LockFreeMultiQueue::<u64, R>::prefilled_in(1, backlog);
        let run: Vec<(u64, u64)> = (0..64).map(|i| (2 * (50 + i * 37 % 64) + 1, i)).collect();
        let before = VISITS.get();
        crate::ConcurrentScheduler::insert_batch(&q, &run);
        let visits = VISITS.get() - before;
        assert!(visits <= L + 2 * 64, "{visits} node visits for one unsorted run over {L} entries");
        let mut all: Vec<u64> =
            (0..L as u64).map(|p| 2 * p).chain(run.iter().map(|e| e.0)).collect();
        all.sort_unstable();
        let pop = || crate::ConcurrentScheduler::pop(&q).map(|(p, _)| p);
        assert_eq!(std::iter::from_fn(pop).collect::<Vec<_>>(), all);
    }

    #[test]
    fn unsorted_run_is_walked_once() {
        unsorted_run_is_walked_once_impl::<Ebr>();
        unsorted_run_is_walked_once_impl::<Vbr>();
    }

    /// Between two entries of one run, pops claim everything the run linked
    /// so far — its resume node last. Under EBR the resume node reads
    /// marked; under VBR its slot is recycled for the next entry, so the
    /// resume fails validation. Either way the run lands complete and sorted.
    fn run_survives_a_pop_of_its_resume_node_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> =
            HarrisList::from_sorted_in((1000..1010).map(|p| (p, p as u32, p)));
        let mut popped = Vec::new();
        let run = (0..64u64).map(|p| {
            if p == 32 {
                assert_eq!(list.pop_run_with(32, |(p, _)| popped.push(p), &list.guard()), 32);
            }
            (p, p as u32, p)
        });
        list.insert_run_with(run, &list.guard());
        assert_eq!(popped, (0..32).collect::<Vec<_>>());
        assert_eq!(drain_priorities(&list), (32..64).chain(1000..1010).collect::<Vec<_>>());
    }

    #[test]
    fn run_survives_a_pop_of_its_resume_node() {
        run_survives_a_pop_of_its_resume_node_impl::<Ebr>();
        run_survives_a_pop_of_its_resume_node_impl::<Vbr>();
    }

    /// A run pop of 8 over 256 live entries visits the first node once to
    /// find it and each popped node once to mark it, and issues 8 marks and
    /// one unlink: no walk and no CAS per popped entry beyond its mark.
    fn pop_run_is_one_walk_one_unlink_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> =
            HarrisList::from_sorted_in((0..256).map(|p| (p, p as u32, p)));
        let mut popped = Vec::new();
        for run in 0..32 {
            let (visits, cases) = (VISITS.get(), CASES.get());
            assert_eq!(list.pop_run_with(8, |(p, _)| popped.push(p), &list.guard()), 8);
            assert_eq!(VISITS.get() - visits, 1 + 8, "node visits of run {run}");
            assert_eq!(CASES.get() - cases, 8 + 1, "CASes of run {run}");
        }
        assert_eq!(popped, (0..256).collect::<Vec<_>>());
        assert_eq!(list.pop_run_with(8, |_| unreachable!(), &list.guard()), 0);
    }

    #[test]
    fn pop_run_is_one_walk_one_unlink() {
        pop_run_is_one_walk_one_unlink_impl::<Ebr>();
        pop_run_is_one_walk_one_unlink_impl::<Vbr>();
    }

    fn finger(list: &HarrisList<u64, impl Reclaim>) -> u64 {
        list.finger.load(Ordering::SeqCst)
    }

    /// The finger names the last node of the first run; a run pop claims
    /// that node and must clear the finger before retiring it. The second
    /// run (after a grace period, so under EBR its nodes are the first
    /// run's, recycled) starts from the sentinel and lands sorted.
    fn finger_survives_a_pop_of_its_node_impl<R: Reclaim>() {
        let null = R::to_word(R::null::<u64>());
        let list: HarrisList<u64, R> =
            HarrisList::from_sorted_in((100..110).map(|p| (p, p as u32, p)));
        list.insert_run_with((0..32).map(|p| (p, p as u32, p)), &list.guard());
        assert_ne!(finger(&list), null, "a run leaves the finger on its last node");
        let mut popped = Vec::new();
        assert_eq!(list.pop_run_with(32, |(p, _)| popped.push(p), &list.guard()), 32);
        assert_eq!(popped, (0..32).collect::<Vec<_>>());
        assert_eq!(finger(&list), null, "the unlink retired the finger's node and kept it");
        for _ in 0..1_000 {
            R::flush(&list.dom, &list.guard());
            std::thread::yield_now();
        }
        list.insert_run_with((32..64).map(|p| (p, p as u32, p)), &list.guard());
        assert_eq!(drain_priorities(&list), (32..64).chain(100..110).collect::<Vec<_>>());
    }

    #[test]
    fn finger_survives_a_pop_of_its_node() {
        finger_survives_a_pop_of_its_node_impl::<Ebr>();
        finger_survives_a_pop_of_its_node_impl::<Vbr>();
    }

    fn bulk_load_matches_inserts_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((0..100u64).map(|p| (p, 0, p)));
        assert_eq!(list.peek_min_with(&list.guard()), Some(0));
        assert_eq!(drain_priorities(&list), (0..100).collect::<Vec<_>>());
        assert_eq!(list.peek_min_with(&list.guard()), None);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        bulk_load_matches_inserts_impl::<Ebr>();
        bulk_load_matches_inserts_impl::<Vbr>();
    }

    #[test]
    fn ties_resolved_by_seq() {
        let list = HarrisList::<_, Ebr>::new_in();
        list.insert_run_with([(1, 1, "second")], &list.guard());
        list.insert_run_with([(1, 0, "first")], &list.guard());
        assert_eq!(drain(&list), [(1, "first"), (1, "second")]);
    }

    fn empty_list_behaviour_impl<R: Reclaim>() {
        let list: HarrisList<u8, R> = HarrisList::new_in();
        assert_eq!(list.peek_min_with(&list.guard()), None);
        assert_eq!(list.pop_run_with(8, |_| unreachable!(), &list.guard()), 0);
    }

    #[test]
    fn empty_list_behaviour() {
        empty_list_behaviour_impl::<Ebr>();
        empty_list_behaviour_impl::<Vbr>();
    }

    /// Churn far beyond the initial population: without the free list the
    /// arena would need a slot per insert ever made, where the 3 200
    /// inserts stay within its first chunk of 1 024.
    #[test]
    fn vbr_reuses_slots_across_pop_insert_cycles() {
        let list: HarrisList<u64, Vbr> = HarrisList::new_in();
        for round in 0..200u64 {
            for i in 0..16u64 {
                list.insert_run_with([(i, (round * 16 + i) as u32, i)], &list.guard());
            }
            for _ in 0..16 {
                assert_eq!(list.pop_run_with(1, drop, &list.guard()), 1);
            }
        }
        assert_eq!(list.peek_min_with(&list.guard()), None);
        let slots = list.dom.slots();
        assert!(slots <= 1_024, "churn took {slots} fresh slots, past the first chunk");
    }

    /// The EBR twin: each round's popped chain goes back to the list's pool
    /// once its grace period has passed, and the next round's run takes its
    /// nodes from there — 3 200 inserts in the first block of 256.
    #[test]
    fn ebr_recycles_nodes_across_pop_insert_cycles() {
        let list: HarrisList<u64, Ebr> = HarrisList::new_in();
        for round in 0..200u64 {
            list.insert_run_with(
                (0..16u64).map(|i| (i, (round * 16 + i) as u32, i)),
                &list.guard(),
            );
            assert_eq!(list.pop_run_with(16, drop, &list.guard()), 16);
            for _ in 0..100_000 {
                if list.dom.pool_stats().1 >= 16 {
                    break;
                }
                Ebr::flush(&list.dom, &list.guard());
                std::thread::yield_now();
            }
        }
        assert_eq!(list.peek_min_with(&list.guard()), None);
        assert_eq!(list.dom.pool_stats().0, 1, "churn carved a block past the first");
    }

    /// A payload that counts its drops in `cells[seq]`.
    struct Counted<'a> {
        seq: u32,
        cells: &'a [AtomicUsize],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.cells[self.seq as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Replays `ops` on one list against a `BTreeSet` of keys: `(0, _, _)`
    /// inserts one entry, `(1, len, _)` pops a run of `len`, and
    /// `(2, len, d)` inserts `len` entries in one run, sorted and then
    /// rotated left by `d` (one descent when `0 < d < len`). Every run pop
    /// takes the oracle's exact prefix, what is left drains in key order,
    /// and every payload is dropped once, popped or drained.
    fn matches_oracle<R: Reclaim>(ops: &[(u8, usize, usize)]) {
        let total: usize = ops.iter().map(|&(kind, len, _)| [1, 0, len][kind as usize]).sum();
        let cells: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        let list: HarrisList<Counted<'_>, R> = HarrisList::new_in();
        let mut oracle: BTreeSet<(u64, u32)> = BTreeSet::new();
        let mut seq = 0u32;
        for (i, &(kind, len, d)) in ops.iter().enumerate() {
            if kind == 1 {
                let mut got = Vec::new();
                list.pop_run_with(len, |(p, c)| got.push((p, c.seq)), &list.guard());
                let want: Vec<_> = std::iter::from_fn(|| oracle.pop_first()).take(len).collect();
                assert_eq!(got, want, "a single-threaded run pop takes the exact prefix");
                continue;
            }
            let len = if kind == 0 { 1 } else { len };
            let mut run: Vec<(u64, u32)> =
                (0..len).map(|j| ((i as u64 * 7 + j as u64 * 5) % 13, seq + j as u32)).collect();
            seq += len as u32;
            run.sort_unstable();
            run.rotate_left(d % len);
            oracle.extend(run.iter().copied());
            let cells = &cells[..];
            list.insert_run_with(
                run.into_iter().map(|(p, seq)| (p, seq, Counted { seq, cells })),
                &list.guard(),
            );
        }
        let left: Vec<_> = drain(&list).into_iter().map(|(p, c)| (p, c.seq)).collect();
        assert_eq!(left, oracle.into_iter().collect::<Vec<_>>(), "what is left drains sorted");
        drop(list);
        for (seq, cell) in cells.iter().enumerate() {
            let drops = cell.load(Ordering::Relaxed);
            assert_eq!(drops, 1, "payload {seq} dropped {drops} times");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Single-threaded, the list is an exact priority queue on either
        /// backend, however a run is ordered.
        #[test]
        fn random_runs_match_a_sorted_oracle(
            ops in proptest::collection::vec((0u8..3, 1usize..=8, 0usize..8), 1..200)
        ) {
            matches_oracle::<Ebr>(&ops);
            matches_oracle::<Vbr>(&ops);
        }
    }
}
