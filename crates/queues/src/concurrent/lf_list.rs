//! Harris's lock-free sorted linked list, generic over memory reclamation.
//!
//! The paper's §4 implementation "uses lock-free lists to maintain the
//! individual priority queues" of its MultiQueue; this is that building
//! block. Keys are `(priority, seq)` pairs (unique by construction), nodes
//! are logically deleted by tagging their link word and physically unlinked
//! later, a whole chain of marked nodes with one CAS (SNIPPETS.md's
//! `find_harris`). A *run* is the unit of the list's traffic both ways:
//! [`HarrisList::insert_run_with`] walks once per ascending run, starting
//! at the finger, and [`HarrisList::pop_run_with`] marks a prefix and
//! unlinks it with one CAS; each unlinked chain is retired as one unit.
//! Memory management is pluggable through [`Reclaim`]: under the default
//! [`Ebr`] a chain is one deferred epoch item whose nodes go back to the
//! list's node pool after the grace period; under
//! [`Vbr`](crate::reclaim::Vbr) nodes live in a version-stamped slot arena
//! and readers validate instead of pinning. The `*_with(guard)` variants
//! let callers amortize one pin over a run; runs long enough to stall
//! global reclamation should take a fresh guard each, as the MultiQueue
//! core does.
//!
//! The list is rooted at a never-retired sentinel node, so every traversal
//! step — including the head — is a uniform `(node, link word)` pair for
//! the backend to validate.
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

use crate::reclaim::{Ebr, Reclaim};
use rsched_sync::atomic::{fence, AtomicU64, Ordering::SeqCst};
use std::fmt;

/// A sorted lock-free linked list with `insert` and `pop_min`.
///
/// Optimized for the scheduling workload: pops take the head region (the
/// minimum is first) and inserts are sorted walks. Runtime inserts are not
/// rare — the streaming service sends every task through them — so both
/// directions work in runs: [`HarrisList::insert_run_with`] starts at the
/// list's finger, the last node a run linked, and
/// [`HarrisList::pop_run_with`] unlinks a popped prefix with one CAS.
///
/// The second type parameter selects the reclamation backend and defaults
/// to [`Ebr`], so pre-existing call sites compile unchanged; use
/// [`HarrisList::new_in`] / [`HarrisList::from_sorted_in`] to construct a
/// list over another backend.
///
/// # Examples
///
/// ```
/// use rsched_queues::concurrent::HarrisList;
///
/// let list = HarrisList::new();
/// list.insert(2, 0, "b");
/// list.insert(1, 1, "a");
/// assert_eq!(list.pop_min(), Some((1, "a")));
/// assert_eq!(list.pop_min(), Some((2, "b")));
/// assert_eq!(list.pop_min(), None);
/// ```
pub struct HarrisList<T: Send, R: Reclaim = Ebr> {
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

impl<T: Send, R: Reclaim> Default for HarrisList<T, R> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<T: Send> HarrisList<T, Ebr> {
    /// Creates an empty list over the default epoch backend.
    pub fn new() -> Self {
        Self::new_in()
    }

    /// Builds a list from entries sorted by `(priority, seq)` without any
    /// CAS traffic — the bulk-load path used to prefill schedulers.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entries are not strictly sorted.
    pub fn from_sorted<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64, T)>,
    {
        Self::from_sorted_in(entries)
    }
}

impl<T: Send, R: Reclaim> HarrisList<T, R> {
    /// Creates an empty list in a fresh domain of backend `R`.
    pub fn new_in() -> Self {
        Self::from_sorted_in(std::iter::empty())
    }

    /// [`HarrisList::from_sorted`] for an explicit backend `R`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entries are not strictly sorted.
    pub fn from_sorted_in<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64, T)>,
    {
        let items: Vec<(u64, u64, T)> = entries.into_iter().collect();
        debug_assert!(
            items.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "bulk-load entries must be strictly sorted"
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

    /// Enters a read-side critical section for the `*_with` variants (an
    /// epoch pin under EBR; free under VBR).
    pub fn guard(&self) -> R::Guard<T> {
        R::pin(&self.dom)
    }

    /// Flushes thread-local deferred garbage toward the collector.
    pub fn flush_guard(&self, guard: &R::Guard<T>) {
        R::flush(&self.dom, guard);
    }

    /// Inserts `item` with the unique key `(priority, seq)`.
    ///
    /// Callers must ensure key uniqueness (the MultiQueue wrapper assigns a
    /// global sequence number).
    pub fn insert(&self, priority: u64, seq: u64, item: T) {
        self.insert_with(priority, seq, item, &self.guard());
    }

    /// [`HarrisList::insert`] under a caller-provided guard: the one-entry
    /// [`HarrisList::insert_run_with`].
    pub fn insert_with(&self, priority: u64, seq: u64, item: T, guard: &R::Guard<T>) {
        self.insert_run_with([(priority, seq, item)], guard);
    }

    /// Inserts `(priority, seq, item)` entries with unique keys under one
    /// guard. The first search starts at the finger, each later one at the
    /// node the entry before linked: an ascending run above the last one
    /// starts where that run ended, not at the head. An entry below its start,
    /// or whose start a pop claimed, searches from the sentinel, so the run
    /// need not be sorted. Takes its nodes from the domain once per run.
    pub fn insert_run_with<I>(&self, run: I, guard: &R::Guard<T>)
    where
        I: IntoIterator<Item = (u64, u64, T)>,
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

    /// Removes and returns the element with the smallest key, or `None` if
    /// the list was observed empty.
    pub fn pop_min(&self) -> Option<(u64, T)> {
        self.pop_min_with(&self.guard())
    }

    /// [`HarrisList::pop_min`] under a caller-provided guard: the one-entry
    /// [`HarrisList::pop_run_with`].
    pub fn pop_min_with(&self, guard: &R::Guard<T>) -> Option<(u64, T)> {
        let mut got = None;
        self.pop_run_with(1, |e| got = Some(e), guard);
        got
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
            // Every key is ≥ (0, 0): `first` is the first live node, the
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
    pub fn peek_min(&self) -> Option<u64> {
        self.peek_min_with(&self.guard())
    }

    /// [`HarrisList::peek_min`] under a caller-provided guard.
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

    /// Whether the list was observed to hold no live element.
    pub fn is_empty(&self) -> bool {
        self.peek_min().is_none()
    }

    /// Finds the insertion point for `key`: returns `(prev, cur)` where
    /// `cur` is the first live node with key ≥ `key` (or null) and `prev`
    /// its predecessor (possibly the sentinel), unlinking each chain of
    /// marked nodes on the way with one CAS. The walk starts `at` a node
    /// this list linked — if its key is below `key` and its link word reads
    /// unmarked — and at the sentinel otherwise (`at` null included) and
    /// after any failed validation or CAS.
    fn find(&self, at: R::Ptr<T>, key: (u64, u64), guard: &R::Guard<T>) -> (R::Ptr<T>, R::Ptr<T>) {
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
    use crate::reclaim::Vbr;
    use rsched_sync::atomic::{AtomicUsize, Ordering};
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    thread_local! {
        /// Nodes `find` and `pop_run_with` have visited on this thread: the
        /// walk-count probe.
        pub(super) static VISITS: Cell<usize> = const { Cell::new(0) };
        /// Link-word CASes this thread has issued: marks, links, unlinks.
        pub(super) static CASES: Cell<usize> = const { Cell::new(0) };
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
                HarrisList::from_sorted_in(backlog.iter().map(|&p| (p, p, p)));
            let before = VISITS.get();
            list.insert_run_with(run.iter().map(|&p| (p, p, p)), &list.guard());
            let visits = VISITS.get() - before;
            assert!(visits <= L + 2 * 64, "{visits} node visits for one run over {L} entries");
            let mut all: Vec<u64> = backlog.into_iter().chain(run).collect();
            all.sort_unstable();
            let order: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
            assert_eq!(order, all);
        }
    }

    #[test]
    fn walk_is_paid_once_per_run() {
        walk_is_paid_once_per_run_impl::<Ebr>();
        walk_is_paid_once_per_run_impl::<Vbr>();
    }

    /// Between two entries of one run, pops claim everything the run linked
    /// so far — its resume node last. Under EBR the resume node reads
    /// marked; under VBR its slot is recycled for the next entry, so the
    /// resume fails validation. Either way the run lands complete and sorted.
    fn run_survives_a_pop_of_its_resume_node_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((1000..1010).map(|p| (p, p, p)));
        let mut popped = Vec::new();
        let run = (0..64u64).map(|p| {
            if p == 32 {
                popped.extend((0..32).map(|_| list.pop_min().unwrap().0));
            }
            (p, p, p)
        });
        list.insert_run_with(run, &list.guard());
        assert_eq!(popped, (0..32).collect::<Vec<_>>());
        let order: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
        assert_eq!(order, (32..64).chain(1000..1010).collect::<Vec<_>>());
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
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((0..256).map(|p| (p, p, p)));
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
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((100..110).map(|p| (p, p, p)));
        list.insert_run_with((0..32).map(|p| (p, p, p)), &list.guard());
        assert_ne!(finger(&list), null, "a run leaves the finger on its last node");
        let mut popped = Vec::new();
        assert_eq!(list.pop_run_with(32, |(p, _)| popped.push(p), &list.guard()), 32);
        assert_eq!(popped, (0..32).collect::<Vec<_>>());
        assert_eq!(finger(&list), null, "the unlink retired the finger's node and kept it");
        for _ in 0..1_000 {
            list.flush_guard(&list.guard());
            std::thread::yield_now();
        }
        list.insert_run_with((32..64).map(|p| (p, p, p)), &list.guard());
        let order: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
        assert_eq!(order, (32..64).chain(100..110).collect::<Vec<_>>());
    }

    #[test]
    fn finger_survives_a_pop_of_its_node() {
        finger_survives_a_pop_of_its_node_impl::<Ebr>();
        finger_survives_a_pop_of_its_node_impl::<Vbr>();
    }

    fn sequential_sorted_pops_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> = HarrisList::new_in();
        for (i, p) in [5u64, 2, 9, 1, 7].into_iter().enumerate() {
            list.insert(p, i as u64, p);
        }
        let order: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
        assert_eq!(order, vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn sequential_sorted_pops() {
        sequential_sorted_pops_impl::<Ebr>();
        sequential_sorted_pops_impl::<Vbr>();
    }

    fn bulk_load_matches_inserts_impl<R: Reclaim>() {
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((0..100u64).map(|p| (p, 0, p)));
        assert_eq!(list.peek_min(), Some(0));
        let order: Vec<u64> = std::iter::from_fn(|| list.pop_min().map(|(p, _)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert!(list.is_empty());
    }

    #[test]
    fn bulk_load_matches_inserts() {
        bulk_load_matches_inserts_impl::<Ebr>();
        bulk_load_matches_inserts_impl::<Vbr>();
    }

    #[test]
    fn ties_resolved_by_seq() {
        let list = HarrisList::new();
        list.insert(1, 1, "second");
        list.insert(1, 0, "first");
        assert_eq!(list.pop_min().unwrap().1, "first");
        assert_eq!(list.pop_min().unwrap().1, "second");
    }

    fn concurrent_pops_are_exclusive_impl<R: Reclaim>() {
        let n = 10_000u64;
        let list: HarrisList<u64, R> = HarrisList::from_sorted_in((0..n).map(|p| (p, 0, p)));
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = &list;
                let seen = &seen;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some((_, v)) = list.pop_min() {
                        local.push(v);
                    }
                    let mut set = seen.lock().unwrap();
                    for v in local {
                        assert!(set.insert(v), "element {v} popped twice");
                    }
                });
            }
        });
        assert_eq!(seen.lock().unwrap().len(), n as usize);
    }

    #[test]
    fn concurrent_pops_are_exclusive() {
        concurrent_pops_are_exclusive_impl::<Ebr>();
        concurrent_pops_are_exclusive_impl::<Vbr>();
    }

    fn concurrent_insert_and_pop_impl<R: Reclaim>() {
        let list: HarrisList<(), R> = HarrisList::new_in();
        let drained = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let list = &list;
                s.spawn(move || {
                    for i in 0..3_000u64 {
                        list.insert(t * 1_000_000 + i, t * 1_000_000 + i, ());
                    }
                });
            }
            for _ in 0..2 {
                let list = &list;
                let drained = &drained;
                s.spawn(move || {
                    let mut local = Vec::new();
                    for _ in 0..1_000 {
                        if let Some((p, _)) = list.pop_min() {
                            local.push(p);
                        }
                    }
                    drained.lock().unwrap().extend(local);
                });
            }
        });
        let mut all = drained.into_inner().unwrap();
        while let Some((p, _)) = list.pop_min() {
            all.push(p);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6_000, "every insert popped exactly once");
    }

    #[test]
    fn concurrent_insert_and_pop() {
        concurrent_insert_and_pop_impl::<Ebr>();
        concurrent_insert_and_pop_impl::<Vbr>();
    }

    fn payloads_dropped_exactly_once_impl<R: Reclaim>() {
        struct Count(#[allow(dead_code)] u64, Arc<AtomicUsize>);
        impl Drop for Count {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let list: HarrisList<Count, R> = HarrisList::new_in();
        for p in 0..50u64 {
            list.insert(p, 0, Count(p, Arc::clone(&drops)));
        }
        // Pop half, singly and in one run; their payloads drop here.
        for _ in 0..10 {
            let _ = list.pop_min();
        }
        assert_eq!(list.pop_run_with(15, drop, &list.guard()), 15);
        assert_eq!(drops.load(Ordering::SeqCst), 25);
        // The remaining 25 drop with the list.
        drop(list);
        assert_eq!(drops.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn payloads_dropped_exactly_once() {
        payloads_dropped_exactly_once_impl::<Ebr>();
        payloads_dropped_exactly_once_impl::<Vbr>();
    }

    #[test]
    fn empty_list_behaviour() {
        let list: HarrisList<u8> = HarrisList::new();
        assert!(list.is_empty());
        assert_eq!(list.pop_min(), None);
        assert_eq!(list.peek_min(), None);
        let vbr: HarrisList<u8, Vbr> = HarrisList::new_in();
        assert!(vbr.is_empty());
        assert_eq!(vbr.pop_min(), None);
        assert_eq!(vbr.peek_min(), None);
    }

    #[test]
    fn vbr_reuses_slots_across_pop_insert_cycles() {
        // Churn far beyond the initial population: without the free list
        // the arena would need a slot per insert ever made.
        let list: HarrisList<u64, Vbr> = HarrisList::new_in();
        for round in 0..200u64 {
            for i in 0..16u64 {
                list.insert(i, round * 16 + i, i);
            }
            for _ in 0..16 {
                assert!(list.pop_min().is_some());
            }
        }
        assert!(list.is_empty());
    }

    /// The EBR twin: each round's popped chain goes back to the list's pool
    /// once its grace period has passed, and the next round's run takes its
    /// nodes from there — 3 200 inserts in the first block of 256.
    #[test]
    fn ebr_recycles_nodes_across_pop_insert_cycles() {
        let list: HarrisList<u64, Ebr> = HarrisList::new_in();
        for round in 0..200u64 {
            list.insert_run_with((0..16u64).map(|i| (i, round * 16 + i, i)), &list.guard());
            assert_eq!(list.pop_run_with(16, drop, &list.guard()), 16);
            for _ in 0..100_000 {
                if list.dom.pool_stats().1 >= 16 {
                    break;
                }
                list.flush_guard(&list.guard());
                std::thread::yield_now();
            }
        }
        assert!(list.is_empty());
        assert_eq!(list.dom.pool_stats().0, 1, "churn carved a block past the first");
    }
}
