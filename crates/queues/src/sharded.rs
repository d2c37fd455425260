//! Sharding combinator: partition the task space across independent
//! scheduler instances.
//!
//! [`ShardedScheduler<S>`] owns `s` inner schedulers and routes every
//! element to one of them by a **stable task hash** (same task → same shard,
//! always — see [`shard_index`]). Re-inserted failed deletes therefore land
//! back in the shard they came from, and a prefilled shard holds exactly the
//! elements `insert` would have routed to it. The combinator composes with
//! any inner scheduler implementing either scheduler trait:
//!
//! * as a [`PriorityScheduler`] it is the sequential *model* of sharded
//!   execution (a deterministic round-robin cursor stands in for the worker
//!   rotation), which the `rank_tails` binary instruments to measure the
//!   relaxation sharding buys;
//! * as a [`ConcurrentScheduler`] it is the production combinator: the
//!   executor's workers pin an **affinity shard** through the worker hint
//!   of [`ConcurrentScheduler::pop_purging_for`], their only pop (shard
//!   `hint % s`; `pop_for` and `pop_batch_for` pin the same way), and fall
//!   back to a round-robin *steal* over the remaining shards only when
//!   their own shard is observed empty, so the common case touches no
//!   shared state outside the worker's shard.
//!
//! Relaxation cost: each pop sees only its shard's minimum, so elements in
//! the other `s − 1` shards may be overtaken even by an exact inner
//! scheduler. A `k`-relaxed inner scheduler sharded `s` ways behaves like an
//! `O(k·s)`-relaxed scheduler — Definition 1's exponential tails survive
//! with the decay constant scaled by `s` (measured by `rank_tails`, pinned
//! in `rank_tail_fit.rs`; see DESIGN.md "Sharding semantics").

use crate::{hash, rng, ConcurrentScheduler, PriorityScheduler, SchedulerLoad};
use std::hash::Hash;

/// One in this many affinity pops starts at a uniformly random shard
/// instead of the worker's own. Affinity is a fast-path *bias*, not a
/// partition: with fewer workers than shards, a worker whose own shard
/// never drains would otherwise starve the unserved shards outright — a
/// dependency chained across shards then livelocks (the ready task is never
/// popped), violating the fairness half of Definition 1. The periodic
/// random start gives every shard positive probe probability on every pop,
/// restoring probabilistic fairness at an ~1/8 dilution of locality.
const STEAL_PERIOD: usize = 8;

/// The shard an item routes to: stable (a pure function of the item and the
/// shard count), uniform, and shared by `insert`, re-insertion, and prefill
/// grouping. This is [`hash::stable_index`] — the workspace's one audited
/// stable hash (FxHash fold + SplitMix64 finalizer + Lemire range
/// reduction), also behind the incremental workloads' insertion shuffles.
#[inline]
pub fn shard_index<T: Hash + ?Sized>(item: &T, shards: usize) -> usize {
    hash::stable_index(item, shards)
}

/// `s` independent inner schedulers with stable-hash routing; see the
/// [module docs](self) for semantics.
///
/// # Examples
///
/// ```
/// use rsched_queues::sharded::ShardedScheduler;
/// use rsched_queues::concurrent::MultiQueue;
/// use rsched_queues::ConcurrentScheduler;
///
/// let q: ShardedScheduler<MultiQueue<u32>> =
///     ShardedScheduler::from_fn(4, |_| MultiQueue::new(2));
/// for p in 0..100u64 {
///     q.insert(p, p as u32);
/// }
/// // Worker 3 pops from its affinity shard (3 % 4), stealing if empty.
/// assert!(q.pop_for(3).is_some());
/// ```
#[derive(Debug)]
pub struct ShardedScheduler<S> {
    shards: Box<[S]>,
    /// Round-robin pop cursor of the *sequential* model; the concurrent impl
    /// never touches it (workers carry their own affinity instead).
    cursor: usize,
}

impl<S> ShardedScheduler<S> {
    /// Wraps the given inner schedulers, one per shard.
    ///
    /// # Panics
    ///
    /// Panics if `inners` is empty.
    pub fn new(inners: Vec<S>) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        ShardedScheduler { shards: inners.into_boxed_slice(), cursor: 0 }
    }

    /// Builds `shards` inner schedulers with `make(shard_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_fn<F>(shards: usize, make: F) -> Self
    where
        F: FnMut(usize) -> S,
    {
        assert!(shards >= 1, "need at least one shard");
        Self::new((0..shards).map(make).collect())
    }

    /// Groups `entries` by [`shard_index`] and builds each inner scheduler
    /// from its group with `make(shard, group)` — the prefill counterpart of
    /// the hash routing, so a prefilled element sits exactly where `insert`
    /// would have put it. Shard construction (typically the sort of a
    /// prefilled `MultiQueue`'s runs) proceeds on one thread per shard, so
    /// bulk loads no longer serialize behind a single core at paper scale.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, or if a shard-builder thread panics.
    pub fn prefilled_with<T, I, F>(shards: usize, entries: I, make: F) -> Self
    where
        T: Hash + Send,
        I: IntoIterator<Item = (u64, T)>,
        F: Fn(usize, Vec<(u64, T)>) -> S + Sync,
        S: Send,
    {
        assert!(shards >= 1, "need at least one shard");
        let mut groups: Vec<Vec<(u64, T)>> = (0..shards).map(|_| Vec::new()).collect();
        for (priority, item) in entries {
            groups[shard_index(&item, shards)].push((priority, item));
        }
        if shards == 1 {
            let group = groups.pop().expect("one group");
            Self::new(vec![make(0, group)])
        } else {
            let make = &make;
            let inners: Vec<S> = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .enumerate()
                    .map(|(i, group)| scope.spawn(move || make(i, group)))
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard builder panicked")).collect()
            });
            Self::new(inners)
        }
    }

    /// The inner schedulers, indexed by shard.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The shard `item` routes to.
    pub fn shard_for<T: Hash + ?Sized>(&self, item: &T) -> usize {
        shard_index(item, self.shards.len())
    }
}

/// A partition is a shard, and each shard's occupancy is its inner
/// scheduler's own census: elements placed before wrapping count too.
impl<S: SchedulerLoad> SchedulerLoad for ShardedScheduler<S> {
    fn total_load(&self) -> usize {
        self.shards.iter().map(S::total_load).sum()
    }

    fn max_partition_load(&self) -> usize {
        self.shards.iter().map(S::total_load).max().unwrap_or(0)
    }
}

impl<T, S> PriorityScheduler<T> for ShardedScheduler<S>
where
    T: Hash,
    S: PriorityScheduler<T>,
{
    fn insert(&mut self, priority: u64, item: T) {
        let shard = self.shard_for(&item);
        self.shards[shard].insert(priority, item);
    }

    /// Round-robin across shards: pops from the cursor shard (probing
    /// forward past empty shards) and advances the cursor, modeling workers
    /// pinned one-per-shard taking turns. With one shard this is exactly the
    /// inner scheduler's `pop`.
    fn pop(&mut self) -> Option<(u64, T)> {
        let s = self.shards.len();
        for probe in 0..s {
            let idx = (self.cursor + probe) % s;
            if let Some(e) = self.shards[idx].pop() {
                self.cursor = (idx + 1) % s;
                return Some(e);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }
}

/// The shard an affinity pop starts probing at: the worker's own shard,
/// except for the 1-in-[`STEAL_PERIOD`] fairness probe (see [`STEAL_PERIOD`]).
#[inline]
fn start_shard(worker: usize, shards: usize) -> usize {
    if rng::next_index(STEAL_PERIOD) == 0 {
        rsched_obs::counter!("sharded_fairness_probe_total").inc();
        rng::next_index(shards)
    } else {
        worker % shards
    }
}

/// Observability: a pop served by a shard other than the worker's affinity
/// shard is a *steal* (whether via the fairness probe's random start or the
/// round-robin fallback past an empty own shard).
#[inline]
fn note_steal(worker: usize, served: usize, shards: usize) {
    if served != worker % shards {
        rsched_obs::counter!("sharded_steal_total").inc();
    }
}

/// Pop from the first non-empty shard probing round-robin from `start`,
/// `pop(shard)` being the inner call and returning `(live, purged)`; a
/// batch never spans shards, and the scalar pops are the one-entry case.
/// Returns `(serving_shard, live, purged)`; `live + purged == 0` means every
/// shard was observed empty (the shard index then carries no information).
fn pop_batch_from<S>(
    shards: &[S],
    start: usize,
    mut pop: impl FnMut(&S) -> (usize, usize),
) -> (usize, usize, usize) {
    let s = shards.len();
    for probe in 0..s {
        let idx = (start + probe) % s;
        let (live, purged) = pop(&shards[idx]);
        if live + purged > 0 {
            return (idx, live, purged);
        }
    }
    (0, 0, 0)
}

impl<T, S> ConcurrentScheduler<T> for ShardedScheduler<S>
where
    T: Send + Hash,
    S: ConcurrentScheduler<T>,
{
    fn insert(&self, priority: u64, item: T) {
        let shard = self.shard_for(&item);
        self.shards[shard].insert(priority, item);
    }

    /// Unpinned pop: starts at a random shard (spreading unpinned callers
    /// uniformly) and probes round-robin. Workers with an identity pop
    /// through the affinity methods instead.
    fn pop(&self) -> Option<(u64, T)> {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { rng::next_index(s) };
        let mut e = None;
        pop_batch_from(&self.shards, start, |q| {
            e = q.pop();
            (usize::from(e.is_some()), 0)
        });
        e
    }

    /// Affinity pop: shard `worker % s` first (with a 1-in-`STEAL_PERIOD`
    /// (8) random start, the fairness probe), round-robin steal on empty.
    fn pop_for(&self, worker: usize) -> Option<(u64, T)> {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { start_shard(worker, s) };
        let mut e = None;
        let (shard, _, _) = pop_batch_from(&self.shards, start, |q| {
            e = q.pop();
            (usize::from(e.is_some()), 0)
        });
        if e.is_some() {
            note_steal(worker, shard, s);
        }
        e
    }

    /// One shard passes the batch through whole, keeping that configuration
    /// bit-for-bit the bare inner scheduler (no regrouping clone). At most
    /// `s` entries — expected group size ≤ 1, the hot path of an executor
    /// flushing a handful of blocked tasks per run — route elementwise,
    /// since grouping buffers buy nothing there. A larger batch is grouped
    /// by shard, slice order kept within each group, one inner bulk call
    /// per shard touched.
    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        let s = self.shards.len();
        if s == 1 {
            self.shards[0].insert_batch(entries);
        } else if entries.len() <= s {
            for (priority, item) in entries {
                self.shards[shard_index(item, s)].insert(*priority, item.clone());
            }
        } else {
            let mut groups: Vec<Vec<(u64, T)>> = (0..s).map(|_| Vec::new()).collect();
            for (priority, item) in entries {
                groups[shard_index(item, s)].push((*priority, item.clone()));
            }
            for (shard, group) in groups.iter().enumerate() {
                if !group.is_empty() {
                    self.shards[shard].insert_batch(group);
                }
            }
        }
    }

    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { rng::next_index(s) };
        pop_batch_from(&self.shards, start, |q| (q.pop_batch(out, max), 0)).1
    }

    /// Affinity batch pop: drains the worker's own shard (`worker % s`, with
    /// a 1-in-`STEAL_PERIOD` (8) random start, the fairness probe) and steals
    /// round-robin when it is observed empty.
    fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        self.pop_purging_for(worker, out, max, |_, _| false).0
    }

    /// [`ConcurrentScheduler::pop_batch_for`]'s affinity-then-steal order
    /// over the shards' own purging pops. A shard that only purged serves
    /// the call (progress, no steal past it).
    fn pop_purging_for<F>(
        &self,
        worker: usize,
        out: &mut Vec<(u64, T)>,
        max: usize,
        obsolete: F,
    ) -> (usize, usize)
    where
        F: Fn(u64, &T) -> bool,
    {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { start_shard(worker, s) };
        let (shard, live, purged) =
            pop_batch_from(&self.shards, start, |q| q.pop_purging_for(worker, out, max, &obsolete));
        if live + purged > 0 {
            note_steal(worker, shard, s);
        }
        (live, purged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::{LockFreeMultiQueue, MultiQueue};
    use crate::exact::BinaryHeapScheduler;
    use crate::reclaim::Ebr;
    use crate::relaxed::SimMultiQueue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            for item in 0u32..500 {
                let a = shard_index(&item, shards);
                assert!(a < shards);
                assert_eq!(a, shard_index(&item, shards), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn routing_is_roughly_uniform() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for item in 0u32..16_000 {
            counts[shard_index(&item, shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1_000..3_000).contains(&c), "shard {i} holds {c} of 16000");
        }
    }

    #[test]
    fn single_shard_is_bit_identical_to_inner_sequential() {
        // Same seed, same op sequence: the sharded(1) wrapper must consume
        // the inner scheduler's RNG identically and return identical pops.
        let mut bare = SimMultiQueue::new(4, StdRng::seed_from_u64(11));
        let mut sharded =
            ShardedScheduler::from_fn(1, |_| SimMultiQueue::new(4, StdRng::seed_from_u64(11)));
        for p in 0..300u64 {
            bare.insert(p, p as u32);
            sharded.insert(p, p as u32);
        }
        loop {
            let a = bare.pop();
            let b = sharded.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn sequential_round_robin_drains_exactly_once() {
        let mut q = ShardedScheduler::from_fn(7, |_| BinaryHeapScheduler::new());
        for p in 0..1_000u64 {
            q.insert(p, p as u32);
        }
        assert_eq!(q.len(), 1_000);
        let mut seen = HashSet::new();
        while let Some((_, v)) = q.pop() {
            assert!(seen.insert(v), "element {v} popped twice");
        }
        assert_eq!(seen.len(), 1_000);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_batch_ops_group_by_shard() {
        let q: ShardedScheduler<MultiQueue<u64>> =
            ShardedScheduler::from_fn(4, |_| MultiQueue::new(2));
        let entries: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i)).collect();
        ConcurrentScheduler::insert_batch(&q, &entries);
        // Every element sits in the shard the router assigns it.
        for (shard, inner) in q.shards().iter().enumerate() {
            let mut buf = Vec::new();
            while inner.pop_batch(&mut buf, 16) > 0 {}
            for &(_, v) in &buf {
                assert_eq!(q.shard_for(&v), shard, "element {v} in wrong shard");
            }
        }
    }

    #[test]
    fn reinserted_element_returns_to_its_shard() {
        let q: ShardedScheduler<MultiQueue<u32>> =
            ShardedScheduler::from_fn(8, |_| MultiQueue::new(2));
        for p in 0..100u64 {
            ConcurrentScheduler::insert(&q, p, p as u32);
        }
        let (priority, v) = q.pop_for(0).expect("non-empty");
        let home = q.shard_for(&v);
        ConcurrentScheduler::insert(&q, priority, v);
        // The re-inserted element is in its home shard: popping only that
        // shard's inner queue must eventually surface it.
        let mut found = false;
        while let Some((_, u)) = q.shards()[home].pop() {
            if u == v {
                found = true;
            }
        }
        assert!(found, "re-inserted element left its home shard");
    }

    #[test]
    fn prefilled_with_matches_insert_routing() {
        let entries: Vec<(u64, u32)> = (0..500u64).map(|i| (i, i as u32)).collect();
        let q: ShardedScheduler<LockFreeMultiQueue<u32>> =
            ShardedScheduler::prefilled_with(7, entries, |_, group| {
                LockFreeMultiQueue::<_, Ebr>::prefilled_in(2, group)
            });
        for (shard, inner) in q.shards().iter().enumerate() {
            while let Some((_, v)) = inner.pop() {
                assert_eq!(q.shard_for(&v), shard, "prefilled {v} routed to wrong shard");
            }
        }
    }

    #[test]
    fn affinity_pop_cannot_starve_foreign_shards() {
        // Livelock regression: worker 0's own shard never drains (every pop
        // is re-inserted, as the executor does with blocked tasks), while
        // the only "ready" element sits in a different shard. The 1-in-8
        // fairness probe must surface it in bounded expected time.
        let q: ShardedScheduler<MultiQueue<u32>> =
            ShardedScheduler::from_fn(4, |_| MultiQueue::new(2));
        let home = shard_index(&0u32, 4);
        let target = (1u32..).find(|v| shard_index(v, 4) != home).unwrap();
        ConcurrentScheduler::insert(&q, 0, 0u32);
        ConcurrentScheduler::insert(&q, 1, target);
        let mut found = false;
        for _ in 0..100_000 {
            let (p, v) = q.pop_for(home).expect("never empty");
            if v == target {
                found = true;
                break;
            }
            ConcurrentScheduler::insert(&q, p, v);
        }
        assert!(found, "fairness probe never reached the foreign shard");
    }

    #[test]
    fn hand_prefilled_inners_are_counted() {
        // Inners filled before wrapping never pass through the wrapper's
        // insert; the census is theirs, so it sees them from the start.
        let a: Vec<(u64, u32)> = (0..30u64).map(|i| (i, i as u32)).collect();
        let b: Vec<(u64, u32)> = (30..100u64).map(|i| (i, i as u32)).collect();
        let (na, nb) = (a.len(), b.len());
        let q =
            ShardedScheduler::new(vec![MultiQueue::prefilled(2, a), MultiQueue::prefilled(2, b)]);
        assert_eq!(q.total_load(), na + nb);
        assert_eq!(q.max_partition_load(), na.max(nb));
        while ConcurrentScheduler::pop(&q).is_some() {}
        assert_eq!(q.total_load(), 0);
        assert_eq!(q.max_partition_load(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedScheduler::<BinaryHeapScheduler<u32>>::from_fn(0, |_| {
            BinaryHeapScheduler::new()
        });
    }
}
