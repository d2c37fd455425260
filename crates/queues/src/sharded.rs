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
//! * as a [`ConcurrentScheduler`] it is the production combinator: workers
//!   pin an **affinity shard** through
//!   [`ConcurrentScheduler::pop_for`]/[`ConcurrentScheduler::pop_batch_for`]
//!   (shard `worker % s`) and fall back to a round-robin *steal* over the
//!   remaining shards only when their own shard is observed empty, so the
//!   common case touches no shared state outside the worker's shard.
//!
//! Relaxation cost: each pop sees only its shard's minimum, so elements in
//! the other `s − 1` shards may be overtaken even by an exact inner
//! scheduler. A `k`-relaxed inner scheduler sharded `s` ways behaves like an
//! `O(k·s)`-relaxed scheduler — Definition 1's exponential tails survive
//! with the decay constant scaled by `s` (measured by `rank_tails`, pinned
//! in `rank_tail_fit.rs`; see DESIGN.md "Sharding semantics").

use crate::{hash, rng, ConcurrentScheduler, PriorityScheduler, SchedulerLoad};
use crossbeam::utils::CachePadded;
use rsched_sync::atomic::{AtomicIsize, Ordering};
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
    /// Approximate per-shard occupancy, maintained by every insert/pop that
    /// goes through this wrapper — the saturation signal behind
    /// [`SchedulerLoad`] (the streaming service's per-shard high-watermark
    /// backpressure). Signed so that a racing read can momentarily undershoot
    /// without wrapping; reads clamp at zero. Not an exact census: elements
    /// placed in an inner scheduler *before* it was wrapped (a hand-prefilled
    /// `Vec<S>` passed to [`ShardedScheduler::new`]) are invisible to it —
    /// [`ShardedScheduler::prefilled_with`] seeds the counters itself.
    loads: Box<[CachePadded<AtomicIsize>]>,
    /// Observability mirror of `loads`: one registered occupancy gauge per
    /// shard (`sharded_shard_load{shard="i"}`). ZSTs when the `obs` feature
    /// is off. Gauges are global per name, so concurrently live
    /// `ShardedScheduler`s with equal shard indices share cells — the
    /// exported level is then the *sum* across instances.
    obs_loads: Box<[rsched_obs::Gauge]>,
}

/// The registered occupancy gauge for `shard`. The name is only built when
/// probes are compiled in (`ENABLED` is `const`, so the `format!` folds
/// away entirely in default builds).
fn shard_load_gauge(shard: usize) -> rsched_obs::Gauge {
    if rsched_obs::ENABLED {
        rsched_obs::gauge(&format!(r#"sharded_shard_load{{shard="{shard}"}}"#))
    } else {
        rsched_obs::gauge("")
    }
}

impl<S> ShardedScheduler<S> {
    /// Wraps the given inner schedulers, one per shard.
    ///
    /// # Panics
    ///
    /// Panics if `inners` is empty.
    pub fn new(inners: Vec<S>) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        let loads = (0..inners.len()).map(|_| CachePadded::new(AtomicIsize::new(0))).collect();
        let obs_loads = (0..inners.len()).map(shard_load_gauge).collect();
        ShardedScheduler { shards: inners.into_boxed_slice(), cursor: 0, loads, obs_loads }
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
    /// `BulkMultiQueue` run) proceeds on one thread per shard, so bulk loads
    /// no longer serialize behind a single core at paper scale.
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
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        let q = if shards == 1 {
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
        };
        // Seed the occupancy counters: prefilled elements never pass through
        // `insert`, so they would otherwise be invisible to `SchedulerLoad`.
        for (shard, &n) in sizes.iter().enumerate() {
            q.loads[shard].store(n as isize, Ordering::Relaxed);
            q.obs_loads[shard].add(n as i64);
        }
        q
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The inner schedulers, indexed by shard.
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// The shard `item` routes to.
    pub fn shard_for<T: Hash + ?Sized>(&self, item: &T) -> usize {
        shard_index(item, self.shards.len())
    }

    /// Approximate occupancy of one shard (see the `loads` field docs for
    /// the accuracy contract; clamped at zero).
    pub fn shard_load(&self, shard: usize) -> usize {
        self.loads[shard].load(Ordering::Relaxed).max(0) as usize
    }

    #[inline]
    fn note_inserted(&self, shard: usize, n: usize) {
        self.loads[shard].fetch_add(n as isize, Ordering::Relaxed);
        self.obs_loads[shard].add(n as i64);
    }

    #[inline]
    fn note_popped(&self, shard: usize, n: usize) {
        self.loads[shard].fetch_sub(n as isize, Ordering::Relaxed);
        self.obs_loads[shard].sub(n as i64);
    }
}

impl<S> SchedulerLoad for ShardedScheduler<S> {
    fn total_load(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard_load(i)).sum()
    }

    fn max_partition_load(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard_load(i)).max().unwrap_or(0)
    }
}

/// Groups `entries` by shard, preserving slice order within each group, and
/// feeds every non-empty group to `sink(shard, group)` — the amortization
/// core of both `insert_batch` impls: one inner bulk call per shard touched
/// instead of one routing decision *and* one inner call per element.
fn scatter_batch<T, F>(entries: &[(u64, T)], shards: usize, mut sink: F)
where
    T: Clone + Hash,
    F: FnMut(usize, &[(u64, T)]),
{
    let mut groups: Vec<Vec<(u64, T)>> = (0..shards).map(|_| Vec::new()).collect();
    for (priority, item) in entries {
        groups[shard_index(item, shards)].push((*priority, item.clone()));
    }
    for (shard, group) in groups.iter().enumerate() {
        if !group.is_empty() {
            sink(shard, group);
        }
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
        self.note_inserted(shard, 1);
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
                self.note_popped(idx, 1);
                return Some(e);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    fn insert_batch(&mut self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        let s = self.shards.len();
        if s == 1 {
            // Pass-through keeps the one-shard configuration bit-for-bit
            // identical to the bare inner scheduler (no regrouping clone).
            self.shards[0].insert_batch(entries);
            self.note_inserted(0, entries.len());
            return;
        }
        if entries.len() <= s {
            // Expected group size ≤ 1: grouping buffers buy nothing, so
            // route elementwise (the hot path for an executor flushing a
            // handful of blocked tasks per run).
            for (priority, item) in entries {
                self.insert(*priority, item.clone());
            }
            return;
        }
        scatter_batch(entries, s, |shard, group| {
            self.shards[shard].insert_batch(group);
            self.note_inserted(shard, group.len());
        });
    }

    /// Pops the batch from the first non-empty shard at or after the cursor
    /// (one inner `pop_batch` per shard probed, at most `s` probes), then
    /// advances the cursor. A batch never spans shards: partial batches
    /// carry no emptiness signal, exactly as for the inner schedulers.
    fn pop_batch(&mut self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let s = self.shards.len();
        for probe in 0..s {
            let idx = (self.cursor + probe) % s;
            let got = self.shards[idx].pop_batch(out, max);
            if got > 0 {
                self.cursor = (idx + 1) % s;
                self.note_popped(idx, got);
                return got;
            }
        }
        0
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

/// Scalar pop probing `shards` round-robin from `start`; the success case
/// also reports which shard served (so the caller can debit its occupancy
/// counter).
fn pop_from<T, S>(shards: &[S], start: usize) -> Option<(usize, (u64, T))>
where
    T: Send,
    S: ConcurrentScheduler<T>,
{
    let s = shards.len();
    for probe in 0..s {
        let idx = (start + probe) % s;
        if let Some(e) = shards[idx].pop() {
            return Some((idx, e));
        }
    }
    None
}

/// Batched pop from the first non-empty shard probing round-robin from
/// `start`, `pop(shard)` being the inner call and returning `(live,
/// purged)`; a batch never spans shards. Returns `(serving_shard, live,
/// purged)`; `live + purged == 0` means every shard was observed empty (the
/// shard index then carries no information).
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
        self.note_inserted(shard, 1);
    }

    /// Unpinned pop: starts at a random shard (spreading unpinned callers
    /// uniformly) and probes round-robin. Workers with an identity should
    /// prefer [`ConcurrentScheduler::pop_for`].
    fn pop(&self) -> Option<(u64, T)> {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { rng::next_index(s) };
        let (shard, e) = pop_from(&self.shards, start)?;
        self.note_popped(shard, 1);
        Some(e)
    }

    /// Affinity pop: shard `worker % s` first (with the 1-in-[`STEAL_PERIOD`]
    /// random start — see its docs), round-robin steal on empty.
    fn pop_for(&self, worker: usize) -> Option<(u64, T)> {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { start_shard(worker, s) };
        let (shard, e) = pop_from(&self.shards, start)?;
        self.note_popped(shard, 1);
        note_steal(worker, shard, s);
        Some(e)
    }

    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        let s = self.shards.len();
        if s == 1 {
            self.shards[0].insert_batch(entries);
            self.note_inserted(0, entries.len());
            return;
        }
        if entries.len() <= s {
            // Expected group size ≤ 1: route elementwise, no grouping
            // buffers (the executor's per-run blocked flush is tiny).
            for (priority, item) in entries {
                self.insert(*priority, item.clone());
            }
            return;
        }
        scatter_batch(entries, s, |shard, group| {
            self.shards[shard].insert_batch(group);
            self.note_inserted(shard, group.len());
        });
    }

    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let s = self.shards.len();
        let start = if s == 1 { 0 } else { rng::next_index(s) };
        let (shard, got, _) = pop_batch_from(&self.shards, start, |q| (q.pop_batch(out, max), 0));
        if got > 0 {
            self.note_popped(shard, got);
        }
        got
    }

    /// Affinity batch pop: drains the worker's own shard (`worker % s`, with
    /// the 1-in-[`STEAL_PERIOD`] random start — see its docs) and steals
    /// round-robin when it is observed empty.
    fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        self.pop_purging_for(worker, out, max, |_, _| false).0
    }

    /// [`ConcurrentScheduler::pop_batch_for`]'s affinity-then-steal order
    /// over the shards' own purging pops. A shard that only purged serves
    /// the call (progress, no steal past it), and its occupancy is debited
    /// by live + purged: both left the shard.
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
            self.note_popped(shard, live + purged);
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
    fn concurrent_affinity_pop_steals_when_own_shard_empty() {
        let q: ShardedScheduler<MultiQueue<u32>> =
            ShardedScheduler::from_fn(4, |_| MultiQueue::new(2));
        // Put everything in whatever shards the items route to; a worker
        // whose affinity shard is empty must still drain the rest.
        for p in 0..64u64 {
            ConcurrentScheduler::insert(&q, p, p as u32);
        }
        let mut seen = HashSet::new();
        while let Some((_, v)) = q.pop_for(3) {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 64, "affinity pop with steal must drain all shards");
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
                LockFreeMultiQueue::prefilled(2, group)
            });
        for (shard, inner) in q.shards().iter().enumerate() {
            while let Some((_, v)) = inner.pop() {
                assert_eq!(q.shard_for(&v), shard, "prefilled {v} routed to wrong shard");
            }
        }
    }

    #[test]
    fn sequential_pop_batch_never_spans_shards() {
        let mut q = ShardedScheduler::from_fn(4, |_| BinaryHeapScheduler::new());
        for p in 0..400u64 {
            q.insert(p, p as u32);
        }
        let mut total = 0usize;
        let mut buf: Vec<(u64, u32)> = Vec::new();
        loop {
            buf.clear();
            let got = q.pop_batch(&mut buf, 32);
            if got == 0 {
                break;
            }
            assert!(got <= 32);
            // All entries of one batch route to one shard.
            let shard = q.shard_for(&buf[0].1);
            assert!(buf.iter().all(|(_, v)| q.shard_for(v) == shard));
            total += got;
        }
        assert_eq!(total, 400);
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
    fn load_counters_track_sequential_ops() {
        let mut q = ShardedScheduler::from_fn(4, |_| BinaryHeapScheduler::new());
        assert_eq!(q.total_load(), 0);
        for p in 0..100u64 {
            q.insert(p, p as u32);
        }
        assert_eq!(q.total_load(), 100);
        assert!(q.max_partition_load() >= 25, "fullest shard below uniform mean");
        let mut buf = Vec::new();
        let got = q.pop_batch(&mut buf, 8);
        assert_eq!(q.total_load(), 100 - got);
        while q.pop().is_some() {}
        assert_eq!(q.total_load(), 0);
        assert_eq!(q.max_partition_load(), 0);
    }

    #[test]
    fn load_counters_track_concurrent_ops() {
        let q: ShardedScheduler<MultiQueue<u64>> =
            ShardedScheduler::from_fn(4, |_| MultiQueue::new(2));
        let entries: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i)).collect();
        ConcurrentScheduler::insert_batch(&q, &entries);
        assert_eq!(q.total_load(), 200);
        let mut drained = 0usize;
        let mut buf = Vec::new();
        loop {
            buf.clear();
            let got = q.pop_batch_for(1, &mut buf, 16);
            if got == 0 {
                break;
            }
            drained += got;
            assert_eq!(q.total_load(), 200 - drained);
        }
        assert_eq!(drained, 200);
        assert_eq!(q.max_partition_load(), 0);
    }

    #[test]
    fn prefilled_with_seeds_load_counters() {
        let entries: Vec<(u64, u32)> = (0..500u64).map(|i| (i, i as u32)).collect();
        let q: ShardedScheduler<LockFreeMultiQueue<u32>> =
            ShardedScheduler::prefilled_with(7, entries, |_, group| {
                LockFreeMultiQueue::prefilled(2, group)
            });
        assert_eq!(q.total_load(), 500);
        let per_shard: usize = (0..7).map(|i| q.shard_load(i)).sum();
        assert_eq!(per_shard, 500);
        let (_, v) = ConcurrentScheduler::pop(&q).expect("non-empty");
        assert_eq!(q.total_load(), 499);
        // The pop debited the shard that actually served the element.
        assert!(q.shard_load(q.shard_for(&v)) < per_shard);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedScheduler::<BinaryHeapScheduler<u32>>::from_fn(0, |_| {
            BinaryHeapScheduler::new()
        });
    }
}
