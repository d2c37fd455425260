//! # rsched-queues — exact and relaxed priority schedulers
//!
//! The scheduler zoo of the paper, in four groups:
//!
//! * **Exact sequential queue** ([`exact`]): the binary heap — the
//!   `Q.GetMin()` of Algorithm 1.
//! * **Relaxed sequential models** ([`relaxed`]): the canonical *top-k
//!   uniform* scheduler from the paper's analysis, an adversarial top-k
//!   variant, and faithful sequential simulations of the MultiQueue and the
//!   SprayList. These drive Table 1 and the rank/fairness validation.
//! * **Concurrent schedulers** ([`concurrent`]): one MultiQueue core \[21\]
//!   over locked buckets (a sorted run plus runs of sorted inserts) or
//!   Harris-list buckets (the paper's §4 implementation). §4's exact
//!   baseline is built in `rsched_core`, from a cursor over the permutation
//!   and [`exact`]'s heap.
//! * **Instrumentation** ([`instrument`]): rank-error and priority-inversion
//!   tracking to check Definition 1's exponential tails empirically.
//!
//! Priorities are `u64`; **smaller is higher priority** throughout.
//!
//! # Examples
//!
//! ```
//! use rsched_queues::{PriorityScheduler, relaxed::TopKUniform};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut q = TopKUniform::new(4, StdRng::seed_from_u64(1));
//! for p in 0..10u64 {
//!     q.insert(p, p as u32);
//! }
//! let (prio, item) = q.pop().expect("non-empty");
//! // Not a probabilistic claim: a top-4 scheduler over priorities 0..10
//! // must return one of {0, 1, 2, 3}, whatever its RNG stream draws.
//! assert!(prio < 4, "top-4 scheduler returned rank ≥ 4");
//! assert_eq!(prio, item as u64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod concurrent;
mod entry;
pub mod exact;
pub mod hash;
mod indexed_set;
pub mod instrument;
pub mod lock;
pub mod reclaim;
pub mod relaxed;
pub(crate) mod rng;
pub mod sharded;

pub use entry::Entry;
pub use indexed_set::IndexedSet;

/// A sequential priority scheduler: the interface of the paper's `Q`.
///
/// `pop` is the paper's `ApproxGetMin()`: implementations may return an
/// element of rank greater than one. The exact queues in [`exact`] are the
/// degenerate 1-relaxed case.
///
/// Smaller priority values are returned first (min-queues).
pub trait PriorityScheduler<T> {
    /// Inserts `item` with the given priority.
    fn insert(&mut self, priority: u64, item: T);

    /// Removes and returns an element, approximately the minimum.
    ///
    /// Returns `None` iff the scheduler is empty.
    fn pop(&mut self) -> Option<(u64, T)>;

    /// Number of elements currently stored.
    fn len(&self) -> usize;

    /// Whether the scheduler holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A mutable borrow schedules like the scheduler itself — lets callers run
/// an executor to completion and keep the scheduler for inspection
/// afterwards (the instrumentation probes rely on this).
impl<T, S: PriorityScheduler<T>> PriorityScheduler<T> for &mut S {
    fn insert(&mut self, priority: u64, item: T) {
        (**self).insert(priority, item)
    }
    fn pop(&mut self) -> Option<(u64, T)> {
        (**self).pop()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
}

impl<T> PriorityScheduler<T> for Box<dyn PriorityScheduler<T> + '_> {
    fn insert(&mut self, priority: u64, item: T) {
        (**self).insert(priority, item)
    }
    fn pop(&mut self) -> Option<(u64, T)> {
        (**self).pop()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
}

/// Occupancy introspection for saturation-aware callers (the streaming
/// service's ingestion backpressure).
///
/// Loads are *approximate*: read from counters racing the operations they
/// count, so a reader may observe a value off by the number of in-flight
/// operations, and exact at quiescence. That is the right contract for a
/// high-watermark check — backpressure needs "roughly how full", never an
/// exact census. [`concurrent::MultiQueueCore`] implements it from its
/// buckets' own live counts; [`sharded::ShardedScheduler`] sums its shards'
/// loads, a partition there being a shard.
pub trait SchedulerLoad {
    /// Approximate number of elements currently held, summed over
    /// partitions.
    fn total_load(&self) -> usize;

    /// Approximate occupancy of the fullest partition — the quantity a
    /// per-shard high watermark gates on. For an unpartitioned scheduler
    /// this equals [`SchedulerLoad::total_load`].
    fn max_partition_load(&self) -> usize;
}

/// A thread-safe scheduler: shared-reference API for concurrent executors.
///
/// `pop` returning `None` means the scheduler was observed empty, which may
/// be *transient* (another thread may be about to re-insert a task it is
/// holding); executors therefore never end on emptiness, but on a ledger of
/// the entries they inserted, each popped or purged to a terminal outcome
/// (`rsched_core`'s engine).
pub trait ConcurrentScheduler<T: Send>: Send + Sync {
    /// Inserts `item` with the given priority.
    fn insert(&self, priority: u64, item: T);

    /// Removes and returns an element, approximately the minimum, or `None`
    /// if the scheduler appears empty.
    fn pop(&self) -> Option<(u64, T)>;

    /// Inserts every entry of `entries` (a bulk `insert`).
    ///
    /// The default loops over [`ConcurrentScheduler::insert`]; concrete
    /// schedulers override it to amortize per-operation synchronization
    /// (one lock acquisition, epoch pin, or fetch-and-add per batch instead
    /// of per element). Overrides may place a batch less uniformly than
    /// element-wise insertion does — batching trades relaxation for
    /// synchronization, see DESIGN.md "Batching semantics".
    fn insert_batch(&self, entries: &[(u64, T)])
    where
        T: Clone,
    {
        for (priority, item) in entries {
            self.insert(*priority, item.clone());
        }
    }

    /// Pops up to `max` elements into `out`, returning how many were popped.
    ///
    /// Popped elements are appended to `out`. Returning 0 means the
    /// scheduler was *observed* empty (transient, exactly as for
    /// [`ConcurrentScheduler::pop`]) or `max == 0`. A partial batch
    /// (`0 < returned < max`) is normal and carries no emptiness signal:
    /// overrides stop at internal-structure boundaries rather than paying
    /// another synchronization round-trip.
    fn pop_batch(&self, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let mut got = 0usize;
        while got < max {
            match self.pop() {
                Some(e) => {
                    out.push(e);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    /// [`ConcurrentScheduler::pop`] with a caller identity: `worker` is a
    /// stable small integer. The executor pops only through
    /// [`ConcurrentScheduler::pop_purging_for`], whose hint is the worker
    /// index, drifted forward past partitions that only block.
    ///
    /// The default ignores the hint — for a monolithic scheduler every
    /// worker sees the same structure. Partitioned schedulers (e.g.
    /// [`sharded::ShardedScheduler`]) override it to serve the worker from
    /// an *affinity* partition first, falling back to stealing elsewhere
    /// only when that partition is observed empty, so the hint changes
    /// which element is returned but never the emptiness semantics.
    fn pop_for(&self, worker: usize) -> Option<(u64, T)> {
        let _ = worker;
        self.pop()
    }

    /// [`ConcurrentScheduler::pop_batch`] with a caller identity; same
    /// contract and default as [`ConcurrentScheduler::pop_for`].
    fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, T)>, max: usize) -> usize {
        let _ = worker;
        self.pop_batch(out, max)
    }

    /// [`ConcurrentScheduler::pop_batch_for`] for a caller that knows some
    /// queued entries are already decided: entries `obsolete(priority,
    /// &item)` reports may be removed and dropped instead of returned.
    /// Returns `(live, purged)`: `live ≤ max` entries were appended to
    /// `out`, `purged` were discarded. `(0, 0)` is the (transient) empty
    /// observation; `(0, purged > 0)` is progress, not emptiness.
    ///
    /// `obsolete` must be cheap, read-only and *monotone* (once `true` for
    /// an entry, `true` for good): schedulers that purge call it while
    /// holding the internal structure the entry came from. An entry nothing
    /// can depend on has no rank to invert, so purging leaves the rank and
    /// fairness bounds over the remaining entries as they were (DESIGN.md
    /// "Purging semantics").
    ///
    /// The default purges nothing and forwards to
    /// [`ConcurrentScheduler::pop_batch_for`]. The MultiQueue family purges
    /// at the head of the bucket a pop has already opened;
    /// [`sharded::ShardedScheduler`] forwards to its shards.
    fn pop_purging_for<F>(
        &self,
        worker: usize,
        out: &mut Vec<(u64, T)>,
        max: usize,
        obsolete: F,
    ) -> (usize, usize)
    where
        Self: Sized,
        F: Fn(u64, &T) -> bool,
    {
        let _ = obsolete;
        (self.pop_batch_for(worker, out, max), 0)
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn is_empty_default_follows_len() {
        struct Dummy(usize);
        impl PriorityScheduler<()> for Dummy {
            fn insert(&mut self, _: u64, _: ()) {
                self.0 += 1;
            }
            fn pop(&mut self) -> Option<(u64, ())> {
                if self.0 == 0 {
                    None
                } else {
                    self.0 -= 1;
                    Some((0, ()))
                }
            }
            fn len(&self) -> usize {
                self.0
            }
        }
        let mut d = Dummy(0);
        assert!(d.is_empty());
        d.insert(1, ());
        assert!(!d.is_empty());
    }
}
