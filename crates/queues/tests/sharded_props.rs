//! Property tests for the sharding combinator, mirroring `batch_props.rs`:
//! for every inner scheduler family and shard count (1, 2, 7, 16), arbitrary
//! interleavings of scalar and batched operations through a
//! `ShardedScheduler` must preserve multiset semantics — every element pops
//! **exactly once** (routing loses nothing, steals duplicate nothing),
//! `pop_batch`/`pop_batch_for` never exceed their `max`, and `len` is
//! conserved. Affinity pops (`pop_for`) are part of the interleavings: the
//! worker hint may change *which* shard serves a pop, never *whether* a
//! live element is eventually served.

use proptest::prelude::*;
use rsched_queues::concurrent::{BulkMultiQueue, LockFreeMultiQueue, MultiQueue};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use std::collections::HashSet;

/// The shard counts the ShardedScheduler suite sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// One step of an interleaving, generated by proptest. `PopFor`/
/// `PopBatchFor` carry a worker id so affinity and steal paths are both
/// exercised.
#[derive(Clone, Debug)]
enum Op {
    Insert,
    InsertBatch(usize),
    Pop,
    PopFor(usize),
    PopBatch(usize),
    PopBatchFor(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..6, 1usize..24, 0usize..20).prop_map(|(kind, size, worker)| match kind {
        0 => Op::Insert,
        1 => Op::InsertBatch(size),
        2 => Op::Pop,
        3 => Op::PopFor(worker),
        4 => Op::PopBatch(size),
        _ => Op::PopBatchFor(worker, size),
    })
}

/// Drives `ops` against a sharded scheduler, checking after every step that
/// no element is seen twice, batched pops never exceed their `max`, and the
/// summed shard `len` matches the externally tracked live count.
fn run_interleaving<S, L>(
    sched: &ShardedScheduler<S>,
    len_of: L,
    ops: &[Op],
) -> Result<(), TestCaseError>
where
    S: ConcurrentScheduler<u64>,
    L: Fn(&S) -> usize,
{
    let total_len = |q: &ShardedScheduler<S>| -> usize { q.shards().iter().map(&len_of).sum() };
    let mut next = 0u64;
    let mut live = 0usize;
    let mut inserted = 0u64;
    let mut seen = HashSet::new();
    let mut buf: Vec<(u64, u64)> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert => {
                sched.insert(next, next);
                next += 1;
                live += 1;
                inserted += 1;
            }
            Op::InsertBatch(b) => {
                let entries: Vec<(u64, u64)> =
                    (0..b as u64).map(|i| (next + i, next + i)).collect();
                sched.insert_batch(&entries);
                next += b as u64;
                live += b;
                inserted += b as u64;
            }
            Op::Pop | Op::PopFor(_) => {
                let got = match *op {
                    Op::PopFor(w) => sched.pop_for(w),
                    _ => sched.pop(),
                };
                if let Some((_, v)) = got {
                    prop_assert!(seen.insert(v), "element {v} popped twice");
                    live -= 1;
                } else {
                    prop_assert_eq!(live, 0);
                }
            }
            Op::PopBatch(max) | Op::PopBatchFor(_, max) => {
                buf.clear();
                let got = match *op {
                    Op::PopBatchFor(w, max) => sched.pop_batch_for(w, &mut buf, max),
                    _ => sched.pop_batch(&mut buf, max),
                };
                prop_assert!(got <= max, "pop_batch returned {got} > max {max}");
                prop_assert_eq!(got, buf.len());
                for &(_, v) in &buf {
                    prop_assert!(seen.insert(v), "element {v} popped twice");
                }
                prop_assert!(got <= live, "pop_batch invented elements");
                live -= got;
                if got == 0 && max > 0 {
                    prop_assert_eq!(live, 0);
                }
            }
        }
        // Single-threaded, so the summed len snapshot is exact.
        prop_assert_eq!(total_len(sched), live);
    }
    // Drain what's left: every inserted element must surface exactly once.
    buf.clear();
    while sched.pop_batch(&mut buf, 7) > 0 {
        for &(_, v) in buf.iter() {
            prop_assert!(seen.insert(v), "element {v} popped twice in drain");
        }
        buf.clear();
    }
    prop_assert_eq!(seen.len() as u64, inserted);
    Ok(())
}

proptest! {
    #[test]
    fn sharded_multiqueue_interleavings(
        shard_sel in 0usize..SHARD_COUNTS.len(),
        queues in 1usize..4,
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let shards = SHARD_COUNTS[shard_sel];
        let q: ShardedScheduler<MultiQueue<u64>> =
            ShardedScheduler::from_fn(shards, |_| MultiQueue::new(queues));
        run_interleaving(&q, |s: &MultiQueue<u64>| s.len(), &ops)?;
    }

    #[test]
    fn sharded_lf_multiqueue_interleavings(
        shard_sel in 0usize..SHARD_COUNTS.len(),
        queues in 1usize..4,
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let shards = SHARD_COUNTS[shard_sel];
        let q: ShardedScheduler<LockFreeMultiQueue<u64>> =
            ShardedScheduler::from_fn(shards, |_| LockFreeMultiQueue::new(queues));
        run_interleaving(&q, |s: &LockFreeMultiQueue<u64>| s.len(), &ops)?;
    }

    #[test]
    fn prefilled_with_drains_exactly_once_across_shard_counts(
        shard_sel in 0usize..SHARD_COUNTS.len(),
        n in 0u64..300,
        max in 1usize..24,
    ) {
        // Prefill grouping must agree with insert routing and lose nothing:
        // a full batched drain through rotating worker hints surfaces every
        // prefilled element exactly once.
        let shards = SHARD_COUNTS[shard_sel];
        let q: ShardedScheduler<LockFreeMultiQueue<u64>> = ShardedScheduler::prefilled_with(
            shards,
            (0..n).map(|i| (i, i)),
            |_, part| LockFreeMultiQueue::prefilled(2, part),
        );
        let mut seen = HashSet::new();
        let mut buf: Vec<(u64, u64)> = Vec::new();
        let mut worker = 0usize;
        loop {
            buf.clear();
            let got = q.pop_batch_for(worker, &mut buf, max);
            if got == 0 {
                break;
            }
            prop_assert!(got <= max);
            for &(_, v) in &buf {
                prop_assert!(seen.insert(v), "prefilled {v} popped twice");
            }
            worker += 1;
        }
        prop_assert_eq!(seen.len() as u64, n);
    }

    #[test]
    fn purging_drain_partitions_the_prefill_and_settles_the_loads(
        shard_sel in 0usize..SHARD_COUNTS.len(),
        n in 0u64..300,
        max in 1usize..24,
        keep in 1u64..6,
    ) {
        // The purging pop is forwarded to the shards (were it not, nothing
        // would be purged) and debits a shard by live + purged (were it by
        // live alone, the loads would over-read for good).
        let shards = SHARD_COUNTS[shard_sel];
        let q: ShardedScheduler<BulkMultiQueue<u64>> = ShardedScheduler::prefilled_with(
            shards,
            (0..n).map(|i| (i, i)),
            |_, part| BulkMultiQueue::prefilled(2, part),
        );
        prop_assert_eq!(q.total_load() as u64, n);
        let dead = |_: u64, v: &u64| !v.is_multiple_of(keep);
        let (mut live, mut purged, mut worker) = (Vec::new(), 0usize, 0usize);
        loop {
            let before = live.len();
            let (got, gone) = q.pop_purging_for(worker, &mut live, max, dead);
            if got + gone == 0 {
                break;
            }
            prop_assert!(got <= max && live.len() == before + got);
            purged += gone;
            prop_assert_eq!(q.total_load(), n as usize - live.len() - purged);
            worker += 1;
        }
        prop_assert_eq!((q.total_load(), q.max_partition_load()), (0, 0));
        let mut live: Vec<u64> = live.into_iter().map(|(_, v)| v).collect();
        live.sort_unstable();
        prop_assert_eq!(live, (0..n).filter(|v| v.is_multiple_of(keep)).collect::<Vec<_>>());
        prop_assert_eq!(purged as u64, (0..n).filter(|v| !v.is_multiple_of(keep)).count() as u64);
    }
}
