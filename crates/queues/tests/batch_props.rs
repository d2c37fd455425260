//! Property tests for the batched scheduler interface.
//!
//! For every concurrent scheduler (and the sequential defaults), batched
//! operations must preserve the multiset semantics of their scalar
//! counterparts: `pop_batch` returns each live element **exactly once**,
//! never returns more than `max` elements, and arbitrary interleavings of
//! scalar and batched operations conserve `len`.

use proptest::prelude::*;
use rsched_queues::concurrent::{BulkMultiQueue, FaaArrayQueue, LockFreeMultiQueue, MultiQueue};
use rsched_queues::exact::BinaryHeapScheduler;
use rsched_queues::{ConcurrentScheduler, PriorityScheduler};
use std::collections::HashSet;

/// One step of a batch/scalar interleaving, generated by proptest.
#[derive(Clone, Debug)]
enum Op {
    Insert,
    InsertBatch(usize),
    Pop,
    PopBatch(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..4, 1usize..24).prop_map(|(kind, size)| match kind {
        0 => Op::Insert,
        1 => Op::InsertBatch(size),
        2 => Op::Pop,
        _ => Op::PopBatch(size),
    })
}

/// Drives `ops` against any concurrent scheduler, checking after every step
/// that no element is seen twice, `pop_batch` never exceeds its `max`, and
/// `len` (tracked externally) is conserved. Returns the popped set for the
/// final exactly-once check.
fn run_interleaving<S, L>(sched: &S, len_of: L, ops: &[Op]) -> Result<(), TestCaseError>
where
    S: ConcurrentScheduler<u64>,
    L: Fn(&S) -> usize,
{
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
            Op::Pop => {
                if let Some((_, v)) = sched.pop() {
                    prop_assert!(seen.insert(v), "element {v} popped twice");
                    live -= 1;
                } else {
                    prop_assert_eq!(live, 0);
                }
            }
            Op::PopBatch(max) => {
                buf.clear();
                let got = sched.pop_batch(&mut buf, max);
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
        // Single-threaded, so the len snapshot is exact.
        prop_assert_eq!(len_of(sched), live);
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
    fn multiqueue_batch_interleavings(
        queues in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let q: MultiQueue<u64> = MultiQueue::new(queues);
        run_interleaving(&q, |s: &MultiQueue<u64>| s.len(), &ops)?;
    }

    #[test]
    fn bulk_multiqueue_batch_interleavings(
        queues in 1usize..6,
        prefill in 0u64..50,
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        // Prefilled entries use priorities disjoint from the interleaving's
        // (which start at 0 and count up to at most 24*40 < 10_000).
        let q: BulkMultiQueue<u64> =
            BulkMultiQueue::prefilled(queues, (0..prefill).map(|i| (10_000 + i, 10_000 + i)));
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        while q.pop_batch(&mut buf, 9) > 0 {
            for &(_, v) in buf.iter() {
                prop_assert!(seen.insert(v), "prefilled {v} popped twice");
            }
            buf.clear();
        }
        prop_assert_eq!(seen.len() as u64, prefill);
        run_interleaving(&q, |s: &BulkMultiQueue<u64>| s.len(), &ops)?;
    }

    #[test]
    fn lf_multiqueue_batch_interleavings(
        queues in 1usize..6,
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let q: LockFreeMultiQueue<u64> = LockFreeMultiQueue::new(queues);
        run_interleaving(&q, |s: &LockFreeMultiQueue<u64>| s.len(), &ops)?;
    }

    #[test]
    fn faa_queue_batch_claims_are_disjoint_and_bounded(
        n in 0usize..200,
        maxes in proptest::collection::vec(1usize..24, 1..40),
    ) {
        let q = FaaArrayQueue::from_sorted((0..n as u64).map(|i| (i, i)).collect());
        let mut seen = HashSet::new();
        let mut buf = Vec::new();
        for max in maxes {
            buf.clear();
            let got = q.pop_batch(&mut buf, max);
            prop_assert!(got <= max);
            prop_assert_eq!(got, buf.len());
            // The claimed range is contiguous, hence sorted.
            prop_assert!(buf.windows(2).all(|w| w[0].0 < w[1].0));
            for &(_, v) in &buf {
                prop_assert!(seen.insert(v), "entry {v} claimed twice");
            }
        }
        // Scalar pops drain the rest without overlap.
        while let Some((_, v)) = q.pop() {
            prop_assert!(seen.insert(v), "entry {v} claimed twice");
        }
        prop_assert_eq!(seen.len(), n);
        prop_assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn sequential_default_batch_ops_conserve_len(
        entries in proptest::collection::vec(0u64..1000, 0..60),
        max in 1usize..16,
    ) {
        // The defaulted trait methods on a sequential scheduler: insert_batch
        // then pop_batch to empty must return every entry exactly once, in
        // exact order for an exact queue.
        let mut q = BinaryHeapScheduler::new();
        let batch: Vec<(u64, u64)> =
            entries.iter().enumerate().map(|(i, &p)| (p, i as u64)).collect();
        q.insert_batch(&batch);
        prop_assert_eq!(q.len(), batch.len());
        let mut out = Vec::new();
        loop {
            let before = out.len();
            let got = q.pop_batch(&mut out, max);
            prop_assert!(got <= max);
            prop_assert_eq!(out.len(), before + got);
            if got == 0 {
                break;
            }
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(out.len(), batch.len());
        // Exact scheduler: batched drain preserves full priority order.
        prop_assert!(out.windows(2).all(|w| w[0].0 <= w[1].0));
        let ids: HashSet<u64> = out.iter().map(|e| e.1).collect();
        prop_assert_eq!(ids.len(), batch.len());
    }
}
