//! Property tests for the streaming service's shutdown and backpressure
//! protocol: for *arbitrary* topologies (producer count, producer run
//! length, worker count, pop batch size, shard count, watermark) the drain
//! must terminate, the ledger must balance exactly once, and sealed
//! producers must have every post-seal push rejected without acceptance.
//!
//! The task spaces are kept small (the interesting races are all in the
//! protocol edges: zero tasks, runs of one, watermark below the flush
//! batch, more producers than tasks) and every case runs to completion — a
//! protocol bug here is a hang, which the test runner surfaces as a
//! timeout rather than an assertion failure.

use proptest::prelude::*;
use rsched_core::framework::TaskOutcome;
use rsched_core::service::{
    run_service, Producer, ProducerFn, PushError, RequestHandler, ServiceConfig, SubmitCtx,
};
use rsched_core::TaskId;
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Counts per-task completions; optionally chains one follow-up per seed
/// task so the accept-before-decide half of the ledger protocol is always
/// exercised too.
struct CountingHandler {
    hits: Vec<AtomicU32>,
    chain_span: u32,
}

impl CountingHandler {
    fn new(n: usize, chain_span: u32) -> Self {
        CountingHandler { hits: (0..n).map(|_| AtomicU32::new(0)).collect(), chain_span }
    }

    fn total_hits(&self) -> u64 {
        self.hits.iter().map(|h| u64::from(h.load(Ordering::SeqCst))).sum()
    }
}

impl RequestHandler for CountingHandler {
    fn handle(&self, _priority: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        self.hits[task as usize].fetch_add(1, Ordering::SeqCst);
        if task < self.chain_span {
            ctx.submit(u64::from(task), task + self.chain_span);
        }
        TaskOutcome::Processed
    }
}

fn sched(shards: usize) -> ShardedScheduler<MultiQueue<TaskId>> {
    ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary service topology over a fixed task set: the drain
    /// terminates, every task completes exactly once, and the ledger books
    /// balance.
    #[test]
    fn drain_terminates_exactly_once_for_arbitrary_topologies(
        n in 0u32..400,
        nproducers in 0usize..6,
        flush_batch in 1usize..16,
        workers in 1usize..5,
        batch_size in 1usize..9,
        shards in 1usize..4,
        watermark_raw in 0usize..24,
    ) {
        // 0 disables the watermark; small nonzero values force constant
        // producer parks (the protocol must still terminate).
        let shard_watermark = if watermark_raw == 0 { usize::MAX } else { watermark_raw };
        let handler = CountingHandler::new(n as usize, 0);
        let q = sched(shards);
        let config = ServiceConfig {
            workers,
            batch_size,
            flush_batch,
            shard_watermark,
            ..Default::default()
        };
        let np = nproducers.max(usize::from(n > 0));
        let producers: Vec<ProducerFn<'_>> = (0..np as u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    for t in (p..n).step_by(np) {
                        prod.push(u64::from(t), t).unwrap();
                    }
                }) as ProducerFn<'_>
            })
            .collect();
        let stats = run_service(&handler, &q, &config, producers);
        prop_assert!(stats.exactly_once(), "{:?}", stats);
        prop_assert_eq!(stats.accepted, u64::from(n));
        prop_assert_eq!(handler.total_hits(), u64::from(n));
        prop_assert!(handler.hits.iter().all(|h| h.load(Ordering::SeqCst) <= 1));
    }

    /// Handler follow-up submits under arbitrary topologies: chained tasks
    /// count against the ledger and complete exactly once, even under
    /// watermark stalls (submits bypass the watermark by design).
    #[test]
    fn follow_up_submits_balance_for_arbitrary_topologies(
        half in 1u32..150,
        workers in 1usize..4,
        batch_size in 1usize..5,
        flush_batch in 1usize..16,
        shards in 1usize..4,
        watermark_raw in 0usize..12,
    ) {
        let shard_watermark = if watermark_raw == 0 { usize::MAX } else { watermark_raw };
        let handler = CountingHandler::new(2 * half as usize, half);
        let q = sched(shards);
        let config = ServiceConfig {
            workers,
            batch_size,
            flush_batch,
            shard_watermark,
            ..Default::default()
        };
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(move |prod: Producer<'_>| {
            for t in 0..half {
                prod.push(u64::from(t), t).unwrap();
            }
        })];
        let stats = run_service(&handler, &q, &config, producers);
        prop_assert!(stats.exactly_once(), "{:?}", stats);
        prop_assert_eq!(stats.accepted, 2 * u64::from(half));
        prop_assert!(handler.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    /// Sealing at an arbitrary cut point: pushes before the seal all land
    /// and complete; pushes after it are all rejected without acceptance —
    /// from every producer, not just the sealer.
    #[test]
    fn seal_rejects_late_pushes_without_accepting(
        before in 0u32..120,
        after in 1u32..60,
        workers in 1usize..4,
        shards in 1usize..4,
    ) {
        let n = before + after;
        let handler = CountingHandler::new(n as usize, 0);
        let q = sched(shards);
        let config = ServiceConfig { workers, ..Default::default() };
        let rejected = AtomicU64::new(0);
        let rejected_ref = &rejected;
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(move |prod: Producer<'_>| {
            for t in 0..before {
                prod.push(u64::from(t), t).unwrap();
            }
            prod.seal_all();
            for t in before..n {
                if prod.push(u64::from(t), t) == Err(PushError::Sealed) {
                    rejected_ref.fetch_add(1, Ordering::SeqCst);
                }
            }
        })];
        let stats = run_service(&handler, &q, &config, producers);
        prop_assert!(stats.exactly_once(), "{:?}", stats);
        prop_assert_eq!(stats.accepted, u64::from(before));
        prop_assert_eq!(rejected.load(Ordering::SeqCst), u64::from(after));
        prop_assert!(handler.hits[..before as usize]
            .iter()
            .all(|h| h.load(Ordering::SeqCst) == 1));
        prop_assert!(handler.hits[before as usize..]
            .iter()
            .all(|h| h.load(Ordering::SeqCst) == 0));
    }
}
