//! Multi-threaded release stress for the streaming service, wired into CI
//! alongside `incremental_stress`: many producers race many workers over a
//! sharded scheduler whose shard count (3) deliberately does not divide
//! the worker count, with short producer runs and a low shard watermark
//! so the backpressure and drain paths run constantly under contention.
//! The connectivity storm runs once per reclamation backend of the
//! lock-free shard queues (EBR, then VBR).
//!
//! Pass criteria are exact: the ledger balances (every accepted task
//! decided exactly once), no task completes twice, and workload outputs
//! equal their sequential ground truth bit-for-bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::sssp::dijkstra;
use rsched_core::framework::TaskOutcome;
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, RequestHandler, ServiceConfig,
    SsspHandler, SubmitCtx,
};
use rsched_core::TaskId;
use rsched_graph::{gen, WeightedCsr};
use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched_queues::sharded::ShardedScheduler;
use std::sync::atomic::{AtomicU32, Ordering};

const PRODUCERS: usize = 8;
const WORKERS: usize = 8;
const SHARDS: usize = 3;

#[test]
fn storm_of_producers_under_tight_backpressure_completes_exactly_once() {
    // A watermark below the flush batch: producers park constantly; every
    // task must still complete once.
    let n = 100_000u32;
    struct Hits(Vec<AtomicU32>);
    impl RequestHandler for Hits {
        fn handle(&self, _p: u64, task: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
            self.0[task as usize].fetch_add(1, Ordering::Relaxed);
            TaskOutcome::Processed
        }
    }
    // Producers × shards: many parked producers over a few shards (every
    // stall/wake path with several producers genuinely concurrent), few
    // producers over more shards than they are, and one producer alone.
    for (nproducers, shards) in [(PRODUCERS, SHARDS), (2, 5), (1, 4)] {
        let handler = Hits((0..n).map(|_| AtomicU32::new(0)).collect());
        let sched: ShardedScheduler<LockFreeMultiQueue<TaskId, Ebr>> =
            ShardedScheduler::from_fn(shards, |_| LockFreeMultiQueue::new_in(4));
        let config = ServiceConfig {
            workers: WORKERS,
            batch_size: 16,
            flush_batch: 64,
            shard_watermark: 48,
            ..Default::default()
        };
        let producers: Vec<ProducerFn<'_>> = (0..nproducers as u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    for t in (p..n).step_by(nproducers) {
                        prod.push(u64::from(t), t).unwrap();
                    }
                }) as ProducerFn<'_>
            })
            .collect();
        let stats = run_service(&handler, &sched, &config, producers);
        let shape = format!("{nproducers} producers x {shards} shards");
        assert!(stats.exactly_once(), "{shape}: {stats:?}");
        assert_eq!(stats.accepted, u64::from(n), "{shape}");
        assert!(
            handler.0.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "{shape}: a task ran twice or never"
        );
    }
}

#[test]
fn streamed_connectivity_storm_matches_ground_truth() {
    let n = 20_000;
    let edges = gen::gnm(n, 60_000, &mut StdRng::seed_from_u64(50)).edge_list();
    let expected = components(n, &edges);
    // One row per reclamation backend of the shard queues.
    connectivity_storm::<Ebr>(n, &edges, &expected);
    connectivity_storm::<Vbr>(n, &edges, &expected);
}

/// Streams `edges` through the service over `LockFreeMultiQueue<_, R>`
/// shard queues, scalar and batched, and checks the ledger and the labels.
fn connectivity_storm<R: Reclaim>(n: usize, edges: &[(u32, u32)], expected: &[u32]) {
    let m = edges.len() as u32;
    for batch in [1usize, 16] {
        let alg = ConcurrentConnectivity::new(n, edges);
        let handler = AlgorithmHandler(&alg);
        let sched: ShardedScheduler<LockFreeMultiQueue<TaskId, R>> =
            ShardedScheduler::from_fn(SHARDS, |_| LockFreeMultiQueue::new_in(4));
        let config = ServiceConfig {
            workers: WORKERS,
            batch_size: batch,
            flush_batch: 128,
            shard_watermark: usize::MAX,
            ..Default::default()
        };
        let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS as u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    for e in (p..m).step_by(PRODUCERS) {
                        prod.push(u64::from(e), e).unwrap();
                    }
                }) as ProducerFn<'_>
            })
            .collect();
        let stats = run_service(&handler, &sched, &config, producers);
        let row = format!("{} batch {batch}", R::name());
        assert!(stats.exactly_once(), "{row}: {stats:?}");
        assert_eq!(stats.accepted, u64::from(m), "{row}");
        assert_eq!(alg.into_labels(), expected, "{row}: components diverged");
    }
}

#[test]
fn streamed_sssp_flood_storm_matches_dijkstra() {
    // Many producers seed overlapping floods from the same source while
    // the wavefront is already running: the follow-up-submit path and the
    // obsolete-pop path are both under constant fire.
    let mut rng = StdRng::seed_from_u64(51);
    let g = gen::gnm(10_000, 60_000, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let expected = dijkstra(&g, 0);

    let handler = SsspHandler::new(&g);
    let sched: ShardedScheduler<MultiQueue<TaskId>> =
        ShardedScheduler::from_fn(SHARDS, |_| MultiQueue::new(4));
    let config = ServiceConfig { workers: WORKERS, batch_size: 8, ..Default::default() };
    let (seed_priority, seed_task) = handler.request(0, 0);
    let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS)
        .map(|_| {
            Box::new(move |prod: Producer<'_>| {
                prod.push(seed_priority, seed_task).unwrap();
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &sched, &config, producers);
    assert!(stats.exactly_once(), "{stats:?}");
    assert!(stats.accepted >= PRODUCERS as u64);
    assert_eq!(handler.into_dist(), expected, "streamed SSSP flood diverged from Dijkstra");
}

#[test]
fn mid_storm_seal_still_balances() {
    // One producer seals the service partway through the storm; every
    // producer then sees rejections, and the books must still balance on
    // exactly the accepted prefix.
    let n = 200_000u32;
    struct Count(AtomicU32);
    impl RequestHandler for Count {
        fn handle(&self, _p: u64, _t: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
            self.0.fetch_add(1, Ordering::Relaxed);
            TaskOutcome::Processed
        }
    }
    let handler = Count(AtomicU32::new(0));
    let sched: ShardedScheduler<MultiQueue<TaskId>> =
        ShardedScheduler::from_fn(SHARDS, |_| MultiQueue::new(4));
    let config =
        ServiceConfig { workers: WORKERS, batch_size: 4, flush_batch: 64, ..Default::default() };
    let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS as u32)
        .map(|p| {
            Box::new(move |prod: Producer<'_>| {
                for t in (p..n).step_by(PRODUCERS) {
                    if p == 0 && t > n / 2 {
                        prod.seal_all();
                    }
                    if prod.push(u64::from(t), t).is_err() {
                        break;
                    }
                }
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &sched, &config, producers);
    assert!(stats.exactly_once(), "{stats:?}");
    assert!(stats.accepted < u64::from(n), "seal must have cut the stream short");
    assert_eq!(u64::from(handler.0.load(Ordering::Relaxed)), stats.processed);
}
