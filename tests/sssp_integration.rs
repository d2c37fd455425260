//! SSSP integration: every scheduler (sequential models, concurrent
//! structures) and the streaming service converge to Dijkstra's distances
//! on assorted graph shapes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::sssp::{concurrent_sssp, dijkstra, relaxed_sssp, UNREACHABLE};
use rsched::core::service::{run_service, Producer, ProducerFn, ServiceConfig, SsspHandler};
use rsched::graph::{gen, WeightedCsr};
use rsched::queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched::queues::reclaim::{Ebr, Vbr};
use rsched::queues::relaxed::SimMultiQueue;
use rsched::queues::sharded::ShardedScheduler;

fn weighted(n: usize, m: usize, seed: u64) -> WeightedCsr {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnm(n, m, &mut rng);
    WeightedCsr::with_uniform_weights(&g, 1, 1000, &mut rng)
}

#[test]
fn relaxed_models_converge() {
    let g = weighted(1_000, 8_000, 2);
    let expected = dijkstra(&g, 3);
    for q in [2usize, 16, 64] {
        let (dist, _) = relaxed_sssp(&g, 3, SimMultiQueue::new(q, StdRng::seed_from_u64(5)));
        assert_eq!(dist, expected, "q = {q}");
    }
}

#[test]
fn concurrent_schedulers_converge() {
    let g = weighted(1_000, 6_000, 3);
    let expected = dijkstra(&g, 0);
    for threads in [1usize, 2, 4] {
        let mq: MultiQueue<u32> = MultiQueue::for_threads(threads);
        assert_eq!(concurrent_sssp(&g, 0, &mq, threads), expected, "mq t={threads}");
    }
    let lf: LockFreeMultiQueue<u32, Ebr> = LockFreeMultiQueue::new_in(8);
    assert_eq!(concurrent_sssp(&g, 0, &lf, 2), expected);
    // The engine passes worker hints and drifts affinity: more workers than
    // shards, so some share a home shard and all of them steal.
    let sharded: ShardedScheduler<MultiQueue<u32>> =
        ShardedScheduler::from_fn(3, |_| MultiQueue::new(2));
    assert_eq!(concurrent_sssp(&g, 0, &sharded, 4), expected, "3 shards, t=4");
    let vbr: LockFreeMultiQueue<u32, Vbr> = LockFreeMultiQueue::new_in(8);
    assert_eq!(concurrent_sssp(&g, 0, &vbr, 2), expected, "lock-free over VBR");
}

/// Every concurrent scheduler family, at 1, 2, 4 and 8 workers, must
/// reproduce `dijkstra` on `g`.
fn assert_concurrent_rows(shape: &str, g: &WeightedCsr) {
    let expected = dijkstra(g, 0);
    for threads in [1usize, 2, 4, 8] {
        let at = format!("{shape}, t={threads}");
        let one: MultiQueue<u32> = MultiQueue::new(1);
        assert_eq!(concurrent_sssp(g, 0, &one, threads), expected, "one heap, {at}");
        let mq: MultiQueue<u32> = MultiQueue::for_threads(threads);
        assert_eq!(concurrent_sssp(g, 0, &mq, threads), expected, "MultiQueue, {at}");
        let ebr: LockFreeMultiQueue<u32, Ebr> = LockFreeMultiQueue::new_in(4 * threads);
        assert_eq!(concurrent_sssp(g, 0, &ebr, threads), expected, "lock-free over EBR, {at}");
        let vbr: LockFreeMultiQueue<u32, Vbr> = LockFreeMultiQueue::new_in(4 * threads);
        assert_eq!(concurrent_sssp(g, 0, &vbr, threads), expected, "lock-free over VBR, {at}");
        let sharded: ShardedScheduler<MultiQueue<u32>> =
            ShardedScheduler::from_fn(3, |_| MultiQueue::new(2));
        assert_eq!(concurrent_sssp(g, 0, &sharded, threads), expected, "3 shards, {at}");
    }
}

#[test]
fn structured_graphs() {
    // Path: distances are prefix sums.
    let triples: Vec<(u32, u32, u32)> = (0..99u32).map(|i| (i, i + 1, 2)).collect();
    let g = WeightedCsr::from_weighted_edges(100, triples);
    let dist = dijkstra(&g, 0);
    for (v, &d) in dist.iter().enumerate() {
        assert_eq!(d, 2 * v as u64);
    }
    // Star: everything at one hop.
    let star: Vec<(u32, u32, u32)> = (1..50u32).map(|i| (0, i, 7)).collect();
    let star = WeightedCsr::from_weighted_edges(50, star);
    let dist = dijkstra(&star, 0);
    assert!(dist[1..].iter().all(|&d| d == 7));

    // The same shapes on the worker engine, where a run of 32 never fills.
    // A long path: the frontier never exceeds one task, so every run is one
    // task and every other worker only ever sees empty pops.
    let path: Vec<(u32, u32, u32)> = (0..4_999u32).map(|i| (i, i + 1, 1 + i % 7)).collect();
    let path = WeightedCsr::from_weighted_edges(5_000, path);
    // Two components: the second is never reached, the books still close.
    let halves = (0..40u32).map(|i| (i, i + 1, 3)).chain((50..90u32).map(|i| (i, i + 1, 3)));
    let halves = WeightedCsr::from_weighted_edges(100, halves);
    // A clique with equal weights: every priority collides on distance.
    let clique = (0..64u32).flat_map(|u| (u + 1..64).map(move |v| (u, v, 5)));
    let clique = WeightedCsr::from_weighted_edges(64, clique);
    assert_concurrent_rows("path", &path);
    assert_concurrent_rows("star", &star);
    assert_concurrent_rows("two components", &halves);
    assert_concurrent_rows("clique", &clique);
}

#[test]
fn unreachable_parts_stay_unreachable_concurrently() {
    let g = WeightedCsr::from_weighted_edges(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]);
    let mq: MultiQueue<u32> = MultiQueue::new(4);
    let dist = concurrent_sssp(&g, 0, &mq, 2);
    assert_eq!(dist[3], UNREACHABLE);
    assert_eq!(dist[4], UNREACHABLE);
    assert_eq!(dist[5], UNREACHABLE);
    assert_eq!(dist[2], 2);
}

#[test]
fn heavier_concurrent_instance() {
    let g = weighted(20_000, 200_000, 9);
    let expected = dijkstra(&g, 0);
    let mq: MultiQueue<u32> = MultiQueue::for_threads(2);
    assert_eq!(concurrent_sssp(&g, 0, &mq, 2), expected);
}

/// At a size where every bucket of `MultiQueue::for_threads(t)` sorts its
/// insert buffer into several runs, and the one bucket of
/// `MultiQueue::new(1)` into dozens, both reproduce `dijkstra`.
#[test]
fn locked_buckets_agree_at_flush_scale() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = gen::gnm(50_000, 250_000, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let expected = dijkstra(&g, 0);
    for threads in [1usize, 2, 4] {
        let one: MultiQueue<u32> = MultiQueue::new(1);
        assert_eq!(concurrent_sssp(&g, 0, &one, threads), expected, "one bucket, t={threads}");
        let mq: MultiQueue<u32> = MultiQueue::for_threads(threads);
        assert_eq!(concurrent_sssp(&g, 0, &mq, threads), expected, "MultiQueue, t={threads}");
    }
}

/// Through the streaming service: two producers push the same query, so the
/// second wave of relaxations meets warm distances and must be absorbed as
/// obsolete work, never corrupt them.
#[test]
fn sssp_streamed_repeated_queries_converge() {
    let g = weighted(500, 2_500, 82);
    let expected = dijkstra(&g, 7);
    let handler = SsspHandler::new(&g);
    let sched: ShardedScheduler<MultiQueue<u32>> =
        ShardedScheduler::from_fn(2, |_| MultiQueue::new(2));
    let config = ServiceConfig { workers: 3, ..Default::default() };
    let (seed_priority, seed_task) = handler.request(0, 7);
    let producers: Vec<ProducerFn<'_>> = (0..2)
        .map(|_| {
            Box::new(move |prod: Producer<'_>| {
                prod.push(seed_priority, seed_task).unwrap();
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &sched, &config, producers);
    assert!(stats.exactly_once(), "{stats:?}");
    assert_eq!(handler.into_dist(), expected);
}
