//! The streaming service front-end: producers push requests into a *live*
//! sharded scheduler while workers drain it — the long-lived shape of the
//! system, instead of prefill-then-drain.
//!
//! Two workloads:
//!
//! 1. streamed incremental connectivity — four producer threads race
//!    striped slices of an edge list into the live scheduler under a tight
//!    shard watermark; the union-find absorbs them in
//!    whatever order they arrive and still produces the canonical labels;
//! 2. natively streaming SSSP — a producer seeds one relaxation request
//!    and the handler floods the rest of the graph as follow-up submits.
//!
//! Both runs end in a graceful drain audited by the exactly-once ledger.
//!
//! Run with: `cargo run --release --example streaming_service`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched::core::algorithms::sssp::dijkstra;
use rsched::core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, ServiceConfig, SsspHandler,
};
use rsched::graph::{gen, WeightedCsr};
use rsched::queues::concurrent::LockFreeMultiQueue;
use rsched::queues::sharded::ShardedScheduler;

fn sched(shards: usize) -> ShardedScheduler<LockFreeMultiQueue<u32>> {
    ShardedScheduler::from_fn(shards, |_| LockFreeMultiQueue::new(4))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(6);

    // --- streamed incremental connectivity -------------------------------
    let n = 50_000;
    let edges = gen::gnm(n, 150_000, &mut rng).edge_list();
    let m = edges.len() as u32;
    let expected = components(n, &edges);

    let alg = ConcurrentConnectivity::new(n, &edges);
    let handler = AlgorithmHandler(&alg);
    let q = sched(3);
    let config = ServiceConfig {
        workers: 4,
        batch_size: 8,
        flush_batch: 64,
        shard_watermark: 4_096,
        ..Default::default()
    };
    // Four producers stream striped slices in runs of up to 64: arrival
    // order at the scheduler is racy by construction, and a producer whose
    // flush finds a shard at the watermark parks — the backpressure
    // boundary.
    let producers: Vec<ProducerFn<'_>> = (0..4u32)
        .map(|p| {
            Box::new(move |prod: Producer<'_>| {
                for e in (p..m).step_by(4) {
                    prod.push(u64::from(e), e).unwrap();
                }
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &q, &config, producers);
    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    assert_eq!(stats.accepted, u64::from(m));
    assert_eq!(alg.into_labels(), expected, "streamed labels diverged");
    println!(
        "connectivity: {} edges streamed by 4 producers, {} pops ({} obsolete) by {} workers in {:?}",
        stats.accepted, stats.total_pops, stats.obsolete, stats.workers, stats.elapsed
    );

    // --- natively streaming SSSP -----------------------------------------
    let g = gen::gnm(20_000, 120_000, &mut rng);
    let wg = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let exact = dijkstra(&wg, 0);

    let handler = SsspHandler::new(&wg);
    let q = sched(3);
    let config = ServiceConfig { workers: 4, ..Default::default() };
    let (seed_priority, seed_task) = handler.request(0, 0);
    let producers: Vec<ProducerFn<'_>> = vec![Box::new(move |prod: Producer<'_>| {
        prod.push(seed_priority, seed_task).unwrap();
    })];
    let stats = run_service(&handler, &q, &config, producers);
    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    assert_eq!(handler.into_dist(), exact, "streamed SSSP diverged from Dijkstra");
    println!(
        "sssp: 1 seeded request flooded into {} accepted relaxations, distances exact in {:?}",
        stats.accepted, stats.elapsed
    );

    println!("\nBoth drains ledger-balanced: every accepted request decided exactly once.");
}
