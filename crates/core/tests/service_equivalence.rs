//! Streamed-vs-prefill equivalence: the service front-end must be a pure
//! delivery mechanism. For every prefill workload, running the identical
//! algorithm behind [`run_service`] with a single producer that pushes the
//! task set in label order must yield a byte-identical output to the
//! prefill executor.
//!
//! The deterministic half of the suite pins everything down: one worker,
//! one producer, and a shared *exact* heap wrapped in a one-way
//! [`ShardedScheduler`]. The producer pushes labels `0, 1, 2, …` and its
//! runs reach the scheduler in that order, and the worker always pops
//! the minimum of a label-prefix — so the streamed pop order *is* the
//! prefill pop order is the sequential processing order, and outputs must
//! match bit for bit (including order-dependent counters like Delaunay's
//! created/destroyed cells).
//!
//! The order-independent half then opens everything up — many producers,
//! shards, and workers over relaxed scheduling — for the workloads whose
//! outputs are interleaving-invariant (connectivity labels, SSSP
//! distances).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::algorithms::knuth_shuffle::{
    fisher_yates, random_targets, shuffle_priorities, ConcurrentShuffle,
};
use rsched_core::algorithms::sssp::dijkstra;
use rsched_core::algorithms::{
    coloring::{greedy_coloring, ConcurrentColoring},
    list_contraction::{sequential_contraction, ConcurrentContraction},
    matching::{greedy_matching, ConcurrentMatching, MatchingInstance},
    mis::{greedy_mis, ConcurrentMis},
};
use rsched_core::framework::{fill_scheduler, run_concurrent, ConcurrentAlgorithm};
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, ServiceConfig, ServiceStats, SsspHandler,
};
use rsched_core::TaskId;
use rsched_graph::geom::uniform_square;
use rsched_graph::{gen, ListInstance, Permutation, WeightedCsr};
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// A strict (non-relaxed) shared scheduler: a mutex around a binary heap.
/// Always pops the true minimum, which is what makes the streamed pop
/// order provable.
#[derive(Debug, Default)]
struct ExactShared(Mutex<BinaryHeap<Reverse<(u64, TaskId)>>>);

impl ConcurrentScheduler<TaskId> for ExactShared {
    fn insert(&self, priority: u64, item: TaskId) {
        self.0.lock().unwrap().push(Reverse((priority, item)));
    }

    fn pop(&self) -> Option<(u64, TaskId)> {
        self.0.lock().unwrap().pop().map(|Reverse(e)| e)
    }
}

/// The occupancy the service's backpressure reads: the heap's length.
impl SchedulerLoad for ExactShared {
    fn total_load(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    fn max_partition_load(&self) -> usize {
        self.total_load()
    }
}

/// The deterministic substrate: one shard over the exact heap (at one
/// shard the wrapper is pure pass-through).
fn exact_sched() -> ShardedScheduler<ExactShared> {
    ShardedScheduler::from_fn(1, |_| ExactShared::default())
}

/// One producer streaming the whole task set in label order — the order
/// [`fill_scheduler`] would have bulk-loaded it in.
fn label_order_producer(pi: &Permutation) -> Vec<ProducerFn<'_>> {
    vec![Box::new(move |prod: Producer<'_>| {
        for pos in 0..pi.len() as u32 {
            prod.push(u64::from(pos), pi.task_at(pos)).unwrap();
        }
    })]
}

/// Runs `alg` behind the streaming service on the deterministic substrate.
/// Runs of at most 8 force real producer/worker interleaving (the producer
/// cannot just dump everything up front).
fn run_streamed_deterministic<A: ConcurrentAlgorithm>(alg: &A, pi: &Permutation) -> ServiceStats {
    let sched = exact_sched();
    let handler = AlgorithmHandler(alg);
    let config = ServiceConfig { workers: 1, flush_batch: 8, ..Default::default() };
    let stats = run_service(&handler, &sched, &config, label_order_producer(pi));
    assert!(stats.exactly_once(), "{stats:?}");
    assert_eq!(stats.accepted, pi.len() as u64);
    stats
}

/// Runs `alg` through the prefill executor on the same substrate.
fn run_prefill<A: ConcurrentAlgorithm>(alg: &A, pi: &Permutation) {
    let sched = exact_sched();
    fill_scheduler(&sched, pi);
    let stats = run_concurrent(alg, pi, &sched, 1);
    assert_eq!(stats.processed + stats.obsolete, pi.len() as u64);
}

#[test]
fn shuffle_streamed_equals_prefill_and_sequential() {
    let n = 800;
    let targets = random_targets(n, &mut StdRng::seed_from_u64(70));
    let pi = shuffle_priorities(n);

    let prefill = ConcurrentShuffle::new(targets.clone());
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, fisher_yates(&targets));

    let streamed = ConcurrentShuffle::new(targets.clone());
    run_streamed_deterministic(&streamed, &pi);
    assert_eq!(streamed.into_output(), expected, "streamed shuffle diverged from prefill");
}

#[test]
fn mis_streamed_equals_prefill_and_sequential() {
    let mut rng = StdRng::seed_from_u64(71);
    let g = gen::gnm(600, 2_400, &mut rng);
    let pi = Permutation::random(g.num_vertices(), &mut rng);

    let prefill = ConcurrentMis::new(&g, &pi);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, greedy_mis(&g, &pi));

    let streamed = ConcurrentMis::new(&g, &pi);
    run_streamed_deterministic(&streamed, &pi);
    assert_eq!(streamed.into_output(), expected, "streamed MIS diverged from prefill");
}

#[test]
fn coloring_streamed_equals_prefill_and_sequential() {
    let mut rng = StdRng::seed_from_u64(72);
    let g = gen::gnm(500, 3_000, &mut rng);
    let pi = Permutation::random(g.num_vertices(), &mut rng);

    let prefill = ConcurrentColoring::new(&g, &pi);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, greedy_coloring(&g, &pi));

    let streamed = ConcurrentColoring::new(&g, &pi);
    run_streamed_deterministic(&streamed, &pi);
    assert_eq!(streamed.into_output(), expected, "streamed coloring diverged from prefill");
}

#[test]
fn matching_streamed_equals_prefill_and_sequential() {
    let mut rng = StdRng::seed_from_u64(73);
    let g = gen::gnm(400, 1_600, &mut rng);
    let inst = MatchingInstance::new(&g);
    let pi = Permutation::random(inst.num_edges(), &mut rng);

    let prefill = ConcurrentMatching::new(&inst, &pi);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, greedy_matching(&inst, &pi));

    let streamed = ConcurrentMatching::new(&inst, &pi);
    run_streamed_deterministic(&streamed, &pi);
    assert_eq!(streamed.into_output(), expected, "streamed matching diverged from prefill");
}

#[test]
fn contraction_streamed_equals_prefill_and_sequential() {
    let mut rng = StdRng::seed_from_u64(74);
    let list = ListInstance::new_shuffled(500, &mut rng);
    let pi = Permutation::random(500, &mut rng);

    let prefill = ConcurrentContraction::new(&list, &pi);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, sequential_contraction(&list, &pi));

    let streamed = ConcurrentContraction::new(&list, &pi);
    run_streamed_deterministic(&streamed, &pi);
    assert_eq!(streamed.into_output(), expected, "streamed contraction diverged from prefill");
}

#[test]
fn connectivity_streamed_equals_prefill_labels() {
    let n = 800;
    let edges = gen::gnm(n, 2_000, &mut StdRng::seed_from_u64(75)).edge_list();
    let pi = insertion_order(edges.len(), 76);

    let prefill = ConcurrentConnectivity::new(n, &edges);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_labels();
    assert_eq!(expected, components(n, &edges));

    let streamed = ConcurrentConnectivity::new(n, &edges);
    let stats = run_streamed_deterministic(&streamed, &pi);
    // In-order insertion never conflicts: the streamed run must not even
    // take the blocked-retry path.
    assert_eq!(stats.wasted, 0);
    assert_eq!(streamed.into_labels(), expected, "streamed connectivity diverged from prefill");
}

#[test]
fn delaunay_streamed_equals_prefill_including_work_counters() {
    let pts = uniform_square(400, 1 << 16, &mut StdRng::seed_from_u64(77));
    let pi = insertion_order(pts.len(), 78);

    let prefill = ConcurrentDelaunay::new(&pts, &pi);
    run_prefill(&prefill, &pi);
    let expected = prefill.into_output();
    assert_eq!(expected, delaunay_reference(&pts, &pi));
    assert!(verify_delaunay(&pts, &expected.triangles));

    let streamed = ConcurrentDelaunay::new(&pts, &pi);
    run_streamed_deterministic(&streamed, &pi);
    // Full struct equality: same triangles *and* the same created/destroyed
    // cell counts — the insertion order was byte-identical.
    assert_eq!(streamed.into_output(), expected, "streamed Delaunay diverged from prefill");
}

// ---------------------------------------------------------------------------
// Order-independent workloads under a fully relaxed, fully parallel service.
// ---------------------------------------------------------------------------

fn relaxed_sched(shards: usize) -> ShardedScheduler<MultiQueue<TaskId>> {
    ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2))
}

#[test]
fn connectivity_labels_survive_many_producers_and_workers() {
    let n = 5_000;
    let edges = gen::gnm(n, 15_000, &mut StdRng::seed_from_u64(80)).edge_list();
    let expected = components(n, &edges);
    let m = edges.len() as u32;

    let alg = ConcurrentConnectivity::new(n, &edges);
    let handler = AlgorithmHandler(&alg);
    let sched = relaxed_sched(3);
    let config = ServiceConfig { workers: 4, flush_batch: 64, ..Default::default() };
    // Four producers interleave striped slices of the edge list: arrival
    // order at the scheduler is racy by construction.
    let producers: Vec<ProducerFn<'_>> = (0..4u32)
        .map(|p| {
            Box::new(move |prod: Producer<'_>| {
                for e in (p..m).step_by(4) {
                    prod.push(u64::from(e), e).unwrap();
                }
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &sched, &config, producers);
    assert!(stats.exactly_once(), "{stats:?}");
    assert_eq!(stats.accepted, u64::from(m));
    assert_eq!(alg.into_labels(), expected, "streamed connectivity labels diverged");
}

#[test]
fn sssp_streamed_flood_matches_dijkstra() {
    let mut rng = StdRng::seed_from_u64(81);
    let g = gen::gnm(1_000, 6_000, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let expected = dijkstra(&g, 0);

    for workers in [1usize, 4] {
        let handler = SsspHandler::new(&g);
        let sched = relaxed_sched(3);
        let config = ServiceConfig { workers, ..Default::default() };
        let (seed_priority, seed_task) = handler.request(0, 0);
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(move |prod: Producer<'_>| {
            prod.push(seed_priority, seed_task).unwrap();
        })];
        let stats = run_service(&handler, &sched, &config, producers);
        assert!(stats.exactly_once(), "workers {workers}: {stats:?}");
        assert!(stats.accepted >= 1);
        assert_eq!(handler.into_dist(), expected, "workers {workers}: SSSP flood diverged");
    }
}

#[test]
fn sssp_streamed_repeated_queries_converge() {
    // A second wave of requests against warm state must be absorbed as
    // obsolete work, never corrupt distances.
    let mut rng = StdRng::seed_from_u64(82);
    let g = gen::gnm(500, 2_500, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 50, &mut rng);
    let expected = dijkstra(&g, 7);

    let handler = SsspHandler::new(&g);
    let sched = relaxed_sched(2);
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
