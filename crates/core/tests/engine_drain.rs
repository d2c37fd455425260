//! A run whose workers each decide fewer tasks than the engine gathers
//! before booking them must still end. A worker books its decisions with
//! the ledger in batches, so the books balance only once every worker has
//! booked what it holds; it does so whenever its pop comes back empty.
//! Each case drains a handful of tasks at two and four workers, through
//! the prefill, service and sealed paths, under a watchdog: an engine that
//! books only full batches never balances the books here, and the run
//! would spin instead of returning.

use rsched_core::algorithms::sssp::{concurrent_sssp, dijkstra};
use rsched_core::framework::{
    fill_scheduler, run_concurrent_batched, run_exact_concurrent, ConcurrentAlgorithm, TaskOutcome,
};
use rsched_core::service::{run_service, AlgorithmHandler, Producer, ProducerFn, ServiceConfig};
use rsched_core::TaskId;
use rsched_graph::{Permutation, WeightedCsr};
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Tasks per case: fewer decisions than one batch, for every worker.
const TASKS: u32 = 5;

/// Runs `case` on a thread of its own and fails if it has not returned
/// within 30 s; a panic inside it is re-raised here.
fn within_watchdog(what: &str, case: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(case)));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(result) => result.unwrap_or_else(|panic| resume_unwind(panic)),
        Err(_) => panic!("{what}: still running after 30 s — decisions were never booked"),
    }
}

/// Independent tasks, each processed once.
struct Independent(AtomicUsize);

impl ConcurrentAlgorithm for Independent {
    fn num_tasks(&self) -> usize {
        TASKS as usize
    }
    fn try_process(&self, _task: TaskId) -> TaskOutcome {
        self.0.fetch_add(1, Ordering::Relaxed);
        TaskOutcome::Processed
    }
}

#[test]
fn a_few_tasks_drain_a_prefill_run() {
    for threads in [2, 4] {
        for batch in [1, 8] {
            within_watchdog("run_concurrent_batched", move || {
                let pi = Permutation::identity(TASKS as usize);
                let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
                fill_scheduler(&sched, &pi);
                let alg = Independent(AtomicUsize::new(0));
                let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!((stats.processed, stats.obsolete), (u64::from(TASKS), 0));
                assert_eq!(alg.0.load(Ordering::Relaxed), TASKS as usize);
            });
        }
    }
}

#[test]
fn a_few_tasks_drain_an_exact_run() {
    for threads in [2, 4] {
        within_watchdog("run_exact_concurrent", move || {
            let alg = Independent(AtomicUsize::new(0));
            let stats = run_exact_concurrent(&alg, &Permutation::identity(TASKS as usize), threads);
            assert_eq!(stats.processed, u64::from(TASKS));
        });
    }
}

#[test]
fn a_few_requests_drain_a_service_run() {
    for workers in [2, 4] {
        within_watchdog("run_service", move || {
            let sched: ShardedScheduler<MultiQueue<TaskId>> =
                ShardedScheduler::from_fn(workers, |_| MultiQueue::new(2));
            let producers: Vec<ProducerFn<'_>> = vec![Box::new(|prod: Producer<'_>| {
                for t in 0..TASKS {
                    prod.push(u64::from(t), t).unwrap();
                }
            })];
            let alg = Independent(AtomicUsize::new(0));
            let config = ServiceConfig { workers, flush_batch: 2, ..Default::default() };
            let stats = run_service(&AlgorithmHandler(&alg), &sched, &config, producers);
            assert!(stats.exactly_once(), "{stats:?}");
            assert_eq!(stats.processed, u64::from(TASKS));
        });
    }
}

#[test]
fn a_short_path_drains_a_sealed_run() {
    for threads in [2, 4] {
        within_watchdog("concurrent_sssp", move || {
            // A path: each vertex's request spawns its successor's, so at
            // most one task is ever queued and most pops come back empty.
            let g =
                WeightedCsr::from_weighted_edges(TASKS as usize, (1..TASKS).map(|v| (v - 1, v, v)));
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
            assert_eq!(concurrent_sssp(&g, 0, &sched, threads), dijkstra(&g, 0));
        });
    }
}
