//! Bring-your-own algorithm: the fully generic explicit-DAG entry point
//! (§2.2 of the paper, verbatim). Hand the framework any conflict graph, a
//! priority permutation to orient it, and a `Process(v)` closure — the
//! closure's view of its predecessors is scheduler-independent.
//!
//! Here: dependency-chain depth (the "iteration depth" the parallelism
//! literature studies) computed over a random DAG, identical under an exact
//! heap, a heavily relaxed scheduler in the sequential model, and a
//! concurrent MultiQueue on threads. The closure runs on whichever worker
//! popped the task, so the depths live in a `Vec<AtomicU32>`.
//!
//! Run with: `cargo run --release --example custom_dag`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::explicit_dag::ExplicitDag;
use rsched::core::framework::{fill_scheduler, run_concurrent, run_relaxed};
use rsched::core::TaskId;
use rsched::graph::{gen, CsrGraph, Permutation};
use rsched::queues::concurrent::MultiQueue;
use rsched::queues::exact::BinaryHeapScheduler;
use rsched::queues::relaxed::SimMultiQueue;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

type Process<'a> = &'a (dyn Fn(TaskId, &[TaskId]) + Sync);

/// Chain depths of `g` oriented by `pi`, computed by whichever executor
/// `run` hands the task oracle to; returned with `run`'s own result.
fn chain_depths<R>(
    g: &CsrGraph,
    pi: &Permutation,
    run: impl FnOnce(&ExplicitDag<'_, Process<'_>>) -> R,
) -> (Vec<u32>, R) {
    let depth: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
    let process = |v: TaskId, preds: &[TaskId]| {
        let d = preds.iter().map(|&u| depth[u as usize].load(Relaxed) + 1).max().unwrap_or(0);
        depth[v as usize].store(d, Relaxed);
    };
    let result = run(&ExplicitDag::new(g, pi, &process));
    (depth.into_iter().map(AtomicU32::into_inner).collect(), result)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(33);
    let n = 50_000;
    let g = gen::gnm(n, 500_000, &mut rng);
    let pi = Permutation::random(n, &mut rng);

    let (exact, _) = chain_depths(&g, &pi, |t| run_relaxed(t, &pi, BinaryHeapScheduler::new()));
    let max_depth = exact.iter().max().copied().unwrap_or(0);
    println!(
        "random G({n}, 500k) oriented by a random permutation: dependency depth = {max_depth}"
    );
    println!("(the paper's premise: greedy dependency DAGs are shallow — O(log n) whp)");

    // The sequential model: one thread, a 64-relaxed scheduler.
    let sched = SimMultiQueue::new(64, StdRng::seed_from_u64(1));
    let (relaxed, stats) = chain_depths(&g, &pi, |t| run_relaxed(t, &pi, sched));
    assert_eq!(relaxed, exact);
    let extra = stats.extra_iterations();
    println!("64-relaxed MultiQueue model: identical depths, {extra} extra iterations");

    // The same oracle on threads, over a concurrent MultiQueue.
    let sched: MultiQueue<TaskId> = MultiQueue::for_threads(2);
    fill_scheduler(&sched, &pi);
    let (threaded, stats) = chain_depths(&g, &pi, |t| run_concurrent(t, &pi, &sched, 2));
    assert_eq!(threaded, exact);
    let extra = stats.extra_iterations();
    println!("concurrent MultiQueue, 2 threads: identical depths, {extra} extra iterations");

    println!("\nAny DAG + any Process(v) closure runs deterministically under relaxation.");
}
