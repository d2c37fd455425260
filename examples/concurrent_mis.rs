//! The paper's §4 headline experiment in miniature: concurrent MIS with a
//! relaxed MultiQueue scheduler vs the exact FAA-queue scheduler vs the
//! sequential baseline, on one graph.
//!
//! Run with: `cargo run --release --example concurrent_mis`
//! (See `cargo run --release -p rsched-bench --bin figure2` for the full
//! three-class reproduction of Figure 2.)

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched::core::framework::{fill_scheduler, run_concurrent, run_exact_concurrent};
use rsched::core::TaskId;
use rsched::graph::{gen, Permutation};
use rsched::queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    let n = 300_000;
    let g = gen::gnm(n, 3_000_000, &mut rng);
    let pi = Permutation::random(n, &mut rng);

    let t = Instant::now();
    let expected = greedy_mis(&g, &pi);
    let seq = t.elapsed();
    println!("sequential greedy: {:?} (MIS size {})", seq, expected.iter().filter(|&&b| b).count());

    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
    println!("running with {threads} threads\n");

    // Relaxed: lock-based MultiQueue (the paper's main scheduler).
    let alg = ConcurrentMis::new(&g, &pi);
    let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
    fill_scheduler(&sched, &pi);
    let stats = run_concurrent(&alg, &pi, &sched, threads);
    assert_eq!(alg.into_output(), expected);
    println!("relaxed MultiQueue:        {stats}");

    // Relaxed: the lock-free MultiQueue over Harris lists (§4's variant).
    let alg = ConcurrentMis::new(&g, &pi);
    let sched: LockFreeMultiQueue<TaskId> =
        LockFreeMultiQueue::prefilled(4 * threads, (0..n as u32).map(|v| (pi.label(v) as u64, v)));
    let stats = run_concurrent(&alg, &pi, &sched, threads);
    assert_eq!(alg.into_output(), expected);
    println!("relaxed LF-MultiQueue:     {stats}");

    // Exact: FAA array queue with predecessor backoff.
    let alg = ConcurrentMis::new(&g, &pi);
    let stats = run_exact_concurrent(&alg, &pi, threads);
    assert_eq!(alg.into_output(), expected);
    println!("exact FAA queue + backoff: {stats}");

    println!("\nAll three produce the identical deterministic MIS.");
}
