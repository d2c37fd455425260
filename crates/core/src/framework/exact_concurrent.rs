//! The exact concurrent executor: the paper's comparison framework.
//!
//! Tasks are loaded into a wait-free FIFO queue in priority order
//! ([`rsched_queues::concurrent::FaaArrayQueue`], standing in for \[27\]).
//! "Since there could still be some reordering of tasks due to concurrency,
//! we elect to use a backoff scheme wherein if an unprocessed predecessor is
//! encountered, we wait for the predecessor to process." (§4)

use super::{ConcurrentAlgorithm, TaskOutcome};
use crate::stats::ConcurrentStats;
use crossbeam::utils::Backoff;
use rsched_graph::Permutation;
use rsched_queues::concurrent::FaaArrayQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Runs `alg` on `threads` workers popping tasks in exact priority order.
///
/// A popped task is spun on (with exponential backoff) until its
/// predecessors are processed; `wasted` counts those backoff retries, the
/// exact analogue of the relaxed framework's failed deletes.
///
/// # Panics
///
/// Panics if `threads == 0` or `pi.len() != alg.num_tasks()`.
pub fn run_exact_concurrent<A>(alg: &A, pi: &Permutation, threads: usize) -> ConcurrentStats
where
    A: ConcurrentAlgorithm,
{
    assert!(threads >= 1, "need at least one worker");
    let n = alg.num_tasks();
    assert_eq!(n, pi.len(), "permutation size must match task count");
    let queue = FaaArrayQueue::from_sorted(
        (0..n as u32).map(|pos| (pos as u64, pi.task_at(pos))).collect(),
    );
    let pops = AtomicU64::new(0);
    let processed = AtomicU64::new(0);
    let wasted = AtomicU64::new(0);
    let obsolete = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let queue = &queue;
            s.spawn(|| {
                let (mut l_pops, mut l_proc, mut l_waste, mut l_obs) = (0u64, 0u64, 0u64, 0u64);
                while let Some((_, v)) = queue.pop() {
                    l_pops += 1;
                    let backoff = Backoff::new();
                    loop {
                        match alg.try_process(v) {
                            TaskOutcome::Processed => {
                                l_proc += 1;
                                break;
                            }
                            TaskOutcome::Obsolete => {
                                l_obs += 1;
                                break;
                            }
                            TaskOutcome::Blocked => {
                                // Wait for the predecessor (paper's backoff).
                                l_waste += 1;
                                backoff.snooze();
                            }
                        }
                    }
                }
                pops.fetch_add(l_pops, Ordering::Relaxed);
                processed.fetch_add(l_proc, Ordering::Relaxed);
                wasted.fetch_add(l_waste, Ordering::Relaxed);
                obsolete.fetch_add(l_obs, Ordering::Relaxed);
            });
        }
    });
    ConcurrentStats {
        tasks: n,
        threads,
        total_pops: pops.into_inner(),
        processed: processed.into_inner(),
        wasted: wasted.into_inner(),
        obsolete: obsolete.into_inner(),
        purged: 0,
        empty_pops: 0,
        elapsed: start.elapsed(),
    }
}
