//! The exact concurrent executor: the paper's comparison framework.
//!
//! Tasks are loaded into a wait-free FIFO queue in priority order
//! ([`rsched_queues::concurrent::FaaArrayQueue`], standing in for \[27\]).
//! "Since there could still be some reordering of tasks due to concurrency,
//! we elect to use a backoff scheme wherein if an unprocessed predecessor is
//! encountered, we wait for the predecessor to process." (§4)

use super::concurrent::{run_workers, EngineTotals};
use super::{ConcurrentAlgorithm, TaskOutcome};
use crate::stats::ConcurrentStats;
use crossbeam::utils::Backoff;
use rsched_graph::Permutation;
use rsched_queues::concurrent::FaaArrayQueue;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Runs `alg` on `threads` workers popping tasks in exact priority order.
///
/// A popped task is spun on (with exponential backoff) until its
/// predecessors are processed; `wasted` counts those backoff retries, the
/// exact analogue of the relaxed framework's failed deletes.
///
/// # Panics
///
/// Panics if `threads == 0` or `pi.len() != alg.num_tasks()`, and re-raises
/// a panicking `try_process` after every other worker has stopped waiting
/// on the task it left undecided.
pub fn run_exact_concurrent<A>(alg: &A, pi: &Permutation, threads: usize) -> ConcurrentStats
where
    A: ConcurrentAlgorithm,
{
    let n = alg.num_tasks();
    assert_eq!(n, pi.len(), "permutation size must match task count");
    let queue = FaaArrayQueue::from_sorted(
        (0..n as u32).map(|pos| (pos as u64, pi.task_at(pos))).collect(),
    );
    let start = Instant::now();
    let t = run_workers(threads, |_, poisoned| {
        let mut c = EngineTotals::default();
        while let Some((_, v)) = queue.pop() {
            c.pops += 1;
            let backoff = Backoff::new();
            loop {
                match alg.try_process(v) {
                    TaskOutcome::Processed => {
                        c.processed += 1;
                        break;
                    }
                    TaskOutcome::Obsolete => {
                        c.obsolete += 1;
                        break;
                    }
                    TaskOutcome::Blocked => {
                        // The predecessor may be the task a panicked worker
                        // left undecided; read only here, off the hot path.
                        if poisoned.load(Ordering::Relaxed) {
                            return c;
                        }
                        // Wait for the predecessor (paper's backoff).
                        c.wasted += 1;
                        backoff.snooze();
                    }
                }
            }
        }
        c
    });
    ConcurrentStats {
        tasks: n,
        threads,
        total_pops: t.pops,
        processed: t.processed,
        wasted: t.wasted,
        obsolete: t.obsolete,
        purged: 0,
        empty_pops: 0,
        elapsed: start.elapsed(),
    }
}
