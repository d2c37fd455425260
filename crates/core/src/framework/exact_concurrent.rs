//! The exact concurrent executor: the paper's comparison framework, on the
//! relaxed executor's worker engine with an exact-order scheduler.
//!
//! Tasks are claimed in priority order by one fetch-and-add cursor over the
//! permutation's order, standing in for the wait-free queue of \[27\]
//! (DESIGN.md substitution #2). "Since there could still be some reordering
//! of tasks due to concurrency, we elect to use a backoff scheme wherein if
//! an unprocessed predecessor is encountered, we wait for the predecessor to
//! process." (§4) Here the wait is a retry: the engine re-inserts a
//! `Blocked` task like any failed delete, into a small locked heap that
//! every pop drains first, lowest label first, so the order stays exact and
//! the scheduler is the only difference from [`super::run_concurrent`]. The
//! backoff is the engine's: a worker whose whole run blocked snoozes before
//! it pops again, so it does not re-pop its retry while the predecessor's
//! worker still holds it.

use super::concurrent::run_concurrent_batched;
use super::ConcurrentAlgorithm;
use crate::stats::ConcurrentStats;
use crate::TaskId;
use crossbeam::utils::CachePadded;
use rsched_graph::Permutation;
use rsched_queues::exact::BinaryHeapScheduler;
use rsched_queues::{ConcurrentScheduler, PriorityScheduler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The exact-order scheduler: a cursor over the tasks in label order, with
/// the label as priority, plus the retry heap of re-inserted tasks.
struct ExactOrder<'p> {
    order: &'p [TaskId],
    /// The next position of `order` to claim; runs past its end once every
    /// task is claimed.
    cursor: CachePadded<AtomicUsize>,
    retry: Mutex<BinaryHeapScheduler<TaskId>>,
    /// `retry`'s length, so that a pop finds the heap empty with one load.
    retry_len: AtomicUsize,
}

impl<'p> ExactOrder<'p> {
    fn new(pi: &'p Permutation) -> Self {
        ExactOrder {
            order: pi.order(),
            cursor: CachePadded::new(AtomicUsize::new(0)),
            retry: Mutex::new(BinaryHeapScheduler::new()),
            retry_len: AtomicUsize::new(0),
        }
    }
}

impl ConcurrentScheduler<TaskId> for ExactOrder<'_> {
    fn insert(&self, priority: u64, task: TaskId) {
        self.insert_batch(&[(priority, task)]);
    }

    fn insert_batch(&self, entries: &[(u64, TaskId)]) {
        let mut retry = self.retry.lock().expect("no heap operation panics");
        for &(priority, task) in entries {
            retry.insert(priority, task);
        }
        self.retry_len.store(retry.len(), Ordering::Relaxed);
    }

    /// A retried task first: every one was claimed before the cursor's next.
    fn pop(&self) -> Option<(u64, TaskId)> {
        if self.retry_len.load(Ordering::Relaxed) > 0 {
            let mut retry = self.retry.lock().expect("no heap operation panics");
            if let Some(e) = retry.pop() {
                self.retry_len.store(retry.len(), Ordering::Relaxed);
                return Some(e);
            }
        }
        let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.order.get(pos).map(|&task| (pos as u64, task))
    }

    /// Skips every claimed task `obsolete` reports decided, so a run of
    /// decided tasks costs the engine one booking instead of one per task.
    fn pop_purging_for<F>(
        &self,
        _worker: usize,
        out: &mut Vec<(u64, TaskId)>,
        max: usize,
        obsolete: F,
    ) -> (usize, usize)
    where
        F: Fn(u64, &TaskId) -> bool,
    {
        let (mut live, mut purged) = (0, 0);
        while live < max {
            let Some((priority, task)) = self.pop() else { break };
            if obsolete(priority, &task) {
                purged += 1;
            } else {
                out.push((priority, task));
                live += 1;
            }
        }
        (live, purged)
    }
}

/// Runs `alg` on `threads` workers taking tasks in exact priority order.
///
/// A popped task whose predecessor is not yet processed is retried: it
/// goes back to the scheduler, which hands it out again before any later
/// task. `wasted` counts those retries, the exact analogue of the relaxed
/// framework's failed deletes, and every retry is a pop, so `total_pops ==
/// processed + wasted + obsolete` here too.
///
/// # Panics
///
/// Panics if `threads == 0` or `pi.len() != alg.num_tasks()`, and re-raises
/// a panicking `try_process` after every other worker has stopped.
pub fn run_exact_concurrent<A>(alg: &A, pi: &Permutation, threads: usize) -> ConcurrentStats
where
    A: ConcurrentAlgorithm,
{
    run_concurrent_batched(alg, pi, &ExactOrder::new(pi), threads, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::mis::ConcurrentMis;
    use crate::framework::testing::Chain;
    use rand::{rngs::StdRng, SeedableRng};
    use rsched_graph::gen;

    /// Once the centre (label 0) is in, every leaf is decided: the scheduler
    /// purges all of them, and no task is ever retried.
    #[test]
    fn star_leaves_are_purged_in_exact_order() {
        let n = 1_000;
        let (g, pi) = (gen::star(n), Permutation::identity(n));
        let alg = ConcurrentMis::new(&g, &pi);
        let stats = run_exact_concurrent(&alg, &pi, 1);
        let n = n as u64;
        assert_eq!((stats.processed, stats.purged, stats.wasted), (1, n - 1, 0), "{stats}");
        assert_eq!((stats.obsolete, stats.total_pops), (n - 1, n), "{stats}");
        let out = alg.into_output();
        assert!(out[0] && !out[1..].iter().any(|&inside| inside));
    }

    /// A chain is processed in label order at any thread count, and every
    /// retry is a pop.
    #[test]
    fn chain_is_processed_in_label_order() {
        let pi = Permutation::random(2_000, &mut StdRng::seed_from_u64(4));
        for threads in [1, 4] {
            let alg = Chain::new(&pi);
            let stats = run_exact_concurrent(&alg, &pi, threads);
            assert_eq!((stats.processed, stats.obsolete), (2_000, 0), "t={threads}");
            assert_eq!(stats.total_pops, stats.processed + stats.wasted, "t={threads}");
            assert!(threads > 1 || stats.wasted == 0, "t=1 retried in exact order");
            assert_eq!(alg.into_log(), pi.order(), "t={threads}");
        }
    }
}
