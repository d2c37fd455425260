//! Single-layer probes of the traced run: short measurements that hold
//! everything but one layer still. All run on the calling thread.

use crate::stats::quantile_sorted;
use rsched_core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched_core::TaskId;
use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::lock::{Lock, McsLock};
use rsched_queues::reclaim::Reclaim;
use rsched_queues::ConcurrentScheduler;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Priorities in a rank-error probe.
pub const RANK_PROBE_TASKS: u32 = 100_000;
/// Elements in a reclamation pop probe.
const RECLAIM_PROBE_TASKS: u32 = 200_000;

/// The `(priority, task)` entries `0..n` of a probe: task = priority.
pub fn identity_entries(n: u32) -> impl Iterator<Item = (u64, TaskId)> {
    (0..n).map(|p| (u64::from(p), p))
}

/// Counts of present keys with prefix sums (a Fenwick tree).
struct Present {
    tree: Vec<u32>,
}

impl Present {
    /// All of `0..n` present.
    fn full(n: usize) -> Self {
        let mut tree = vec![0u32; n + 1];
        for i in 1..=n {
            tree[i] += 1;
            let up = i + (i & i.wrapping_neg());
            if up <= n {
                tree[up] += tree[i];
            }
        }
        Present { tree }
    }

    /// How many present keys are smaller than `key`.
    fn below(&self, key: usize) -> u32 {
        let (mut i, mut sum) = (key, 0);
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    fn remove(&mut self, key: usize) {
        let mut i = key + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }
}

/// Rank error of a scheduler (Definition 1): drains `sched`, which must
/// hold exactly the [`identity_entries`] of [`RANK_PROBE_TASKS`], with
/// `pop` on one thread, and ranks each popped priority among those still
/// queued (0 = it was the minimum). Returns `(mean, p99)`.
pub fn rank_error<S: ConcurrentScheduler<TaskId>>(sched: &S) -> (f64, f64) {
    let n = RANK_PROBE_TASKS as usize;
    let mut present = Present::full(n);
    let mut ranks: Vec<u64> = Vec::with_capacity(n);
    while let Some((priority, _)) = sched.pop() {
        ranks.push(u64::from(present.below(priority as usize)));
        present.remove(priority as usize);
    }
    assert_eq!(ranks.len(), n, "rank probe: scheduler lost or duplicated entries");
    let mean = ranks.iter().sum::<u64>() as f64 / n as f64;
    ranks.sort_unstable();
    (mean, quantile_sorted(&ranks, 0.99) as f64)
}

/// ns per `pop` draining a prefilled lock-free MultiQueue over backend `R`
/// (built with `prefilled_in`: scalar `insert` walks the sorted list, see
/// the README's traps).
pub fn reclaim_pop_ns<R: Reclaim>() -> f64 {
    let q: LockFreeMultiQueue<TaskId, R> =
        LockFreeMultiQueue::prefilled_in(4, identity_entries(RECLAIM_PROBE_TASKS));
    let start = Instant::now();
    let mut popped = 0u32;
    while let Some(e) = q.pop() {
        black_box(e);
        popped += 1;
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(popped, RECLAIM_PROBE_TASKS);
    ns / f64::from(popped)
}

/// ns per acquire + release of one uncontended MCS lock.
pub fn mcs_uncontended_ns() -> f64 {
    const ROUNDS: u32 = 1_000_000;
    let lock: Lock<McsLock, u64> = Lock::new(0);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        *black_box(&lock).lock() += 1;
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(lock.into_inner(), u64::from(ROUNDS));
    ns / f64::from(ROUNDS)
}

/// The algorithm that does nothing: every task is `Processed` at its first
/// pop. Run through the real scheduler and engine it gives the floor of
/// those two layers.
pub struct NoopAlg {
    tasks: usize,
    remaining: AtomicUsize,
}

impl NoopAlg {
    pub fn new(tasks: usize) -> Self {
        NoopAlg { tasks, remaining: AtomicUsize::new(tasks) }
    }
}

impl ConcurrentAlgorithm for NoopAlg {
    fn num_tasks(&self) -> usize {
        self.tasks
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, _task: TaskId) -> TaskOutcome {
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        TaskOutcome::Processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_queues::concurrent::MultiQueue;

    #[test]
    fn fenwick_counts_smaller_present_keys() {
        let mut p = Present::full(10);
        assert_eq!(p.below(0), 0);
        assert_eq!(p.below(10), 10);
        p.remove(3);
        p.remove(0);
        assert_eq!(p.below(4), 2);
        assert_eq!(p.below(10), 8);
    }

    #[test]
    fn an_exact_scheduler_has_no_rank_error() {
        let q: MultiQueue<TaskId> = MultiQueue::new(1);
        for (p, t) in identity_entries(RANK_PROBE_TASKS) {
            q.insert(p, t);
        }
        assert_eq!(rank_error(&q), (0.0, 0.0));
    }
}
