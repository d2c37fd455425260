//! Sequential-model executors: Algorithm 1 (exact) and Algorithms 2/4
//! (relaxed), driving the same [`ConcurrentAlgorithm::try_process`] the
//! thread executors call.

use super::{ConcurrentAlgorithm, TaskOutcome};
use crate::stats::ExecutionStats;
use crate::TaskId;
use rsched_graph::Permutation;
use rsched_queues::PriorityScheduler;

/// Algorithm 1: processes tasks in exact permutation order with no queue at
/// all — the optimized sequential baseline of the paper's experiments.
///
/// # Panics
///
/// Panics if `pi.len() != alg.num_tasks()`, if a task is `Blocked` when
/// reached (which would mean the algorithm's dependencies contradict the
/// priority orientation), or if `alg.remaining()` is not zero at the end.
pub fn run_exact<A>(alg: &A, pi: &Permutation) -> ExecutionStats
where
    A: ConcurrentAlgorithm,
{
    let n = alg.num_tasks();
    assert_eq!(n, pi.len(), "permutation size must match task count");
    let mut stats = ExecutionStats::new(n);
    for pos in 0..n as u32 {
        let v = pi.task_at(pos);
        stats.total_pops += 1;
        match alg.try_process(v) {
            TaskOutcome::Processed => stats.processed += 1,
            TaskOutcome::Obsolete => stats.obsolete += 1,
            TaskOutcome::Blocked => unreachable!(
                "task {v} blocked in exact order: dependency orientation violates priorities"
            ),
        }
    }
    assert_eq!(alg.remaining(), 0, "every task popped, yet some are undecided");
    stats
}

/// Algorithms 2 and 4: the relaxed scheduling framework.
///
/// Loads every task into `sched` with its permutation label as priority,
/// then repeatedly pops: a task with no unprocessed predecessor is
/// processed, a `Blocked` task is re-inserted with the same priority (a
/// failed delete), an `Obsolete` task is dropped. The algorithm's output is
/// identical to the one [`run_exact`] leaves for the same `pi`
/// irrespective of the scheduler's relaxation — that is the paper's central
/// determinism claim, and the test suite checks it for every algorithm and
/// scheduler combination.
///
/// This is [`run_relaxed_batched`] at batch size 1: one pop, one
/// `try_process`, one conditional re-insert per iteration.
///
/// # Panics
///
/// As [`run_relaxed_batched`].
pub fn run_relaxed<A, S>(alg: &A, pi: &Permutation, sched: S) -> ExecutionStats
where
    A: ConcurrentAlgorithm,
    S: PriorityScheduler<TaskId>,
{
    run_relaxed_batched(alg, pi, sched, 1)
}

/// [`run_relaxed`] with a batch size: pops a batch of up to `batch_size`
/// tasks, processes them in pop order, and re-inserts all failed deletes of
/// the batch in one [`PriorityScheduler::insert_batch`].
///
/// This is the sequential *simulation* of the batched concurrent executor:
/// a batch is popped in full before any of its tasks is processed, so the
/// effective relaxation grows by the batch size (a `k`-relaxed scheduler
/// drives the run like an `O(k·batch_size)`-relaxed one) while the output
/// stays identical to [`run_exact`]'s — the paper's determinism claim is
/// insensitive to relaxation, batched or not. At `batch_size == 1` every
/// `pop_batch` / `insert_batch` override must degenerate to its scalar
/// `pop` / `insert` — same element, same RNG draws — which
/// `tests/determinism.rs` pins against a scalar reference loop for every
/// scheduler that overrides either.
///
/// The run ends when the scheduler is empty, and then audits the counter
/// the thread executors terminate on: `alg.remaining()` must be zero.
///
/// # Panics
///
/// Panics if `batch_size == 0`, if `pi.len() != alg.num_tasks()`, or if
/// `alg.remaining()` is not zero once the scheduler has drained.
pub fn run_relaxed_batched<A, S>(
    alg: &A,
    pi: &Permutation,
    mut sched: S,
    batch_size: usize,
) -> ExecutionStats
where
    A: ConcurrentAlgorithm,
    S: PriorityScheduler<TaskId>,
{
    assert!(batch_size >= 1, "need a positive batch size");
    let n = alg.num_tasks();
    assert_eq!(n, pi.len(), "permutation size must match task count");
    for v in 0..n as u32 {
        sched.insert(pi.label(v) as u64, v);
    }
    let mut stats = ExecutionStats::new(n);
    let mut batch: Vec<(u64, TaskId)> = Vec::with_capacity(batch_size);
    let mut blocked: Vec<(u64, TaskId)> = Vec::with_capacity(batch_size);
    loop {
        batch.clear();
        if sched.pop_batch(&mut batch, batch_size) == 0 {
            break;
        }
        for &(priority, v) in &batch {
            stats.total_pops += 1;
            match alg.try_process(v) {
                TaskOutcome::Processed => {
                    stats.processed += 1;
                    rsched_obs::counter!(r#"seq_pop_total{outcome="success"}"#).inc();
                }
                TaskOutcome::Blocked => {
                    stats.wasted += 1;
                    rsched_obs::counter!(r#"seq_pop_total{outcome="blocked"}"#).inc();
                    blocked.push((priority, v));
                }
                TaskOutcome::Obsolete => {
                    stats.obsolete += 1;
                    rsched_obs::counter!(r#"seq_pop_total{outcome="obsolete"}"#).inc();
                }
            }
        }
        if !blocked.is_empty() {
            sched.insert_batch(&blocked); // failed deletes; one bulk re-insert
            blocked.clear();
        }
    }
    assert_eq!(alg.remaining(), 0, "scheduler drained, yet some tasks are undecided");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::Chain;
    use rsched_queues::exact::BinaryHeapScheduler;
    use rsched_queues::relaxed::TopKUniform;

    fn exact_log(pi: &Permutation) -> Vec<TaskId> {
        let alg = Chain::new(pi);
        run_exact(&alg, pi);
        alg.into_log()
    }

    #[test]
    fn exact_runs_n_iterations() {
        let pi = Permutation::from_order(vec![2, 0, 1]);
        let alg = Chain::new(&pi);
        let stats = run_exact(&alg, &pi);
        assert_eq!(alg.into_log(), vec![2, 0, 1]);
        assert_eq!(stats.total_pops, 3);
        assert_eq!(stats.wasted, 0);
        assert_eq!(stats.extra_iterations(), 0);
    }

    #[test]
    fn relaxed_chain_is_deterministic_and_counts_waste() {
        use rand::{rngs::StdRng, SeedableRng};
        let pi = Permutation::random(50, &mut StdRng::seed_from_u64(4));
        let exact_log = exact_log(&pi);
        for seed in 0..5 {
            let sched = TopKUniform::new(8, StdRng::seed_from_u64(seed));
            let alg = Chain::new(&pi);
            let stats = run_relaxed(&alg, &pi, sched);
            // A full chain forces processing in exact label order.
            assert_eq!(alg.into_log(), exact_log);
            assert_eq!(stats.processed, 50);
            assert_eq!(stats.total_pops, 50 + stats.wasted);
        }
    }

    #[test]
    fn relaxed_with_exact_queue_matches_exact() {
        let pi = Permutation::from_order(vec![1, 0, 3, 2]);
        let alg_a = Chain::new(&pi);
        let stats_a = run_exact(&alg_a, &pi);
        let alg_b = Chain::new(&pi);
        let stats_b = run_relaxed(&alg_b, &pi, BinaryHeapScheduler::new());
        assert_eq!(alg_a.into_log(), alg_b.into_log());
        assert_eq!(stats_b.wasted, 0);
        assert_eq!(stats_a.total_pops, stats_b.total_pops);
    }

    #[test]
    fn batched_chain_is_deterministic_across_batch_sizes() {
        use rand::{rngs::StdRng, SeedableRng};
        let pi = Permutation::random(60, &mut StdRng::seed_from_u64(9));
        let exact_log = exact_log(&pi);
        for batch in [1usize, 2, 4, 8, 64] {
            let sched = TopKUniform::new(6, StdRng::seed_from_u64(batch as u64));
            let alg = Chain::new(&pi);
            let stats = run_relaxed_batched(&alg, &pi, sched, batch);
            assert_eq!(alg.into_log(), exact_log, "batch={batch}");
            assert_eq!(stats.processed, 60);
            assert_eq!(stats.total_pops, 60 + stats.wasted + stats.obsolete);
        }
    }

    #[test]
    #[should_panic(expected = "positive batch size")]
    fn zero_batch_size_panics() {
        let pi = Permutation::identity(3);
        let _ = run_relaxed_batched(&Chain::new(&pi), &pi, BinaryHeapScheduler::new(), 0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn size_mismatch_panics() {
        let pi = Permutation::identity(3);
        let pi_small = Permutation::identity(2);
        let _ = run_exact(&Chain::new(&pi), &pi_small);
    }
}
