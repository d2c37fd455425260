//! Sequential-model executors: Algorithm 1 (exact) and Algorithms 2/4
//! (relaxed), driving the same [`ConcurrentAlgorithm::try_process`] the
//! thread executors call. The relaxed loop pops one task per iteration, as
//! the paper's analysis does; runs of pops are the thread executors'.

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
/// Panics if `pi.len() != alg.num_tasks()`, or if a task is `Blocked` when
/// reached (which would mean the algorithm's dependencies contradict the
/// priority orientation).
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
/// One pop per iteration, as in the paper's sequential model: batching
/// belongs to the thread executors ([`super::run_concurrent_batched`]),
/// where a run of pops is the unit of synchronization.
///
/// The run ends when the scheduler is empty, and then audits the ledger
/// the thread executors terminate on: each of the `n` entries must have
/// reached exactly one terminal outcome, `processed + obsolete == n` — a
/// scheduler that loses or duplicates an entry fails it.
///
/// # Panics
///
/// Panics if `pi.len() != alg.num_tasks()`, or if the ledger is out of
/// balance once the scheduler has drained.
pub fn run_relaxed<A, S>(alg: &A, pi: &Permutation, mut sched: S) -> ExecutionStats
where
    A: ConcurrentAlgorithm,
    S: PriorityScheduler<TaskId>,
{
    let n = alg.num_tasks();
    assert_eq!(n, pi.len(), "permutation size must match task count");
    for v in 0..n as u32 {
        sched.insert(pi.label(v) as u64, v);
    }
    let mut stats = ExecutionStats::new(n);
    while let Some((priority, v)) = sched.pop() {
        stats.total_pops += 1;
        match alg.try_process(v) {
            TaskOutcome::Processed => stats.processed += 1,
            TaskOutcome::Blocked => {
                stats.wasted += 1;
                sched.insert(priority, v); // a failed delete
            }
            TaskOutcome::Obsolete => stats.obsolete += 1,
        }
    }
    // The probes read the run's own tallies, once: nothing reads them
    // mid-run.
    rsched_obs::counter!(r#"seq_pop_total{outcome="success"}"#).add(stats.processed);
    rsched_obs::counter!(r#"seq_pop_total{outcome="blocked"}"#).add(stats.wasted);
    rsched_obs::counter!(r#"seq_pop_total{outcome="obsolete"}"#).add(stats.obsolete);
    assert_eq!(
        stats.processed + stats.obsolete,
        n as u64,
        "scheduler drained with the ledger out of balance: an entry was lost or duplicated"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::mis::{greedy_mis, ConcurrentMis};
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

    /// Hands every entry through, except that it drops the victim's (`.2`)
    /// unseen the first time it pops it after the vertex died.
    struct LosesDeadEntry<'a, S>(S, &'a ConcurrentMis<'a>, TaskId);

    impl<S: PriorityScheduler<TaskId>> PriorityScheduler<TaskId> for LosesDeadEntry<'_, S> {
        fn insert(&mut self, priority: u64, item: TaskId) {
            self.0.insert(priority, item);
        }
        fn pop(&mut self) -> Option<(u64, TaskId)> {
            let e = self.0.pop()?;
            if e.1 != self.2 || !self.1.is_obsolete(e.1) {
                return Some(e);
            }
            self.2 = TaskId::MAX;
            self.0.pop()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// A lost entry of an already-decided task leaves the output intact;
    /// only the ledger notices.
    #[test]
    #[should_panic(expected = "ledger out of balance")]
    fn a_lost_dead_entry_fails_the_ledger() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = rsched_graph::gen::gnm(60, 180, &mut rng);
        let pi = Permutation::random(60, &mut rng);
        let victim = greedy_mis(&g, &pi).iter().position(|&inside| !inside).unwrap() as TaskId;
        let alg = ConcurrentMis::new(&g, &pi);
        let inner = TopKUniform::new(4, StdRng::seed_from_u64(1));
        let _ = run_relaxed(&alg, &pi, LosesDeadEntry(inner, &alg, victim));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn size_mismatch_panics() {
        let pi = Permutation::identity(3);
        let pi_small = Permutation::identity(2);
        let _ = run_exact(&Chain::new(&pi), &pi_small);
    }
}
