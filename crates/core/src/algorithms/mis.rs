//! Greedy maximal independent set — the paper's Algorithm 4.
//!
//! A vertex joins the MIS iff no smaller-labeled neighbor joined before it.
//! Algorithm 4's refinement over the generic framework: once a neighbor of
//! `v` enters the MIS, `v` is *dead* — it can never join, so its dependents
//! need not wait for it, and the scheduler drops it on sight instead of
//! re-inserting. Theorem 2 shows this makes the relaxation cost `poly(k)`,
//! independent of the graph.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use crossbeam::utils::CachePadded;
use rsched_graph::{CsrGraph, Permutation};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

const LIVE: u8 = 0;
const IN_MIS: u8 = 1;
const DEAD: u8 = 2;

/// The sequential greedy MIS for priority order `pi`: the ground truth every
/// relaxed and concurrent execution must reproduce.
///
/// # Panics
///
/// Panics if `pi.len() != g.num_vertices()`.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::mis::{greedy_mis, verify_mis};
/// use rsched_graph::{gen, Permutation};
///
/// let g = gen::path(4);
/// let pi = Permutation::identity(4);
/// let mis = greedy_mis(&g, &pi);
/// assert_eq!(mis, vec![true, false, true, false]);
/// assert!(verify_mis(&g, &mis));
/// ```
pub fn greedy_mis(g: &CsrGraph, pi: &Permutation) -> Vec<bool> {
    let n = g.num_vertices();
    assert_eq!(n, pi.len(), "permutation size must match vertex count");
    let mut in_mis = vec![false; n];
    let mut dead = vec![false; n];
    for pos in 0..n as u32 {
        let v = pi.task_at(pos);
        if dead[v as usize] {
            continue;
        }
        in_mis[v as usize] = true;
        for &u in g.neighbors(v) {
            dead[u as usize] = true;
        }
    }
    in_mis
}

/// Checks that `in_mis` is an independent set and maximal in `g`.
pub fn verify_mis(g: &CsrGraph, in_mis: &[bool]) -> bool {
    if in_mis.len() != g.num_vertices() {
        return false;
    }
    for v in g.vertices() {
        let vi = in_mis[v as usize];
        let mut has_mis_neighbor = false;
        for &u in g.neighbors(v) {
            if in_mis[u as usize] {
                if vi {
                    return false; // two adjacent MIS vertices
                }
                has_mis_neighbor = true;
            }
        }
        if !vi && !has_mis_neighbor {
            return false; // not maximal
        }
    }
    true
}

/// MIS as a framework instance (Algorithm 4's task oracle), thread-safe
/// with per-vertex atomic state. See the crate-level example for usage with
/// [`crate::framework::run_relaxed`].
///
/// Determinism argument: `InMis` and `Dead` are terminal states; a vertex
/// enters the MIS only after observing **all** smaller-labeled neighbors
/// `Dead`, and becomes `Dead` only from a smaller-labeled `InMis` neighbor.
/// By induction over labels the final state vector equals [`greedy_mis`] for
/// the same permutation, regardless of thread interleaving.
///
/// Hot-path contention: a kill tests the neighbor before the CAS (an
/// already-decided neighbor costs a shared read, not an exclusive line
/// fetch; the CAS winners are the same), and a call publishes everything it
/// decided with one `remaining` decrement *after* its last state CAS, so
/// `remaining` reaches 0 only once every decision is visible. `remaining`
/// is `CachePadded`: on the line of the `g` / `labels` / `state` headers,
/// each decrement would invalidate the line every `try_process` reads them
/// from, on every worker (DESIGN.md "Hot-path contention").
#[derive(Debug)]
pub struct ConcurrentMis<'a> {
    g: &'a CsrGraph,
    labels: &'a [u32],
    state: Vec<AtomicU8>,
    remaining: CachePadded<AtomicUsize>,
}

impl<'a> ConcurrentMis<'a> {
    /// Creates the instance; all vertices start live.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != g.num_vertices()`.
    pub fn new(g: &'a CsrGraph, pi: &'a Permutation) -> Self {
        let n = g.num_vertices();
        assert_eq!(n, pi.len(), "permutation size must match vertex count");
        ConcurrentMis {
            g,
            labels: pi.labels(),
            state: (0..n).map(|_| AtomicU8::new(LIVE)).collect(),
            remaining: CachePadded::new(AtomicUsize::new(n)),
        }
    }

    /// Extracts the MIS membership vector after the run.
    pub fn into_output(self) -> Vec<bool> {
        self.state.into_iter().map(|s| s.into_inner() == IN_MIS).collect()
    }
}

impl ConcurrentAlgorithm for ConcurrentMis<'_> {
    fn num_tasks(&self) -> usize {
        self.g.num_vertices()
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let v = task as usize;
        if self.is_obsolete(task) {
            return TaskOutcome::Obsolete;
        }
        let lv = self.labels[v];
        for &u in self.g.neighbors(task) {
            if self.labels[u as usize] >= lv {
                continue;
            }
            match self.state[u as usize].load(Ordering::Acquire) {
                LIVE => return TaskOutcome::Blocked,
                IN_MIS => {
                    // u joined but has not marked us dead yet: do it
                    // ourselves so the accounting stays exact.
                    if self.state[v]
                        .compare_exchange(LIVE, DEAD, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.remaining.fetch_sub(1, Ordering::AcqRel);
                    }
                    return TaskOutcome::Obsolete;
                }
                _ => {} // DEAD predecessor: decided, keep scanning
            }
        }
        // All smaller-labeled neighbors are Dead (terminal), so v is in the
        // greedy MIS; the CAS cannot lose to a concurrent kill (any killer
        // would need a smaller InMis neighbor, which we just ruled out).
        if self.state[v]
            .compare_exchange(LIVE, IN_MIS, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return TaskOutcome::Obsolete;
        }
        let mut decided = 1;
        for &u in self.g.neighbors(task) {
            let s = &self.state[u as usize];
            if s.load(Ordering::Acquire) == LIVE
                && s.compare_exchange(LIVE, DEAD, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                decided += 1;
            }
        }
        self.remaining.fetch_sub(decided, Ordering::AcqRel);
        TaskOutcome::Processed
    }

    /// A vertex leaves `LIVE` for a terminal state, and the call whose CAS
    /// moved it is the one that counts it.
    fn is_obsolete(&self, task: TaskId) -> bool {
        self.state[task as usize].load(Ordering::Acquire) != LIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_concurrent, run_exact, run_exact_concurrent, run_relaxed};
    use crate::stats::ExecutionStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::concurrent::MultiQueue;
    use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform, UniformRandom};

    #[test]
    fn greedy_on_star_picks_center_or_leaves() {
        let g = gen::star(5);
        // Center first: center in, all leaves dead.
        let mis = greedy_mis(&g, &Permutation::identity(5));
        assert_eq!(mis, vec![true, false, false, false, false]);
        // Center last: all leaves in.
        let pi = Permutation::from_order(vec![1, 2, 3, 4, 0]);
        let mis = greedy_mis(&g, &pi);
        assert_eq!(mis, vec![false, true, true, true, true]);
    }

    #[test]
    fn verify_rejects_bad_sets() {
        let g = gen::path(3);
        assert!(!verify_mis(&g, &[true, true, false])); // adjacent pair
        assert!(!verify_mis(&g, &[false, false, false])); // not maximal
        assert!(!verify_mis(&g, &[true, false])); // wrong length
        assert!(verify_mis(&g, &[true, false, true]));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = gen::empty(3);
        let mis = greedy_mis(&g, &Permutation::identity(3));
        assert_eq!(mis, vec![true, true, true]);
        let g0 = gen::empty(0);
        assert!(greedy_mis(&g0, &Permutation::identity(0)).is_empty());
    }

    /// One sequential-model run: the output and the pop counters.
    fn relaxed<S>(g: &CsrGraph, pi: &Permutation, sched: S) -> (Vec<bool>, ExecutionStats)
    where
        S: rsched_queues::PriorityScheduler<TaskId>,
    {
        let alg = ConcurrentMis::new(g, pi);
        let stats = run_relaxed(&alg, pi, sched);
        (alg.into_output(), stats)
    }

    #[test]
    fn framework_matches_greedy_across_schedulers() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = gen::gnm(300, 1200, &mut rng);
        let pi = Permutation::random(300, &mut rng);
        let expected = greedy_mis(&g, &pi);

        let alg = ConcurrentMis::new(&g, &pi);
        let stats = run_exact(&alg, &pi);
        assert_eq!(alg.into_output(), expected);
        assert_eq!(stats.total_pops, 300);

        for seed in 0..3 {
            let (out, stats) = relaxed(&g, &pi, TopKUniform::new(16, StdRng::seed_from_u64(seed)));
            assert_eq!(out, expected, "top-k seed {seed}");
            // Every task's final pop is either a process or an obsolete drop.
            assert_eq!(stats.processed + stats.obsolete, 300);
            assert_eq!(stats.total_pops, 300 + stats.wasted);
            let (out, _) = relaxed(&g, &pi, SimMultiQueue::new(8, StdRng::seed_from_u64(seed)));
            assert_eq!(out, expected, "multiqueue seed {seed}");
            let (out, _) =
                relaxed(&g, &pi, SimSprayList::with_threads(8, StdRng::seed_from_u64(seed)));
            assert_eq!(out, expected, "spray seed {seed}");
            let (out, _) = relaxed(&g, &pi, UniformRandom::new(StdRng::seed_from_u64(seed)));
            assert_eq!(out, expected, "uniform-random seed {seed}");
        }
    }

    #[test]
    fn concurrent_matches_greedy() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::gnm(500, 3000, &mut rng);
        let pi = Permutation::random(500, &mut rng);
        let expected = greedy_mis(&g, &pi);
        for threads in [1, 2, 4] {
            let alg = ConcurrentMis::new(&g, &pi);
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
            crate::framework::fill_scheduler(&sched, &pi);
            let stats = run_concurrent(&alg, &pi, &sched, threads);
            assert_eq!(alg.remaining(), 0);
            assert_eq!(alg.into_output(), expected, "threads={threads}");
            assert_eq!(stats.processed + stats.obsolete, stats.total_pops - stats.wasted);
        }
    }

    #[test]
    fn batched_concurrent_matches_greedy_on_every_scheduler() {
        use rsched_queues::concurrent::{BulkMultiQueue, LockFreeMultiQueue};
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::gnm(400, 2400, &mut rng);
        let pi = Permutation::random(400, &mut rng);
        let expected = greedy_mis(&g, &pi);
        for threads in [1usize, 4] {
            for batch in [1usize, 8, 32] {
                let alg = ConcurrentMis::new(&g, &pi);
                let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
                crate::framework::fill_scheduler(&sched, &pi);
                let stats =
                    crate::framework::run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_output(), expected, "multiqueue t={threads} b={batch}");
                assert_eq!(stats.processed + stats.obsolete, stats.total_pops - stats.wasted);

                let alg = ConcurrentMis::new(&g, &pi);
                let sched: BulkMultiQueue<TaskId> = BulkMultiQueue::prefilled_for_threads(
                    threads,
                    (0..400u32).map(|v| (pi.label(v) as u64, v)),
                );
                let _ = crate::framework::run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_output(), expected, "bulk t={threads} b={batch}");

                let alg = ConcurrentMis::new(&g, &pi);
                let sched: LockFreeMultiQueue<TaskId> = LockFreeMultiQueue::prefilled(
                    4 * threads,
                    (0..400u32).map(|v| (pi.label(v) as u64, v)),
                );
                let _ = crate::framework::run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_output(), expected, "lfmq t={threads} b={batch}");
            }
        }
    }

    #[test]
    fn exact_concurrent_matches_greedy() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = gen::gnm(400, 2000, &mut rng);
        let pi = Permutation::random(400, &mut rng);
        let expected = greedy_mis(&g, &pi);
        for threads in [1, 2, 4] {
            let alg = ConcurrentMis::new(&g, &pi);
            let stats = run_exact_concurrent(&alg, &pi, threads);
            assert_eq!(alg.into_output(), expected, "threads={threads}");
            assert_eq!(stats.total_pops, 400);
        }
    }

    #[test]
    fn clique_mis_is_single_vertex() {
        let g = gen::complete(20);
        let pi = Permutation::from_order((0..20u32).rev().collect());
        let mis = greedy_mis(&g, &pi);
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
        assert!(mis[19]); // highest priority = first in order
        let (out, _) = relaxed(&g, &pi, TopKUniform::new(4, StdRng::seed_from_u64(0)));
        assert_eq!(out, mis);
    }

    #[test]
    fn wasted_steps_zero_with_exact_queue() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = gen::gnm(200, 800, &mut rng);
        let pi = Permutation::random(200, &mut rng);
        let (_, stats) = relaxed(&g, &pi, rsched_queues::exact::BinaryHeapScheduler::new());
        assert_eq!(stats.wasted, 0);
        assert_eq!(stats.total_pops, 200);
    }
}
