//! Algorithm 2 in its most general form: an arbitrary explicit dependency
//! graph plus a user-supplied `Process(v)` callback.
//!
//! The named workloads in this crate (MIS, coloring, …) specialize the
//! framework with implicit dependency queries; this one is the fully
//! generic entry point for *"iterative algorithms with explicit
//! dependencies"* (§2.2): hand it any undirected conflict graph, a priority
//! permutation to orient it, and a closure, and run it through any
//! scheduler, in the sequential model or on threads — the closure observes
//! tasks in an order consistent with the orientation, and the set of
//! (task → already-processed predecessors) inputs it sees is independent of
//! the scheduler.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use rsched_graph::{CsrGraph, Permutation};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

/// Generic explicit-DAG framework instance.
///
/// Dependencies are the edges of `dag` oriented by `pi` (the
/// smaller-labeled endpoint is the predecessor). `process` is invoked
/// exactly once per task, only after all its predecessors were invoked —
/// by whichever worker popped the task, so it takes `&self` state (atomics,
/// or a lock if it wants a log); a predecessor's writes are visible to it
/// (`Release` on the predecessor's flag, `Acquire` on the read).
///
/// # Examples
///
/// Computing dependency-chain depths ("levels") of a DAG — the result is
/// scheduler-independent:
///
/// ```
/// use rsched_core::algorithms::explicit_dag::ExplicitDag;
/// use rsched_core::framework::run_relaxed;
/// use rsched_graph::{gen, Permutation};
/// use rsched_queues::relaxed::TopKUniform;
/// use rand::{SeedableRng, rngs::StdRng};
/// use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
///
/// let dag = gen::path(5);
/// let pi = Permutation::identity(5);
/// let level: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
/// let tasks = ExplicitDag::new(&dag, &pi, |v, preds| {
///     let depth = preds.iter().map(|&u| level[u as usize].load(Relaxed) + 1).max();
///     level[v as usize].store(depth.unwrap_or(0), Relaxed);
/// });
/// let sched = TopKUniform::new(3, StdRng::seed_from_u64(1));
/// let stats = run_relaxed(&tasks, &pi, sched);
/// let level: Vec<u32> = level.into_iter().map(AtomicU32::into_inner).collect();
/// assert_eq!(level, vec![0, 1, 2, 3, 4]);
/// assert_eq!(stats.processed, 5);
/// ```
pub struct ExplicitDag<'a, F> {
    dag: &'a CsrGraph,
    labels: &'a [u32],
    processed: Vec<AtomicBool>,
    process: F,
}

impl<'a, F> ExplicitDag<'a, F>
where
    F: Fn(TaskId, &[TaskId]) + Sync,
{
    /// Creates the instance. `process(v, preds)` receives the task and its
    /// (already processed) predecessor list, sorted by vertex id.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != dag.num_vertices()`.
    pub fn new(dag: &'a CsrGraph, pi: &'a Permutation, process: F) -> Self {
        let n = dag.num_vertices();
        assert_eq!(n, pi.len(), "permutation size must match task count");
        ExplicitDag {
            dag,
            labels: pi.labels(),
            processed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            process,
        }
    }
}

impl<F> ConcurrentAlgorithm for ExplicitDag<'_, F>
where
    F: Fn(TaskId, &[TaskId]) + Sync,
{
    fn num_tasks(&self) -> usize {
        self.dag.num_vertices()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        if self.processed[task as usize].load(Ordering::Acquire) {
            return TaskOutcome::Obsolete; // defensive; tasks pop once
        }
        let lt = self.labels[task as usize];
        let mut preds = Vec::new();
        for &u in self.dag.neighbors(task) {
            if self.labels[u as usize] < lt {
                if !self.processed[u as usize].load(Ordering::Acquire) {
                    return TaskOutcome::Blocked;
                }
                preds.push(u);
            }
        }
        (self.process)(task, &preds);
        self.processed[task as usize].store(true, Ordering::Release);
        TaskOutcome::Processed
    }
}

impl<F> fmt::Debug for ExplicitDag<'_, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExplicitDag").field("num_tasks", &self.dag.num_vertices()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_exact, run_relaxed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::relaxed::{SimMultiQueue, TopKUniform};
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// Chain depth: level(v) = 1 + max level of predecessors.
    fn levels_via<Sched>(g: &CsrGraph, pi: &Permutation, sched: Sched) -> Vec<u32>
    where
        Sched: rsched_queues::PriorityScheduler<TaskId>,
    {
        let level: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
        let tasks = ExplicitDag::new(g, pi, |v, preds| {
            let depth = preds.iter().map(|&u| level[u as usize].load(Ordering::Relaxed) + 1).max();
            level[v as usize].store(depth.unwrap_or(0), Ordering::Relaxed);
        });
        let _ = run_relaxed(&tasks, pi, sched);
        level.into_iter().map(AtomicU32::into_inner).collect()
    }

    #[test]
    fn processing_order_is_a_linear_extension() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::gnm(200, 800, &mut rng);
        let pi = Permutation::random(200, &mut rng);
        let order = Mutex::new(Vec::new());
        let tasks = ExplicitDag::new(&g, &pi, |v, _| order.lock().unwrap().push(v));
        let stats = run_relaxed(&tasks, &pi, TopKUniform::new(8, StdRng::seed_from_u64(2)));
        let order = order.into_inner().unwrap();
        assert_eq!(order.len(), 200);
        let mut pos = vec![0usize; 200];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for (u, v) in g.edges() {
            let (first, second) = if pi.precedes(u, v) { (u, v) } else { (v, u) };
            assert!(
                pos[first as usize] < pos[second as usize],
                "dependency ({first} before {second}) violated"
            );
        }
        assert_eq!(stats.processed, 200);
    }

    #[test]
    fn exact_order_is_the_permutation_itself() {
        let g = gen::empty(10); // no dependencies at all
        let pi = Permutation::from_order(vec![3, 1, 4, 0, 9, 5, 8, 6, 7, 2]);
        let order = Mutex::new(Vec::new());
        let tasks = ExplicitDag::new(&g, &pi, |v, _| order.lock().unwrap().push(v));
        let _ = run_exact(&tasks, &pi);
        assert_eq!(order.into_inner().unwrap(), vec![3, 1, 4, 0, 9, 5, 8, 6, 7, 2]);
    }

    #[test]
    fn predecessor_lists_are_exactly_the_oriented_in_edges() {
        let g = gen::star(6); // center 0
        let pi = Permutation::identity(6); // center first
        let seen: Mutex<Vec<(TaskId, Vec<TaskId>)>> = Mutex::new(Vec::new());
        let tasks = ExplicitDag::new(&g, &pi, |v, preds| {
            seen.lock().unwrap().push((v, preds.to_vec()));
        });
        let _ = run_exact(&tasks, &pi);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen[0], (0, vec![]));
        for (v, preds) in &seen[1..] {
            assert_eq!(preds, &vec![0], "leaf {v} depends only on the center");
        }
    }

    #[test]
    fn clique_levels_count_positions() {
        // On K_n oriented by π, level(v) = label(v): every earlier vertex is
        // a predecessor.
        let n = 30;
        let g = gen::complete(n);
        let pi = Permutation::random(n, &mut StdRng::seed_from_u64(9));
        let level = levels_via(&g, &pi, SimMultiQueue::new(4, StdRng::seed_from_u64(10)));
        for v in 0..n as u32 {
            assert_eq!(level[v as usize], pi.label(v));
        }
    }
}
