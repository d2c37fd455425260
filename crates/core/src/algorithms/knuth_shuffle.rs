//! Knuth shuffle (Fisher–Yates) as an iterative algorithm (§2.2, \[5, 25\]).
//!
//! The sequential algorithm fixes random swap targets `H[i] ∈ [0, i]` and
//! executes `swap(a[i], a[H[i]])` for `i = n−1 … 1`. Task `i` touches cells
//! `i` and `H[i]`; two tasks conflict iff they share a cell. The processing
//! order is descending `i` (the priority permutation is *fixed*; the
//! randomness that Theorem 1 needs lives in `H`, which is equivalent — see
//! \[25\]).
//!
//! Dependencies are the per-cell *toucher chains*: cell `c` is touched by
//! task `c` and every task `j` with `H[j] = c`, all of which have `j ≥ c`;
//! chaining consecutive touchers in processing order gives each task at most
//! two direct predecessors and transitively orders every conflicting pair.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::{TaskId, NIL};
use crossbeam::utils::CachePadded;
use rand::Rng;
use rsched_graph::Permutation;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Samples Fisher–Yates swap targets: `H[i]` uniform in `[0, i]`
/// (`H[0] = 0`).
pub fn random_targets<R: Rng>(n: usize, rng: &mut R) -> Vec<u32> {
    (0..n).map(|i| rng.gen_range(0..=i) as u32).collect()
}

/// The fixed priority permutation for an `n`-element shuffle: descending
/// index order (task `n−1` first).
pub fn shuffle_priorities(n: usize) -> Permutation {
    Permutation::from_order((0..n as u32).rev().collect())
}

/// The sequential Fisher–Yates shuffle for the given targets: the ground
/// truth output.
///
/// # Panics
///
/// Panics if some `H[i] > i`.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::knuth_shuffle::fisher_yates;
///
/// // Targets \[0, 0, 1\]: swap(a\[2\], a\[1\]) then swap(a\[1\], a\[0\]).
/// assert_eq!(fisher_yates(&[0, 0, 1]), vec![2, 0, 1]);
/// ```
pub fn fisher_yates(targets: &[u32]) -> Vec<u32> {
    let n = targets.len();
    let mut a: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let t = targets[i] as usize;
        assert!(t <= i, "target H[{i}] = {t} exceeds i");
        a.swap(i, t);
    }
    a
}

/// Builds the ≤2 direct predecessors of each task from the toucher chains.
///
/// `preds[i] = [p1, p2]` with [`NIL`] padding; a predecessor is the next
/// toucher (in processing order, i.e. the smallest larger index) of one of
/// task `i`'s two cells.
pub fn dependency_predecessors(targets: &[u32]) -> Vec<[u32; 2]> {
    let n = targets.len();
    let mut preds = vec![[NIL; 2]; n];
    // touchers[c] = tasks j ≥ 1 with H[j] = c (excluding j = c itself, which
    // is a self-swap and trivially ordered), plus implicitly task c.
    let mut touchers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (j, &t) in targets.iter().enumerate().skip(1) {
        if t as usize != j {
            touchers[t as usize].push(j as u32);
        }
    }
    for (c, chain) in touchers.iter().enumerate() {
        // Chain in ascending index order: [c, j1, j2, …]; processing is
        // descending, so each element's predecessor is its right neighbor.
        let mut add = |task: u32, pred: u32| {
            let slot = &mut preds[task as usize];
            if slot[0] == NIL {
                slot[0] = pred;
            } else {
                debug_assert_eq!(slot[1], NIL, "task {task} has more than two predecessors");
                slot[1] = pred;
            }
        };
        if let Some(&first) = chain.first() {
            add(c as u32, first);
        }
        for w in chain.windows(2) {
            add(w[0], w[1]);
        }
    }
    preds
}

/// Knuth shuffle as a framework instance, thread-safe.
///
/// When a task is ready, both of its cells are quiescent: every earlier
/// toucher has finished (predecessor flags) and every later toucher is
/// transitively blocked on this task, so the two-cell swap needs no atomic
/// RMW — plain atomic loads/stores fenced by the Release on `done`.
#[derive(Debug)]
pub struct ConcurrentShuffle {
    targets: Vec<u32>,
    preds: Vec<[u32; 2]>,
    done: Vec<AtomicBool>,
    arr: Vec<AtomicU32>,
    remaining: CachePadded<AtomicUsize>,
}

impl ConcurrentShuffle {
    /// Creates the instance for the given swap targets.
    pub fn new(targets: Vec<u32>) -> Self {
        let n = targets.len();
        let preds = dependency_predecessors(&targets);
        ConcurrentShuffle {
            targets,
            preds,
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            arr: (0..n as u32).map(AtomicU32::new).collect(),
            remaining: CachePadded::new(AtomicUsize::new(n)),
        }
    }

    /// Extracts the shuffled array after the run.
    pub fn into_output(self) -> Vec<u32> {
        self.arr.into_iter().map(|x| x.into_inner()).collect()
    }
}

impl ConcurrentAlgorithm for ConcurrentShuffle {
    fn num_tasks(&self) -> usize {
        self.targets.len()
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let i = task as usize;
        if self.done[i].load(Ordering::Acquire) {
            return TaskOutcome::Obsolete; // defensive; tasks pop once
        }
        for &p in &self.preds[i] {
            if p != NIL && !self.done[p as usize].load(Ordering::Acquire) {
                return TaskOutcome::Blocked;
            }
        }
        if i > 0 {
            let t = self.targets[i] as usize;
            if t != i {
                let a = self.arr[i].load(Ordering::Acquire);
                let b = self.arr[t].load(Ordering::Acquire);
                self.arr[i].store(b, Ordering::Release);
                self.arr[t].store(a, Ordering::Release);
            }
        }
        self.done[i].store(true, Ordering::Release);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        TaskOutcome::Processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_concurrent, run_exact, run_exact_concurrent, run_relaxed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_queues::concurrent::MultiQueue;
    use rsched_queues::relaxed::{SimMultiQueue, TopKUniform};

    #[test]
    fn fisher_yates_identity_targets() {
        // H[i] = i means every swap is a self-swap.
        let targets: Vec<u32> = (0..6u32).collect();
        assert_eq!(fisher_yates(&targets), (0..6u32).collect::<Vec<_>>());
    }

    #[test]
    fn predecessors_are_valid() {
        let mut rng = StdRng::seed_from_u64(50);
        let targets = random_targets(200, &mut rng);
        let preds = dependency_predecessors(&targets);
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                if p != NIL {
                    assert!(p as usize > i, "predecessor {p} of {i} must be a larger index");
                    // Predecessor shares a cell with i.
                    let cells_i = [i as u32, targets[i]];
                    let cells_p = [p, targets[p as usize]];
                    assert!(
                        cells_i.iter().any(|c| cells_p.contains(c)),
                        "tasks {i} and {p} share no cell"
                    );
                }
            }
        }
    }

    #[test]
    fn every_conflicting_pair_is_transitively_ordered() {
        // Brute-force check on small n: if tasks i < j share a cell, then
        // following pred links from i must reach j.
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..20 {
            let targets = random_targets(24, &mut rng);
            let preds = dependency_predecessors(&targets);
            let reaches = |from: usize, to: usize| -> bool {
                let mut stack = vec![from];
                let mut seen = [false; 24];
                while let Some(x) = stack.pop() {
                    if x == to {
                        return true;
                    }
                    for &p in &preds[x] {
                        if p != NIL && !seen[p as usize] {
                            seen[p as usize] = true;
                            stack.push(p as usize);
                        }
                    }
                }
                false
            };
            for i in 0..24 {
                for j in (i + 1)..24 {
                    // Cells of i are {i, H[i]} ⊆ [0, i], so j itself can
                    // never be one of them: the pair conflicts iff H[j] is a
                    // cell of i. (A self-swap H[j] = j conflicts with
                    // nothing smaller.)
                    let cells_i = [i as u32, targets[i]];
                    if cells_i.contains(&targets[j]) {
                        assert!(reaches(i, j), "conflicting pair ({i}, {j}) unordered");
                    }
                }
            }
        }
    }

    #[test]
    fn framework_matches_fisher_yates() {
        let mut rng = StdRng::seed_from_u64(52);
        let targets = random_targets(300, &mut rng);
        let pi = shuffle_priorities(300);
        let expected = fisher_yates(&targets);

        let alg = ConcurrentShuffle::new(targets.clone());
        let stats = run_exact(&alg, &pi);
        assert_eq!(alg.into_output(), expected);
        assert_eq!(stats.wasted, 0);

        for seed in 0..3 {
            let alg = ConcurrentShuffle::new(targets.clone());
            let _ = run_relaxed(&alg, &pi, TopKUniform::new(16, StdRng::seed_from_u64(seed)));
            assert_eq!(alg.into_output(), expected);
            let alg = ConcurrentShuffle::new(targets.clone());
            let _ = run_relaxed(&alg, &pi, SimMultiQueue::new(8, StdRng::seed_from_u64(seed)));
            assert_eq!(alg.into_output(), expected);
        }
    }

    #[test]
    fn concurrent_matches_fisher_yates() {
        let mut rng = StdRng::seed_from_u64(53);
        let targets = random_targets(500, &mut rng);
        let pi = shuffle_priorities(500);
        let expected = fisher_yates(&targets);
        for threads in [1, 2, 4] {
            let alg = ConcurrentShuffle::new(targets.clone());
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
            crate::framework::fill_scheduler(&sched, &pi);
            let _ = run_concurrent(&alg, &pi, &sched, threads);
            assert_eq!(alg.into_output(), expected, "threads={threads}");
        }
        for threads in [1, 2] {
            let alg = ConcurrentShuffle::new(targets.clone());
            let _ = run_exact_concurrent(&alg, &pi, threads);
            assert_eq!(alg.into_output(), expected);
        }
    }

    #[test]
    fn shuffle_output_is_permutation() {
        let mut rng = StdRng::seed_from_u64(54);
        let targets = random_targets(100, &mut rng);
        let mut out = fisher_yates(&targets);
        out.sort_unstable();
        assert_eq!(out, (0..100u32).collect::<Vec<_>>());
    }

    #[test]
    fn uniformity_smoke_test() {
        // n = 3 has 6 permutations; over many seeds each should appear with
        // frequency ≈ 1/6 (Fisher–Yates is exactly uniform).
        use std::collections::HashMap;
        let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(55);
        let runs = 6000;
        for _ in 0..runs {
            let targets = random_targets(3, &mut rng);
            *counts.entry(fisher_yates(&targets)).or_default() += 1;
        }
        assert_eq!(counts.len(), 6);
        for (_, &c) in counts.iter() {
            assert!((c as f64) > runs as f64 / 6.0 * 0.8);
            assert!((c as f64) < runs as f64 / 6.0 * 1.2);
        }
    }

    #[test]
    fn empty_shuffle() {
        assert!(fisher_yates(&[]).is_empty());
        let alg = ConcurrentShuffle::new(vec![]);
        let _ = run_exact(&alg, &shuffle_priorities(0));
        assert!(alg.into_output().is_empty());
    }
}
