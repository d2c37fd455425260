//! Greedy vertex coloring — the paper's Algorithm 3.
//!
//! Each vertex takes the smallest color unused by its smaller-labeled
//! neighbors. The dependency graph is the input graph itself (oriented by
//! the permutation), so by Theorem 1 the relaxation cost is
//! `O(m/n)·poly(k)` — and `Θ(nk)` on the clique, the paper's tightness
//! example (exercised by the `theorem1_sweep` bench).

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use rsched_graph::{CsrGraph, Permutation};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Smallest color absent from `used` (which may be unsorted; it is sorted in
/// place).
fn mex(used: &mut Vec<u32>) -> u32 {
    used.sort_unstable();
    used.dedup();
    let mut c = 0u32;
    for &x in used.iter() {
        if x == c {
            c += 1;
        } else if x > c {
            break;
        }
    }
    c
}

/// The sequential greedy coloring for priority order `pi`.
///
/// # Panics
///
/// Panics if `pi.len() != g.num_vertices()`.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::coloring::{greedy_coloring, verify_coloring};
/// use rsched_graph::{gen, Permutation};
///
/// let g = gen::cycle(5);
/// let colors = greedy_coloring(&g, &Permutation::identity(5));
/// assert!(verify_coloring(&g, &colors));
/// assert!(colors.iter().max().unwrap() <= &2); // odd cycle: 3 colors
/// ```
pub fn greedy_coloring(g: &CsrGraph, pi: &Permutation) -> Vec<u32> {
    let n = g.num_vertices();
    assert_eq!(n, pi.len(), "permutation size must match vertex count");
    let mut colors = vec![u32::MAX; n];
    let mut scratch = Vec::new();
    for pos in 0..n as u32 {
        let v = pi.task_at(pos);
        scratch.clear();
        for &u in g.neighbors(v) {
            if colors[u as usize] != u32::MAX {
                scratch.push(colors[u as usize]);
            }
        }
        colors[v as usize] = mex(&mut scratch);
    }
    colors
}

/// Checks that `colors` is a proper coloring of `g` with every vertex
/// colored.
pub fn verify_coloring(g: &CsrGraph, colors: &[u32]) -> bool {
    if colors.len() != g.num_vertices() {
        return false;
    }
    if colors.contains(&u32::MAX) {
        return false;
    }
    g.edges().all(|(u, v)| colors[u as usize] != colors[v as usize])
}

/// Coloring as a framework instance (Algorithm 2 with the Algorithm 3
/// `Process`), thread-safe.
///
/// A vertex's color is stored before its `done` flag is released, and
/// readers check the flag before the color, so every processing step sees
/// final predecessor colors — the output equals [`greedy_coloring`] for any
/// interleaving.
#[derive(Debug)]
pub struct ConcurrentColoring<'a> {
    g: &'a CsrGraph,
    labels: &'a [u32],
    colors: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
}

impl<'a> ConcurrentColoring<'a> {
    /// Creates the instance with every vertex uncolored.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != g.num_vertices()`.
    pub fn new(g: &'a CsrGraph, pi: &'a Permutation) -> Self {
        let n = g.num_vertices();
        assert_eq!(n, pi.len(), "permutation size must match vertex count");
        ConcurrentColoring {
            g,
            labels: pi.labels(),
            colors: (0..n).map(|_| AtomicU32::new(u32::MAX)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Extracts the color vector after the run.
    pub fn into_output(self) -> Vec<u32> {
        self.colors.into_iter().map(|c| c.into_inner()).collect()
    }
}

impl ConcurrentAlgorithm for ConcurrentColoring<'_> {
    fn num_tasks(&self) -> usize {
        self.g.num_vertices()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let v = task as usize;
        if self.done[v].load(Ordering::Acquire) {
            return TaskOutcome::Obsolete; // defensive: tasks pop at most once per insert
        }
        let lv = self.labels[v];
        for &u in self.g.neighbors(task) {
            if self.labels[u as usize] < lv && !self.done[u as usize].load(Ordering::Acquire) {
                return TaskOutcome::Blocked;
            }
        }
        let mut used: Vec<u32> = self
            .g
            .neighbors(task)
            .iter()
            .filter(|&&u| self.labels[u as usize] < lv)
            .map(|&u| self.colors[u as usize].load(Ordering::Acquire))
            .collect();
        let c = mex(&mut used);
        self.colors[v].store(c, Ordering::Release);
        self.done[v].store(true, Ordering::Release);
        TaskOutcome::Processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::gen;

    #[test]
    fn mex_basics() {
        assert_eq!(mex(&mut vec![]), 0);
        assert_eq!(mex(&mut vec![0, 1, 2]), 3);
        assert_eq!(mex(&mut vec![1, 2]), 0);
        assert_eq!(mex(&mut vec![0, 2, 2, 5]), 1);
        assert_eq!(mex(&mut vec![3, 0, 1]), 2);
    }

    #[test]
    fn bipartite_gets_two_colors() {
        let g = gen::complete_bipartite(4, 4);
        let colors = greedy_coloring(&g, &Permutation::identity(8));
        assert!(verify_coloring(&g, &colors));
        assert_eq!(*colors.iter().max().unwrap(), 1);
    }

    #[test]
    fn clique_uses_n_colors() {
        let g = gen::complete(6);
        let colors = greedy_coloring(&g, &Permutation::identity(6));
        assert!(verify_coloring(&g, &colors));
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn verify_rejects_improper() {
        let g = gen::path(3);
        assert!(!verify_coloring(&g, &[0, 0, 1]));
        assert!(!verify_coloring(&g, &[0, 1])); // wrong length
        assert!(!verify_coloring(&g, &[0, u32::MAX, 0])); // uncolored
    }

    #[test]
    fn empty_graph_colors_all_zero() {
        let g = gen::empty(5);
        let colors = greedy_coloring(&g, &Permutation::identity(5));
        assert_eq!(colors, vec![0; 5]);
    }
}
