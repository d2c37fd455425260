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
use rsched_graph::{CsrGraph, Permutation};
use std::sync::atomic::{AtomicU8, Ordering};

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

/// The conflict graph an independent-set run works over: the kernel
/// ([`ConcurrentMis`]) puts a node in the set iff no smaller-labeled node
/// adjacent to it got there first. A [`CsrGraph`] is its own adjacency (MIS);
/// a [`MatchingInstance`](super::matching::MatchingInstance) is the implicit
/// line graph (matching, §2.4).
pub trait Adjacency: Sync {
    /// Number of nodes, one task each.
    fn num_nodes(&self) -> usize;

    /// The nodes adjacent to `v`, in the order the kernel scans them. `v`
    /// itself may appear: the scan skips it by label, and the kill loop
    /// finds it already decided.
    fn adjacent(&self, v: TaskId) -> impl Iterator<Item = TaskId> + '_;
}

impl Adjacency for CsrGraph {
    fn num_nodes(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn adjacent(&self, v: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.neighbors(v).iter().copied()
    }
}

/// MIS as a framework instance (Algorithm 4's task oracle), thread-safe
/// with per-node atomic state, over any [`Adjacency`] — a graph's vertices
/// by default, a matching instance's edges as
/// [`ConcurrentMatching`](super::matching::ConcurrentMatching). See the
/// crate-level example for usage with [`crate::framework::run_relaxed`].
///
/// Determinism argument: `InMis` and `Dead` are terminal states; a node
/// enters the set only after observing **all** smaller-labeled neighbors
/// `Dead`, and becomes `Dead` only from a smaller-labeled `InMis` neighbor.
/// By induction over labels the final state vector equals [`greedy_mis`] for
/// the same permutation, regardless of thread interleaving.
///
/// Hot-path contention: a kill tests the neighbor before the CAS (an
/// already-decided neighbor costs a shared read, not an exclusive line
/// fetch; the CAS winners are the same). Termination is the engine's count
/// of each node's entry, popped or purged, so a call writes nothing but
/// node states (DESIGN.md "Hot-path contention").
#[derive(Debug)]
pub struct ConcurrentMis<'a, G = CsrGraph> {
    g: &'a G,
    labels: &'a [u32],
    state: Vec<AtomicU8>,
}

impl<'a, G: Adjacency> ConcurrentMis<'a, G> {
    /// Creates the instance; all nodes start live.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != g.num_nodes()`.
    pub fn new(g: &'a G, pi: &'a Permutation) -> Self {
        let n = g.num_nodes();
        assert_eq!(n, pi.len(), "permutation size must match task count");
        ConcurrentMis {
            g,
            labels: pi.labels(),
            state: (0..n).map(|_| AtomicU8::new(LIVE)).collect(),
        }
    }

    /// Extracts the set membership vector after the run.
    pub fn into_output(self) -> Vec<bool> {
        self.state.into_iter().map(|s| s.into_inner() == IN_MIS).collect()
    }
}

impl<G: Adjacency> ConcurrentAlgorithm for ConcurrentMis<'_, G> {
    fn num_tasks(&self) -> usize {
        self.state.len()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let v = task as usize;
        if self.is_obsolete(task) {
            return TaskOutcome::Obsolete;
        }
        let lv = self.labels[v];
        for u in self.g.adjacent(task) {
            if self.labels[u as usize] >= lv {
                continue;
            }
            match self.state[u as usize].load(Ordering::Acquire) {
                LIVE => return TaskOutcome::Blocked,
                IN_MIS => {
                    // u joined but has not marked us dead yet: publish the
                    // death now, so our larger-labeled neighbors stop
                    // blocking on us before u's kill loop reaches us.
                    let _ = self.state[v].compare_exchange(
                        LIVE,
                        DEAD,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
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
        for u in self.g.adjacent(task) {
            let s = &self.state[u as usize];
            if s.load(Ordering::Acquire) == LIVE {
                let _ = s.compare_exchange(LIVE, DEAD, Ordering::AcqRel, Ordering::Acquire);
            }
        }
        TaskOutcome::Processed
    }

    /// A node leaves `LIVE` only for a terminal state.
    fn is_obsolete(&self, task: TaskId) -> bool {
        self.state[task as usize].load(Ordering::Acquire) != LIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_relaxed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::relaxed::TopKUniform;

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

    #[test]
    fn clique_mis_is_single_vertex() {
        let g = gen::complete(20);
        let pi = Permutation::from_order((0..20u32).rev().collect());
        let mis = greedy_mis(&g, &pi);
        assert_eq!(mis.iter().filter(|&&b| b).count(), 1);
        assert!(mis[19]); // highest priority = first in order
        let alg = ConcurrentMis::new(&g, &pi);
        run_relaxed(&alg, &pi, TopKUniform::new(4, StdRng::seed_from_u64(0)));
        assert_eq!(alg.into_output(), mis);
    }
}
