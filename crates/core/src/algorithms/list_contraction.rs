//! List contraction (§2.3): iteratively splice elements out of a doubly
//! linked list in priority order.
//!
//! The output we record — each element's `(prev, next)` at the moment it is
//! contracted — is exactly what downstream uses (cycle counting, tree
//! contraction) consume, and it is uniquely determined by the priority
//! permutation: an element's recorded neighbors are its nearest original
//! neighbors with *larger* labels. The paper's predecessor query "checks
//! whether either v.next or v.prev is an unprocessed predecessor", i.e.
//! readiness is on the *current* links; that is what makes concurrent
//! splices race-free (two adjacent elements are never both ready).

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use rsched_graph::list::NIL;
use rsched_graph::{ListInstance, Permutation};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The sequential contraction for priority order `pi`: returns, per element,
/// its `(prev, next)` at contraction time ([`NIL`] for list ends).
///
/// # Panics
///
/// Panics if `pi.len() != list.len()`.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::list_contraction::sequential_contraction;
/// use rsched_graph::{ListInstance, list::NIL, Permutation};
///
/// let list = ListInstance::new_identity(3); // 0 ↔ 1 ↔ 2
/// let rec = sequential_contraction(&list, &Permutation::identity(3));
/// assert_eq!(rec[0], (NIL, 1));
/// assert_eq!(rec[1], (NIL, 2)); // 0 already gone
/// assert_eq!(rec[2], (NIL, NIL));
/// ```
pub fn sequential_contraction(list: &ListInstance, pi: &Permutation) -> Vec<(u32, u32)> {
    let n = list.len();
    assert_eq!(n, pi.len(), "permutation size must match list length");
    let mut prev = list.pred_slice().to_vec();
    let mut next = list.succ_slice().to_vec();
    let mut out = vec![(NIL, NIL); n];
    for pos in 0..n as u32 {
        let v = pi.task_at(pos) as usize;
        let (p, nx) = (prev[v], next[v]);
        out[v] = (p, nx);
        if p != NIL {
            next[p as usize] = nx;
        }
        if nx != NIL {
            prev[nx as usize] = p;
        }
    }
    out
}

/// List contraction as a framework instance, thread-safe.
///
/// Protocol: a splice writes both neighbor links **before** releasing its
/// `done` flag; a reader that sees a `done` neighbor re-reads its own link
/// (the Release/Acquire pair guarantees the re-read observes the splice).
/// Two current-adjacent elements are never simultaneously ready (the
/// smaller-labeled one blocks the other), so the link cells written by
/// concurrent splices are disjoint — provided an element whose `next` link
/// already skips a splicing neighbor waits for that splice's second store
/// (the back-link check in `try_process`).
#[derive(Debug)]
pub struct ConcurrentContraction<'a> {
    labels: &'a [u32],
    prev: Vec<AtomicU32>,
    next: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
    out_prev: Vec<AtomicU32>,
    out_next: Vec<AtomicU32>,
}

impl<'a> ConcurrentContraction<'a> {
    /// Creates the instance from the list arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != list.len()`.
    pub fn new(list: &ListInstance, pi: &'a Permutation) -> Self {
        let n = list.len();
        assert_eq!(n, pi.len(), "permutation size must match list length");
        ConcurrentContraction {
            labels: pi.labels(),
            prev: list.pred_slice().iter().map(|&x| AtomicU32::new(x)).collect(),
            next: list.succ_slice().iter().map(|&x| AtomicU32::new(x)).collect(),
            done: (0..n).map(|_| AtomicBool::new(false)).collect(),
            out_prev: (0..n).map(|_| AtomicU32::new(NIL)).collect(),
            out_next: (0..n).map(|_| AtomicU32::new(NIL)).collect(),
        }
    }

    /// Extracts the per-element `(prev, next)` records after the run.
    pub fn into_output(self) -> Vec<(u32, u32)> {
        self.out_prev
            .into_iter()
            .zip(self.out_next)
            .map(|(p, n)| (p.into_inner(), n.into_inner()))
            .collect()
    }

    /// Reads `links[v]`, chasing past concurrently spliced neighbors until a
    /// stable (NIL or not-done) one is observed.
    fn stable_link(&self, links: &[AtomicU32], v: usize) -> u32 {
        loop {
            let x = links[v].load(Ordering::Acquire);
            if x == NIL || !self.done[x as usize].load(Ordering::Acquire) {
                return x;
            }
            // x finished its splice: its pointer writes (including our
            // links[v]) happened before its done flag, so re-reading makes
            // progress toward an older survivor.
        }
    }
}

impl ConcurrentAlgorithm for ConcurrentContraction<'_> {
    fn num_tasks(&self) -> usize {
        self.done.len()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let v = task as usize;
        if self.done[v].load(Ordering::Acquire) {
            return TaskOutcome::Obsolete; // defensive; tasks pop once
        }
        let lv = self.labels[v];
        let p = self.stable_link(&self.prev, v);
        if p != NIL && self.labels[p as usize] < lv {
            return TaskOutcome::Blocked;
        }
        let nx = self.stable_link(&self.next, v);
        if nx != NIL && self.labels[nx as usize] < lv {
            return TaskOutcome::Blocked;
        }
        // A splice of z between v and nx stores `next[v] = nx` before
        // `prev[nx] = v`. Between the two, v no longer sees z; splicing v
        // now would have z's second store overwrite ours with a pointer to
        // a done v, and nx would chase it forever. Wait for the back link.
        if nx != NIL && self.prev[nx as usize].load(Ordering::Acquire) != task {
            return TaskOutcome::Blocked;
        }
        // p and nx are stable: a larger-labeled live neighbor cannot splice
        // while v is unprocessed (v blocks it).
        self.out_prev[v].store(p, Ordering::Relaxed);
        self.out_next[v].store(nx, Ordering::Relaxed);
        if p != NIL {
            self.next[p as usize].store(nx, Ordering::Release);
        }
        if nx != NIL {
            self.prev[nx as usize].store(p, Ordering::Release);
        }
        self.done[v].store(true, Ordering::Release);
        TaskOutcome::Processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_list_identity_order() {
        let list = ListInstance::new_identity(4);
        let rec = sequential_contraction(&list, &Permutation::identity(4));
        assert_eq!(rec, vec![(NIL, 1), (NIL, 2), (NIL, 3), (NIL, NIL)]);
    }

    #[test]
    fn reverse_order_contracts_from_tail() {
        let list = ListInstance::new_identity(3);
        let pi = Permutation::from_order(vec![2, 1, 0]);
        let rec = sequential_contraction(&list, &pi);
        assert_eq!(rec, vec![(NIL, NIL), (0, NIL), (1, NIL)]);
    }

    #[test]
    fn recorded_neighbors_are_nearest_larger_labels() {
        // List 0↔1↔2↔3↔4 with labels [4,0,3,1,2]: order 1, 3, 4, 2, 0.
        let list = ListInstance::new_identity(5);
        let pi = Permutation::from_order(vec![1, 3, 4, 2, 0]);
        let rec = sequential_contraction(&list, &pi);
        assert_eq!(rec[1], (0, 2));
        assert_eq!(rec[3], (2, 4));
        assert_eq!(rec[4], (2, NIL)); // 3 already gone
        assert_eq!(rec[2], (0, NIL));
        assert_eq!(rec[0], (NIL, NIL));
    }

    #[test]
    fn half_published_splice_blocks_the_left_neighbor() {
        // List 0↔1↔2, labels [1, 0, 2]: element 1 splices first. Freeze it
        // between its two stores: next[0] already skips it, prev[2] does
        // not yet. Element 0 looks ready (its neighbor 2 has a larger
        // label) but must wait, or 1's second store would clobber 0's.
        let list = ListInstance::new_identity(3);
        let pi = Permutation::from_order(vec![1, 0, 2]);
        let alg = ConcurrentContraction::new(&list, &pi);
        alg.next[0].store(2, Ordering::Release);
        assert_eq!(alg.try_process(0), TaskOutcome::Blocked);
        // Element 1 finishes: second store, then done.
        alg.prev[2].store(0, Ordering::Release);
        alg.done[1].store(true, Ordering::Release);
        assert_eq!(alg.try_process(0), TaskOutcome::Processed);
        assert_eq!(alg.try_process(2), TaskOutcome::Processed);
        assert_eq!(alg.prev[2].load(Ordering::Acquire), NIL);
    }

    #[test]
    fn empty_list() {
        let list = ListInstance::new_identity(0);
        let rec = sequential_contraction(&list, &Permutation::identity(0));
        assert!(rec.is_empty());
    }
}
