//! Greedy maximal matching — MIS on the (implicit) line graph (§2.4).
//!
//! "One can view matching as an 'independent set' of edges, no two of which
//! are incident to the same vertex." Tasks are *edges*; an edge joins the
//! matching iff no smaller-labeled incident edge did. The direct
//! implementation below walks the endpoint incidence lists instead of
//! materializing the line graph (whose size is `Θ(Σ deg²)`); the explicit
//! line-graph route is provided for cross-checking via
//! [`matching_via_line_graph`].

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use crossbeam::utils::CachePadded;
use rsched_graph::{line_graph, CsrGraph, Incidence, Permutation};
use std::fmt;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

const LIVE: u8 = 0;
const IN_MATCH: u8 = 1;
const DEAD: u8 = 2;

/// A matching instance: the canonical edge list plus endpoint incidence.
pub struct MatchingInstance {
    /// Vertex count of the original graph.
    pub num_vertices: usize,
    /// Canonical edge list (tasks are indices into this).
    pub edges: Vec<(u32, u32)>,
    /// Vertex → incident edge ids.
    pub incidence: Incidence,
}

impl MatchingInstance {
    /// Builds the instance from a graph.
    pub fn new(g: &CsrGraph) -> Self {
        let edges = g.edge_list();
        let incidence = Incidence::new(g.num_vertices(), &edges);
        MatchingInstance { num_vertices: g.num_vertices(), edges, incidence }
    }

    /// Number of edge tasks.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

impl fmt::Debug for MatchingInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatchingInstance")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.edges.len())
            .finish()
    }
}

/// The sequential greedy matching for edge priority order `pi`.
///
/// # Panics
///
/// Panics if `pi.len() != inst.num_edges()`.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::matching::{greedy_matching, verify_matching, MatchingInstance};
/// use rsched_graph::{gen, Permutation};
///
/// let g = gen::path(4); // edges (0,1), (1,2), (2,3)
/// let inst = MatchingInstance::new(&g);
/// let m = greedy_matching(&inst, &Permutation::identity(3));
/// assert_eq!(m, vec![true, false, true]);
/// assert!(verify_matching(&inst, &m));
/// ```
pub fn greedy_matching(inst: &MatchingInstance, pi: &Permutation) -> Vec<bool> {
    let m = inst.num_edges();
    assert_eq!(m, pi.len(), "permutation size must match edge count");
    let mut in_match = vec![false; m];
    let mut vertex_taken = vec![false; inst.num_vertices];
    for pos in 0..m as u32 {
        let e = pi.task_at(pos) as usize;
        let (a, b) = inst.edges[e];
        if !vertex_taken[a as usize] && !vertex_taken[b as usize] {
            in_match[e] = true;
            vertex_taken[a as usize] = true;
            vertex_taken[b as usize] = true;
        }
    }
    in_match
}

/// Checks that `in_match` is a matching (no shared endpoints) and maximal.
pub fn verify_matching(inst: &MatchingInstance, in_match: &[bool]) -> bool {
    if in_match.len() != inst.num_edges() {
        return false;
    }
    let mut taken = vec![false; inst.num_vertices];
    for (e, &m) in in_match.iter().enumerate() {
        if m {
            let (a, b) = inst.edges[e];
            if taken[a as usize] || taken[b as usize] {
                return false; // shared endpoint
            }
            taken[a as usize] = true;
            taken[b as usize] = true;
        }
    }
    // Maximal: no edge with both endpoints free.
    inst.edges.iter().all(|&(a, b)| taken[a as usize] || taken[b as usize])
}

/// Cross-check route: run greedy MIS on the materialized line graph.
///
/// Quadratic in the maximum degree — intended for validation on small
/// graphs, not production use.
pub fn matching_via_line_graph(g: &CsrGraph, pi: &Permutation) -> Vec<bool> {
    let (lg, _edges) = line_graph(g);
    crate::algorithms::mis::greedy_mis(&lg, pi)
}

/// Matching as a framework instance (Algorithm 4 over the implicit line
/// graph, with dead-edge dropping), thread-safe: the
/// [`crate::algorithms::mis::ConcurrentMis`] protocol on the implicit line
/// graph (identical determinism argument, and the same test-before-CAS
/// kills and one `remaining` decrement per call: `e` itself is `IN_MATCH`
/// by then, so the kill loop's CAS skips it).
#[derive(Debug)]
pub struct ConcurrentMatching<'a> {
    inst: &'a MatchingInstance,
    labels: &'a [u32],
    state: Vec<AtomicU8>,
    remaining: CachePadded<AtomicUsize>,
}

impl<'a> ConcurrentMatching<'a> {
    /// Creates the instance; all edges start live.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != inst.num_edges()`.
    pub fn new(inst: &'a MatchingInstance, pi: &'a Permutation) -> Self {
        let m = inst.num_edges();
        assert_eq!(m, pi.len(), "permutation size must match edge count");
        ConcurrentMatching {
            inst,
            labels: pi.labels(),
            state: (0..m).map(|_| AtomicU8::new(LIVE)).collect(),
            remaining: CachePadded::new(AtomicUsize::new(m)),
        }
    }

    /// Extracts the matching membership vector after the run.
    pub fn into_output(self) -> Vec<bool> {
        self.state.into_iter().map(|s| s.into_inner() == IN_MATCH).collect()
    }
}

impl ConcurrentAlgorithm for ConcurrentMatching<'_> {
    fn num_tasks(&self) -> usize {
        self.inst.num_edges()
    }

    fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let e = task as usize;
        if self.is_obsolete(task) {
            return TaskOutcome::Obsolete;
        }
        let le = self.labels[e];
        let (a, b) = self.inst.edges[e];
        for &v in &[a, b] {
            for &e2 in self.inst.incidence.incident(v) {
                if e2 == task || self.labels[e2 as usize] >= le {
                    continue;
                }
                match self.state[e2 as usize].load(Ordering::Acquire) {
                    LIVE => return TaskOutcome::Blocked,
                    IN_MATCH => {
                        if self.state[e]
                            .compare_exchange(LIVE, DEAD, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            self.remaining.fetch_sub(1, Ordering::AcqRel);
                        }
                        return TaskOutcome::Obsolete;
                    }
                    _ => {}
                }
            }
        }
        if self.state[e]
            .compare_exchange(LIVE, IN_MATCH, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return TaskOutcome::Obsolete;
        }
        let mut decided = 1;
        for &v in &[a, b] {
            for &e2 in self.inst.incidence.incident(v) {
                let s = &self.state[e2 as usize];
                if s.load(Ordering::Acquire) == LIVE
                    && s.compare_exchange(LIVE, DEAD, Ordering::AcqRel, Ordering::Acquire).is_ok()
                {
                    decided += 1;
                }
            }
        }
        self.remaining.fetch_sub(decided, Ordering::AcqRel);
        TaskOutcome::Processed
    }

    /// As for MIS: terminal states, counted by the call whose CAS set them.
    fn is_obsolete(&self, task: TaskId) -> bool {
        self.state[task as usize].load(Ordering::Acquire) != LIVE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{run_concurrent, run_exact, run_relaxed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::concurrent::MultiQueue;
    use rsched_queues::relaxed::{SimMultiQueue, TopKUniform};

    #[test]
    fn path_matching() {
        let g = gen::path(5); // edges 0-1, 1-2, 2-3, 3-4
        let inst = MatchingInstance::new(&g);
        let m = greedy_matching(&inst, &Permutation::identity(4));
        assert_eq!(m, vec![true, false, true, false]);
        assert!(verify_matching(&inst, &m));
    }

    #[test]
    fn star_matching_single_edge() {
        let g = gen::star(6);
        let inst = MatchingInstance::new(&g);
        for seed in 0..4 {
            let pi = Permutation::random(5, &mut StdRng::seed_from_u64(seed));
            let m = greedy_matching(&inst, &pi);
            assert_eq!(m.iter().filter(|&&b| b).count(), 1, "star matches one edge");
            assert!(verify_matching(&inst, &m));
        }
    }

    #[test]
    fn verify_rejects_bad_matchings() {
        let g = gen::path(4);
        let inst = MatchingInstance::new(&g);
        assert!(!verify_matching(&inst, &[true, true, false])); // share vertex 1
        assert!(!verify_matching(&inst, &[false, false, false])); // not maximal
        assert!(!verify_matching(&inst, &[true, false])); // wrong length
    }

    #[test]
    fn line_graph_route_agrees_with_direct() {
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..5 {
            let g = gen::gnm(40, 120, &mut rng);
            let inst = MatchingInstance::new(&g);
            let pi = Permutation::random(inst.num_edges(), &mut rng);
            let direct = greedy_matching(&inst, &pi);
            let via_lg = matching_via_line_graph(&g, &pi);
            assert_eq!(direct, via_lg);
        }
    }

    #[test]
    fn framework_matches_greedy() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gen::gnm(150, 600, &mut rng);
        let inst = MatchingInstance::new(&g);
        let pi = Permutation::random(inst.num_edges(), &mut rng);
        let expected = greedy_matching(&inst, &pi);

        let alg = ConcurrentMatching::new(&inst, &pi);
        let _ = run_exact(&alg, &pi);
        assert_eq!(alg.into_output(), expected);

        for seed in 0..3 {
            let alg = ConcurrentMatching::new(&inst, &pi);
            let stats = run_relaxed(&alg, &pi, TopKUniform::new(16, StdRng::seed_from_u64(seed)));
            assert_eq!(alg.into_output(), expected);
            assert_eq!(stats.processed + stats.obsolete, inst.num_edges() as u64);
            let alg = ConcurrentMatching::new(&inst, &pi);
            let _ = run_relaxed(&alg, &pi, SimMultiQueue::new(8, StdRng::seed_from_u64(seed)));
            assert_eq!(alg.into_output(), expected);
        }
    }

    #[test]
    fn concurrent_matches_greedy() {
        let mut rng = StdRng::seed_from_u64(32);
        let g = gen::gnm(200, 900, &mut rng);
        let inst = MatchingInstance::new(&g);
        let pi = Permutation::random(inst.num_edges(), &mut rng);
        let expected = greedy_matching(&inst, &pi);
        for threads in [1, 2, 4] {
            let alg = ConcurrentMatching::new(&inst, &pi);
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
            crate::framework::fill_scheduler(&sched, &pi);
            let _ = run_concurrent(&alg, &pi, &sched, threads);
            assert_eq!(alg.into_output(), expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_graph_matching() {
        let g = gen::empty(4);
        let inst = MatchingInstance::new(&g);
        let m = greedy_matching(&inst, &Permutation::identity(0));
        assert!(m.is_empty());
        assert!(verify_matching(&inst, &m));
    }
}
