//! Greedy maximal matching — MIS on the (implicit) line graph (§2.4).
//!
//! "One can view matching as an 'independent set' of edges, no two of which
//! are incident to the same vertex." Tasks are *edges*; an edge joins the
//! matching iff no smaller-labeled incident edge did. The concurrent
//! instance is the MIS kernel over an adjacency that walks the endpoint
//! incidence lists instead of materializing the line graph (whose size is
//! `Θ(Σ deg²)`); the explicit line-graph route is provided for
//! cross-checking via [`matching_via_line_graph`].

use crate::algorithms::mis::{greedy_mis, Adjacency, ConcurrentMis};
use crate::TaskId;
use rsched_graph::{line_graph, CsrGraph, Incidence, Permutation};
use std::fmt;

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
    greedy_mis(&lg, pi)
}

/// The implicit line graph: edge `e = (a, b)` is adjacent to every edge
/// incident to `a`, then to every edge incident to `b` (itself among them).
impl Adjacency for MatchingInstance {
    fn num_nodes(&self) -> usize {
        self.num_edges()
    }

    #[inline]
    fn adjacent(&self, e: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        let (a, b) = self.edges[e as usize];
        self.incidence.incident(a).iter().chain(self.incidence.incident(b)).copied()
    }
}

/// Matching as a framework instance: the [`ConcurrentMis`] kernel
/// (Algorithm 4 with dead-edge dropping) over the implicit line graph of a
/// [`MatchingInstance`] — same protocol, same determinism argument.
pub type ConcurrentMatching<'a> = ConcurrentMis<'a, MatchingInstance>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::run_relaxed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::relaxed::TopKUniform;

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
        for seed in 0..5 {
            let g = gen::gnm(40, 120, &mut rng);
            let inst = MatchingInstance::new(&g);
            let pi = Permutation::random(inst.num_edges(), &mut rng);
            let direct = greedy_matching(&inst, &pi);
            let via_lg = matching_via_line_graph(&g, &pi);
            assert_eq!(direct, via_lg);
            // The shared kernel over both adjacencies: the instance's
            // implicit line graph and the materialized one.
            let (lg, _) = line_graph(&g);
            let implicit = ConcurrentMatching::new(&inst, &pi);
            let _ = run_relaxed(&implicit, &pi, TopKUniform::new(8, StdRng::seed_from_u64(seed)));
            assert_eq!(implicit.into_output(), direct);
            let explicit = ConcurrentMis::new(&lg, &pi);
            let _ = run_relaxed(&explicit, &pi, TopKUniform::new(8, StdRng::seed_from_u64(seed)));
            assert_eq!(explicit.into_output(), direct);
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
