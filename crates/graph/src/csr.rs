//! Compressed sparse row (CSR) representation of undirected graphs.

use std::fmt;

/// An immutable undirected graph in compressed sparse row form.
///
/// Vertices are the dense ids `0..n` (as `u32`). Adjacency lists are sorted,
/// contain no duplicates and no self-loops, and every edge appears in the
/// lists of both endpoints. This is the substrate every workload in the
/// workspace runs on: dependency graphs for the scheduling framework are CSR
/// graphs plus a priority permutation.
///
/// # Examples
///
/// ```
/// use rsched_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3); // duplicate (1,2) collapsed
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` with `v`'s neighbors.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    adj: Vec<u32>,
}

impl CsrGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], adj: Vec::new() }
    }

    /// Builds a graph from an arbitrary edge list.
    ///
    /// Self-loops are dropped; parallel and reversed duplicates are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut norm: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        norm.sort_unstable();
        norm.dedup();
        Self::from_normalized(n, norm.iter().copied())
    }

    /// Builds a graph from edges that are already normalized: each pair
    /// `(u, v)` satisfies `u < v`, and the sequence is sorted and
    /// duplicate-free.
    ///
    /// This is the allocation-light path used by the generators. The
    /// iterator is scanned twice (degrees, then the fill), so it should
    /// borrow or compute its pairs rather than own them.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`, or (in debug builds) if the input is
    /// not normalized.
    pub fn from_normalized<I>(n: usize, norm: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
        I::IntoIter: Clone,
    {
        let norm = norm.into_iter();
        debug_assert!(
            norm.clone().zip(norm.clone().skip(1)).all(|(p, q)| p < q),
            "edges not sorted/unique"
        );
        debug_assert!(norm.clone().all(|(a, b)| a < b), "edges not normalized");
        // `offsets[v + 1]` counts `v`'s degree, then the prefix sum turns
        // the counts into list starts.
        let mut offsets = vec![0usize; n + 1];
        for (a, b) in norm.clone() {
            assert!((b as usize) < n, "edge endpoint {} out of range (n = {})", b, n);
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut adj = vec![0u32; offsets[n]];
        // Scanning pairs in lexicographic order fills every adjacency list in
        // ascending order: all `(u, v)` entries with `u < v` land in `v`'s
        // list before any `(v, w)` entry does, and each group is sorted.
        for (a, b) in norm {
            adj[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        CsrGraph { offsets, adj }
    }

    /// `offsets()[v]..offsets()[v + 1]` is the range of `v`'s half-edges in
    /// the adjacency array, for data stored parallel to it.
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbor list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices, `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = u32> {
        0..self.num_vertices() as u32
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`, in
    /// lexicographic order. The position of an edge in this iteration is its
    /// canonical *edge id* (used by [`crate::Incidence`] and the matching
    /// workloads).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Collects [`CsrGraph::edges`] into a vector (the canonical edge list).
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        out.extend(self.edges());
        out
    }

    /// Largest degree in the graph, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree, `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Total bytes of the two backing arrays; used by the bench harness to
    /// report instance footprints.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<u32>()
    }
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_vertices() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(6, [(4, 2), (0, 5), (3, 1), (2, 0), (5, 2)]);
        for v in g.vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            for &u in ns {
                assert!(g.neighbors(u).contains(&v), "asymmetric edge {u}-{v}");
                assert!(g.has_edge(u, v) && g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edge_iteration_is_canonical() {
        let g = CsrGraph::from_edges(4, [(2, 3), (0, 1), (0, 2), (1, 3)]);
        let edges = g.edge_list();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(edges.len(), g.num_edges());
    }

    #[test]
    fn degree_statistics() {
        let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = CsrGraph::empty(1);
        assert!(!format!("{:?}", g).is_empty());
    }
}
