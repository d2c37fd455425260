//! Edge-weighted graphs layered on [`CsrGraph`], used by the SSSP workloads.

use crate::csr::{key, threads_for};
use crate::CsrGraph;
use rand::Rng;
use std::fmt;

/// An undirected graph with a positive integer weight per edge.
///
/// Weights are stored parallel to the CSR adjacency array, so
/// `neighbors_weighted(v)` is a contiguous scan.
///
/// # Examples
///
/// ```
/// use rsched_graph::WeightedCsr;
///
/// let g = WeightedCsr::from_weighted_edges(3, [(0, 1, 5), (1, 2, 7)]);
/// let out: Vec<_> = g.neighbors_weighted(1).collect();
/// assert_eq!(out, vec![(0, 5), (2, 7)]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct WeightedCsr {
    graph: CsrGraph,
    /// `weights[i]` is the weight of the `i`-th half-edge.
    weights: Vec<u32>,
}

impl WeightedCsr {
    /// Builds a weighted graph from `(u, v, w)` triples.
    ///
    /// Self-loops are dropped. If the same edge appears multiple times the
    /// smallest weight wins (so the result is well-defined regardless of
    /// input order).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_weighted_edges<I>(n: usize, triples: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, u32)>,
    {
        let mut norm: Vec<(u32, u32, u32)> = triples
            .into_iter()
            .filter(|&(a, b, _)| a != b)
            .map(|(a, b, w)| if a < b { (a, b, w) } else { (b, a, w) })
            .collect();
        norm.sort_unstable();
        norm.dedup_by(|next, prev| (next.0, next.1) == (prev.0, prev.1));
        let keys: Vec<u64> = norm.iter().map(|&(a, b, _)| key(a, b)).collect();
        let graph = CsrGraph::unfilled(n, keys.len()).fill(&keys, threads_for(keys.len()));
        Self::weigh(graph, norm.iter().map(|&(_, _, w)| w))
    }

    /// Attaches uniform random weights in `lo..=hi` to every edge of `g`,
    /// drawn in canonical edge order.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo == 0` (SSSP requires positive weights).
    pub fn with_uniform_weights<R: Rng>(g: &CsrGraph, lo: u32, hi: u32, rng: &mut R) -> Self {
        assert!(lo > 0, "SSSP weights must be positive");
        assert!(lo <= hi, "empty weight range");
        Self::weigh(g.clone(), std::iter::repeat_with(|| rng.gen_range(lo..=hi)))
    }

    /// Gives the edges of `graph` the weights of `weights`, in canonical edge
    /// order, placing each at both of its half-edges. Replaying that order
    /// appends to every adjacency range in order, as the CSR fill did.
    fn weigh(graph: CsrGraph, weights: impl IntoIterator<Item = u32>) -> Self {
        let offsets = graph.offsets();
        let mut cursor = offsets[..offsets.len() - 1].to_vec();
        let mut placed = vec![0u32; offsets[offsets.len() - 1]];
        for ((a, b), w) in graph.edges().zip(weights) {
            placed[cursor[a as usize]] = w;
            cursor[a as usize] += 1;
            placed[cursor[b as usize]] = w;
            cursor[b as usize] += 1;
        }
        WeightedCsr { graph, weights: placed }
    }

    /// The underlying unweighted graph.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`, neighbor-sorted.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors_weighted(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let start = self.graph.offsets()[v as usize];
        let ns = self.graph.neighbors(v);
        ns.iter().copied().zip(self.weights[start..start + ns.len()].iter().copied())
    }
}

impl fmt::Debug for WeightedCsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightedCsr")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_symmetric() {
        let g = WeightedCsr::from_weighted_edges(4, [(0, 1, 3), (2, 1, 9), (3, 0, 4)]);
        let w01: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(w01, vec![(1, 3), (3, 4)]);
        let w1: Vec<_> = g.neighbors_weighted(1).collect();
        assert_eq!(w1, vec![(0, 3), (2, 9)]);
    }

    #[test]
    fn duplicate_edges_take_min_weight() {
        let g = WeightedCsr::from_weighted_edges(2, [(0, 1, 9), (1, 0, 2), (0, 1, 5)]);
        assert_eq!(g.num_edges(), 1);
        let w: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(w, vec![(1, 2)]);
    }

    /// Weighing a graph in place equals rebuilding it from its weighted
    /// edges, drawn in range and in canonical order, and leaves the
    /// generator there too.
    #[test]
    fn uniform_weights_equal_the_weighted_edge_build() {
        for (n, m, seed) in [(0, 0, 1), (40, 0, 2), (300, 2_000, 3), (60, 1_500, 4)] {
            let g = crate::gen::gnm(n, m, &mut StdRng::seed_from_u64(seed));
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let weighed = WeightedCsr::with_uniform_weights(&g, 2, 6, &mut ours);
            assert!(weighed.weights.iter().all(|w| (2..=6).contains(w)));
            let triples: Vec<_> = g.edges().map(|(u, v)| (u, v, theirs.gen_range(2..=6))).collect();
            assert_eq!(weighed, WeightedCsr::from_weighted_edges(n, triples), "n = {n}, m = {m}");
            assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>(), "n = {n}, m = {m}");
        }
    }

    #[test]
    fn all_half_edges_covered() {
        let g = WeightedCsr::from_weighted_edges(
            5,
            [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5)],
        );
        let mut count = 0;
        for v in 0..5 {
            count += g.neighbors_weighted(v).count();
        }
        assert_eq!(count, 2 * g.num_edges());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        let base = CsrGraph::from_edges(2, [(0, 1)]);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = WeightedCsr::with_uniform_weights(&base, 0, 3, &mut rng);
    }
}
