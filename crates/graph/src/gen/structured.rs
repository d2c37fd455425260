//! Deterministic structured graph families.

use crate::CsrGraph;

/// The empty graph on `n` vertices.
pub fn empty(n: usize) -> CsrGraph {
    CsrGraph::empty(n)
}

/// The complete graph `K_n`. This is the worst case for the general framework
/// (Theorem 1 is tight on the clique: greedy coloring needs `Θ(nk)`
/// iterations).
pub fn complete(n: usize) -> CsrGraph {
    CsrGraph::from_edges(
        n,
        (0..n as u32).flat_map(move |u| ((u + 1)..n as u32).map(move |v| (u, v))),
    )
}

/// The path `0 — 1 — … — (n−1)`.
pub fn path(n: usize) -> CsrGraph {
    CsrGraph::from_edges(n, (1..n as u32).map(|v| (v - 1, v)))
}

/// The cycle on `n` vertices (requires `n == 0` or `n >= 3`).
///
/// # Panics
///
/// Panics if `n` is 1 or 2 (no simple cycle exists).
pub fn cycle(n: usize) -> CsrGraph {
    if n == 0 {
        return CsrGraph::empty(0);
    }
    assert!(n >= 3, "a simple cycle needs at least 3 vertices");
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
    edges.push((0, n as u32 - 1));
    CsrGraph::from_edges(n, edges)
}

/// The star with center `0` and `n − 1` leaves.
pub fn star(n: usize) -> CsrGraph {
    CsrGraph::from_edges(n, (1..n as u32).map(|v| (0, v)))
}

/// The `rows × cols` grid graph (4-neighbor).
pub fn grid2d(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// The complete bipartite graph `K_{a,b}` (left part `0..a`, right `a..a+b`).
pub fn complete_bipartite(a: usize, b: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a as u32 {
        for v in 0..b as u32 {
            edges.push((u, a as u32 + v));
        }
    }
    CsrGraph::from_edges(a + b, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
        assert_eq!(complete(0).num_vertices(), 0);
        assert_eq!(complete(1).num_edges(), 0);
    }

    #[test]
    fn path_and_cycle() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
        let c = cycle(5);
        assert_eq!(c.num_edges(), 5);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
        assert!(c.has_edge(0, 4));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn star_degrees() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn grid_structure() {
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
    }

    #[test]
    fn bipartite_structure() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 12);
        assert!((0..3u32).all(|v| g.degree(v) == 4));
        assert!((3..7u32).all(|v| g.degree(v) == 3));
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }
}
