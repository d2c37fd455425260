//! A skewed-degree generator: preferential attachment.
//!
//! The paper's experiments use Erdős–Rényi graphs; this family stresses
//! the schedulers with a heavy-tailed degree distribution in the wider
//! test suite and `theorem2_sweep`.

use crate::CsrGraph;
use rand::Rng;

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach + 1` vertices, then each new vertex attaches to `attach` existing
/// vertices chosen proportionally to their degree.
///
/// # Panics
///
/// Panics if `attach == 0` or `n < attach + 1`.
pub fn barabasi_albert<R: Rng>(n: usize, attach: usize, rng: &mut R) -> CsrGraph {
    assert!(attach > 0, "attach must be positive");
    assert!(n > attach, "need at least attach + 1 = {} vertices", attach + 1);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * attach);
    // `endpoints` holds one entry per half-edge: sampling uniformly from it
    // is sampling proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * attach);
    for u in 0..attach as u32 + 1 {
        for v in (u + 1)..attach as u32 + 1 {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (attach + 1)..n {
        let v = v as u32;
        let mut chosen: Vec<u32> = Vec::with_capacity(attach);
        while chosen.len() < attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push((t, v));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    CsrGraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ba_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200;
        let attach = 3;
        let g = barabasi_albert(n, attach, &mut rng);
        assert_eq!(g.num_vertices(), n);
        // clique + attach per later vertex (all edges distinct by construction)
        let expected = attach * (attach + 1) / 2 + (n - attach - 1) * attach;
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn ba_has_skewed_degrees() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = barabasi_albert(500, 2, &mut rng);
        assert!(g.max_degree() > 4 * g.avg_degree() as usize);
    }

    #[test]
    #[should_panic(expected = "attach must be positive")]
    fn ba_zero_attach() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = barabasi_albert(10, 0, &mut rng);
    }
}
