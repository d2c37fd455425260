//! Connected components, used by tests and the bench harness to
//! sanity-check generated instances.

use crate::CsrGraph;

/// The component labeling of `g`: `labels[v]` is the id of `v`'s component
/// (ids are dense, assigned in order of discovery from vertex 0 upward),
/// plus the number of components.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    for start in 0..n as u32 {
        if labels[start as usize] != u32::MAX {
            continue;
        }
        labels[start as usize] = count;
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(v) {
                if labels[u as usize] == u32::MAX {
                    labels[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (labels, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_is_connected() {
        let (_, count) = connected_components(&gen::path(10));
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_graph_components() {
        let (labels, count) = connected_components(&gen::empty(5));
        assert_eq!(count, 5);
        assert_eq!(labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(connected_components(&gen::empty(0)).1, 0);
    }

    #[test]
    fn two_components() {
        let g = CsrGraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn dense_gnp_is_connected() {
        use rand::{rngs::StdRng, SeedableRng};
        let g = gen::gnp(200, 0.1, &mut StdRng::seed_from_u64(1));
        // p well above the ln(n)/n ≈ 0.027 connectivity threshold.
        assert_eq!(connected_components(&g).1, 1);
    }

    #[test]
    fn labels_cover_all_vertices() {
        let g = gen::grid2d(4, 5);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 1);
        assert_eq!(labels.len(), 20);
        assert!(labels.iter().all(|&l| l == 0));
    }
}
