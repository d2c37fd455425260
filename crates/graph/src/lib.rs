//! # rsched-graph — graph substrate for the relaxed-scheduler framework
//!
//! Everything the scheduling experiments run *on*: compressed sparse row
//! graphs ([`CsrGraph`], [`WeightedCsr`]), random and structured generators
//! ([`gen`]), priority permutations ([`Permutation`]), line graphs and edge
//! incidence ([`line_graph`], [`Incidence`]), linked-list instances for list
//! contraction ([`list`]), planar points with exact predicates for the
//! incremental Delaunay workload ([`geom`]) and connected components
//! ([`components`]).
//!
//! # Examples
//!
//! ```
//! use rsched_graph::{gen, Permutation};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let g = gen::gnm(1_000, 10_000, &mut rng);       // Table 1's instance family
//! let pi = Permutation::random(g.num_vertices(), &mut rng);
//! assert_eq!(g.num_edges(), 10_000);
//! assert_eq!(pi.len(), 1_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod components;
mod csr;
pub mod gen;
pub mod geom;
mod linegraph;
/// Doubly-linked-list instances for the list-contraction workload.
#[path = "linkedlist.rs"]
pub mod list;
mod permutation;
mod weighted;

pub use csr::CsrGraph;
pub use linegraph::{line_graph, Incidence};
pub use list::ListInstance;
pub use permutation::Permutation;
pub use weighted::WeightedCsr;

#[cfg(test)]
mod proptests {
    use crate::{CsrGraph, Permutation};
    use proptest::prelude::*;

    proptest! {
        /// `from_edges` always yields a well-formed symmetric simple graph.
        #[test]
        fn csr_well_formed(n in 1usize..64, raw in proptest::collection::vec((0u32..64, 0u32..64), 0..256)) {
            let edges: Vec<(u32, u32)> = raw
                .into_iter()
                .map(|(a, b)| (a % n as u32, b % n as u32))
                .collect();
            let g = CsrGraph::from_edges(n, edges.iter().copied());
            let mut m = 0usize;
            for v in g.vertices() {
                let ns = g.neighbors(v);
                prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(!ns.contains(&v));
                for &u in ns {
                    prop_assert!(g.has_edge(u, v));
                }
                m += ns.len();
            }
            prop_assert_eq!(m, 2 * g.num_edges());
            // Every surviving input edge is present.
            for (a, b) in edges {
                if a != b {
                    prop_assert!(g.has_edge(a, b));
                }
            }
        }

        /// Random permutations are bijections with consistent inverse.
        #[test]
        fn permutation_bijection(n in 0usize..256, seed in any::<u64>()) {
            use rand::{SeedableRng, rngs::StdRng};
            let p = Permutation::random(n, &mut StdRng::seed_from_u64(seed));
            let mut seen = vec![false; n];
            for pos in 0..n as u32 {
                let t = p.task_at(pos);
                prop_assert!(!seen[t as usize]);
                seen[t as usize] = true;
                prop_assert_eq!(p.label(t), pos);
            }
        }
    }
}
