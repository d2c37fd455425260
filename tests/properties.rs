//! Property-based integration tests: arbitrary graphs, permutations, seeds
//! and schedulers; outputs must always be valid *and* equal the sequential
//! reference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::coloring::{greedy_coloring, verify_coloring, ConcurrentColoring};
use rsched::core::algorithms::knuth_shuffle::{
    fisher_yates, shuffle_priorities, ConcurrentShuffle,
};
use rsched::core::algorithms::list_contraction::{sequential_contraction, ConcurrentContraction};
use rsched::core::algorithms::matching::{
    greedy_matching, verify_matching, ConcurrentMatching, MatchingInstance,
};
use rsched::core::algorithms::mis::{greedy_mis, verify_mis, ConcurrentMis};
use rsched::core::framework::run_relaxed;
use rsched::graph::{CsrGraph, ListInstance, Permutation};
use rsched::queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};

/// Strategy: a graph on `1..=max_n` vertices with arbitrary edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mis_valid_and_deterministic(
        g in arb_graph(48, 256),
        pi_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        k in 1usize..32,
    ) {
        let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(pi_seed));
        let expected = greedy_mis(&g, &pi);
        prop_assert!(verify_mis(&g, &expected));
        let sched = TopKUniform::new(k, StdRng::seed_from_u64(sched_seed));
        let alg = ConcurrentMis::new(&g, &pi);
        let stats = run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(stats.processed + stats.obsolete, g.num_vertices() as u64);
    }

    #[test]
    fn coloring_valid_and_deterministic(
        g in arb_graph(48, 256),
        pi_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        q in 1usize..16,
    ) {
        let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(pi_seed));
        let expected = greedy_coloring(&g, &pi);
        prop_assert!(verify_coloring(&g, &expected));
        let sched = SimMultiQueue::new(q, StdRng::seed_from_u64(sched_seed));
        let alg = ConcurrentColoring::new(&g, &pi);
        run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert_eq!(&out, &expected);
        // Greedy never uses more colors than max degree + 1.
        let max_color = *out.iter().max().unwrap_or(&0) as usize;
        prop_assert!(g.num_vertices() == 0 || max_color <= g.max_degree());
    }

    #[test]
    fn matching_valid_and_deterministic(
        g in arb_graph(32, 128),
        pi_seed in any::<u64>(),
        sched_seed in any::<u64>(),
    ) {
        let inst = MatchingInstance::new(&g);
        prop_assume!(inst.num_edges() > 0);
        let pi = Permutation::random(inst.num_edges(), &mut StdRng::seed_from_u64(pi_seed));
        let expected = greedy_matching(&inst, &pi);
        prop_assert!(verify_matching(&inst, &expected));
        let sched = SimSprayList::with_threads(8, StdRng::seed_from_u64(sched_seed));
        let alg = ConcurrentMatching::new(&inst, &pi);
        run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert_eq!(&out, &expected);
    }

    #[test]
    fn contraction_deterministic(
        n in 1usize..128,
        order_seed in any::<u64>(),
        pi_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        k in 1usize..24,
    ) {
        let list = ListInstance::new_shuffled(n, &mut StdRng::seed_from_u64(order_seed));
        let pi = Permutation::random(n, &mut StdRng::seed_from_u64(pi_seed));
        let expected = sequential_contraction(&list, &pi);
        let sched = TopKUniform::new(k, StdRng::seed_from_u64(sched_seed));
        let alg = ConcurrentContraction::new(&list, &pi);
        run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert_eq!(&out, &expected);
    }

    #[test]
    fn shuffle_deterministic_and_permutes(
        targets_raw in proptest::collection::vec(any::<u32>(), 1..128),
        sched_seed in any::<u64>(),
        q in 1usize..16,
    ) {
        // Normalize arbitrary u32s into valid targets H[i] ∈ [0, i].
        let targets: Vec<u32> = targets_raw
            .iter()
            .enumerate()
            .map(|(i, &r)| (r as usize % (i + 1)) as u32)
            .collect();
        let n = targets.len();
        let pi = shuffle_priorities(n);
        let expected = fisher_yates(&targets);
        let mut check = expected.clone();
        check.sort_unstable();
        prop_assert_eq!(check, (0..n as u32).collect::<Vec<_>>());
        let sched = SimMultiQueue::new(q, StdRng::seed_from_u64(sched_seed));
        let alg = ConcurrentShuffle::new(targets);
        run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert_eq!(&out, &expected);
    }

    #[test]
    fn mis_and_matching_outputs_relate(
        g in arb_graph(24, 64),
        pi_seed in any::<u64>(),
    ) {
        // Structural cross-check: a maximal matching, viewed as vertices,
        // touches every edge (it is a vertex cover via its endpoints).
        let inst = MatchingInstance::new(&g);
        prop_assume!(inst.num_edges() > 0);
        let pi = Permutation::random(inst.num_edges(), &mut StdRng::seed_from_u64(pi_seed));
        let m = greedy_matching(&inst, &pi);
        let mut covered = vec![false; g.num_vertices()];
        for (e, &inm) in m.iter().enumerate() {
            if inm {
                let (a, b) = inst.edges[e];
                covered[a as usize] = true;
                covered[b as usize] = true;
            }
        }
        for (u, v) in g.edges() {
            prop_assert!(covered[u as usize] || covered[v as usize],
                "edge ({u},{v}) not covered: matching not maximal");
        }
    }
}
