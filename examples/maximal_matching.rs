//! Greedy maximal matching through the relaxed framework, both the direct
//! edge-task formulation and the paper's line-graph reduction (§2.4), which
//! must agree exactly.
//!
//! Run with: `cargo run --release --example maximal_matching`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::matching::{
    greedy_matching, matching_via_line_graph, verify_matching, ConcurrentMatching, MatchingInstance,
};
use rsched::core::framework::run_relaxed;
use rsched::graph::{gen, Permutation};
use rsched::queues::relaxed::SimMultiQueue;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = gen::gnm(10_000, 60_000, &mut rng);
    let inst = MatchingInstance::new(&g);
    let pi = Permutation::random(inst.num_edges(), &mut rng);

    let expected = greedy_matching(&inst, &pi);
    let matched = expected.iter().filter(|&&b| b).count();
    println!(
        "graph: n = {}, m = {} — greedy maximal matching has {matched} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Relaxed execution: same matching, bounded extra work (Theorem 2 via
    // MIS on the line graph).
    for &k in &[4usize, 16, 64] {
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(3));
        let alg = ConcurrentMatching::new(&inst, &pi);
        let stats = run_relaxed(&alg, &pi, sched);
        let m = alg.into_output();
        assert!(verify_matching(&inst, &m));
        assert_eq!(m, expected);
        println!("  k={k:>3}: extra iterations = {}", stats.extra_iterations());
    }

    // Cross-check the §2.4 reduction on a smaller instance (the line graph
    // is Θ(Σ deg²) so we keep it modest).
    let small = gen::gnm(500, 1_500, &mut rng);
    let small_inst = MatchingInstance::new(&small);
    let small_pi = Permutation::random(small_inst.num_edges(), &mut rng);
    let direct = greedy_matching(&small_inst, &small_pi);
    let via_lg = matching_via_line_graph(&small, &small_pi);
    assert_eq!(direct, via_lg);
    println!("\nline-graph reduction cross-check passed on G(500, 1500)");
}
