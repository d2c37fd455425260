//! List contraction (§2.3): a non-graph workload with an `m = O(n)`-sparse
//! dependency structure, where relaxation is essentially free.
//!
//! Run with: `cargo run --release --example list_contraction`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::list_contraction::{sequential_contraction, ConcurrentContraction};
use rsched::core::framework::run_relaxed;
use rsched::graph::{ListInstance, Permutation};
use rsched::queues::relaxed::SimMultiQueue;

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    let n = 200_000;
    let list = ListInstance::new_shuffled(n, &mut rng);
    let pi = Permutation::random(n, &mut rng);

    // Ground truth: each element's (prev, next) at its contraction time.
    let expected = sequential_contraction(&list, &pi);

    for &k in &[4usize, 16, 64, 256] {
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(2));
        let alg = ConcurrentContraction::new(&list, &pi);
        let stats = run_relaxed(&alg, &pi, sched);
        assert_eq!(alg.into_output(), expected, "contraction records are deterministic");
        println!(
            "k={k:>4}: {} extra iterations on {} elements ({:.5}% waste)",
            stats.extra_iterations(),
            n,
            100.0 * stats.extra_iterations() as f64 / n as f64
        );
    }
    println!("\nThe dependency graph is a path (m = n − 1): Theorem 1 gives O(poly(k)/1)");
    println!("waste per element-pair — negligible for k ≪ n, as observed.");
}
