//! Quickstart: run greedy MIS through a relaxed scheduler and confirm the
//! two claims of the paper — the output is *deterministic* (identical to the
//! sequential greedy) and the wasted work is *tiny* (`poly(k)`, independent
//! of the graph).
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::mis::{greedy_mis, verify_mis, ConcurrentMis};
use rsched::core::framework::run_relaxed;
use rsched::graph::{gen, Permutation};
use rsched::queues::relaxed::SimMultiQueue;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // A random graph with 100k vertices and 1M edges, and a random priority
    // permutation π — the instance family of the paper's Table 1.
    let n = 100_000;
    let g = gen::gnm(n, 1_000_000, &mut rng);
    let pi = Permutation::random(n, &mut rng);
    println!("graph: {:?}", g);

    // The ground truth: sequential greedy MIS in π order.
    let expected = greedy_mis(&g, &pi);
    let mis_size = expected.iter().filter(|&&b| b).count();
    println!("sequential greedy MIS size: {mis_size}");

    // The same computation through a 16-relaxed scheduler (a simulated
    // MultiQueue with 16 internal queues).
    let sched = SimMultiQueue::new(16, StdRng::seed_from_u64(7));
    let alg = ConcurrentMis::new(&g, &pi);
    let stats = run_relaxed(&alg, &pi, sched);
    let mis = alg.into_output();

    assert!(verify_mis(&g, &mis), "output must be a maximal independent set");
    assert_eq!(mis, expected, "relaxation must not change the output");

    println!("relaxed run:  {stats}");
    println!(
        "cost of relaxation: {} extra iterations on {} tasks ({:.4}% overhead) — poly(k), not O(n)",
        stats.extra_iterations(),
        n,
        100.0 * stats.extra_iterations() as f64 / n as f64
    );
}
