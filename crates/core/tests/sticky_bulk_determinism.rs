//! Output determinism over the sticky-pair `BulkMultiQueue`: the scheduler
//! holds a two-choice pair for several pops and `ConcurrentMis` /
//! `ConcurrentMatching` publish `remaining` once per call, so the order
//! tasks arrive in and the moment the run ends both moved. Neither may move
//! the output, the termination count, or the pop ledger, at any thread
//! count or batch size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::matching::{greedy_matching, ConcurrentMatching, MatchingInstance};
use rsched_core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched_core::framework::{run_concurrent_batched, ConcurrentAlgorithm};
use rsched_core::TaskId;
use rsched_graph::{gen, Permutation};
use rsched_queues::concurrent::BulkMultiQueue;

/// Runs `alg` to completion over a prefilled `BulkMultiQueue` and checks
/// the termination count and the ledger.
fn run_and_check_ledger<A: ConcurrentAlgorithm>(
    alg: &A,
    pi: &Permutation,
    threads: usize,
    batch: usize,
) {
    let sched = BulkMultiQueue::prefilled_for_threads(
        threads,
        (0..pi.len() as TaskId).map(|v| (u64::from(pi.label(v)), v)),
    );
    let stats = run_concurrent_batched(alg, pi, &sched, threads, batch);
    assert_eq!(alg.remaining(), 0, "t={threads} b={batch}");
    assert_eq!(
        stats.processed + stats.obsolete,
        stats.total_pops - stats.wasted,
        "t={threads} b={batch}: a pop is a process, an obsolete drop or a failed delete"
    );
}

#[test]
fn mis_and_matching_match_sequential_at_every_thread_count_and_batch() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = gen::gnm(20_000, 100_000, &mut rng);
    let pi = Permutation::random(g.num_vertices(), &mut rng);
    let mis = greedy_mis(&g, &pi);
    let inst = MatchingInstance::new(&g);
    let edge_pi = Permutation::random(inst.num_edges(), &mut rng);
    let matching = greedy_matching(&inst, &edge_pi);

    for threads in [1usize, 2, 4, 8] {
        for batch in [1usize, 8] {
            let alg = ConcurrentMis::new(&g, &pi);
            run_and_check_ledger(&alg, &pi, threads, batch);
            assert_eq!(alg.into_output(), mis, "mis t={threads} b={batch}");

            let alg = ConcurrentMatching::new(&inst, &edge_pi);
            run_and_check_ledger(&alg, &edge_pi, threads, batch);
            assert_eq!(alg.into_output(), matching, "matching t={threads} b={batch}");
        }
    }
}
