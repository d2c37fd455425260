//! Concurrent executor integration: every workload × the MultiQueue, the
//! lock-free MultiQueue and the exact FAA path × several thread counts must
//! reproduce the sequential output. `tests/determinism.rs` runs the wider
//! concurrent table (every variant, adversarial graphs, repeated runs); these
//! five cases stay as tier-1 smoke tests with the pop-accounting identities.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::coloring::{greedy_coloring, ConcurrentColoring};
use rsched::core::algorithms::knuth_shuffle::{
    fisher_yates, random_targets, shuffle_priorities, ConcurrentShuffle,
};
use rsched::core::algorithms::list_contraction::{sequential_contraction, ConcurrentContraction};
use rsched::core::algorithms::matching::{greedy_matching, ConcurrentMatching, MatchingInstance};
use rsched::core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched::core::framework::{
    fill_scheduler, run_concurrent, run_exact_concurrent, ConcurrentAlgorithm,
};
use rsched::core::TaskId;
use rsched::graph::{gen, ListInstance, Permutation};
use rsched::queues::concurrent::{LockFreeMultiQueue, MultiQueue};

const THREADS: &[usize] = &[1, 2, 4];

/// Runs `alg` under both relaxed concurrent schedulers plus the exact
/// FAA path, checking output each time via `extract`.
fn run_all_schedulers<A, F, O>(make_alg: &dyn Fn() -> A, pi: &Permutation, extract: F, expected: &O)
where
    A: ConcurrentAlgorithm,
    F: Fn(A) -> O,
    O: PartialEq + std::fmt::Debug,
{
    for &threads in THREADS {
        {
            let alg = make_alg();
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
            fill_scheduler(&sched, pi);
            let stats = run_concurrent(&alg, pi, &sched, threads);
            assert_eq!(stats.processed + stats.obsolete, pi.len() as u64);
            assert_eq!(&extract(alg), expected, "MultiQueue threads={threads}");
            assert_eq!(stats.total_pops, stats.processed + stats.wasted + stats.obsolete);
        }
        {
            let alg = make_alg();
            let sched: LockFreeMultiQueue<TaskId> = LockFreeMultiQueue::prefilled(
                4 * threads,
                (0..pi.len() as u32).map(|v| (pi.label(v) as u64, v)),
            );
            let _ = run_concurrent(&alg, pi, &sched, threads);
            assert_eq!(&extract(alg), expected, "LF-MultiQueue threads={threads}");
        }
        {
            let alg = make_alg();
            let stats = run_exact_concurrent(&alg, pi, threads);
            assert_eq!(&extract(alg), expected, "exact FAA threads={threads}");
            assert_eq!(stats.total_pops, pi.len() as u64);
        }
    }
}

#[test]
fn concurrent_mis_all_schedulers() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = gen::gnm(2_000, 12_000, &mut rng);
    let pi = Permutation::random(2_000, &mut rng);
    let expected = greedy_mis(&g, &pi);
    run_all_schedulers(&|| ConcurrentMis::new(&g, &pi), &pi, |a| a.into_output(), &expected);
}

#[test]
fn concurrent_coloring_all_schedulers() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = gen::gnm(1_500, 9_000, &mut rng);
    let pi = Permutation::random(1_500, &mut rng);
    let expected = greedy_coloring(&g, &pi);
    run_all_schedulers(&|| ConcurrentColoring::new(&g, &pi), &pi, |a| a.into_output(), &expected);
}

#[test]
fn concurrent_matching_all_schedulers() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = gen::gnm(800, 4_000, &mut rng);
    let inst = MatchingInstance::new(&g);
    let pi = Permutation::random(inst.num_edges(), &mut rng);
    let expected = greedy_matching(&inst, &pi);
    run_all_schedulers(
        &|| ConcurrentMatching::new(&inst, &pi),
        &pi,
        |a| a.into_output(),
        &expected,
    );
}

#[test]
fn concurrent_list_contraction_all_schedulers() {
    let mut rng = StdRng::seed_from_u64(5);
    let list = ListInstance::new_shuffled(2_000, &mut rng);
    let pi = Permutation::random(2_000, &mut rng);
    let expected = sequential_contraction(&list, &pi);
    run_all_schedulers(
        &|| ConcurrentContraction::new(&list, &pi),
        &pi,
        |a| a.into_output(),
        &expected,
    );
}

#[test]
fn concurrent_shuffle_all_schedulers() {
    let mut rng = StdRng::seed_from_u64(6);
    let targets = random_targets(2_000, &mut rng);
    let pi = shuffle_priorities(2_000);
    let expected = fisher_yates(&targets);
    run_all_schedulers(
        &|| ConcurrentShuffle::new(targets.clone()),
        &pi,
        |a| a.into_output(),
        &expected,
    );
}
