//! Output determinism over the sticky-pair MultiQueue core, under every
//! bucket kind: the scheduler holds a two-choice pair for several pops and
//! `ConcurrentMis` / `ConcurrentMatching` publish `remaining` once per
//! call, so the order tasks arrive in and the moment the run ends both
//! moved. Neither may move the output, the termination count, or the pop
//! ledger, at any thread count or batch size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::matching::{greedy_matching, ConcurrentMatching, MatchingInstance};
use rsched_core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched_core::framework::{fill_scheduler, run_concurrent_batched, ConcurrentAlgorithm};
use rsched_core::TaskId;
use rsched_graph::{gen, Permutation};
use rsched_queues::concurrent::{BulkMultiQueue, LockFreeMultiQueue, MultiQueue};
use rsched_queues::reclaim::{Ebr, Vbr};
use rsched_queues::ConcurrentScheduler;

/// Runs `alg` to completion over `sched`, which holds every task, checks
/// the termination count and the ledger, and hands `alg` back.
fn run_and_check_ledger<A: ConcurrentAlgorithm>(
    alg: A,
    pi: &Permutation,
    sched: &impl ConcurrentScheduler<TaskId>,
    (threads, batch): (usize, usize),
) -> A {
    let stats = run_concurrent_batched(&alg, pi, sched, threads, batch);
    assert_eq!(alg.remaining(), 0, "t={threads} b={batch}");
    assert_eq!(
        stats.processed + stats.obsolete,
        stats.total_pops - stats.wasted,
        "t={threads} b={batch}: a pop is a process, an obsolete drop or a failed delete"
    );
    alg
}

/// Runs a fresh `make()` over each MultiQueue alias, built the way its
/// callers build it, and hands the finished algorithm to `verify`.
fn check_every_alias<A: ConcurrentAlgorithm>(
    pi: &Permutation,
    at: (usize, usize),
    make: impl Fn() -> A,
    verify: impl Fn(A, &str),
) {
    let tasks = || (0..pi.len() as TaskId).map(|v| (u64::from(pi.label(v)), v));
    let (threads, _) = at;
    let run = BulkMultiQueue::prefilled_for_threads(threads, tasks());
    verify(run_and_check_ledger(make(), pi, &run, at), "run");
    let heap = MultiQueue::for_threads(threads);
    fill_scheduler(&heap, pi);
    verify(run_and_check_ledger(make(), pi, &heap, at), "heap");
    let list = LockFreeMultiQueue::<_, Ebr>::prefilled_in(4 * threads, tasks());
    verify(run_and_check_ledger(make(), pi, &list, at), "list/ebr");
    let list = LockFreeMultiQueue::<_, Vbr>::prefilled_in(4 * threads, tasks());
    verify(run_and_check_ledger(make(), pi, &list, at), "list/vbr");
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
            let make = || ConcurrentMis::new(&g, &pi);
            check_every_alias(&pi, (threads, batch), make, |alg, alias| {
                assert_eq!(alg.into_output(), mis, "mis {alias} t={threads} b={batch}");
            });
            let make = || ConcurrentMatching::new(&inst, &edge_pi);
            check_every_alias(&edge_pi, (threads, batch), make, |alg, alias| {
                assert_eq!(alg.into_output(), matching, "matching {alias} t={threads} b={batch}");
            });
        }
    }
}
