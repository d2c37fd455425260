//! The paper's central claim, tested end-to-end: for every workload — the
//! five of §2, the two incremental ones and the generic explicit DAG — and
//! every executor, the framework's output is identical to the sequential
//! algorithm's for the same priority permutation. The executors are the
//! sequential model over every scheduler (exact, canonical top-k, simulated
//! MultiQueue, simulated SprayList, fully random) and the thread executors:
//! the relaxed one over every MultiQueue variant and two 3-shard
//! `ShardedScheduler`s (locked buckets, and the streaming service's
//! lock-free lists over EBR, bulk-loaded), the streaming service itself
//! (`run_service` over its own scheduler, one producer pushing the tasks in
//! label order), all at 1, 2 and 4 threads and batch sizes 1 and 8, and
//! the exact one, `run_exact_concurrent`. This is the one equivalence
//! table: the algorithm modules' own tests check their kernels, not the
//! executors.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::coloring::{greedy_coloring, verify_coloring, ConcurrentColoring};
use rsched::core::algorithms::explicit_dag::ExplicitDag;
use rsched::core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched::core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay,
};
use rsched::core::algorithms::incremental::insertion_order;
use rsched::core::algorithms::knuth_shuffle::{
    fisher_yates, random_targets, shuffle_priorities, ConcurrentShuffle,
};
use rsched::core::algorithms::list_contraction::{sequential_contraction, ConcurrentContraction};
use rsched::core::algorithms::matching::{
    greedy_matching, verify_matching, ConcurrentMatching, MatchingInstance,
};
use rsched::core::algorithms::mis::{greedy_mis, verify_mis, ConcurrentMis};
use rsched::core::framework::{
    fill_scheduler, run_concurrent_batched, run_exact, run_exact_concurrent, run_relaxed,
    ConcurrentAlgorithm,
};
use rsched::core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, ServiceConfig, ServiceStats,
};
use rsched::core::TaskId;
use rsched::graph::geom::uniform_square;
use rsched::graph::{gen, CsrGraph, ListInstance, Permutation};
use rsched::queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched::queues::exact::BinaryHeapScheduler;
use rsched::queues::instrument::Instrumented;
use rsched::queues::reclaim::{Ebr, Vbr};
use rsched::queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform, UniformRandom};
use rsched::queues::sharded::ShardedScheduler;
use rsched::queues::{ConcurrentScheduler, PriorityScheduler, SchedulerLoad};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// `shards` hash-routed `SimMultiQueue(4)` shards drained round-robin.
fn sharded_sim(shards: usize, seed: u64) -> ShardedScheduler<SimMultiQueue<TaskId, StdRng>> {
    ShardedScheduler::from_fn(shards, |i| {
        SimMultiQueue::new(4, StdRng::seed_from_u64(seed + i as u64))
    })
}

/// Runs `make_alg()` through every scheduler and asserts that what
/// `output` extracts from the finished algorithm always equals `expected`.
fn assert_deterministic<A, O>(
    pi: &Permutation,
    expected: &O,
    make_alg: impl Fn() -> A,
    output: impl Fn(A) -> O,
) where
    A: ConcurrentAlgorithm,
    O: PartialEq + std::fmt::Debug,
{
    let scheds: Vec<(&str, Box<dyn PriorityScheduler<TaskId>>)> = vec![
        ("binary-heap", Box::new(BinaryHeapScheduler::new())),
        ("top-4", Box::new(TopKUniform::new(4, StdRng::seed_from_u64(1)))),
        ("top-64", Box::new(TopKUniform::new(64, StdRng::seed_from_u64(2)))),
        ("sim-mq-8", Box::new(SimMultiQueue::new(8, StdRng::seed_from_u64(3)))),
        ("sim-spray-16", Box::new(SimSprayList::with_threads(16, StdRng::seed_from_u64(4)))),
        ("uniform-random", Box::new(UniformRandom::new(StdRng::seed_from_u64(5)))),
        // A wrapped scheduler and the sequential model of sharding.
        (
            "instrumented-sim-mq-8",
            Box::new(Instrumented::new(SimMultiQueue::new(8, StdRng::seed_from_u64(6)))),
        ),
        ("sharded-1", Box::new(sharded_sim(1, 7))),
        ("sharded-3", Box::new(sharded_sim(3, 8))),
    ];
    let alg = make_alg();
    let exact_stats = run_exact(&alg, pi);
    assert_eq!(&output(alg), expected, "run_exact diverged from reference");
    assert_eq!(exact_stats.total_pops as usize, pi.len());
    for (name, sched) in scheds {
        let alg = make_alg();
        let stats = run_relaxed(&alg, pi, sched);
        assert_eq!(&output(alg), expected, "scheduler {name} changed the output");
        // The `ConcurrentAlgorithm` contract: no task blocks in exact order.
        if name == "binary-heap" {
            assert_eq!(stats.wasted, 0, "a task blocked in exact order");
        }
    }
    assert_concurrent_deterministic(pi, &[1, 2, 4], make_alg, |alg, row| {
        assert_eq!(&output(alg), expected, "{row} changed the output");
    });
}

/// Runs a fresh `make_alg()` through every thread executor at each of
/// `threads` and hands each finished algorithm to `verify` with its row's
/// name: the relaxed executor at batch sizes 1 and 8 over every MultiQueue
/// variant — the locked one both bulk-loaded (its sorted runs serve) and
/// filled by inserts (its insert buffers do) — and over 3-shard
/// `ShardedScheduler`s of locked buckets and of the service's EBR lists;
/// the streaming service over its own scheduler, at `t` workers popping
/// the same run lengths; then `run_exact_concurrent`. Every row must
/// finish the algorithm and balance its pop ledger; the exact row's
/// retries are pops like any failed delete.
fn assert_concurrent_deterministic<A: ConcurrentAlgorithm>(
    pi: &Permutation,
    threads: &[usize],
    make_alg: impl Fn() -> A,
    verify: impl Fn(A, &str),
) {
    let tasks = || (0..pi.len() as TaskId).map(|v| (u64::from(pi.label(v)), v));
    for &t in threads {
        for batch in [1, 8] {
            // One row: a fresh algorithm run to the end by `$run`, or by
            // the relaxed executor over `$sched`.
            macro_rules! row {
                ($name:literal, |$alg:ident, $row:ident| $run:expr) => {{
                    let row = format!("{} t={t} b={batch}", $name);
                    let ($alg, $row) = (make_alg(), row.as_str());
                    let stats = $run;
                    let n = pi.len() as u64;
                    assert_eq!(stats.processed + stats.obsolete, n, "{row}: ledger out of balance");
                    let decided = stats.processed + stats.wasted + stats.obsolete;
                    assert_eq!(stats.total_pops, decided, "{row}: pops ≠ outcomes");
                    verify($alg, &row);
                }};
                ($name:literal, $sched:expr) => {
                    row!($name, |alg, _row| run_concurrent_batched(&alg, pi, &$sched, t, batch))
                };
            }
            row!("prefilled", MultiQueue::prefilled_for_threads(t, tasks()));
            row!("list/ebr", LockFreeMultiQueue::<_, Ebr>::prefilled_in(4 * t, tasks()));
            row!("list/vbr", LockFreeMultiQueue::<_, Vbr>::prefilled_in(4 * t, tasks()));
            row!("inserted", filled(MultiQueue::for_threads(t), pi));
            row!("inserted over 3 shards", {
                filled(ShardedScheduler::from_fn(3, |_| MultiQueue::for_threads(t)), pi)
            });
            // The service's scheduler, bulk-loaded, under the relaxed
            // executor and the algorithm's purge.
            row!("list/ebr over 3 shards", {
                ShardedScheduler::prefilled_with(3, tasks(), |_, group| {
                    LockFreeMultiQueue::<_, Ebr>::prefilled_in(4, group)
                })
            });
            // The streaming service on its own scheduler, four EBR lists per
            // shard, filled as it runs.
            row!("streamed", |alg, row| {
                let sched =
                    ShardedScheduler::from_fn(3, |_| LockFreeMultiQueue::<_, Ebr>::new_in(4));
                streamed(&alg, pi, &sched, t, batch, row)
            });
        }
        let alg = make_alg();
        let stats = run_exact_concurrent(&alg, pi, t);
        let n = pi.len() as u64;
        assert_eq!(stats.processed + stats.obsolete, n, "exact t={t}: ledger out of balance");
        let decided = stats.processed + stats.wasted + stats.obsolete;
        assert_eq!(stats.total_pops, decided, "exact t={t}: pops ≠ outcomes");
        verify(alg, &format!("exact t={t}"));
    }
}

/// Runs `alg` behind `run_service` over `sched`: `workers` workers popping
/// runs of `batch_size`, one producer pushing every task at its label in
/// label order and flushing runs of 8. The service's ledger must balance
/// over exactly the `n` tasks pushed.
fn streamed<A, S>(
    alg: &A,
    pi: &Permutation,
    sched: &S,
    workers: usize,
    batch_size: usize,
    row: &str,
) -> ServiceStats
where
    A: ConcurrentAlgorithm,
    S: ConcurrentScheduler<TaskId> + SchedulerLoad,
{
    let config = ServiceConfig { workers, batch_size, flush_batch: 8, ..Default::default() };
    let producer: ProducerFn<'_> = Box::new(|prod: Producer<'_>| {
        for pos in 0..pi.len() as u32 {
            prod.push(u64::from(pos), pi.task_at(pos)).unwrap();
        }
    });
    let stats = run_service(&AlgorithmHandler(alg), sched, &config, vec![producer]);
    assert!(stats.exactly_once(), "{row}: {stats:?}");
    assert_eq!(stats.accepted, pi.len() as u64, "{row}: pushes not all accepted");
    stats
}

/// `sched` after `fill_scheduler`.
fn filled<S: ConcurrentScheduler<TaskId>>(sched: S, pi: &Permutation) -> S {
    fill_scheduler(&sched, pi);
    sched
}

fn test_graphs() -> Vec<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(1000);
    vec![
        gen::gnm(200, 800, &mut rng),
        gen::gnm(500, 500, &mut rng),
        gen::complete(40),
        gen::star(100),
        gen::path(150),
        gen::cycle(99),
        gen::grid2d(12, 12),
        gen::barabasi_albert(300, 3, &mut rng),
        gen::complete_bipartite(30, 50),
        gen::empty(64),
    ]
}

#[test]
fn mis_is_deterministic_on_graph_zoo() {
    let mut rng = StdRng::seed_from_u64(2000);
    for g in test_graphs() {
        let pi = Permutation::random(g.num_vertices(), &mut rng);
        let expected = greedy_mis(&g, &pi);
        assert!(verify_mis(&g, &expected));
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentMis::new(&g, &pi),
            ConcurrentMis::into_output,
        );
    }
}

/// The shapes that stress a relaxed MIS at sizes where the order matters:
/// a clique, where every task depends on every lower label; a star, where
/// one hub decides 799 leaves; and a long path of chained dependencies.
#[test]
fn mis_is_deterministic_on_adversarial_structures() {
    let mut rng = StdRng::seed_from_u64(2);
    for g in [gen::complete(60), gen::star(800), gen::path(1_000)] {
        let pi = Permutation::random(g.num_vertices(), &mut rng);
        let expected = greedy_mis(&g, &pi);
        let make = || ConcurrentMis::new(&g, &pi);
        assert_concurrent_deterministic(&pi, &[1, 2, 4], make, |alg, row| {
            assert_eq!(alg.into_output(), expected, "{} vertices, {row}", g.num_vertices());
        });
    }
}

/// The same 4-thread MIS twenty times over, to catch rare interleavings.
#[test]
fn repeated_runs_are_stable() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::gnm(500, 5_000, &mut rng);
    let pi = Permutation::random(500, &mut rng);
    let expected = greedy_mis(&g, &pi);
    for rep in 0..20 {
        let make = || ConcurrentMis::new(&g, &pi);
        assert_concurrent_deterministic(&pi, &[4], make, |alg, row| {
            assert_eq!(alg.into_output(), expected, "repeat {rep}, {row}");
        });
    }
}

#[test]
fn coloring_is_deterministic_on_graph_zoo() {
    let mut rng = StdRng::seed_from_u64(3000);
    for g in test_graphs() {
        let pi = Permutation::random(g.num_vertices(), &mut rng);
        let expected = greedy_coloring(&g, &pi);
        assert!(verify_coloring(&g, &expected));
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentColoring::new(&g, &pi),
            ConcurrentColoring::into_output,
        );
    }
}

#[test]
fn matching_is_deterministic_on_graph_zoo() {
    let mut rng = StdRng::seed_from_u64(4000);
    for g in test_graphs() {
        let inst = MatchingInstance::new(&g);
        if inst.num_edges() == 0 {
            continue;
        }
        let pi = Permutation::random(inst.num_edges(), &mut rng);
        let expected = greedy_matching(&inst, &pi);
        assert!(verify_matching(&inst, &expected));
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentMatching::new(&inst, &pi),
            ConcurrentMatching::into_output,
        );
    }
}

#[test]
fn list_contraction_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(5000);
    for n in [1usize, 2, 17, 400] {
        let list = ListInstance::new_shuffled(n, &mut rng);
        let pi = Permutation::random(n, &mut rng);
        let expected = sequential_contraction(&list, &pi);
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentContraction::new(&list, &pi),
            ConcurrentContraction::into_output,
        );
    }
}

#[test]
fn knuth_shuffle_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(6000);
    for n in [1usize, 2, 33, 400] {
        let targets = random_targets(n, &mut rng);
        let pi = shuffle_priorities(n);
        let expected = fisher_yates(&targets);
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentShuffle::new(targets.clone()),
            ConcurrentShuffle::into_output,
        );
    }
}

#[test]
fn connectivity_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(8000);
    for (n, m) in [(1usize, 0usize), (50, 40), (300, 900)] {
        let edges = gen::gnm(n, m, &mut rng).edge_list();
        let pi = insertion_order(edges.len(), 8001);
        let expected = components(n, &edges);
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentConnectivity::new(n, &edges),
            ConcurrentConnectivity::into_labels,
        );
    }
}

#[test]
fn delaunay_is_deterministic_in_general_position() {
    // Uniform points in a large square: no four cocircular, so the Delaunay
    // triangulation is unique and every insertion order must reach it.
    let mut rng = StdRng::seed_from_u64(9000);
    for n in [3usize, 40, 250] {
        let pts = uniform_square(n, 1 << 20, &mut rng);
        let pi = insertion_order(n, 9001);
        let expected = delaunay_reference(&pts, &pi).triangles;
        assert!(verify_delaunay(&pts, &expected));
        assert_deterministic(
            &pi,
            &expected,
            || ConcurrentDelaunay::new(&pts, &pi),
            |alg| alg.into_output().triangles,
        );
    }
}

/// The streaming service over one list and one worker pops in label order,
/// so it matches the sequential algorithm also where the order shows and
/// the output does not: Delaunay's created and destroyed cell counts, and
/// connectivity never blocking.
#[test]
fn streamed_over_one_list_runs_in_label_order() {
    let one_list = || ShardedScheduler::from_fn(1, |_| LockFreeMultiQueue::<_, Ebr>::new_in(1));
    let pts = uniform_square(400, 1 << 16, &mut StdRng::seed_from_u64(77));
    let pi = insertion_order(pts.len(), 78);
    let alg = ConcurrentDelaunay::new(&pts, &pi);
    streamed(&alg, &pi, &one_list(), 1, 1, "delaunay");
    assert_eq!(alg.into_output(), delaunay_reference(&pts, &pi), "delaunay");
    let n = 800;
    let edges = gen::gnm(n, 2_000, &mut StdRng::seed_from_u64(75)).edge_list();
    let pi = insertion_order(edges.len(), 76);
    let alg = ConcurrentConnectivity::new(n, &edges);
    let stats = streamed(&alg, &pi, &one_list(), 1, 1, "connectivity");
    assert_eq!(stats.wasted, 0, "connectivity: a task blocked in label order");
    assert_eq!(alg.into_labels(), components(n, &edges), "connectivity");
}

/// Chain depths by the definition: label order, one more than the deepest
/// predecessor.
fn reference_levels(g: &CsrGraph, pi: &Permutation) -> Vec<u32> {
    let mut level = vec![0u32; g.num_vertices()];
    for pos in 0..pi.len() as u32 {
        let v = pi.task_at(pos);
        let preds = g.neighbors(v).iter().filter(|&&u| pi.precedes(u, v));
        level[v as usize] = preds.map(|&u| level[u as usize] + 1).max().unwrap_or(0);
    }
    level
}

#[test]
fn explicit_dag_is_deterministic_on_graph_zoo() {
    let mut rng = StdRng::seed_from_u64(10_000);
    for g in test_graphs() {
        let pi = Permutation::random(g.num_vertices(), &mut rng);
        let expected = reference_levels(&g, &pi);
        let level: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
        assert_deterministic(
            &pi,
            &expected,
            || {
                level.iter().for_each(|l| l.store(u32::MAX, Ordering::Relaxed));
                ExplicitDag::new(&g, &pi, |v, preds| {
                    let depth =
                        preds.iter().map(|&u| level[u as usize].load(Ordering::Relaxed) + 1).max();
                    level[v as usize].store(depth.unwrap_or(0), Ordering::Relaxed);
                })
            },
            |_| level.iter().map(|l| l.load(Ordering::Relaxed)).collect::<Vec<u32>>(),
        );
    }
}

/// The predecessor list `Process(v)` was handed, per task, over one run of
/// the generic oracle; panics if a task is processed twice or never.
fn predecessor_sets(
    g: &CsrGraph,
    pi: &Permutation,
    run: impl FnOnce(&ExplicitDag<'_, &(dyn Fn(TaskId, &[TaskId]) + Sync)>),
) -> Vec<Vec<TaskId>> {
    let seen: Vec<OnceLock<Vec<TaskId>>> = (0..g.num_vertices()).map(|_| OnceLock::new()).collect();
    let log = |v: TaskId, preds: &[TaskId]| {
        seen[v as usize].set(preds.to_vec()).expect("task processed twice");
    };
    run(&ExplicitDag::new(g, pi, &log));
    seen.into_iter().map(|s| s.into_inner().expect("task never processed")).collect()
}

#[test]
fn explicit_dag_on_threads_sees_the_exact_predecessor_sets() {
    let mut rng = StdRng::seed_from_u64(11_000);
    let g = gen::gnm(2_000, 10_000, &mut rng);
    let pi = Permutation::random(2_000, &mut rng);
    let exact = predecessor_sets(&g, &pi, |alg| {
        run_exact(alg, &pi);
    });
    for batch in [1usize, 8] {
        let threaded = predecessor_sets(&g, &pi, |alg| {
            let sched: MultiQueue<TaskId> = MultiQueue::for_threads(4);
            fill_scheduler(&sched, &pi);
            let stats = run_concurrent_batched(alg, &pi, &sched, 4, batch);
            assert_eq!((stats.processed, stats.obsolete), (2_000, 0), "batch={batch}");
        });
        assert_eq!(threaded, exact, "batch={batch}");
    }
}

/// At scale, where the sticky two-choice pair and the ledger booked once
/// per run move the order tasks arrive in and the moment a run ends:
/// neither may move the output at any thread count up to 8.
#[test]
fn mis_and_matching_are_deterministic_at_scale() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = gen::gnm(20_000, 100_000, &mut rng);
    let pi = Permutation::random(g.num_vertices(), &mut rng);
    let mis = greedy_mis(&g, &pi);
    let inst = MatchingInstance::new(&g);
    let edge_pi = Permutation::random(inst.num_edges(), &mut rng);
    let matching = greedy_matching(&inst, &edge_pi);
    let threads = [1, 2, 4, 8];
    let make = || ConcurrentMis::new(&g, &pi);
    assert_concurrent_deterministic(&pi, &threads, make, |alg, row| {
        assert_eq!(alg.into_output(), mis, "mis {row}");
    });
    let make = || ConcurrentMatching::new(&inst, &edge_pi);
    assert_concurrent_deterministic(&edge_pi, &threads, make, |alg, row| {
        assert_eq!(alg.into_output(), matching, "matching {row}");
    });
}

#[test]
fn different_permutations_give_different_but_valid_outputs() {
    // Determinism is per-π: two permutations generally disagree, but both
    // outputs are valid. (Guards against "deterministic because constant".)
    let mut rng = StdRng::seed_from_u64(7000);
    let g = gen::gnm(300, 2000, &mut rng);
    let pi1 = Permutation::random(300, &mut rng);
    let pi2 = Permutation::random(300, &mut rng);
    let m1 = greedy_mis(&g, &pi1);
    let m2 = greedy_mis(&g, &pi2);
    assert!(verify_mis(&g, &m1) && verify_mis(&g, &m2));
    assert_ne!(m1, m2, "two random permutations almost surely differ");
}
