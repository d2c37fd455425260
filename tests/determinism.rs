//! The paper's central claim, tested end-to-end: for every workload — the
//! five of §2, the two incremental ones and the generic explicit DAG — and
//! every scheduler (exact, canonical top-k, simulated MultiQueue, simulated
//! SprayList, fully random), the framework's output is identical to the
//! sequential algorithm's for the same priority permutation.
//!
//! The same table pins the one sequential loop: `run_relaxed` is the batched
//! loop at batch size 1, so every scheduler's `pop_batch` / `insert_batch`
//! must degenerate to its scalar `pop` / `insert` — same element, same RNG
//! draws. Each row is therefore also run through a scalar reference loop
//! kept here, and output *and* `ExecutionStats` must agree.

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
    fill_scheduler, run_concurrent_batched, run_exact, run_relaxed_batched, ConcurrentAlgorithm,
    TaskOutcome,
};
use rsched::core::stats::ExecutionStats;
use rsched::core::TaskId;
use rsched::graph::geom::uniform_square;
use rsched::graph::{gen, CsrGraph, ListInstance, Permutation};
use rsched::queues::concurrent::MultiQueue;
use rsched::queues::exact::BinaryHeapScheduler;
use rsched::queues::instrument::Instrumented;
use rsched::queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform, UniformRandom};
use rsched::queues::sharded::ShardedScheduler;
use rsched::queues::PriorityScheduler;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Algorithm 2 verbatim — one `pop`, one `try_process`, one `insert` of a
/// failed delete. The framework's loop at batch size 1 must perform exactly
/// this operation sequence on every scheduler.
fn scalar_reference<A, S>(alg: &A, pi: &Permutation, mut sched: S) -> ExecutionStats
where
    A: ConcurrentAlgorithm,
    S: PriorityScheduler<TaskId>,
{
    for v in 0..pi.len() as u32 {
        sched.insert(pi.label(v) as u64, v);
    }
    let mut stats = ExecutionStats::new(pi.len());
    while let Some((priority, v)) = sched.pop() {
        stats.total_pops += 1;
        match alg.try_process(v) {
            TaskOutcome::Processed => stats.processed += 1,
            TaskOutcome::Blocked => {
                stats.wasted += 1;
                sched.insert(priority, v);
            }
            TaskOutcome::Obsolete => stats.obsolete += 1,
        }
    }
    stats
}

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
    type SchedFactory = Box<dyn FnMut() -> Box<dyn PriorityScheduler<TaskId>>>;
    let scheds: Vec<(&str, SchedFactory)> = vec![
        ("binary-heap", Box::new(|| Box::new(BinaryHeapScheduler::new()))),
        ("top-4", Box::new(|| Box::new(TopKUniform::new(4, StdRng::seed_from_u64(1))))),
        ("top-64", Box::new(|| Box::new(TopKUniform::new(64, StdRng::seed_from_u64(2))))),
        ("sim-mq-8", Box::new(|| Box::new(SimMultiQueue::new(8, StdRng::seed_from_u64(3))))),
        (
            "sim-spray-16",
            Box::new(|| Box::new(SimSprayList::with_threads(16, StdRng::seed_from_u64(4)))),
        ),
        ("uniform-random", Box::new(|| Box::new(UniformRandom::new(StdRng::seed_from_u64(5))))),
        // Rows whose `pop_batch` / `insert_batch` are overrides (sim-mq-8
        // above is one too); the rows before take the trait defaults.
        (
            "instrumented-sim-mq-8",
            Box::new(|| {
                Box::new(Instrumented::new(SimMultiQueue::new(8, StdRng::seed_from_u64(6))))
            }),
        ),
        ("sharded-1", Box::new(|| Box::new(sharded_sim(1, 7)))),
        ("sharded-3", Box::new(|| Box::new(sharded_sim(3, 8)))),
    ];
    let alg = make_alg();
    let exact_stats = run_exact(&alg, pi);
    assert_eq!(&output(alg), expected, "run_exact diverged from reference");
    assert_eq!(exact_stats.total_pops as usize, pi.len());
    for (name, mut mk) in scheds {
        let alg = make_alg();
        let stats = run_relaxed_batched(&alg, pi, mk(), 1);
        assert_eq!(&output(alg), expected, "scheduler {name} changed the output");
        let alg = make_alg();
        let ref_stats = scalar_reference(&alg, pi, mk());
        assert_eq!(&output(alg), expected, "{name}: the scalar loop changed the output");
        assert_eq!(stats, ref_stats, "{name}: batch 1 does not degenerate to pop / insert");
        assert_eq!(
            stats.total_pops,
            pi.len() as u64 + stats.extra_iterations(),
            "accounting broken for {name}"
        );
    }
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
            assert_eq!((alg.remaining(), stats.processed), (0, 2_000), "batch={batch}");
        });
        assert_eq!(threaded, exact, "batch={batch}");
    }
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
