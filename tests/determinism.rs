//! The paper's central claim, tested end-to-end: for every workload and
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
use rsched::core::algorithms::coloring::{greedy_coloring, verify_coloring, ColoringTasks};
use rsched::core::algorithms::knuth_shuffle::{
    fisher_yates, random_targets, shuffle_priorities, ShuffleTasks,
};
use rsched::core::algorithms::list_contraction::{sequential_contraction, ContractionTasks};
use rsched::core::algorithms::matching::{
    greedy_matching, verify_matching, MatchingInstance, MatchingTasks,
};
use rsched::core::algorithms::mis::{greedy_mis, verify_mis, MisTasks};
use rsched::core::framework::{run_exact, run_relaxed_batched, IterativeAlgorithm, TaskState};
use rsched::core::stats::ExecutionStats;
use rsched::core::TaskId;
use rsched::graph::{gen, CsrGraph, ListInstance, Permutation};
use rsched::queues::exact::BinaryHeapScheduler;
use rsched::queues::instrument::Instrumented;
use rsched::queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform, UniformRandom};
use rsched::queues::sharded::ShardedScheduler;
use rsched::queues::PriorityScheduler;

/// Algorithm 2 verbatim — one `pop`, one state check, one `insert` of a
/// failed delete. The framework's loop at batch size 1 must perform exactly
/// this operation sequence on every scheduler.
fn scalar_reference<A, S>(mut alg: A, pi: &Permutation, mut sched: S) -> (A::Output, ExecutionStats)
where
    A: IterativeAlgorithm,
    S: PriorityScheduler<TaskId>,
{
    for v in 0..pi.len() as u32 {
        sched.insert(pi.label(v) as u64, v);
    }
    let mut stats = ExecutionStats::new(pi.len());
    while let Some((priority, v)) = sched.pop() {
        stats.total_pops += 1;
        match alg.state(v) {
            TaskState::Ready => {
                alg.execute(v);
                stats.processed += 1;
            }
            TaskState::Blocked => {
                stats.wasted += 1;
                sched.insert(priority, v);
            }
            TaskState::Obsolete => stats.obsolete += 1,
        }
    }
    (alg.into_output(), stats)
}

/// `shards` hash-routed `SimMultiQueue(4)` shards drained round-robin.
fn sharded_sim(shards: usize, seed: u64) -> ShardedScheduler<SimMultiQueue<TaskId, StdRng>> {
    ShardedScheduler::from_fn(shards, |i| {
        SimMultiQueue::new(4, StdRng::seed_from_u64(seed + i as u64))
    })
}

/// Runs `make_alg()` through every scheduler and asserts all outputs equal
/// `expected`.
fn assert_deterministic<A, F>(pi: &Permutation, expected: &A::Output, make_alg: F)
where
    A: IterativeAlgorithm,
    A::Output: PartialEq + std::fmt::Debug,
    F: Fn() -> A,
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
    let (exact_out, exact_stats) = run_exact(make_alg(), pi);
    assert_eq!(&exact_out, expected, "run_exact diverged from reference");
    assert_eq!(exact_stats.total_pops as usize, pi.len());
    for (name, mut mk) in scheds {
        let (out, stats) = run_relaxed_batched(make_alg(), pi, mk(), 1);
        assert_eq!(&out, expected, "scheduler {name} changed the output");
        let (ref_out, ref_stats) = scalar_reference(make_alg(), pi, mk());
        assert_eq!(out, ref_out, "{name}: batch 1 output differs from the scalar loop");
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
        assert_deterministic(&pi, &expected, || MisTasks::new(&g, &pi));
    }
}

#[test]
fn coloring_is_deterministic_on_graph_zoo() {
    let mut rng = StdRng::seed_from_u64(3000);
    for g in test_graphs() {
        let pi = Permutation::random(g.num_vertices(), &mut rng);
        let expected = greedy_coloring(&g, &pi);
        assert!(verify_coloring(&g, &expected));
        assert_deterministic(&pi, &expected, || ColoringTasks::new(&g, &pi));
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
        assert_deterministic(&pi, &expected, || MatchingTasks::new(&inst, &pi));
    }
}

#[test]
fn list_contraction_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(5000);
    for n in [1usize, 2, 17, 400] {
        let list = ListInstance::new_shuffled(n, &mut rng);
        let pi = Permutation::random(n, &mut rng);
        let expected = sequential_contraction(&list, &pi);
        assert_deterministic(&pi, &expected, || ContractionTasks::new(&list, &pi));
    }
}

#[test]
fn knuth_shuffle_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(6000);
    for n in [1usize, 2, 33, 400] {
        let targets = random_targets(n, &mut rng);
        let pi = shuffle_priorities(n);
        let expected = fisher_yates(&targets);
        assert_deterministic(&pi, &expected, || ShuffleTasks::new(targets.clone()));
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
