//! Multi-threaded release stress for the incremental workloads, wired into
//! CI alongside `sharded_stress`/`epoch_stress`: 8 workers over a sharded
//! scheduler whose shard count (3) deliberately does not divide the worker
//! count, so affinity, steal, and fairness paths all run constantly while
//! the workloads race their own shared state — the CAS union-find and the
//! mutex-guarded triangulation with its blocked-retry path.
//!
//! Pass criteria are exact, not statistical: connectivity components must
//! equal the sequential union-find ground truth bit-for-bit, the Delaunay
//! output must be verifier-clean with the order-independent triangle
//! count, and the pop ledger must balance (every task decided exactly
//! once; extra pops all accounted as failed deletes).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::framework::{fill_scheduler, run_concurrent_batched, ConcurrentAlgorithm};
use rsched_core::TaskId;
use rsched_graph::gen;
use rsched_graph::geom::uniform_square;
use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::sharded::ShardedScheduler;

const THREADS: usize = 8;
const SHARDS: usize = 3;

#[test]
fn eight_thread_connectivity_over_sharded_lock_free_scheduler() {
    let n = 20_000;
    let edges = gen::gnm(n, 60_000, &mut StdRng::seed_from_u64(40)).edge_list();
    let expected = components(n, &edges);
    let pi = insertion_order(edges.len(), 41);

    for batch in [1usize, 16] {
        let alg = ConcurrentConnectivity::new(n, &edges);
        let sched: ShardedScheduler<LockFreeMultiQueue<TaskId>> =
            ShardedScheduler::from_fn(SHARDS, |_| LockFreeMultiQueue::new(4));
        fill_scheduler(&sched, &pi);
        let stats = run_concurrent_batched(&alg, &pi, &sched, THREADS, batch);
        // Exactly-once ledger: every edge decided once, nothing blocks.
        assert_eq!(stats.processed + stats.obsolete, edges.len() as u64, "batch {batch}");
        assert_eq!(stats.wasted, 0, "batch {batch}");
        assert_eq!(alg.remaining(), 0, "batch {batch}");
        assert_eq!(alg.tree_edges(), stats.processed, "batch {batch}");
        assert_eq!(alg.into_labels(), expected, "batch {batch}: components diverged");
    }
}

#[test]
fn eight_thread_delaunay_over_sharded_scheduler() {
    let pts = uniform_square(1_500, 1 << 18, &mut StdRng::seed_from_u64(42));
    let pi = insertion_order(pts.len(), 43);
    let reference = delaunay_reference(&pts, &pi);
    assert!(verify_delaunay(&pts, &reference.triangles));

    for batch in [1usize, 8] {
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        let sched: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(SHARDS, |_| MultiQueue::new(4));
        fill_scheduler(&sched, &pi);
        let stats = run_concurrent_batched(&alg, &pi, &sched, THREADS, batch);
        assert_eq!(stats.processed + stats.obsolete, pts.len() as u64, "batch {batch}");
        assert_eq!(
            stats.total_pops,
            pts.len() as u64 + stats.wasted,
            "batch {batch}: pops beyond n must all be failed deletes"
        );
        let out = alg.into_output();
        assert!(verify_delaunay(&pts, &out.triangles), "batch {batch}: invalid triangulation");
        assert_eq!(out.triangles.len(), reference.triangles.len(), "batch {batch}");
    }
}
