//! Property tests for the incremental-algorithms subsystem.
//!
//! Delaunay: for arbitrary point multisets — tiny coordinate ranges force
//! duplicates, collinear runs, and cocircular quadruples constantly — the
//! label-order reference and a relaxed run must both pass the
//! empty-circumcircle + hull-coverage verifier and agree on the (order
//! independent) triangle count.
//!
//! Connectivity: for arbitrary edge lists, every scheduler model must
//! reproduce the sequential union-find ground truth with exactly-once edge
//! processing and zero failed deletes (unions commute).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::framework::run_relaxed;
use rsched_graph::geom::{degenerate_grid, Point};
use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
use rsched_queues::sharded::ShardedScheduler;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary (duplicate-heavy, degenerate-heavy) point sets: reference
    /// and relaxed runs both verify and agree on the triangle count.
    #[test]
    fn delaunay_invariants_on_arbitrary_points(
        raw in proptest::collection::vec((0u32..48, 0u32..48), 0..120),
        seed in any::<u64>(),
    ) {
        let pts: Vec<Point> = raw.iter().map(|&(x, y)| Point::new(x as i64, y as i64)).collect();
        let pi = insertion_order(pts.len(), seed);
        let reference = delaunay_reference(&pts, &pi);
        prop_assert!(verify_delaunay(&pts, &reference.triangles));

        let sched = SimMultiQueue::new(8, StdRng::seed_from_u64(seed ^ 0xD1));
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        let stats = run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert!(verify_delaunay(&pts, &out.triangles));
        prop_assert_eq!(out.triangles.len(), reference.triangles.len());
        // Exactly-once: every task is decided once; pops beyond that are
        // failed deletes (re-inserted), counted in `wasted`.
        prop_assert_eq!(stats.processed + stats.obsolete, pts.len() as u64);
        prop_assert_eq!(stats.total_pops, pts.len() as u64 + stats.wasted);
    }

    /// The degenerate grid (every row collinear, every cell cocircular) at
    /// arbitrary sizes and spacings, under a heavily relaxed scheduler.
    #[test]
    fn delaunay_survives_degenerate_grids(
        n in 0usize..100,
        spacing in 1u32..4,
        seed in any::<u64>(),
    ) {
        let pts = degenerate_grid(n, spacing as i64);
        let pi = insertion_order(pts.len(), seed);
        let reference = delaunay_reference(&pts, &pi);
        prop_assert!(verify_delaunay(&pts, &reference.triangles));
        let sched = TopKUniform::new(32, StdRng::seed_from_u64(seed));
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        run_relaxed(&alg, &pi, sched);
        let out = alg.into_output();
        prop_assert!(verify_delaunay(&pts, &out.triangles));
        prop_assert_eq!(out.triangles.len(), reference.triangles.len());
    }

    /// Connectivity under every scheduler family equals the union-find
    /// ground truth, with exactly-once processing and zero failed deletes.
    #[test]
    fn connectivity_matches_ground_truth_under_all_schedulers(
        n in 1usize..80,
        raw in proptest::collection::vec((0u32..80, 0u32..80), 0..200),
        seed in any::<u64>(),
    ) {
        let edges: Vec<(u32, u32)> = raw
            .iter()
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|&(a, b)| a != b)
            .collect();
        let expected = components(n, &edges);
        let pi = insertion_order(edges.len(), seed);

        let sched = SimMultiQueue::new(8, StdRng::seed_from_u64(seed));
        let alg = ConcurrentConnectivity::new(n, &edges);
        let stats = run_relaxed(&alg, &pi, sched);
        prop_assert_eq!(&alg.into_labels(), &expected);
        prop_assert_eq!(stats.wasted, 0);
        prop_assert_eq!(stats.processed + stats.obsolete, edges.len() as u64);
        prop_assert_eq!(stats.total_pops, edges.len() as u64);

        let sched = SimSprayList::with_threads(8, StdRng::seed_from_u64(seed ^ 1));
        let alg = ConcurrentConnectivity::new(n, &edges);
        run_relaxed(&alg, &pi, sched);
        prop_assert_eq!(&alg.into_labels(), &expected);

        let sched = ShardedScheduler::from_fn(3, |i| {
            SimMultiQueue::new(4, StdRng::seed_from_u64(seed ^ (2 + i as u64)))
        });
        let alg = ConcurrentConnectivity::new(n, &edges);
        run_relaxed(&alg, &pi, sched);
        prop_assert_eq!(&alg.into_labels(), &expected);
    }
}
