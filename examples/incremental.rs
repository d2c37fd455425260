//! Incremental algorithms under a relaxed scheduler: insert edges into a
//! union-find and points into a Delaunay triangulation through a simulated
//! MultiQueue, and confirm the incremental-algorithms claim (arXiv
//! 2003.09363) — out-of-order insertion costs bounded extra work and never
//! correctness.
//!
//! Run with: `cargo run --release --example incremental`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched::core::algorithms::incremental::delaunay::{verify_delaunay, ConcurrentDelaunay};
use rsched::core::algorithms::incremental::insertion_order;
use rsched::core::framework::run_relaxed;
use rsched::graph::gen;
use rsched::graph::geom::uniform_square;
use rsched::queues::relaxed::SimMultiQueue;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Incremental connectivity: 50k edges into a union-find over 20k
    // vertices, popped by a 16-relaxed scheduler in whatever order it
    // likes. Unions commute, so relaxation is completely free here: zero
    // failed deletes, and the already-connected ("wasted") pops are the
    // same count every order.
    let n = 20_000;
    let edges = gen::gnm(n, 50_000, &mut rng).edge_list();
    let pi = insertion_order(edges.len(), 1);
    let sched = SimMultiQueue::new(16, StdRng::seed_from_u64(2));
    let alg = ConcurrentConnectivity::new(n, &edges);
    let stats = run_relaxed(&alg, &pi, sched);
    assert_eq!(
        alg.into_labels(),
        components(n, &edges),
        "components must match the sequential run"
    );
    println!(
        "connectivity: {} edges → {} tree edges, {} already-connected pops, {stats}",
        edges.len(),
        stats.processed,
        stats.obsolete
    );

    // Randomized incremental Delaunay: here insertions genuinely conflict
    // (a point depends on the earlier points in its cavity), so the relaxed
    // order costs some failed deletes — but the count stays poly(k), and
    // the result is a verified Delaunay triangulation either way.
    let pts = uniform_square(3_000, 1 << 18, &mut rng);
    let pi = insertion_order(pts.len(), 3);
    let sched = SimMultiQueue::new(16, StdRng::seed_from_u64(4));
    let alg = ConcurrentDelaunay::new(&pts, &pi);
    let stats = run_relaxed(&alg, &pi, sched);
    let out = alg.into_output();
    assert!(verify_delaunay(&pts, &out.triangles), "empty-circumcircle check failed");
    println!(
        "delaunay: {} points → {} triangles ({} cells built, {} torn down), {stats}",
        pts.len(),
        out.triangles.len(),
        out.created,
        out.destroyed
    );
    println!("both outputs verified: relaxation cost work, never correctness");
}
