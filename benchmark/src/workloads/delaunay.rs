//! `delaunay_uniform`: randomized incremental Delaunay triangulation of
//! uniform points. ~6 µs of algorithm per task under per-cell MCS locks and
//! tens of thousands of `Blocked` re-inserts per run: scheduler pop cost is
//! under 2 % of the solve, so a pop-path optimisation must show nothing
//! here, while blocked-task handling, cavity locking and re-insert traffic
//! show only here.

use super::{run_prefill, set_up, Ctx, Prefill};
use crate::stats::{timed, Recorder};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, ConcurrentDelaunay, DelaunayOutput,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_graph::geom::{in_circle, orient2d, uniform_square, Point};
use rsched_graph::Permutation;
use std::collections::HashMap;

struct Delaunay {
    points: Vec<Point>,
    pi: Permutation,
    reference: DelaunayOutput,
}

impl Prefill for Delaunay {
    type Alg<'a> = ConcurrentDelaunay;
    type Output = DelaunayOutput;

    fn pi(&self) -> &Permutation {
        &self.pi
    }

    fn alg(&self) -> ConcurrentDelaunay {
        ConcurrentDelaunay::new(&self.points, &self.pi)
    }

    fn finish(&self, alg: ConcurrentDelaunay) -> DelaunayOutput {
        alg.into_output()
    }

    fn sequential(&self) -> DelaunayOutput {
        delaunay_reference(&self.points, &self.pi)
    }

    /// The canonical sorted triangle lists agree, or — cocircular points
    /// admit more than one Delaunay triangulation, and the insertion
    /// interleaving picks among them — `out` passes the local check.
    /// `verify_delaunay` is quadratic (172 s at 100 k points) and must not
    /// run at this size.
    fn correct(&self, out: &DelaunayOutput) -> bool {
        out.triangles == self.reference.triangles
            || (out.triangles.len() == self.reference.triangles.len()
                && locally_delaunay(&self.points, &out.triangles))
    }

    fn layer_metrics(&self, out: &DelaunayOutput, rec: &mut Recorder) {
        rec.sample(
            "core.algorithms.cells_per_insert",
            out.created as f64 / self.points.len() as f64,
        );
    }
}

/// Every triangle is counter-clockwise and, across every edge two triangles
/// share, neither opposite vertex lies strictly inside the other's
/// circumcircle. For a triangulation of a convex region this local
/// condition implies the global empty-circle property (Delaunay's lemma);
/// that the region is the hull is pinned by the triangle count the caller
/// compares with the reference's.
fn locally_delaunay(points: &[Point], triangles: &[[u32; 3]]) -> bool {
    let p = |v: u32| points[v as usize];
    // Directed edge -> the vertex opposite it in its (CCW) triangle.
    let mut opposite: HashMap<(u32, u32), u32> = HashMap::with_capacity(3 * triangles.len());
    for t in triangles {
        if orient2d(p(t[0]), p(t[1]), p(t[2])) <= 0 {
            return false;
        }
        for i in 0..3 {
            if opposite.insert((t[i], t[(i + 1) % 3]), t[(i + 2) % 3]).is_some() {
                return false; // two triangles on the same side of an edge
            }
        }
    }
    triangles.iter().all(|t| {
        (0..3).all(|i| match opposite.get(&(t[(i + 1) % 3], t[i])) {
            Some(&d) => in_circle(p(t[0]), p(t[1]), p(t[2]), p(d)) <= 0,
            None => true, // a hull edge
        })
    })
}

pub fn run(ctx: &mut Ctx<'_>, tracer: Option<&Tracer>) {
    let n = if ctx.quick { 2_000 } else { 100_000 };
    let seed = ctx.seed;
    let input = set_up(ctx, tracer.is_some(), |rec| {
        let (points, gen_s) =
            timed(|| uniform_square(n, 1 << 20, &mut StdRng::seed_from_u64(seed)));
        let pi = insertion_order(n, seed);
        rec.sample("graph.gen_s", gen_s);
        rec.sample("graph.input_mib", (n * size_of::<Point>()) as f64 / (1 << 20) as f64);
        let reference = delaunay_reference(&points, &pi);
        Delaunay { points, pi, reference }
    });
    run_prefill(&input, ctx, tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_check_accepts_the_reference_and_rejects_a_flip() {
        let points = uniform_square(300, 1 << 12, &mut StdRng::seed_from_u64(5));
        let pi = insertion_order(300, 5);
        let mut tris = delaunay_reference(&points, &pi).triangles;
        assert!(locally_delaunay(&points, &tris));
        // Flip the diagonal of the first interior edge's quadrilateral.
        let mut opposite = HashMap::new();
        for t in &tris {
            for i in 0..3 {
                opposite.insert((t[i], t[(i + 1) % 3]), t[(i + 2) % 3]);
            }
        }
        let (i, [a, b, c], d) = tris
            .iter()
            .enumerate()
            .find_map(|(i, &t)| {
                let d = *opposite.get(&(t[1], t[0]))?;
                // The quadrilateral must be strictly convex for the flip to
                // give two counter-clockwise triangles.
                let p = |v: u32| points[v as usize];
                (orient2d(p(d), p(t[1]), p(t[2])) > 0 && orient2d(p(t[0]), p(d), p(t[2])) > 0)
                    .then_some((i, t, d))
            })
            .expect("an interior edge with a convex quadrilateral");
        let j = tris
            .iter()
            .position(|t| t.contains(&a) && t.contains(&b) && t.contains(&d))
            .expect("the neighbour across the edge");
        tris[i] = [a, d, c];
        tris[j] = [d, b, c];
        assert!(!locally_delaunay(&points, &tris));
    }
}
