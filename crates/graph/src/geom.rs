//! Planar geometry substrate for the incremental-algorithms workloads:
//! integer points, exact predicates, and point-cloud generators.
//!
//! The randomized-incremental Delaunay workload (arXiv 2003.09363) is only
//! as robust as its orientation and in-circle tests, so both predicates
//! return the **exact** sign over integer coordinates — no epsilons, no
//! adaptive-precision expansions. The price is a coordinate bound: inputs
//! must satisfy `|x|, |y| ≤` [`MAX_COORD`] (= 2²⁶), which leaves ~67
//! million distinct values per axis — far finer than any of the
//! experiments resolve — and makes two cheap evaluations exact:
//!
//! * [`orient2d`] is a 2×2 determinant in `i64`: each product is ≤ 2⁵⁴.
//! * [`in_circle`] first evaluates the determinant in `f64` and accepts its
//!   sign when it clears Shewchuk's stage-A error bound, which it does for
//!   all but near-cocircular quadruples; the rest fall back to an exact
//!   `i128` expansion whose every intermediate stays below 2¹¹³.
//!
//! Both return the sign the exact determinant has, so every caller — the
//! sequential reference, the concurrent triangulation and the verifier —
//! sees identical answers.
//!
//! Generators cover the three regimes the Delaunay literature distinguishes:
//! uniformly random ([`uniform_square`]), clustered ([`gaussian_clusters`]),
//! and adversarially degenerate ([`degenerate_grid`]: every 2×2 cell is
//! cocircular and every row/column collinear). All generators return
//! pairwise-distinct points.

use rand::Rng;
use std::collections::HashSet;

/// Inclusive coordinate bound for all geometry inputs: `|x|, |y| ≤ 2²⁶`.
///
/// Coordinate differences are then bounded by 2²⁷: exact in `f64`, every
/// orientation product fits `i64`, and every term of the in-circle
/// determinant is below 2¹¹³, so its `i128` evaluation is exact.
pub const MAX_COORD: i64 = 1 << 26;

/// A point in the plane with integer coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// Horizontal coordinate, `|x| ≤` [`MAX_COORD`].
    pub x: i64,
    /// Vertical coordinate, `|y| ≤` [`MAX_COORD`].
    pub y: i64,
}

impl Point {
    /// Creates a point.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate exceeds [`MAX_COORD`] in magnitude (the
    /// predicates' exactness contract).
    pub fn new(x: i64, y: i64) -> Self {
        assert!(
            x.abs() <= MAX_COORD && y.abs() <= MAX_COORD,
            "coordinate ({x}, {y}) outside the exact-predicate range ±{MAX_COORD}"
        );
        Point { x, y }
    }
}

/// Exact orientation of the triple `(a, b, c)`: `1` if counterclockwise
/// (`c` strictly left of the directed line `a → b`), `-1` if clockwise,
/// `0` if collinear.
///
/// Exactness: with [`MAX_COORD`]-bounded inputs each difference is ≤ 2²⁷ in
/// magnitude, each product ≤ 2⁵⁴, and their difference < 2⁶³ — `i64`
/// cannot overflow.
///
/// # Examples
///
/// ```
/// use rsched_graph::geom::{orient2d, Point};
///
/// let a = Point::new(0, 0);
/// let b = Point::new(4, 0);
/// assert_eq!(orient2d(a, b, Point::new(0, 3)), 1);  // left turn
/// assert_eq!(orient2d(a, b, Point::new(0, -3)), -1); // right turn
/// assert_eq!(orient2d(a, b, Point::new(9, 0)), 0);  // collinear
/// ```
#[inline]
pub fn orient2d(a: Point, b: Point, c: Point) -> i8 {
    let det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    det.signum() as i8
}

/// Exact in-circle test: `1` if `d` lies strictly inside the circumcircle
/// of the counterclockwise triangle `(a, b, c)`, `-1` if strictly outside,
/// `0` if cocircular.
///
/// The caller must pass `a, b, c` in counterclockwise order (the sign flips
/// for clockwise input); the Delaunay code maintains that invariant
/// structurally and the verifier checks it per triangle.
///
/// Evaluation: Shewchuk's stage-A filter first — the determinant in `f64`
/// (the coordinate differences, ≤ 2²⁷, convert exactly), whose sign is
/// certain once its magnitude exceeds `(10 + 96ε)ε` times the permanent
/// (`ε` = 2⁻⁵³, the unit roundoff). Only near-cocircular quadruples fail
/// the filter and take the exact `i128` expansion.
///
/// # Examples
///
/// ```
/// use rsched_graph::geom::{in_circle, Point};
///
/// let a = Point::new(0, 0);
/// let b = Point::new(2, 0);
/// let c = Point::new(0, 2);
/// assert_eq!(in_circle(a, b, c, Point::new(1, 1)), 1);  // inside
/// assert_eq!(in_circle(a, b, c, Point::new(2, 2)), 0);  // cocircular
/// assert_eq!(in_circle(a, b, c, Point::new(9, 9)), -1); // outside
/// ```
#[inline]
pub fn in_circle(a: Point, b: Point, c: Point, d: Point) -> i8 {
    /// Stage-A relative error bound of Shewchuk's `incircle`:
    /// `(10 + 96ε)ε` with `ε` = 2⁻⁵³.
    const ERR_BOUND_A: f64 = {
        let eps = f64::EPSILON / 2.0;
        (10.0 + 96.0 * eps) * eps
    };
    let adx = (a.x - d.x) as f64;
    let ady = (a.y - d.y) as f64;
    let bdx = (b.x - d.x) as f64;
    let bdy = (b.y - d.y) as f64;
    let cdx = (c.x - d.x) as f64;
    let cdy = (c.y - d.y) as f64;
    let (bdxcdy, cdxbdy) = (bdx * cdy, cdx * bdy);
    let (cdxady, adxcdy) = (cdx * ady, adx * cdy);
    let (adxbdy, bdxady) = (adx * bdy, bdx * ady);
    let alift = adx * adx + ady * ady;
    let blift = bdx * bdx + bdy * bdy;
    let clift = cdx * cdx + cdy * cdy;
    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let bound = ERR_BOUND_A * permanent;
    if det > bound {
        1
    } else if -det > bound {
        -1
    } else {
        in_circle_exact(a, b, c, d)
    }
}

/// [`in_circle`] evaluated exactly in `i128`: the fallback for quadruples
/// the floating-point filter cannot decide.
///
/// Exactness: with [`MAX_COORD`]-bounded inputs, each lifted coordinate
/// `adx² + ady²` is ≤ 2⁵⁵, each 2×2 cofactor ≤ 2⁸³, and each of the three
/// expansion terms ≤ 2¹¹⁰ — the `i128` sum cannot overflow.
fn in_circle_exact(a: Point, b: Point, c: Point, d: Point) -> i8 {
    let adx = (a.x - d.x) as i128;
    let ady = (a.y - d.y) as i128;
    let bdx = (b.x - d.x) as i128;
    let bdy = (b.y - d.y) as i128;
    let cdx = (c.x - d.x) as i128;
    let cdy = (c.y - d.y) as i128;
    let al = adx * adx + ady * ady;
    let bl = bdx * bdx + bdy * bdy;
    let cl = cdx * cdx + cdy * cdy;
    let det =
        adx * (bdy * cl - cdy * bl) - ady * (bdx * cl - cdx * bl) + al * (bdx * cdy - cdx * bdy);
    det.signum() as i8
}

/// Whether `p` lies on the **open** segment `(a, b)`: collinear with the
/// endpoints and strictly between them. Used by the Delaunay ghost-cell
/// conflict rule for points landing exactly on a hull edge.
#[inline]
pub fn on_open_segment(a: Point, b: Point, p: Point) -> bool {
    if orient2d(a, b, p) != 0 || p == a || p == b {
        return false;
    }
    let dot = (p.x - a.x) as i128 * (b.x - a.x) as i128 + (p.y - a.y) as i128 * (b.y - a.y) as i128;
    let len2 =
        (b.x - a.x) as i128 * (b.x - a.x) as i128 + (b.y - a.y) as i128 * (b.y - a.y) as i128;
    dot > 0 && dot < len2
}

/// `n` pairwise-distinct points uniform over the square `[0, side)²`
/// (rejection-resampled on collision).
///
/// # Panics
///
/// Panics if `side` exceeds [`MAX_COORD`], or if the square cannot hold `n`
/// distinct points with headroom (`n > side²/2`).
pub fn uniform_square<R: Rng>(n: usize, side: i64, rng: &mut R) -> Vec<Point> {
    assert!(side > 0 && side <= MAX_COORD, "side must be in 1..={MAX_COORD}");
    assert!(
        (n as u128) * 2 <= (side as u128) * (side as u128),
        "square of side {side} too small for {n} distinct points"
    );
    let mut seen = HashSet::with_capacity(n);
    let mut pts = Vec::with_capacity(n);
    while pts.len() < n {
        let p = Point::new(rng.gen_range(0..side), rng.gen_range(0..side));
        if seen.insert(p) {
            pts.push(p);
        }
    }
    pts
}

/// `n` pairwise-distinct points in `clusters` Gaussian blobs (Box–Muller,
/// standard deviation `spread`) with uniformly random cluster centers, all
/// clamped into the exact-predicate range. Models the clustered instances
/// where point location does most of the incremental work.
///
/// # Panics
///
/// Panics if `clusters == 0` or `spread <= 0`, or if the blobs are too
/// tight to hold `n` distinct lattice points (detected by rejection
/// starvation, the analogue of [`uniform_square`]'s capacity assert —
/// a 1-spread blob only reaches a few thousand distinct integer points).
pub fn gaussian_clusters<R: Rng>(
    n: usize,
    clusters: usize,
    spread: f64,
    rng: &mut R,
) -> Vec<Point> {
    assert!(clusters > 0, "need at least one cluster");
    assert!(spread > 0.0, "spread must be positive");
    let half = (MAX_COORD / 2) as f64;
    let centers: Vec<(f64, f64)> =
        (0..clusters).map(|_| (rng.gen_range(-half..half), rng.gen_range(-half..half))).collect();
    let mut seen = HashSet::with_capacity(n);
    let mut pts = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while pts.len() < n {
        attempts += 1;
        assert!(
            attempts <= 64 * n + 1_024,
            "clusters too tight: placed {} of {n} distinct points in {attempts} draws \
             (raise spread or lower n)",
            pts.len()
        );
        let (cx, cy) = centers[pts.len() % clusters];
        // Box–Muller: two uniforms to one Gaussian pair (the shimmed rand
        // has no Normal distribution; this keeps the stream reproducible).
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let r = (-2.0 * u1.ln()).sqrt() * spread;
        let p = Point::new(clamp_coord(cx + r * u2.cos()), clamp_coord(cy + r * u2.sin()));
        if seen.insert(p) {
            pts.push(p);
        }
    }
    pts
}

fn clamp_coord(v: f64) -> i64 {
    (v.round() as i64).clamp(-MAX_COORD, MAX_COORD)
}

/// The first `n` points of a `⌈√n⌉ × ⌈√n⌉` integer grid with the given
/// spacing, row-major from the origin — the degenerate stress instance:
/// every axis-aligned line is collinear and every unit cell is cocircular,
/// so the exact predicates hit their zero branches constantly.
///
/// # Panics
///
/// Panics if `spacing < 1` or the grid leaves the exact-predicate range.
pub fn degenerate_grid(n: usize, spacing: i64) -> Vec<Point> {
    assert!(spacing >= 1, "spacing must be at least 1");
    let cols = (n as f64).sqrt().ceil() as i64;
    assert!(
        cols.saturating_mul(spacing) <= MAX_COORD,
        "grid of {n} points at spacing {spacing} exceeds the coordinate range"
    );
    (0..n as i64).map(|i| Point::new((i % cols) * spacing, (i / cols) * spacing)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn orientation_antisymmetry_and_cycles() {
        let a = Point::new(-3, 1);
        let b = Point::new(5, 2);
        let c = Point::new(0, 7);
        assert_eq!(orient2d(a, b, c), 1);
        // Cyclic rotation preserves, swap flips.
        assert_eq!(orient2d(b, c, a), 1);
        assert_eq!(orient2d(c, a, b), 1);
        assert_eq!(orient2d(b, a, c), -1);
    }

    #[test]
    fn in_circle_detects_cocircular_grid_cell() {
        // The four corners of a grid cell are cocircular: the degenerate
        // case the grid generator is built to exercise.
        let a = Point::new(0, 0);
        let b = Point::new(1, 0);
        let c = Point::new(1, 1);
        assert_eq!(in_circle(a, b, c, Point::new(0, 1)), 0);
    }

    #[test]
    fn in_circle_exact_at_extreme_coordinates() {
        // Full-range right triangle: the i128 bound analysis must hold at
        // the documented MAX_COORD, not just at toy sizes.
        let a = Point::new(-MAX_COORD, -MAX_COORD);
        let b = Point::new(MAX_COORD, -MAX_COORD);
        let c = Point::new(-MAX_COORD, MAX_COORD);
        // Circumcircle is centered at the origin through the corners.
        assert_eq!(in_circle(a, b, c, Point::new(MAX_COORD, MAX_COORD)), 0);
        assert_eq!(in_circle(a, b, c, Point::new(0, 0)), 1);
        assert_eq!(in_circle(a, b, c, Point::new(MAX_COORD, MAX_COORD - 1)), 1);
    }

    /// The orientation determinant in `i128`: the reference for the `i64`
    /// evaluation.
    fn orient2d_wide(a: Point, b: Point, c: Point) -> i8 {
        let det =
            (b.x - a.x) as i128 * (c.y - a.y) as i128 - (b.y - a.y) as i128 * (c.x - a.x) as i128;
        det.signum() as i8
    }

    /// Both fast predicates agree with their exact references on the
    /// quadruple `(a, b, c, d)` — `in_circle` also on the clockwise order,
    /// which flips the determinant's sign.
    fn assert_predicates_agree(a: Point, b: Point, c: Point, d: Point) {
        assert_eq!(orient2d(a, b, c), orient2d_wide(a, b, c), "orient2d{:?}", (a, b, c));
        assert_eq!(orient2d(a, b, d), orient2d_wide(a, b, d), "orient2d{:?}", (a, b, d));
        for (p, q, r) in [(a, b, c), (a, c, b)] {
            assert_eq!(
                in_circle(p, q, r, d),
                in_circle_exact(p, q, r, d),
                "in_circle{:?}",
                (p, q, r, d)
            );
        }
    }

    #[test]
    fn filtered_predicates_equal_exact_on_random_quadruples() {
        let mut rng = StdRng::seed_from_u64(5);
        // Full range, mid range, and two tie-heavy tiny ranges.
        for range in [MAX_COORD, 1 << 20, 64, 4] {
            let mut ties = 0;
            for _ in 0..200_000 {
                let mut draw =
                    || Point::new(rng.gen_range(-range..=range), rng.gen_range(-range..=range));
                let [a, b, c, d] = [draw(), draw(), draw(), draw()];
                assert_predicates_agree(a, b, c, d);
                ties += usize::from(in_circle_exact(a, b, c, d) == 0);
            }
            if range == 4 {
                assert!(ties > 10_000, "range {range}: only {ties} cocircular quadruples");
            }
        }
    }

    #[test]
    fn filtered_predicates_equal_exact_near_a_full_range_lattice_circle() {
        // Six lattice points on the circle of radius 5k about the origin,
        // with 5k as close to MAX_COORD as fits: every triple is cocircular
        // with every fourth point, and a ±1 nudge of the fourth point moves
        // the determinant by far less than the float filter can resolve.
        let k = MAX_COORD / 5;
        let ring = [(3, 4), (-4, 3), (-5, 0), (-3, -4), (0, -5), (4, -3)]
            .map(|(x, y)| Point::new(x * k, y * k));
        for (i, &a) in ring.iter().enumerate() {
            for (j, &b) in ring.iter().enumerate().skip(i + 1) {
                for &c in &ring[j + 1..] {
                    for &d in &ring {
                        for dx in -1..=1 {
                            for dy in -1..=1 {
                                let d = Point::new(d.x + dx, d.y + dy);
                                assert_predicates_agree(a, b, c, d);
                            }
                        }
                    }
                }
            }
        }
        // The unperturbed quadruples are exactly cocircular.
        assert_eq!(in_circle(ring[0], ring[1], ring[2], ring[3]), 0);
    }

    #[test]
    fn filtered_predicates_equal_exact_at_the_range_corners() {
        let m = MAX_COORD;
        let coords = [-m, 1 - m, 0, m - 1, m];
        let pts: Vec<Point> =
            coords.iter().flat_map(|&x| coords.iter().map(move |&y| Point::new(x, y))).collect();
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    for &d in &pts {
                        assert_predicates_agree(a, b, c, d);
                    }
                }
            }
        }
    }

    #[test]
    fn open_segment_excludes_endpoints_and_beyond() {
        let a = Point::new(0, 0);
        let b = Point::new(4, 0);
        assert!(on_open_segment(a, b, Point::new(1, 0)));
        assert!(!on_open_segment(a, b, Point::new(0, 0)));
        assert!(!on_open_segment(a, b, Point::new(4, 0)));
        assert!(!on_open_segment(a, b, Point::new(5, 0))); // collinear, beyond
        assert!(!on_open_segment(a, b, Point::new(2, 1))); // off the line
    }

    #[test]
    fn uniform_square_points_distinct_and_in_range() {
        let pts = uniform_square(500, 1 << 12, &mut StdRng::seed_from_u64(3));
        assert_eq!(pts.len(), 500);
        let set: HashSet<Point> = pts.iter().copied().collect();
        assert_eq!(set.len(), 500);
        assert!(pts.iter().all(|p| (0..1 << 12).contains(&p.x) && (0..1 << 12).contains(&p.y)));
    }

    #[test]
    fn gaussian_clusters_distinct_and_clamped() {
        let pts = gaussian_clusters(400, 5, 1_000.0, &mut StdRng::seed_from_u64(4));
        assert_eq!(pts.len(), 400);
        let set: HashSet<Point> = pts.iter().copied().collect();
        assert_eq!(set.len(), 400);
        assert!(pts.iter().all(|p| p.x.abs() <= MAX_COORD && p.y.abs() <= MAX_COORD));
    }

    #[test]
    fn grid_is_degenerate_by_construction() {
        let pts = degenerate_grid(9, 2);
        assert_eq!(pts.len(), 9);
        // Row-major 3×3: first row collinear.
        assert_eq!(orient2d(pts[0], pts[1], pts[2]), 0);
        // A 2×2 cell is cocircular.
        assert_eq!(in_circle(pts[0], pts[1], pts[4], pts[3]), 0);
    }

    #[test]
    #[should_panic(expected = "outside the exact-predicate range")]
    fn out_of_range_point_panics() {
        let _ = Point::new(MAX_COORD + 1, 0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversubscribed_square_panics() {
        let _ = uniform_square(100, 10, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "clusters too tight")]
    fn starved_clusters_panic_instead_of_hanging() {
        // A 0.5-spread blob reaches only a few hundred distinct lattice
        // points; asking for 5000 must trip the rejection-starvation guard.
        let _ = gaussian_clusters(5_000, 1, 0.5, &mut StdRng::seed_from_u64(1));
    }
}
