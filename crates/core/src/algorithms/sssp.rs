//! Single-source shortest paths: Dijkstra and its relaxed parallelization.
//!
//! SSSP is the classic relaxed-scheduler application (Karp–Zhang lineage;
//! the paper's introduction uses it as the motivating example) but it is
//! *not* in the random-permutation class of Theorems 1–2: priorities are
//! tentative distances, so the permutation cannot be randomized. The
//! label-correcting formulation stays correct under any pop order — relaxed
//! scheduling costs only re-expansions (stale pops), never correctness.
//!
//! The sequential references ([`dijkstra`], [`relaxed_sssp`]) carry their
//! own loop; the concurrent kernel is [`SsspHandler`], one CAS-min
//! relaxation that [`concurrent_sssp`] drains on the worker engine and
//! [`crate::service`] re-exports for streamed requests.
//!
//! Priorities pack `(distance << vertex_bits) | vertex` so keys stay unique;
//! use heap- or MultiQueue-style schedulers here (the dense-priority model
//! schedulers in `rsched_queues::relaxed` are not suitable — their slab is
//! indexed by priority).

use crate::framework::TaskOutcome;
use crate::service::{run_sealed, RequestHandler, SubmitCtx};
use crate::TaskId;
use rsched_graph::WeightedCsr;
use rsched_queues::{ConcurrentScheduler, PriorityScheduler};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distance value for unreachable vertices.
pub const UNREACHABLE: u64 = u64::MAX;

/// Statistics of a (sequential) relaxed SSSP run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SsspStats {
    /// Total pops from the scheduler.
    pub pops: u64,
    /// Pops whose distance was already stale (the wasted work of
    /// relaxation).
    pub stale: u64,
    /// Successful edge relaxations (distance improvements).
    pub relaxations: u64,
}

fn vertex_bits(n: usize) -> u32 {
    usize::BITS - n.next_power_of_two().leading_zeros()
}

fn pack(dist: u64, v: u32, vbits: u32) -> u64 {
    debug_assert!(dist < (1u64 << (63 - vbits)), "distance overflows priority packing");
    (dist << vbits) | v as u64
}

/// Exact Dijkstra: the sequential baseline.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::sssp::{dijkstra, UNREACHABLE};
/// use rsched_graph::WeightedCsr;
///
/// let g = WeightedCsr::from_weighted_edges(4, [(0, 1, 2), (1, 2, 2), (0, 2, 5)]);
/// let dist = dijkstra(&g, 0);
/// assert_eq!(dist, vec![0, 2, 4, UNREACHABLE]);
/// ```
pub fn dijkstra(g: &WeightedCsr, source: u32) -> Vec<u64> {
    let (dist, _) = relaxed_sssp(g, source, rsched_queues::exact::BinaryHeapScheduler::new());
    dist
}

/// Label-correcting SSSP through any sequential scheduler.
///
/// With an exact scheduler this is lazy-deletion Dijkstra: no vertex is ever
/// *expanded* at a non-final distance, and the only stale pops are
/// superseded duplicate entries (one per non-improving insert). With a
/// relaxed scheduler, vertices may additionally be expanded at non-final
/// distances; the result still converges to exact distances, at the cost of
/// extra [`SsspStats::stale`] pops and re-relaxations.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn relaxed_sssp<S>(g: &WeightedCsr, source: u32, mut sched: S) -> (Vec<u64>, SsspStats)
where
    S: PriorityScheduler<u32>,
{
    let n = g.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let vbits = vertex_bits(n);
    let mut dist = vec![UNREACHABLE; n];
    let mut stats = SsspStats::default();
    dist[source as usize] = 0;
    sched.insert(pack(0, source, vbits), source);
    while let Some((priority, v)) = sched.pop() {
        stats.pops += 1;
        let d = priority >> vbits;
        if d > dist[v as usize] {
            stats.stale += 1; // superseded entry: wasted work
            continue;
        }
        for (u, w) in g.neighbors_weighted(v) {
            let nd = d + w as u64;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                stats.relaxations += 1;
                sched.insert(pack(nd, u, vbits), u);
            }
        }
    }
    (dist, stats)
}

/// The concurrent SSSP kernel, as a [`RequestHandler`]: a request is a
/// packed `(tentative distance, vertex)` relaxation, and improving
/// relaxations submit the next wavefront as follow-ups.
///
/// Seed one or more [`SsspHandler::request`]s (typically the source at
/// distance 0); the handler floods the rest of the graph through
/// [`SubmitCtx::submit`] — a push into the popping worker's outgoing
/// buffer, so the edges a run of pops improved reach the scheduler in one
/// `insert_batch` when the run ends. Distances converge to exact shortest
/// paths under any pop order and any interleaving. [`concurrent_sssp`] runs
/// one sealed request; under [`run_service`](crate::service::run_service)
/// producers push the requests and may keep doing so while the flood is in
/// progress.
pub struct SsspHandler<'g> {
    g: &'g WeightedCsr,
    dist: Vec<AtomicU64>,
    vbits: u32,
}

impl fmt::Debug for SsspHandler<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SsspHandler").field("vertices", &self.dist.len()).finish_non_exhaustive()
    }
}

impl<'g> SsspHandler<'g> {
    /// A handler over `g` with all distances unreachable.
    pub fn new(g: &'g WeightedCsr) -> Self {
        let n = g.num_vertices();
        SsspHandler {
            g,
            dist: (0..n).map(|_| AtomicU64::new(UNREACHABLE)).collect(),
            vbits: vertex_bits(n),
        }
    }

    /// The `(priority, task)` pair that requests "relax vertex `v` at
    /// tentative distance `dist`" — e.g. `request(0, source)` to seed a
    /// flood.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn request(&self, dist: u64, v: u32) -> (u64, TaskId) {
        assert!((v as usize) < self.dist.len(), "vertex out of range");
        (pack(dist, v, self.vbits), v)
    }

    /// The final distances (exact once the run has drained).
    pub fn into_dist(self) -> Vec<u64> {
        self.dist.into_iter().map(|d| d.into_inner()).collect()
    }

    /// CAS-min `dist[v]` down to `d`; true if `d` improved it.
    fn relax(&self, v: u32, d: u64) -> bool {
        let mut cur = self.dist[v as usize].load(Ordering::Acquire);
        while d < cur {
            match self.dist[v as usize].compare_exchange_weak(
                cur,
                d,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
        false
    }
}

impl RequestHandler for SsspHandler<'_> {
    fn handle(&self, priority: u64, v: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        let d = priority >> self.vbits;
        self.relax(v, d);
        if d > self.dist[v as usize].load(Ordering::Acquire) {
            // A better relaxation of `v` already ran (or is running); this
            // request is superseded — the stale pop of the paper's cost
            // model.
            return TaskOutcome::Obsolete;
        }
        for (u, w) in self.g.neighbors_weighted(v) {
            let nd = d + w as u64;
            if self.relax(u, nd) {
                ctx.submit(pack(nd, u, self.vbits), u);
            }
        }
        TaskOutcome::Processed
    }
}

/// Concurrent label-correcting SSSP over a shared relaxed scheduler: one
/// sealed [`SsspHandler`] request — relax `source` at distance 0 — drained
/// by `threads` workers of the engine that runs every other relaxed
/// executor, in runs of 32 pops: a worker opens a bucket once per run, and
/// everything the run relaxed goes back in one `insert_batch`. A
/// `k`-relaxed scheduler is thereby driven as an `O(32·k)`-relaxed one,
/// which label-correcting SSSP pays for in re-expansions only (≤ 0.4 % of
/// the vertices on the benchmark's G(n, m); DESIGN.md "Batching
/// semantics") — and that holds for *any* scheduler passed in, a one-bucket
/// `MultiQueue` included, which is then no longer an exact order.
///
/// Termination is the service's exactly-once ledger, not scheduler
/// emptiness (which can be transient): every relaxation that improved a
/// distance is accepted before it can be popped and before the task that
/// found it is decided, so `decided == accepted` means nothing is queued
/// or in a worker's hands; the balance is asserted after the join, in
/// release builds too. The result equals [`dijkstra`]'s for any scheduler
/// and any interleaving.
///
/// # Panics
///
/// Panics if `threads == 0` or `source` is out of range.
pub fn concurrent_sssp<S>(g: &WeightedCsr, source: u32, sched: &S, threads: usize) -> Vec<u64>
where
    S: ConcurrentScheduler<u32>,
{
    let handler = SsspHandler::new(g);
    run_sealed(&handler, sched, &[handler.request(0, source)], threads);
    handler.into_dist()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_queues::relaxed::SimMultiQueue;

    fn random_weighted(n: usize, m: usize, seed: u64) -> WeightedCsr {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, m, &mut rng);
        WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng)
    }

    #[test]
    fn dijkstra_tiny() {
        let g = WeightedCsr::from_weighted_edges(
            5,
            [(0, 1, 10), (0, 2, 3), (2, 1, 4), (1, 3, 2), (2, 3, 8)],
        );
        let dist = dijkstra(&g, 0);
        assert_eq!(dist, vec![0, 7, 3, 9, UNREACHABLE]);
    }

    #[test]
    fn exact_scheduler_stale_pops_are_only_duplicates() {
        let g = random_weighted(200, 800, 60);
        let (dist, stats) = relaxed_sssp(&g, 0, rsched_queues::exact::BinaryHeapScheduler::new());
        // Lazy-deletion Dijkstra: every vertex is expanded exactly once (its
        // first, final-distance pop); all other pops are duplicate entries.
        let reached = dist.iter().filter(|&&d| d != UNREACHABLE).count() as u64;
        assert_eq!(stats.pops - stats.stale, reached);
        // Every insert is eventually popped: 1 source insert + relaxations.
        assert_eq!(stats.pops, 1 + stats.relaxations);
    }

    #[test]
    fn relaxation_costs_stale_pops_not_correctness() {
        let g = random_weighted(400, 3000, 62);
        let expected = dijkstra(&g, 5);
        let (dist, stats) = relaxed_sssp(&g, 5, SimMultiQueue::new(32, StdRng::seed_from_u64(7)));
        assert_eq!(dist, expected);
        // A 32-queue MultiQueue on a dense instance essentially always
        // causes some re-expansion.
        assert!(stats.pops >= 400);
    }

    #[test]
    fn disconnected_components_unreachable() {
        let g = WeightedCsr::from_weighted_edges(4, [(0, 1, 1), (2, 3, 1)]);
        let dist = dijkstra(&g, 0);
        assert_eq!(dist, vec![0, 1, UNREACHABLE, UNREACHABLE]);
    }

    #[test]
    fn single_vertex() {
        let g = WeightedCsr::from_weighted_edges(1, std::iter::empty());
        assert_eq!(dijkstra(&g, 0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = WeightedCsr::from_weighted_edges(2, [(0, 1, 1)]);
        let _ = dijkstra(&g, 7);
    }
}
