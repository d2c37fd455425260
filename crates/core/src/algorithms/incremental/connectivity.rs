//! Incremental graph connectivity: edge insertions into a union-find.
//!
//! Each task is one edge insertion. A popped edge whose endpoints are
//! already connected is **wasted** work in the incremental-algorithms sense
//! (arXiv 2003.09363) — the framework classifies it
//! [`TaskOutcome::Obsolete`]: its outcome is decided and it is dropped
//! without re-insertion. An edge joining two components is a *tree edge*
//! and unions them.
//!
//! Connectivity sits at the commutative end of the dependency spectrum:
//! the final partition — and even the *number* of wasted pops, which is
//! always `m − (n − c)` for `c` final components — is identical for every
//! pop order. A relaxed scheduler changes *which* edges become tree edges,
//! never the components or the work. That makes this workload the control
//! row of the `incremental` bench: its waste column must stay flat in the
//! relaxation factor `k`, in the batch size, and in the shard count, while
//! Delaunay's grows.
//!
//! The framework instance is a lock-free union-find: `parent` is an array
//! of atomics, `find` path-halves with CAS, and `union` links the larger
//! root under the smaller with a CAS on the root — so the canonical
//! representative of every component is its minimum vertex id, giving a
//! deterministic output vector to diff against the sequential ground truth
//! regardless of thread interleaving.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Sequential union-find with path halving and union-by-minimum-root.
///
/// Parent links strictly decrease toward the root, so each component's root
/// — and therefore [`UnionFind::labels`] — is its minimum vertex id: a
/// canonical, insertion-order-independent representation.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect(), components: n }
    }

    /// The root (= minimum vertex) of `v`'s component, path-halving along
    /// the way.
    pub fn find(&mut self, mut v: u32) -> u32 {
        loop {
            let p = self.parent[v as usize];
            if p == v {
                return v;
            }
            let gp = self.parent[p as usize];
            self.parent[v as usize] = gp; // halve
            v = gp;
        }
    }

    /// Unions the components of `u` and `v`; returns `true` iff they were
    /// previously disconnected (the edge is a tree edge).
    pub fn union(&mut self, u: u32, v: u32) -> bool {
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return false;
        }
        let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
        self.parent[hi as usize] = lo;
        self.components -= 1;
        true
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }

    /// The canonical labeling: `labels[v]` = minimum vertex id of `v`'s
    /// component.
    pub fn labels(mut self) -> Vec<u32> {
        (0..self.parent.len() as u32).map(|v| self.find(v)).collect()
    }
}

/// The sequential ground truth: inserts every edge, returns the canonical
/// component labels — the vector every relaxed and concurrent run must
/// reproduce exactly.
///
/// # Examples
///
/// ```
/// use rsched_core::algorithms::incremental::connectivity::components;
///
/// let labels = components(5, &[(0, 1), (3, 4)]);
/// assert_eq!(labels, vec![0, 0, 2, 3, 3]);
/// ```
pub fn components(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let mut uf = UnionFind::new(n);
    for &(u, v) in edges {
        uf.union(u, v);
    }
    uf.labels()
}

/// Incremental connectivity as a framework instance — task `i` inserts
/// `edges[i]` — over a lock-free concurrent union-find of atomic parent
/// links.
///
/// Linearizability: `find` returns a vertex that was a root of `v`'s
/// component at some point during the call; since components only merge and
/// links only ever point to smaller ids, two equal roots prove "already
/// connected" and a successful CAS on a root proves "merged here". The
/// canonical labeling is therefore identical to [`components`] for any
/// interleaving.
#[derive(Debug)]
pub struct ConcurrentConnectivity<'a> {
    edges: &'a [(u32, u32)],
    parent: Vec<AtomicU32>,
    counters: CachePadded<Counters>,
}

/// What every decision writes, on a line of its own, away from the
/// read-mostly `edges` and `parent` headers.
// lint:allow(hot-counter-padded) held only as `CachePadded<Counters>`
#[derive(Debug)]
struct Counters {
    remaining: AtomicUsize,
    tree_edges: AtomicU64,
    /// Root CAS failures retried inside [`ConcurrentAlgorithm::try_process`]
    /// — the contention cost relaxation is supposed to spread out.
    retries: AtomicU64,
}

impl<'a> ConcurrentConnectivity<'a> {
    /// Creates the instance over `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range.
    pub fn new(n: usize, edges: &'a [(u32, u32)]) -> Self {
        assert!(
            edges.iter().all(|&(u, v)| (u as usize) < n && (v as usize) < n),
            "edge endpoint out of range"
        );
        ConcurrentConnectivity {
            edges,
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            counters: CachePadded::new(Counters {
                remaining: AtomicUsize::new(edges.len()),
                tree_edges: AtomicU64::new(0),
                retries: AtomicU64::new(0),
            }),
        }
    }

    fn find(&self, mut v: u32) -> u32 {
        loop {
            let p = self.parent[v as usize].load(Ordering::Acquire);
            if p == v {
                return v;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Path halving; a lost race just means someone else already
            // shortened (links only move toward smaller ids, so this never
            // un-compresses).
            let _ = self.parent[v as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            v = gp;
        }
    }

    /// Tree edges inserted (deterministic: `n − c` over the final
    /// components).
    pub fn tree_edges(&self) -> u64 {
        self.counters.tree_edges.load(Ordering::Acquire)
    }

    /// Root-CAS retries suffered across all workers.
    pub fn retries(&self) -> u64 {
        self.counters.retries.load(Ordering::Acquire)
    }

    /// Extracts the canonical component labels after the run.
    pub fn into_labels(self) -> Vec<u32> {
        let n = self.parent.len();
        let mut uf = UnionFind {
            parent: self.parent.into_iter().map(|p| p.into_inner()).collect(),
            components: n,
        };
        (0..n as u32).map(|v| uf.find(v)).collect()
    }
}

impl ConcurrentAlgorithm for ConcurrentConnectivity<'_> {
    fn num_tasks(&self) -> usize {
        self.edges.len()
    }

    fn remaining(&self) -> usize {
        self.counters.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let (u, v) = self.edges[task as usize];
        loop {
            let ru = self.find(u);
            let rv = self.find(v);
            if ru == rv {
                // Connected now, connected forever: decided.
                self.counters.remaining.fetch_sub(1, Ordering::AcqRel);
                return TaskOutcome::Obsolete;
            }
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            // Link the larger root under the smaller. The CAS fails iff a
            // racing union (or a halving step) moved `hi` off its root, in
            // which case re-resolve the roots and retry.
            if self.parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.counters.tree_edges.fetch_add(1, Ordering::AcqRel);
                self.counters.remaining.fetch_sub(1, Ordering::AcqRel);
                return TaskOutcome::Processed;
            }
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::incremental::insertion_order;
    use crate::framework::{
        fill_scheduler, run_concurrent_batched, run_exact, run_exact_concurrent, run_relaxed,
    };
    use crate::stats::ExecutionStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::gen;
    use rsched_graph::Permutation;
    use rsched_queues::concurrent::{BulkMultiQueue, LockFreeMultiQueue, MultiQueue};
    use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
    use rsched_queues::sharded::ShardedScheduler;

    fn random_edges(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        gen::gnm(n, m, &mut StdRng::seed_from_u64(seed)).edge_list()
    }

    #[test]
    fn ground_truth_matches_graph_components() {
        let g = gen::gnm(300, 500, &mut StdRng::seed_from_u64(1));
        let labels = components(300, &g.edge_list());
        let (bfs, count) = rsched_graph::components::connected_components(&g);
        // Same partition (ids differ: ours are min-vertex, BFS's are dense).
        let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), count);
        for a in 0..300 {
            for b in a + 1..300 {
                assert_eq!(labels[a] == labels[b], bfs[a] == bfs[b], "pair ({a}, {b})");
            }
        }
    }

    /// One sequential-model run: labels, tree edges and the pop counters.
    fn relaxed<S>(
        n: usize,
        edges: &[(u32, u32)],
        pi: &Permutation,
        sched: S,
    ) -> (Vec<u32>, u64, ExecutionStats)
    where
        S: rsched_queues::PriorityScheduler<TaskId>,
    {
        let alg = ConcurrentConnectivity::new(n, edges);
        let stats = run_relaxed(&alg, pi, sched);
        let tree = alg.tree_edges();
        (alg.into_labels(), tree, stats)
    }

    #[test]
    fn waste_is_order_independent() {
        // The defining property of the commutative workload: every pop
        // order wastes exactly m − (n − c) pops.
        let n = 400;
        let edges = random_edges(n, 1_000, 2);
        let expected = components(n, &edges);
        let c = expected.iter().zip(0u32..).filter(|&(&l, v)| l == v).count();
        let expected_obsolete = (edges.len() - (n - c)) as u64;
        let pi = insertion_order(edges.len(), 3);

        let alg = ConcurrentConnectivity::new(n, &edges);
        let stats = run_exact(&alg, &pi);
        assert_eq!(alg.into_labels(), expected);
        assert_eq!(stats.obsolete, expected_obsolete);

        for seed in 0..3 {
            let sched = SimMultiQueue::new(16, StdRng::seed_from_u64(seed));
            let (labels, tree, stats) = relaxed(n, &edges, &pi, sched);
            assert_eq!(labels, expected, "seed {seed}");
            assert_eq!(tree, (n - c) as u64, "tree edges are n − c");
            assert_eq!(stats.obsolete, expected_obsolete, "seed {seed}");
            assert_eq!(stats.wasted, 0, "unions commute: nothing ever blocks");
            assert_eq!(stats.total_pops, edges.len() as u64);
        }
    }

    #[test]
    fn all_sequential_models_reproduce_ground_truth() {
        let n = 250;
        let edges = random_edges(n, 700, 5);
        let expected = components(n, &edges);
        let pi = insertion_order(edges.len(), 7);
        let sharded = ShardedScheduler::from_fn(4, |i| {
            SimMultiQueue::new(4, StdRng::seed_from_u64(10 + i as u64))
        });
        let runs = [
            ("top-k", relaxed(n, &edges, &pi, TopKUniform::new(32, StdRng::seed_from_u64(1)))),
            (
                "sim-multiqueue",
                relaxed(n, &edges, &pi, SimMultiQueue::new(8, StdRng::seed_from_u64(2))),
            ),
            (
                "sim-spray",
                relaxed(n, &edges, &pi, SimSprayList::with_threads(8, StdRng::seed_from_u64(3))),
            ),
            ("sharded", relaxed(n, &edges, &pi, sharded)),
        ];
        for (name, (labels, tree, _)) in runs {
            assert_eq!(labels, expected, "{name}");
            let c = expected.iter().zip(0u32..).filter(|&(&l, v)| l == v).count();
            assert_eq!(tree, (n - c) as u64, "{name}");
        }
    }

    #[test]
    fn concurrent_matches_ground_truth_on_every_scheduler() {
        let n = 500;
        let edges = random_edges(n, 2_000, 8);
        let expected = components(n, &edges);
        let pi = insertion_order(edges.len(), 9);
        for threads in [1usize, 4] {
            for batch in [1usize, 16] {
                let alg = ConcurrentConnectivity::new(n, &edges);
                let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
                fill_scheduler(&sched, &pi);
                let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.remaining(), 0);
                assert_eq!(stats.processed + stats.obsolete, edges.len() as u64);
                assert_eq!(stats.wasted, 0);
                assert_eq!(alg.into_labels(), expected, "multiqueue t={threads} b={batch}");

                let alg = ConcurrentConnectivity::new(n, &edges);
                let sched: LockFreeMultiQueue<TaskId> = LockFreeMultiQueue::for_threads(threads);
                fill_scheduler(&sched, &pi);
                run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_labels(), expected, "lfmq t={threads} b={batch}");

                let alg = ConcurrentConnectivity::new(n, &edges);
                let sched: BulkMultiQueue<TaskId> = BulkMultiQueue::prefilled_for_threads(
                    threads,
                    (0..edges.len() as u32).map(|e| (pi.label(e) as u64, e)),
                );
                run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_labels(), expected, "bulk t={threads} b={batch}");

                let alg = ConcurrentConnectivity::new(n, &edges);
                let sched: ShardedScheduler<MultiQueue<TaskId>> =
                    ShardedScheduler::from_fn(3, |_| MultiQueue::new(2));
                fill_scheduler(&sched, &pi);
                run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(alg.into_labels(), expected, "sharded t={threads} b={batch}");
            }
        }
        // The exact concurrent executor (FAA array queue) too.
        let alg = ConcurrentConnectivity::new(n, &edges);
        let stats = run_exact_concurrent(&alg, &pi, 4);
        assert_eq!(stats.total_pops, edges.len() as u64);
        assert_eq!(alg.into_labels(), expected, "faa exact");
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(components(0, &[]), Vec::<u32>::new());
        assert_eq!(components(3, &[]), vec![0, 1, 2]);
        // Self-loop-free parallel edges: second is wasted.
        let edges = [(0u32, 1u32), (1, 0)];
        let pi = insertion_order(2, 0);
        let alg = ConcurrentConnectivity::new(2, &edges);
        let stats = run_exact(&alg, &pi);
        assert_eq!(alg.tree_edges(), 1);
        assert_eq!(alg.into_labels(), vec![0, 0]);
        assert_eq!(stats.obsolete, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = ConcurrentConnectivity::new(2, &[(0, 5)]);
    }
}
