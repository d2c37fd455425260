//! Compressed sparse row (CSR) representation of undirected graphs.

use std::fmt;

/// An immutable undirected graph in compressed sparse row form.
///
/// Vertices are the dense ids `0..n` (as `u32`). Adjacency lists are sorted,
/// contain no duplicates and no self-loops, and every edge appears in the
/// lists of both endpoints. This is the substrate every workload in the
/// workspace runs on: dependency graphs for the scheduling framework are CSR
/// graphs plus a priority permutation.
///
/// # Examples
///
/// ```
/// use rsched_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 2)]);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.num_edges(), 3); // duplicate (1,2) collapsed
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 1));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `adj` with `v`'s neighbors.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    adj: Vec<u32>,
}

impl CsrGraph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], adj: Vec::new() }
    }

    /// Builds a graph from an arbitrary edge list.
    ///
    /// Self-loops are dropped; parallel and reversed duplicates are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut keys: Vec<u64> = edges
            .into_iter()
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| key(a.min(b), a.max(b)))
            .collect();
        let (threads, mut g) = (threads_for(keys.len()), Self::unfilled(n, keys.len()));
        sort_keys(n, &mut keys, g.scratch(), threads);
        keys.dedup();
        g.adj.truncate(2 * keys.len());
        g.fill(&keys, threads)
    }

    /// A graph on `n` vertices to [`fill`](CsrGraph::fill) with `m` edges.
    /// Allocate it after the keys and nothing small while it is built (see
    /// `LEDGER_MIN`): then its memory rejoins the top of glibc's heap once
    /// it is dropped, for the next set-up's copies to reuse.
    pub(crate) fn unfilled(n: usize, m: usize) -> Self {
        CsrGraph { offsets: vec![0; n + 1], adj: vec![0; 2 * m] }
    }

    /// The adjacency array, as [`sort_keys`]' scratch before the fill.
    pub(crate) fn scratch(&mut self) -> &mut [u32] {
        &mut self.adj
    }

    /// Fills an [`unfilled`](CsrGraph::unfilled) graph with the edges of
    /// the sorted, duplicate-free [`key`]s, one per edge, on `threads`
    /// threads: every builder and generator ends here.
    ///
    /// Each thread counts, then fills, the lists of its own vertex range (of
    /// about equal half-edge mass) in one in-order scan of the keys: all
    /// `(u, v)` entries land in `v`'s list before any `(v, w)` entry does.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`, or (in debug builds) if the keys
    /// are not sorted, distinct and of pairs `u < v`.
    pub(crate) fn fill(self, keys: &[u64], threads: usize) -> Self {
        let (n, CsrGraph { mut offsets, mut adj }) = (self.num_vertices(), self);
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted/unique");
        debug_assert!(keys.iter().all(|&k| k >> 32 < k & 0xffff_ffff), "keys not normalized");
        // The one ledger: a sorted sample of the keys' endpoints, the range
        // bounds at its quantiles, then where each range's lists end.
        let step = (keys.len() >> 12).max(1);
        let mut ledger =
            Vec::with_capacity((2 * keys.len().div_ceil(step) + 2 * threads + 1).max(LEDGER_MIN));
        ledger
            .extend(keys.iter().step_by(step).flat_map(|&k| [k as usize >> 32, k as u32 as usize]));
        ledger.sort_unstable();
        let s = ledger.len();
        ledger.push(0);
        for j in 1..=threads {
            ledger.push(ledger[..s].get(s * j / threads).map_or(n, |&x| x.min(n)));
        }
        // Range `j` reads the keys up to the first whose `u` is past it.
        let scan = |bounds: &[usize], j: usize| {
            let (lo, hi) = (bounds[j], bounds[j + 1]);
            (lo, &keys[..keys.partition_point(|&k| k >> 32 < hi as u64 && lo < hi)])
        };
        // `offsets[v + 1]` counts `v`'s degree, then the prefix sum turns
        // the counts into list starts.
        let bounds = &ledger[s..];
        let counts = cut(&mut offsets[1..], bounds[1..].iter().copied());
        on_threads((0..threads).map(|j| scan(bounds, j)).zip(counts), |((lo, keys), count)| {
            half_edges(keys, lo, count.len()).for_each(|(x, _)| count[x] += 1);
        });
        (0..n).for_each(|v| offsets[v + 1] += offsets[v]);
        assert_eq!(offsets[n], 2 * keys.len(), "an edge endpoint is out of range (n = {n})");
        for j in 1..=threads {
            ledger.push(offsets[ledger[s + j]]);
        }
        // Each range fills its run of `adj`, its `offsets` serving as cursors.
        let (bounds, ends) = ledger[s..].split_at(threads + 1);
        let lists = cut(&mut adj, ends.iter().copied());
        let cursors = cut(&mut offsets[..n], bounds[1..].iter().copied());
        let parts =
            (0..threads).map(|j| (scan(bounds, j), j.checked_sub(1).map_or(0, |i| ends[i])));
        on_threads(parts.zip(lists.zip(cursors)), |(((lo, keys), base), (list, cursor))| {
            for (x, y) in half_edges(keys, lo, cursor.len()) {
                list[cursor[x] - base] = y;
                cursor[x] += 1;
            }
        });
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        CsrGraph { offsets, adj }
    }

    /// `offsets()[v]..offsets()[v + 1]` is the range of `v`'s half-edges in
    /// the adjacency array, for data stored parallel to it.
    #[inline]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted neighbor list of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertices, `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = u32> {
        0..self.num_vertices() as u32
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`, in
    /// lexicographic order. The position of an edge in this iteration is its
    /// canonical *edge id* (used by [`crate::Incidence`] and the matching
    /// workloads).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Collects [`CsrGraph::edges`] into a vector (the canonical edge list).
    pub fn edge_list(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.num_edges());
        out.extend(self.edges());
        out
    }

    /// Largest degree in the graph, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree, `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.adj.len() as f64 / self.num_vertices() as f64
        }
    }

    /// Total bytes of the two backing arrays; used by the bench harness to
    /// report instance footprints.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<u32>()
    }
}

/// The sort key of the pair `u < v`: keys order as the pairs do.
pub(crate) fn key(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Keys a thread must get: below `2 * GRAIN`, the caller does it all.
const GRAIN: usize = 1 << 16;

/// The threads for sorting or filling `keys` keys: one per core and grain.
pub(crate) fn threads_for(keys: usize) -> usize {
    let cores = || std::thread::available_parallelism().map_or(1, usize::from);
    Some(keys / GRAIN).filter(|&t| t > 1).map_or(1, |t| t.min(cores()))
}

/// Entries a ledger holds at least: over 1 KiB, which glibc does not cache
/// per thread once freed. A cached block never merges back into the heap's
/// top, so one made after the graph's arrays would pin the memory above.
const LEDGER_MIN: usize = 1040 / std::mem::size_of::<usize>();

/// Keys a sort bucket aims at: 128 KiB of them, well inside an L2.
const BUCKET_KEYS: usize = 1 << 14;

/// Sorts the keys of pairs of vertices below `n` on `threads` threads,
/// through `scratch`, two entries a key (the unfilled `adj`). Each thread
/// copies its chunk of the keys, as `[u, v]`, bucket by bucket (the top ≤ 10
/// bits of `u`) into its span of `scratch`; then each gathers the buckets
/// that start in its share of the keys back into place and sorts them.
pub(crate) fn sort_keys(n: usize, keys: &mut [u64], scratch: &mut [u32], threads: usize) {
    let bits = (keys.len() / BUCKET_KEYS).next_power_of_two().trailing_zeros().min(10);
    let shift = (usize::BITS - n.leading_zeros()).saturating_sub(bits);
    let buckets = (n >> shift) + 1;
    // A `u` out of range joins the last bucket, for `fill` to report.
    let bucket = |k: u64| (((k >> 32) >> shift) as usize).min(buckets - 1);
    let (len, pairs) = (keys.len(), scratch[..2 * keys.len()].as_chunks_mut::<2>().0);
    let chunk = len.div_ceil(threads).max(1);
    let t = len.div_ceil(chunk);
    // The one ledger: row `c` counts chunk `c`'s keys by bucket, then holds
    // where each bucket's run ends in the chunk's span; the last row holds
    // where each bucket starts in `keys`.
    let mut ledger = vec![0usize; ((t + 1) * buckets + 1).max(LEDGER_MIN)];
    let (rows, starts) = ledger.split_at_mut(t * buckets);
    let spans = keys.chunks(chunk).zip(pairs.chunks_mut(chunk));
    on_threads(spans.zip(rows.chunks_mut(buckets)), |((chunk, span), row)| {
        chunk.iter().for_each(|&k| row[bucket(k)] += 1);
        let mut end = 0;
        row.iter_mut().for_each(|r| (end, *r) = (end + *r, end));
        for &k in chunk {
            let at = &mut row[bucket(k)];
            (span[*at], *at) = ([(k >> 32) as u32, k as u32], *at + 1);
        }
    });
    for b in 0..buckets {
        starts[b + 1] = rows[b..].iter().step_by(buckets).sum();
    }
    let (rows, starts, pairs) = (&*rows, &*starts, &*pairs);
    let group = |j: usize| starts[..buckets].partition_point(|&s| s * threads < len * j);
    let runs = cut(keys, (1..=threads).map(|j| starts[group(j)]));
    on_threads(runs.zip(0..threads), |(mut run, j)| {
        for b in group(j)..group(j + 1) {
            let (out, rest) = std::mem::take(&mut run).split_at_mut(starts[b + 1] - starts[b]);
            let mut at = out.iter_mut();
            for (c, row) in rows.chunks(buckets).enumerate() {
                let span = c * chunk + b.checked_sub(1).map_or(0, |a| row[a])..c * chunk + row[b];
                (&mut at).zip(&pairs[span]).for_each(|(k, &[u, v])| *k = key(u, v));
            }
            out.sort_unstable();
            run = rest;
        }
    });
}

/// The half-edges `x → y` of `keys` with `x` in `lo..lo + len`, as `(x - lo, y)`.
fn half_edges(keys: &[u64], lo: usize, len: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
    let ends = |k: u64| [((k >> 32) as usize, k as u32), (k as u32 as usize, (k >> 32) as u32)];
    let local = move |(x, y): (usize, u32)| Some((x.wrapping_sub(lo), y)).filter(|&(x, _)| x < len);
    keys.iter().flat_map(move |&k| ends(k)).filter_map(local)
}

/// Cuts `items` at the ascending positions `ends`, into the runs before each.
fn cut<T>(
    mut items: &mut [T],
    ends: impl Iterator<Item = usize>,
) -> impl Iterator<Item = &mut [T]> {
    let mut at = 0;
    ends.map(move |end| {
        let (run, rest) = std::mem::take(&mut items).split_at_mut(end - at);
        (items, at) = (rest, end);
        run
    })
}

/// Runs `work` on every part: the first on the calling thread, each other
/// on a scoped thread of its own, joined rather than just waited for, so
/// the frees its exit makes cannot race the caller's next allocations.
fn on_threads<T: Send>(parts: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let (work, mut parts) = (&work, parts.into_iter().peekable());
    let first = parts.next();
    if parts.peek().is_none() {
        return first.into_iter().for_each(work);
    }
    std::thread::scope(|s| {
        let mut threads = Vec::with_capacity(LEDGER_MIN);
        threads.extend(parts.map(|part| s.spawn(move || work(part))));
        first.into_iter().for_each(work);
        threads.into_iter().for_each(|t| t.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
    });
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn zero_vertices() {
        let g = CsrGraph::empty(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2), (1, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(1), 2);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = CsrGraph::from_edges(6, [(4, 2), (0, 5), (3, 1), (2, 0), (5, 2)]);
        for v in g.vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
            for &u in ns {
                assert!(g.neighbors(u).contains(&v), "asymmetric edge {u}-{v}");
                assert!(g.has_edge(u, v) && g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn edge_iteration_is_canonical() {
        let g = CsrGraph::from_edges(4, [(2, 3), (0, 1), (0, 2), (1, 3)]);
        let edges = g.edge_list();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(edges.len(), g.num_edges());
    }

    #[test]
    fn degree_statistics() {
        let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = CsrGraph::empty(1);
        assert!(!format!("{:?}", g).is_empty());
    }
}
