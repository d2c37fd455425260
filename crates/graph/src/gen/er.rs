//! Erdős–Rényi generators: `G(n, p)` and `G(n, m)`.
//!
//! Only drawing the pairs follows the generator's stream. Sorting their
//! keys (by cache-sized buckets first) and filling the CSR (by vertex
//! ranges) run on every core once the graph is large enough, and give the
//! same graph, and leave the same generator state, on any number of them.

use crate::csr::{key, sort_keys, threads_for};
use crate::CsrGraph;
use rand::Rng;

/// Samples `G(n, p)`: every unordered pair is an edge independently with
/// probability `p`.
///
/// Uses the Batagelj–Brandes skip-sampling algorithm, so the running time is
/// `O(n + m)` rather than `O(n²)`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or is NaN.
///
/// # Examples
///
/// ```
/// use rsched_graph::gen::gnp;
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let g = gnp(100, 0.05, &mut StdRng::seed_from_u64(1));
/// assert_eq!(g.num_vertices(), 100);
/// ```
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p = {p} must be in [0, 1]");
    if n == 0 || p == 0.0 {
        return CsrGraph::empty(n);
    }
    if p >= 1.0 {
        return super::complete(n);
    }
    let mut edges = Vec::new();
    let log_q = (1.0 - p).ln();
    // Walk the pairs (w, v) with w < v in row-major order, jumping a
    // geometrically distributed number of non-edges each step.
    let mut v: u64 = 1;
    let mut w: i64 = -1;
    while (v as usize) < n {
        let r: f64 = rng.gen::<f64>(); // in [0, 1)
        let skip = ((1.0 - r).ln() / log_q).floor() as i64;
        w += 1 + skip;
        while w >= v as i64 && (v as usize) < n {
            w -= v as i64;
            v += 1;
        }
        if (v as usize) < n {
            edges.push((w as u32, v as u32));
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// Samples `G(n, m)`: a graph drawn uniformly among all graphs with exactly
/// `n` vertices and `m` distinct edges.
///
/// This is the model Table 1 of the paper sweeps (`n ∈ {10³, 10⁴}`,
/// `m ∈ {10⁴, 3·10⁴, 10⁵}`).
///
/// # Panics
///
/// Panics if `m` exceeds `n·(n−1)/2`.
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    let total: u64 = n as u64 * (n as u64 - if n == 0 { 0 } else { 1 }) / 2;
    assert!((m as u64) <= total, "m = {m} exceeds the {total} possible edges on {n} vertices");
    // Rejection-sample distinct pairs: for m within half the total, fewer
    // than 2m draws are expected. Denser requests sample the total − m holes
    // instead and emit every other pair in one walk against them.
    if (m as u64) * 2 <= total {
        // The keys first, then the graph: see `CsrGraph::unfilled`.
        let mut keys = Vec::with_capacity(m);
        let mut g = CsrGraph::unfilled(n, m);
        distinct_pairs(n, &mut keys, m, rng, g.scratch());
        return g.fill(&keys, threads_for(m));
    }
    let count = (total - m as u64) as usize;
    let mut holes = Vec::with_capacity(count);
    distinct_pairs(n, &mut holes, count, rng, &mut vec![0; 2 * count]);
    let mut holes = holes.into_iter().peekable();
    let mut edges = Vec::with_capacity(m);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if holes.next_if_eq(&key(u, v)).is_none() {
                edges.push(key(u, v));
            }
        }
    }
    CsrGraph::unfilled(n, m).fill(&edges, threads_for(m))
}

/// Fills the empty `keys`, with room for `count`, with the sorted keys of
/// `count` distinct pairs, drawn as a loop that rejects self-loops and
/// stops at its `count`-th new pair would draw them; `scratch`, two
/// entries a key, is the sort's.
///
/// The draws come in rounds of exactly the deficit, appended, sorted and
/// merged into the distinct keys before them. A round adds at most one new
/// key per draw, so the count reaches `count` only on a round's last draw
/// — where that loop stops — and the keys and the generator's state
/// afterwards are the loop's. Nothing is allocated.
fn distinct_pairs<R: Rng>(
    n: usize,
    keys: &mut Vec<u64>,
    count: usize,
    rng: &mut R,
    scratch: &mut [u32],
) {
    while keys.len() < count {
        let held = keys.len();
        while keys.len() < count {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b {
                keys.push(key(a.min(b), a.max(b)));
            }
        }
        sort_keys(n, &mut keys[held..], scratch, threads_for(count - held));
        if held == 0 {
            keys.dedup();
        } else {
            merge_new(keys, held, scratch);
        }
    }
}

/// Merges the sorted keys after the first `held` of `keys` into those
/// `held`, which are sorted and distinct, dropping repeats and keys already
/// held. The new keys wait in `scratch`, two entries a key, meanwhile.
fn merge_new(keys: &mut Vec<u64>, held: usize, scratch: &mut [u32]) {
    let fresh = scratch.as_chunks_mut::<2>().0;
    let (mut at, mut f) = (0, 0);
    for i in held..keys.len() {
        let k = keys[i];
        at += keys[at..held].partition_point(|&x| x < k);
        if keys[at..held].first() != Some(&k)
            && (f == 0 || key(fresh[f - 1][0], fresh[f - 1][1]) != k)
        {
            (fresh[f], f) = ([(k >> 32) as u32, k as u32], f + 1);
        }
    }
    // Merge from the back; once the new keys are spent, the rest of the
    // held ones are already in place.
    keys.truncate(held + f);
    let (mut i, mut j) = (held, f);
    while j > 0 {
        let k = key(fresh[j - 1][0], fresh[j - 1][1]);
        if i > 0 && keys[i - 1] > k {
            i -= 1;
            keys[i + j] = keys[i];
        } else {
            j -= 1;
            keys[i + j] = k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    /// The hash-set generator `gnm` replaced, kept as its oracle: the same
    /// draws, deduplicated one at a time.
    fn gnm_oracle<R: Rng>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
        let total = n * n.saturating_sub(1) / 2;
        let mut draw = || loop {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b {
                return (a.min(b), a.max(b));
            }
        };
        let (mut seen, mut edges) = (HashSet::new(), Vec::new());
        if m * 2 > total {
            while seen.len() < total - m {
                seen.insert(draw());
            }
            let pairs = (0..n as u32).flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)));
            edges.extend(pairs.filter(|e| !seen.contains(e)));
        } else {
            while edges.len() < m {
                let e = draw();
                if seen.insert(e) {
                    edges.push(e);
                }
            }
            edges.sort_unstable();
        }
        CsrGraph::from_edges(n, edges)
    }

    /// FNV-1a over the canonical edge keys.
    fn fingerprint(g: &CsrGraph) -> u64 {
        g.edges()
            .fold(0xcbf2_9ce4_8422_2325, |h, (u, v)| (h ^ key(u, v)).wrapping_mul(0x0100_0000_01b3))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `gnm` draws the oracle's graph and leaves the generator where the
        /// oracle does: sparse requests, duplicate-heavy ones just under half
        /// of all pairs, and dense ones through the complement.
        #[test]
        fn gnm_matches_the_hash_set_oracle(n in 2usize..160, shape in 0u8..3, frac in 0u64..1_000, seed in any::<u64>()) {
            let total = n * (n - 1) / 2;
            let m = match shape {
                0 => total / 2 * frac as usize / 8_000,
                1 => total / 2 - total / 2 * frac as usize / 20_000,
                _ => total / 2 + 1 + (total - total / 2 - 1) * frac as usize / 1_000,
            };
            let (mut ours, mut theirs) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let g = gnm(n, m, &mut ours);
            prop_assert_eq!(g.num_edges(), m);
            prop_assert_eq!(g, gnm_oracle(n, m, &mut theirs));
            prop_assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>());
        }
    }

    /// Graphs and the draw after them, recorded from the hash-set generator
    /// (the second request is dense) and, above the threads' cut-off, from
    /// the single-threaded sort and fill.
    #[test]
    fn gnm_fingerprints_are_pinned() {
        for (n, m, seed, edges, next) in [
            (1_000, 30_000, 3, 0x8e03_31a5_ef5d_2f3d, 0xeab7_42ab_3bbd_913d),
            (100, 4_000, 5, 0xb549_bb47_c77b_2f19, 0x9acb_ef83_57e9_73bf),
            (200_000, 2_000_000, 1, 0x1f46_7c66_cce8_c2d2, 0x38a8_51c4_2562_028e),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gnm(n, m, &mut rng);
            assert_eq!((g.num_edges(), fingerprint(&g)), (m, edges), "gnm({n}, {m}) seed {seed}");
            assert_eq!(rng.gen::<u64>(), next, "gnm({n}, {m}) seed {seed}");
        }
    }

    /// Above the cut-off, any thread count sorts the keys as a plain sort
    /// does and fills the lists a one-key-at-a-time build fills.
    #[test]
    fn gnm_keys_sort_and_fill_alike_on_any_thread_count() {
        let (n, mut rng) = (50_000, StdRng::seed_from_u64(9));
        let mut draw = |v: u32| key(rng.gen_range(0..v), v);
        let keys: Vec<u64> = (0..300_000).map(|i| draw(1 + i % (n as u32 - 1))).collect();
        let (mut want, mut lists) = (keys.clone(), vec![Vec::new(); n]);
        want.sort_unstable();
        want.dedup();
        for &k in &want {
            lists[(k >> 32) as usize].push(k as u32);
            lists[k as u32 as usize].push((k >> 32) as u32);
        }
        for threads in [1, 2, 3, 7] {
            let mut sorted = keys.clone();
            sort_keys(n, &mut sorted, &mut vec![0; 2 * keys.len()], threads);
            sorted.dedup();
            assert_eq!(sorted, want, "{threads} threads");
            let g = CsrGraph::unfilled(n, sorted.len()).fill(&sorted, threads);
            assert!(g.vertices().all(|v| g.neighbors(v) == lists[v as usize]), "{threads} threads");
        }
    }

    #[test]
    fn gnm_extremes_match_the_oracle() {
        for (n, m) in [(0, 0), (1, 0), (10, 0), (10, 45), (1_000, 1)] {
            let g = gnm(n, m, &mut StdRng::seed_from_u64(7));
            assert_eq!(g.num_edges(), m);
            assert_eq!(g, gnm_oracle(n, m, &mut StdRng::seed_from_u64(7)), "gnm({n}, {m})");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn gnm_too_many_edges() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = gnm(4, 7, &mut rng);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(gnp(20, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(gnp(20, 1.0, &mut rng).num_edges(), 190);
        assert_eq!(gnp(0, 0.5, &mut rng).num_vertices(), 0);
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 2000;
        let p = 0.01;
        let g = gnp(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = g.num_edges() as f64;
        // 5 sigma of a binomial with ~20k trials-worth of variance.
        let sigma = (expected * (1.0 - p)).sqrt();
        assert!((m - expected).abs() < 5.0 * sigma, "m = {m}, expected ≈ {expected}");
    }

    #[test]
    fn gnp_is_seed_deterministic() {
        let c = gnp(100, 0.1, &mut StdRng::seed_from_u64(3));
        let d = gnp(100, 0.1, &mut StdRng::seed_from_u64(3));
        assert_eq!(c, d);
    }
}
