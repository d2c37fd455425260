//! Supports **Theorem 2** (§3.2), the paper's headline claim: the relaxation
//! cost of MIS (Algorithm 4) is `poly(k)` — independent of graph size or
//! structure. Also checks the matching corollary (§2.4).
//!
//! Three sweeps:
//!
//! 1. size sweep — fixed `k`, `n` growing 100×, `m = 10n` and `m = 50n`:
//!    extra iterations should stay *flat*;
//! 2. relaxation sweep — fixed graph, growing `k`: extra iterations grow
//!    polynomially (log-log slope printed; the paper conjectures exponent 1);
//! 3. structure sweep — same `n, m` across ER / power-law / near-regular /
//!    star-heavy graphs: extra should not depend on structure.
//!
//! Usage: `theorem2_sweep [--reps R] [--seed S] [--quick]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{BenchCli, Table};
use rsched_core::algorithms::matching::{ConcurrentMatching, MatchingInstance};
use rsched_core::algorithms::mis::ConcurrentMis;
use rsched_core::framework::run_relaxed;
use rsched_graph::{gen, CsrGraph, Permutation};
use rsched_queues::relaxed::SimMultiQueue;

fn mis_extra(g: &CsrGraph, reps: usize, k: usize, seed: u64) -> f64 {
    let mut total = 0u64;
    for rep in 0..reps {
        let s = seed + rep as u64 * 104_729;
        let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(s));
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(s ^ 0xBEEF));
        let stats = run_relaxed(&ConcurrentMis::new(g, &pi), &pi, sched);
        total += stats.extra_iterations();
    }
    total as f64 / reps as f64
}

fn matching_extra(g: &CsrGraph, reps: usize, k: usize, seed: u64) -> f64 {
    let inst = MatchingInstance::new(g);
    let mut total = 0u64;
    for rep in 0..reps {
        let s = seed + rep as u64 * 104_729;
        let pi = Permutation::random(inst.num_edges(), &mut StdRng::seed_from_u64(s));
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(s ^ 0xBEEF));
        let stats = run_relaxed(&ConcurrentMatching::new(&inst, &pi), &pi, sched);
        total += stats.extra_iterations();
    }
    total as f64 / reps as f64
}

fn main() {
    let Some(cli) = BenchCli::parse(
        "theorem2_sweep",
        "Checks Theorem 2's headline claim: MIS wasted work flat in n for fixed k.",
        &[
            ("--reps N", "repetitions per configuration"),
            ("--seed S", "base RNG seed"),
            ("--k K", "fixed relaxation factor"),
        ],
    ) else {
        return;
    };
    let (args, quick) = (cli.args, cli.quick);
    let reps = args.get_usize("reps", if quick { 2 } else { 5 });
    let seed = args.get_u64("seed", 13);
    let k_fixed = args.get_usize("k", 16);

    println!("Theorem 2 sweeps: MIS (Algorithm 4), simulated MultiQueue scheduler\n");

    // --- size sweep ---
    let sizes: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 100_000] };
    println!("size sweep (k = {k_fixed}; extra iterations should be flat in n):");
    let mut table = Table::new(&["n", "m=10n extra", "m=50n extra"]);
    for &n in sizes {
        let g10 = gen::gnm(n, 10 * n, &mut StdRng::seed_from_u64(seed));
        let g50 = gen::gnm(n, 50 * n, &mut StdRng::seed_from_u64(seed + 1));
        let e10 = mis_extra(&g10, reps, k_fixed, seed);
        let e50 = mis_extra(&g50, reps, k_fixed, seed);
        table.row(&[&n, &format!("{e10:.1}"), &format!("{e50:.1}")]);
    }
    println!("{table}");

    // --- relaxation sweep ---
    let n = if quick { 10_000 } else { 30_000 };
    let ks: &[usize] = &[2, 4, 8, 16, 32, 64, 128];
    let g = gen::gnm(n, 10 * n, &mut StdRng::seed_from_u64(seed + 2));
    println!("relaxation sweep (n = {n}, m = {}; extra grows poly(k)):", 10 * n);
    let mut table = Table::new(&["k", "MIS extra", "matching extra"]);
    let mut points = Vec::new();
    let gm = gen::gnm(2_000, 8_000, &mut StdRng::seed_from_u64(seed + 3));
    for &k in ks {
        let e = mis_extra(&g, reps, k, seed);
        let em = matching_extra(&gm, reps, k, seed);
        points.push((k as f64, e.max(0.5)));
        table.row(&[&k, &format!("{e:.1}"), &format!("{em:.1}")]);
    }
    println!("{table}");
    // Log-log slope by least squares: the poly(k) exponent estimate.
    let n_pts = points.len() as f64;
    let (sx, sy): (f64, f64) =
        points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x.ln(), b + y.ln()));
    let (sxx, sxy): (f64, f64) =
        points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x.ln() * x.ln(), b + x.ln() * y.ln()));
    let slope = (n_pts * sxy - sx * sy) / (n_pts * sxx - sx * sx);
    println!("fitted poly(k) exponent ≈ {slope:.2} (paper proves ≤ 4 + o(1), conjectures 1)\n");

    // --- structure sweep ---
    let sn = if quick { 5_000 } else { 20_000 };
    let sm = 6 * sn;
    println!("structure sweep (n = {sn}, m ≈ {sm}, k = {k_fixed}; extra ≈ structure-independent):");
    let er = gen::gnm(sn, sm, &mut StdRng::seed_from_u64(seed + 4));
    let ba = gen::barabasi_albert(sn, 6, &mut StdRng::seed_from_u64(seed + 5));
    let reg = gen::near_regular(sn, 12, &mut StdRng::seed_from_u64(seed + 6));
    let grid = gen::grid2d(sn / 100, 100);
    let mut table = Table::new(&["graph", "n", "m", "extra"]);
    for (name, g) in
        [("erdos-renyi", &er), ("barabasi-albert", &ba), ("near-regular", &reg), ("grid", &grid)]
    {
        let e = mis_extra(g, reps, k_fixed, seed);
        table.row(&[&name, &g.num_vertices(), &g.num_edges(), &format!("{e:.1}")]);
    }
    println!("{table}");
}
