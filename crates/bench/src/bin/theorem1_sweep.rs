//! Supports **Theorem 1** (§3.1): extra iterations of the *generic*
//! framework (Algorithm 2, exercised via greedy coloring) scale as
//! `O(m/n)·poly(k)` — and the clique shows the matching `Θ(nk)` lower bound.
//!
//! Two sweeps:
//!
//! 1. density sweep — fixed `n`, growing `m`: extra iterations per unit of
//!    `m/n` should be roughly constant for fixed `k`;
//! 2. clique sweep — `K_n` for growing `n` at fixed `k`: extra iterations
//!    divided by `n·k` should be roughly constant (tightness).
//!
//! Usage: `theorem1_sweep [--reps R] [--seed S] [--quick]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{BenchCli, Table};
use rsched_core::algorithms::coloring::ConcurrentColoring;
use rsched_core::framework::run_relaxed;
use rsched_core::theory;
use rsched_graph::{gen, CsrGraph, Permutation};
use rsched_queues::relaxed::TopKUniform;

fn coloring_extra(g: &CsrGraph, reps: usize, k: usize, seed: u64) -> f64 {
    let mut total = 0u64;
    for rep in 0..reps {
        let s = seed + rep as u64 * 7919;
        let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(s));
        let sched = TopKUniform::new(k, StdRng::seed_from_u64(s ^ 0xFFFF));
        let stats = run_relaxed(&ConcurrentColoring::new(g, &pi), &pi, sched);
        total += stats.extra_iterations();
    }
    total as f64 / reps as f64
}

fn main() {
    let Some(cli) = BenchCli::parse(
        "theorem1_sweep",
        "Sweeps Theorem 1's generic waste bound across graph families (incl. the clique).",
        &[
            ("--reps N", "repetitions per configuration"),
            ("--seed S", "base RNG seed"),
            ("--ks LIST", "comma-separated relaxation factors"),
        ],
    ) else {
        return;
    };
    let (args, quick) = (cli.args, cli.quick);
    let reps = args.get_usize("reps", if quick { 2 } else { 5 });
    let seed = args.get_u64("seed", 11);
    let ks = args.get_usize_list("ks", &[4, 16, 64]);

    println!("Theorem 1 sweeps: generic framework (greedy coloring), top-k scheduler\n");

    // --- density sweep ---
    let n = if quick { 2_000 } else { 8_000 };
    let densities: &[usize] = &[1, 4, 16, 64]; // m = d * n
    println!("density sweep (n = {n}; extra should scale ≈ linearly with m/n):");
    let mut header: Vec<String> = vec!["m/n".into()];
    for &k in &ks {
        header.push(format!("extra k={k}"));
        header.push(format!("per-edge k={k}"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for &d in densities {
        let m = d * n;
        let g = gen::gnm(n, m, &mut StdRng::seed_from_u64(seed));
        let mut cells = vec![d.to_string()];
        for &k in &ks {
            let extra = coloring_extra(&g, reps, k, seed);
            cells.push(format!("{extra:.1}"));
            cells.push(format!("{:.4}", extra / m as f64));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    println!("{table}");

    // --- clique sweep (tightness) ---
    let clique_sizes: &[usize] = if quick { &[64, 128] } else { &[64, 128, 256, 512] };
    println!("clique sweep (K_n; extra / (n·k) should be ≈ constant — Θ(nk) tight case):");
    let mut header: Vec<String> = vec!["n".into()];
    for &k in &ks {
        header.push(format!("extra k={k}"));
        header.push(format!("extra/(nk) k={k}"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);
    for &cn in clique_sizes {
        let g = gen::complete(cn);
        let mut cells = vec![cn.to_string()];
        for &k in &ks {
            let extra = coloring_extra(&g, reps, k, seed);
            cells.push(format!("{extra:.0}"));
            cells.push(format!("{:.3}", extra / theory::clique_lower_bound(cn, k)));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    println!("{table}");
    println!("Theorem 1 bound shape with constant 1, for reference:");
    for &k in &ks {
        println!(
            "  k={k}: n + (m/n)·poly(k) with poly(k)={:.0}; conjectured Θ(k) = {}",
            theory::poly_k(k as f64),
            theory::conjectured_extra(k)
        );
    }
}
