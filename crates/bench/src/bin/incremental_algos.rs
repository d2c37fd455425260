//! Incremental algorithms under relaxed schedulers (arXiv 2003.09363):
//! incremental connectivity and randomized incremental Delaunay driven by
//! every sequential scheduler model.
//!
//! The two workloads bracket the dependency spectrum, and the tables are
//! built to show it:
//!
//! * **connectivity** — unions commute, so its extra-iterations column must
//!   stay exactly 0 and its wasted (already-connected) pops exactly
//!   `m − (n − c)` at *every* relaxation factor and shard count:
//!   relaxation is free at the commutative end.
//! * **delaunay** — point insertions conflict through their cavities, so
//!   out-of-order pops retry (failed deletes) and re-triangulation work
//!   ("churn": cells destroyed beyond the label-order baseline) grows with
//!   `k` — but stays `poly(k)` and roughly independent of `n`, which is the
//!   dependency-depth bound the rank-tail section probes.
//!
//! Every run is verified: connectivity output is diffed against the
//! sequential union-find ground truth, Delaunay output passes the
//! empty-circumcircle + hull-coverage verifier. The framework pops one
//! task per iteration, as in the paper's sequential model; batched runs of
//! pops are the thread executors' (`figure2 --batch-size`).
//!
//! Usage: `incremental_algos [--n N] [--m M] [--pts P] [--ks 4,16,64]
//! [--reps R] [--seed S] [--shards S] [--quick]`
//!
//! (The target is named `incremental_algos` because cargo forbids a binary
//! called plain `incremental` — it collides with the build directory.)
//!
//! `--quick` (or the `RSCHED_BENCH_FAST=1` environment variable, which CI
//! sets) shrinks every instance for a seconds-long smoke run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{fit_tail_exponent, shard_seed, BenchCli, Table};
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::incremental::delaunay::{
    delaunay_reference, verify_delaunay, ConcurrentDelaunay,
};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::framework::run_relaxed;
use rsched_core::TaskId;
use rsched_graph::gen;
use rsched_graph::geom::{uniform_square, Point};
use rsched_graph::Permutation;
use rsched_queues::instrument::Instrumented;
use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::PriorityScheduler;

/// One pinned instance pair shared by every table.
struct Instances {
    n: usize,
    edges: Vec<(u32, u32)>,
    edge_pi: Permutation,
    edge_truth: Vec<u32>,
    pts: Vec<Point>,
    pt_pi: Permutation,
    delaunay_count: usize,
    /// Cells destroyed by the label-order reference run — the churn
    /// baseline.
    reference_destroyed: u64,
}

/// Sequential table: one row per scheduler model, one `extra`-style cell
/// per relaxation factor.
fn sequential_tables(inst: &Instances, ks: &[usize], reps: usize, seed: u64, shards: usize) {
    // Connectivity: cell = "extra/wasted" (extra must be 0; wasted is the
    // order-independent already-connected count).
    let mut header: Vec<String> = vec!["connectivity".into()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    let refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut ctable = Table::new(&refs);
    let mut dtable = {
        let mut h: Vec<String> = vec!["delaunay".into()];
        h.extend(ks.iter().map(|k| format!("k={k}")));
        let refs: Vec<&str> = h.iter().map(|s| s.as_str()).collect();
        Table::new(&refs)
    };

    // A boxed scheduler factory per model keeps the row loop uniform.
    type Factory<'a> = Box<dyn Fn(usize, u64) -> Box<dyn PriorityScheduler<TaskId>> + 'a>;
    let models: Vec<(&str, Factory)> = vec![
        ("top-k uniform", Box::new(|k, s| Box::new(TopKUniform::new(k, StdRng::seed_from_u64(s))))),
        (
            "sim MultiQueue",
            Box::new(|k, s| Box::new(SimMultiQueue::new(k, StdRng::seed_from_u64(s)))),
        ),
        (
            "sim SprayList",
            Box::new(|k, s| Box::new(SimSprayList::with_threads(k, StdRng::seed_from_u64(s)))),
        ),
        (
            "sharded sim-MQ",
            Box::new(move |k, s| {
                Box::new(ShardedScheduler::from_fn(shards, |i| {
                    SimMultiQueue::new(k, StdRng::seed_from_u64(shard_seed(s, i)))
                }))
            }),
        ),
    ];

    for (name, make) in &models {
        let mut ccells = vec![name.to_string()];
        let mut dcells = vec![name.to_string()];
        for &k in ks {
            let (mut cextra, mut cwaste, mut dextra, mut dchurn) = (0u64, 0u64, 0u64, 0u64);
            for rep in 0..reps as u64 {
                let s = seed ^ (rep * 7919 + k as u64);
                let alg = ConcurrentConnectivity::new(inst.n, &inst.edges);
                let stats = run_relaxed(&alg, &inst.edge_pi, make(k, s));
                assert_eq!(
                    alg.into_labels(),
                    inst.edge_truth,
                    "connectivity diverged: {name} k={k}"
                );
                cextra += stats.extra_iterations();
                cwaste += stats.obsolete;

                let alg = ConcurrentDelaunay::new(&inst.pts, &inst.pt_pi);
                let stats = run_relaxed(&alg, &inst.pt_pi, make(k, s ^ 1));
                let out = alg.into_output();
                assert!(verify_delaunay(&inst.pts, &out.triangles), "delaunay: {name} k={k}");
                assert_eq!(out.triangles.len(), inst.delaunay_count, "{name} k={k}");
                dextra += stats.extra_iterations();
                dchurn += out.destroyed.saturating_sub(inst.reference_destroyed);
            }
            let r = reps as f64;
            ccells.push(format!("{:.0}/{:.0}", cextra as f64 / r, cwaste as f64 / r));
            dcells.push(format!("{:.0}/{:.0}", dextra as f64 / r, dchurn as f64 / r));
        }
        let rrefs: Vec<&dyn std::fmt::Display> =
            ccells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        ctable.row(&rrefs);
        let rrefs: Vec<&dyn std::fmt::Display> =
            dcells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        dtable.row(&rrefs);
    }
    println!("sequential models — cells are extra-iterations/secondary per k");
    println!("(connectivity secondary: already-connected pops, order-independent;");
    println!(" delaunay secondary: re-triangulation churn beyond the label-order run)\n");
    println!("{ctable}");
    println!("{dtable}");
    println!("Expected: connectivity extra ≡ 0 at every k (unions commute); delaunay");
    println!("extra and churn grow with k only — the dependency-depth bound.\n");
}

/// Rank-tail + dependency-depth section: fitted k̂ per relaxation factor
/// (the scheduler really was ~k-relaxed) against the measured waste, and a
/// size sweep showing the waste is a function of k, not n.
fn dependency_depth_table(inst: &Instances, ks: &[usize], seed: u64) {
    let mut table = Table::new(&["k", "k̂fit(rank)", "delaunay extra", "conn extra"]);
    for &k in ks {
        let mut sched = Instrumented::new(SimMultiQueue::new(k, StdRng::seed_from_u64(seed)));
        let alg = ConcurrentDelaunay::new(&inst.pts, &inst.pt_pi);
        // Drive through the instrumented scheduler by hand-rolling the
        // framework loop is unnecessary: Instrumented is itself a
        // PriorityScheduler, so the framework runs it unmodified.
        let dstats = run_relaxed(&alg, &inst.pt_pi, &mut sched);
        assert!(verify_delaunay(&inst.pts, &alg.into_output().triangles));
        let khat = fit_tail_exponent(&sched.rank_tail())
            .map(|l| format!("{:.1}", 1.0 / l))
            .unwrap_or_else(|| "-".into());

        let alg = ConcurrentConnectivity::new(inst.n, &inst.edges);
        let cstats = run_relaxed(
            &alg,
            &inst.edge_pi,
            SimMultiQueue::new(k, StdRng::seed_from_u64(seed ^ 5)),
        );
        assert_eq!(alg.into_labels(), inst.edge_truth);
        table.row(&[&k, &khat, &dstats.extra_iterations(), &cstats.extra_iterations()]);
    }
    println!("dependency-depth probe (sim MultiQueue): fitted k̂ vs measured waste\n");
    println!("{table}");

    // Size sweep at fixed k: waste must not scale with n.
    let k = ks[ks.len() / 2];
    let mut sweep = Table::new(&["points", "delaunay extra", "extra/n"]);
    for div in [4usize, 2, 1] {
        let m = inst.pts.len() / div;
        let pts = &inst.pts[..m];
        let pi = insertion_order(m, seed ^ 9);
        let alg = ConcurrentDelaunay::new(pts, &pi);
        let stats = run_relaxed(&alg, &pi, SimMultiQueue::new(k, StdRng::seed_from_u64(seed ^ 3)));
        assert!(verify_delaunay(pts, &alg.into_output().triangles));
        sweep.row(&[
            &m,
            &stats.extra_iterations(),
            &format!("{:.4}", stats.extra_iterations() as f64 / m as f64),
        ]);
    }
    println!("size sweep at k = {k}: the extra/n column should *fall* with n");
    println!("(poly(k) waste amortized over more tasks — arXiv 2003.09363's bound)\n{sweep}");
}

fn main() {
    let Some(cli) = BenchCli::parse(
        "incremental_algos",
        "Incremental connectivity + randomized incremental Delaunay under relaxed schedulers.",
        &[
            ("--n N", "connectivity vertex count"),
            ("--m M", "connectivity edge count"),
            ("--pts P", "delaunay point count"),
            ("--ks LIST", "comma-separated relaxation factors"),
            ("--reps N", "repetitions per configuration"),
            ("--seed S", "base RNG seed"),
            ("--shards S", "shards for the sharded rows (default 4)"),
        ],
    ) else {
        return;
    };
    let (args, fast) = (cli.args, cli.quick);
    let n = args.get_usize("n", if fast { 2_000 } else { 20_000 });
    let m = args.get_usize("m", if fast { 6_000 } else { 60_000 });
    let pts_n = args.get_usize("pts", if fast { 400 } else { 2_000 });
    let ks = args.get_usize_list("ks", if fast { &[4, 16] } else { &[4, 16, 64] });
    let reps = args.get_usize("reps", if fast { 1 } else { 3 });
    let seed = args.get_u64("seed", 11);
    let shards = args.get_usize("shards", 4);
    assert!(shards >= 1, "--shards must be positive");

    let mut rng = StdRng::seed_from_u64(seed);
    let edges = gen::gnm(n, m, &mut rng).edge_list();
    let pts = uniform_square(pts_n, 1 << 20, &mut rng);
    let edge_pi = insertion_order(edges.len(), seed);
    let pt_pi = insertion_order(pts.len(), seed ^ 1);
    let edge_truth = components(n, &edges);
    let reference = delaunay_reference(&pts, &pt_pi);
    assert!(verify_delaunay(&pts, &reference.triangles), "reference triangulation invalid");
    let inst = Instances {
        n,
        edges,
        edge_pi,
        edge_truth,
        pts,
        pt_pi,
        delaunay_count: reference.triangles.len(),
        reference_destroyed: reference.destroyed,
    };

    println!(
        "incremental algorithms: connectivity n={n} m={}, delaunay pts={} ({} triangles)",
        inst.edges.len(),
        inst.pts.len(),
        inst.delaunay_count
    );
    println!();

    sequential_tables(&inst, &ks, reps, seed, shards);
    dependency_depth_table(&inst, &ks, seed);
}
