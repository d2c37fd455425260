//! Regenerates **Figure 2** of the paper: concurrent MIS wall-clock time vs
//! thread count on three `G(n, p)` classes, comparing the relaxed MultiQueue
//! scheduler, the exact FAA-queue scheduler with backoff, and the optimized
//! sequential baseline.
//!
//! Default instance sizes are scaled to this machine (DESIGN.md substitution
//! #1 and #3), preserving each class's average degree regime:
//!
//! * sparse:       10⁶ nodes, 10⁷ edges  (paper: 10⁸ / 10⁹, deg ≈ 20)
//! * small dense:  10⁴ nodes, 10⁷ edges  (paper: 10⁶ / 10⁹, deg ≈ 2000)
//! * large dense:  2·10⁵ nodes, 2·10⁷ edges (paper: 10⁷ / 10¹⁰; degree
//!   reduced to fit memory — the class's role is "many nodes *and* heavy
//!   edge work")
//!
//! `--paper-scale` runs the paper's original sizes instead. Expect tens of
//! GB of CSR per class and minutes of generation time per instance — this
//! mode is for big-memory multi-socket hosts (the paper's machine is a
//! 4-socket, 72-core Xeon), never for CI.
//!
//! Usage: `figure2 [--threads 1,2,4] [--reps R] [--seed S] [--batch-size B]
//! [--shards S] [--trace PATH] [--metrics [PATH]]
//! [--quick | --paper-scale]`
//!
//! Built with `--features obs`, the relaxed runs feed the live
//! `engine_pop_total` wasted-work counters (extra-iterations readable
//! from a `--metrics` snapshot mid-run) and the final snapshot is
//! asserted to agree exactly with the relaxed executor's end-of-run
//! totals; the exact FAA executor never touches the engine counters.
//!
//! `--batch-size B` (default 1) runs the relaxed executor in batched mode:
//! each worker pops `B` tasks per scheduler round-trip and re-inserts the
//! batch's failed deletes in one bulk insert. Batch size 1 is bit-for-bit
//! the scalar executor.
//!
//! `--shards S` (default 1) partitions the relaxed scheduler into `S`
//! hash-routed `BulkMultiQueue` shards (`ShardedScheduler`); each worker
//! pins the shard `worker % S` for its pops and steals from the others only
//! when it runs dry. Sharding multiplies the effective relaxation by `S`
//! (DESIGN.md "Sharding semantics"), so the extra-iterations column grows
//! with `S` while the output stays exactly the sequential MIS.
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{BenchCli, Table};
use rsched_core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched_core::framework::{run_concurrent_batched, run_exact_concurrent};
use rsched_core::stats::ConcurrentStats;
use rsched_core::TaskId;
use rsched_graph::{gen, CsrGraph, Permutation};
use rsched_queues::concurrent::BulkMultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::ConcurrentScheduler;
use std::time::{Duration, Instant};

struct ClassSpec {
    name: &'static str,
    n: usize,
    m: usize,
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn time_sequential(g: &CsrGraph, pi: &Permutation, reps: usize) -> Duration {
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                let mis = greedy_mis(g, pi);
                std::hint::black_box(&mis);
                t.elapsed()
            })
            .collect(),
    )
}

/// Times `reps` relaxed runs on a fresh scheduler from `make_sched`,
/// asserting each run's output against the sequential MIS. Returns the
/// median wall time and the last run's extra iterations; every rep's pop
/// outcomes are absorbed into `ledger` for the end-of-run reconciliation
/// against the observability counters (only the relaxed executor runs on
/// the worker engine — the exact FAA executor has its own loop).
#[allow(clippy::too_many_arguments)]
fn time_relaxed<S, F>(
    make_sched: F,
    g: &CsrGraph,
    pi: &Permutation,
    expected: &[bool],
    threads: usize,
    reps: usize,
    batch_size: usize,
    ledger: &mut ConcurrentStats,
) -> (Duration, u64)
where
    S: ConcurrentScheduler<TaskId>,
    F: Fn() -> S,
{
    let mut times = Vec::new();
    let mut extra = 0u64;
    for _ in 0..reps {
        let alg = ConcurrentMis::new(g, pi);
        let sched = make_sched();
        let stats = run_concurrent_batched(&alg, pi, &sched, threads, batch_size);
        assert_eq!(alg.into_output(), expected, "relaxed output diverged");
        ledger.processed += stats.processed;
        ledger.wasted += stats.wasted;
        ledger.obsolete += stats.obsolete;
        ledger.empty_pops += stats.empty_pops;
        times.push(stats.elapsed);
        extra = stats.extra_iterations();
    }
    (median(times), extra)
}

fn main() {
    let mut options = vec![
        ("--batch-size B", "tasks popped per scheduler round-trip (default 1)"),
        ("--paper-scale", "the paper's original instance sizes (needs a big-memory host)"),
        ("--reps N", "repetitions per configuration"),
        ("--seed S", "base RNG seed"),
        ("--shards S", "hash-routed scheduler shards with worker affinity (default 1)"),
        ("--threads LIST", "comma-separated thread counts"),
    ];
    options.extend_from_slice(&rsched_bench::obs::OPTIONS);
    let Some(cli) = BenchCli::parse(
        "figure2",
        "Regenerates Figure 2: concurrent MIS wall-clock time vs thread count.",
        &options,
    ) else {
        return;
    };
    let args = cli.args;
    let obs_base = rsched_obs::snapshot();
    let mut relaxed_ledger = ConcurrentStats::default();
    let paper_scale = args.has_flag("paper-scale");
    // The explicit flags are mutually exclusive; an ambient
    // RSCHED_BENCH_FAST only wins when --paper-scale was not requested.
    assert!(
        !(args.has_flag("quick") && paper_scale),
        "--quick and --paper-scale are mutually exclusive"
    );
    let quick = cli.quick && !paper_scale;
    let reps = args.get_usize("reps", if quick { 1 } else { 3 });
    let seed = args.get_u64("seed", 7);
    let batch_size = args.get_usize("batch-size", 1);
    assert!(batch_size >= 1, "--batch-size must be positive");
    let shards = args.get_usize("shards", 1);
    assert!(shards >= 1, "--shards must be positive");
    let threads_list = args.get_usize_list("threads", &[1, 2, 4]);

    // Quick mode keeps each class's degree regime while shrinking ~10x;
    // paper-scale mode is the original Figure 2 (ROADMAP "benchmarks at
    // scale"): identical n to the paper, identical m except large-dense
    // (10¹⁰ edges ≈ 80 GB of CSR edges alone; 2·10⁹ keeps the "many nodes
    // *and* heavy edge work" role at deg 200 within a ~16 GB budget).
    let classes = if paper_scale {
        [
            ClassSpec { name: "sparse", n: 100_000_000, m: 1_000_000_000 },
            ClassSpec { name: "small-dense", n: 1_000_000, m: 1_000_000_000 },
            ClassSpec { name: "large-dense", n: 10_000_000, m: 2_000_000_000 },
        ]
    } else if quick {
        [
            ClassSpec { name: "sparse", n: 100_000, m: 1_000_000 },
            ClassSpec { name: "small-dense", n: 3_000, m: 1_500_000 },
            ClassSpec { name: "large-dense", n: 20_000, m: 2_000_000 },
        ]
    } else {
        [
            ClassSpec { name: "sparse", n: 1_000_000, m: 10_000_000 },
            ClassSpec { name: "small-dense", n: 10_000, m: 10_000_000 },
            ClassSpec { name: "large-dense", n: 200_000, m: 20_000_000 },
        ]
    };

    // Note: batch size 1 / shards 1 must leave the output byte-identical to
    // the pre-batching / pre-sharding binary, so the header lines are
    // conditional.
    if batch_size > 1 {
        println!("relaxed executor batch size: {batch_size}");
    }
    if shards > 1 {
        println!("relaxed scheduler shards: {shards}");
    }
    if paper_scale {
        println!("paper-scale instances (expect long generation times and tens of GB of RSS)");
    }
    println!(
        "Figure 2 reproduction: concurrent MIS, {} hardware threads available\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );

    for spec in &classes {
        let mut rng = StdRng::seed_from_u64(seed);
        eprintln!("generating {} graph (n = {}, m = {}) ...", spec.name, spec.n, spec.m);
        let gen_start = Instant::now();
        let g = gen::gnm(spec.n, spec.m, &mut rng);
        let pi = Permutation::random(spec.n, &mut rng);
        eprintln!(
            "  generated in {:?} ({} MB CSR, avg deg {:.1})",
            gen_start.elapsed(),
            g.memory_bytes() / (1 << 20),
            g.avg_degree()
        );

        let seq = time_sequential(&g, &pi, reps);
        let expected = greedy_mis(&g, &pi);
        println!(
            "class {}: n = {}, m = {}, sequential baseline = {:.3}s",
            spec.name,
            spec.n,
            spec.m,
            seq.as_secs_f64()
        );

        let mut table = Table::new(&[
            "threads",
            "relaxed(s)",
            "exact(s)",
            "relax-speedup",
            "exact-speedup",
            "relax-extra",
            "exact-waits",
        ]);
        for &threads in &threads_list {
            // Relaxed MultiQueue (4 queues per thread, as in the paper);
            // internal queues are prefilled sorted runs so pops are O(1)
            // head reads, matching the paper's list-based queues. With
            // --shards the task space is hash-partitioned into `shards`
            // such MultiQueues, each worker pinning shard `worker % shards`
            // (shard construction runs one thread per shard — the parallel
            // bulk load that dominates setup at paper scale).
            let entries = || (0..spec.n as u32).map(|v| (pi.label(v) as u64, v));
            let (rt, relaxed_extra) = if shards == 1 {
                time_relaxed(
                    || BulkMultiQueue::prefilled_for_threads(threads, entries()),
                    &g,
                    &pi,
                    &expected,
                    threads,
                    reps,
                    batch_size,
                    &mut relaxed_ledger,
                )
            } else {
                time_relaxed(
                    || {
                        ShardedScheduler::prefilled_with(shards, entries(), |_, group| {
                            BulkMultiQueue::prefilled_for_threads(threads.div_ceil(shards), group)
                        })
                    },
                    &g,
                    &pi,
                    &expected,
                    threads,
                    reps,
                    batch_size,
                    &mut relaxed_ledger,
                )
            };
            // Exact FAA queue with backoff.
            let mut exact_times = Vec::new();
            let mut exact_waits = 0u64;
            for _ in 0..reps {
                let alg = ConcurrentMis::new(&g, &pi);
                let stats = run_exact_concurrent(&alg, &pi, threads);
                assert_eq!(alg.into_output(), expected, "exact output diverged");
                exact_times.push(stats.elapsed);
                exact_waits = stats.wasted;
            }
            let rt = rt.as_secs_f64();
            let et = median(exact_times).as_secs_f64();
            table.row(&[
                &threads,
                &format!("{rt:.3}"),
                &format!("{et:.3}"),
                &format!("{:.2}x", seq.as_secs_f64() / rt),
                &format!("{:.2}x", seq.as_secs_f64() / et),
                &relaxed_extra,
                &exact_waits,
            ]);
        }
        println!("{table}");
    }
    println!("Shape checks (paper): relaxed ≥ exact throughout; relaxed 1-thread ≈ sequential;");
    println!("exact catches up when per-task edge work dominates (small-dense class).");

    if rsched_obs::ENABLED {
        // Only relaxed runs go through the worker engine, so the engine
        // counter deltas must land exactly on the relaxed executor's
        // accumulated totals — the exact FAA executor never touches them.
        let snap = rsched_obs::snapshot();
        let d = |name: &str| snap.counter_delta(&obs_base, name);
        assert_eq!(d(r#"engine_pop_total{outcome="success"}"#), relaxed_ledger.processed);
        assert_eq!(d(r#"engine_pop_total{outcome="blocked"}"#), relaxed_ledger.wasted);
        assert_eq!(d(r#"engine_pop_total{outcome="obsolete"}"#), relaxed_ledger.obsolete);
        assert_eq!(d(r#"engine_pop_total{outcome="empty"}"#), relaxed_ledger.empty_pops);
        println!(
            "\nobs: engine_pop_total counters reconcile with relaxed-run totals \
             ({} processed, {} wasted, {} obsolete)",
            relaxed_ledger.processed, relaxed_ledger.wasted, relaxed_ledger.obsolete
        );
    }

    rsched_bench::obs::emit(&args);
}
