//! Regenerates the paper's §4 *synthetic tests* beyond Table 1: "we
//! implemented the sequential relaxed framework … and used it to solve
//! instances of MIS, matching, Knuth Shuffle, and List Contraction using a
//! relaxed scheduler which uses the MultiQueue algorithm, for various
//! relaxation factors" — plus greedy coloring for completeness.
//!
//! Sparse workloads (shuffle, contraction, m = O(n) graphs) should show
//! negligible waste for `k ≪ n` (Theorem 1); MIS and matching should show
//! `poly(k)` waste regardless of density (Theorem 2).
//!
//! Usage: `workloads [--n N] [--m M] [--reps R] [--ks 4,16,64] [--seed S]
//! [--batch-size B] [--shards S] [--trace PATH] [--metrics [PATH]]`
//!
//! Built with `--features obs`, the run feeds the live `seq_pop_total`
//! wasted-work counters (so extra-iterations is readable from a metrics
//! snapshot mid-run) and asserts at exit that the final snapshot agrees
//! exactly with the framework's end-of-run totals. Compiled without the
//! feature, every probe is a no-op and the output is byte-identical to
//! the uninstrumented binary.
//!
//! `--batch-size B` (default 1) runs the framework in batched mode: `B`
//! tasks are popped per scheduler round-trip and the batch's failed deletes
//! are re-inserted in one bulk insert. Batching grows the effective
//! relaxation (a `k`-relaxed scheduler behaves like an `O(k·B)`-relaxed
//! one), so the waste columns grow with `B` exactly as they grow with `k`;
//! batch size 1 is bit-for-bit the scalar framework.
//!
//! `--shards S` (default 1) partitions every scheduler into `S` hash-routed
//! `SimMultiQueue` shards drained round-robin (`ShardedScheduler`, the
//! sequential model of sharded execution). Sharding multiplies the
//! effective relaxation by `S` (a `k`-relaxed scheduler over `S` shards
//! behaves `O(k·S)`-relaxed, DESIGN.md "Sharding semantics"), so the waste
//! columns grow with `S` exactly as they grow with `k` or `B`; one shard is
//! bit-for-bit the unsharded framework.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{shard_seed, BenchCli, Table};
use rsched_core::algorithms::coloring::ConcurrentColoring;
use rsched_core::algorithms::knuth_shuffle::{
    random_targets, shuffle_priorities, ConcurrentShuffle,
};
use rsched_core::algorithms::list_contraction::ConcurrentContraction;
use rsched_core::algorithms::matching::{ConcurrentMatching, MatchingInstance};
use rsched_core::algorithms::mis::ConcurrentMis;
use rsched_core::framework::run_relaxed_batched;
use rsched_core::stats::ExecutionStats;
use rsched_core::TaskId;
use rsched_graph::{gen, ListInstance, Permutation};
use rsched_queues::relaxed::SimMultiQueue;
use rsched_queues::sharded::ShardedScheduler;

/// `shards` hash-routed `SimMultiQueue(k)` shards. Via [`shard_seed`],
/// shard 0 is seeded with `seed` itself, so one shard consumes the RNG
/// exactly like the unsharded scheduler and `--shards 1` stays bit-for-bit
/// the unsharded run.
fn sharded_sim(
    shards: usize,
    k: usize,
    seed: u64,
) -> ShardedScheduler<SimMultiQueue<TaskId, StdRng>> {
    ShardedScheduler::from_fn(shards, |i| {
        SimMultiQueue::new(k, StdRng::seed_from_u64(shard_seed(seed, i)))
    })
}

fn main() {
    let mut options = vec![
        ("--n N", "vertex / element count"),
        ("--m M", "edge count for the graph workloads"),
        ("--reps N", "repetitions per configuration"),
        ("--ks LIST", "comma-separated relaxation factors"),
        ("--seed S", "base RNG seed"),
        ("--batch-size B", "tasks popped per scheduler round-trip (default 1)"),
        ("--shards S", "hash-routed scheduler shards, drained round-robin (default 1)"),
    ];
    options.extend_from_slice(&rsched_bench::obs::OPTIONS);
    let Some(cli) = BenchCli::parse(
        "workloads",
        "Runs all four §4 workloads (MIS, matching, coloring, contraction) across k.",
        &options,
    ) else {
        return;
    };
    let (args, quick) = (cli.args, cli.quick);
    let obs_base = rsched_obs::snapshot();
    let n = args.get_usize("n", if quick { 3_000 } else { 30_000 });
    let m = args.get_usize("m", if quick { 10_000 } else { 100_000 });
    let reps = args.get_usize("reps", if quick { 2 } else { 5 });
    let ks = args.get_usize_list("ks", if quick { &[4, 16, 64] } else { &[4, 8, 16, 32, 64] });
    let seed = args.get_u64("seed", 17);
    let batch_size = args.get_usize("batch-size", 1);
    assert!(batch_size >= 1, "--batch-size must be positive");
    let shards = args.get_usize("shards", 1);
    assert!(shards >= 1, "--shards must be positive");

    // Batch size 1 / one shard must leave the output byte-identical to the
    // pre-batching / pre-sharding binary, so the header lines are
    // conditional.
    if batch_size > 1 {
        println!("framework batch size: {batch_size}");
    }
    if shards > 1 {
        println!("scheduler shards: {shards}");
    }
    println!("§4 synthetic tests: average extra iterations over {reps} runs (n = {n}, m = {m})\n");

    let mut header: Vec<String> = vec!["workload".into(), "tasks".into()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let g = gen::gnm(n, m, &mut StdRng::seed_from_u64(seed));
    let inst = MatchingInstance::new(&g);

    // End-of-run pop-outcome totals across every rep of every workload;
    // diffed against the observability layer's `seq_pop_total` counters at
    // exit (they must agree exactly — the live snapshot a `--metrics` probe
    // reads mid-run is the same ledger, just earlier).
    let ledger = std::cell::RefCell::new(ExecutionStats::default());
    let run_avg = |mk: &dyn Fn(usize, u64) -> ExecutionStats, k: usize| -> f64 {
        let mut extra = 0u64;
        for r in 0..reps {
            let stats = mk(k, seed + r as u64 * 31);
            let mut t = ledger.borrow_mut();
            t.processed += stats.processed;
            t.wasted += stats.wasted;
            t.obsolete += stats.obsolete;
            extra += stats.extra_iterations();
        }
        extra as f64 / reps as f64
    };

    // MIS
    {
        let g = &g;
        let f = move |k: usize, s: u64| -> ExecutionStats {
            let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(s));
            let sched = sharded_sim(shards, k, s ^ 1);
            run_relaxed_batched(&ConcurrentMis::new(g, &pi), &pi, sched, batch_size)
        };
        let mut cells = vec!["MIS".to_string(), n.to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.1}", run_avg(&f, k))));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    // Matching
    {
        let inst = &inst;
        let f = move |k: usize, s: u64| -> ExecutionStats {
            let pi = Permutation::random(inst.num_edges(), &mut StdRng::seed_from_u64(s));
            let sched = sharded_sim(shards, k, s ^ 2);
            run_relaxed_batched(&ConcurrentMatching::new(inst, &pi), &pi, sched, batch_size)
        };
        let mut cells = vec!["matching".to_string(), inst.num_edges().to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.1}", run_avg(&f, k))));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    // Coloring
    {
        let g = &g;
        let f = move |k: usize, s: u64| -> ExecutionStats {
            let pi = Permutation::random(g.num_vertices(), &mut StdRng::seed_from_u64(s));
            let sched = sharded_sim(shards, k, s ^ 3);
            run_relaxed_batched(&ConcurrentColoring::new(g, &pi), &pi, sched, batch_size)
        };
        let mut cells = vec!["coloring".to_string(), n.to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.1}", run_avg(&f, k))));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    // Knuth shuffle
    {
        let f = move |k: usize, s: u64| -> ExecutionStats {
            let targets = random_targets(n, &mut StdRng::seed_from_u64(s));
            let pi = shuffle_priorities(n);
            let sched = sharded_sim(shards, k, s ^ 4);
            run_relaxed_batched(&ConcurrentShuffle::new(targets), &pi, sched, batch_size)
        };
        let mut cells = vec!["knuth-shuffle".to_string(), n.to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.1}", run_avg(&f, k))));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }
    // List contraction
    {
        let f = move |k: usize, s: u64| -> ExecutionStats {
            let mut rng = StdRng::seed_from_u64(s);
            let list = ListInstance::new_shuffled(n, &mut rng);
            let pi = Permutation::random(n, &mut rng);
            let sched = sharded_sim(shards, k, s ^ 5);
            run_relaxed_batched(&ConcurrentContraction::new(&list, &pi), &pi, sched, batch_size)
        };
        let mut cells = vec!["list-contraction".to_string(), n.to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.1}", run_avg(&f, k))));
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
    }

    println!("{table}");
    println!("Expected: every row grows with k only and is independent of n.");
    println!("MIS and matching waste the least — dead-marking (Theorem 2) beats even the");
    println!("sparse-Theorem-1 workloads (shuffle, contraction), whose fixed/chain-structured");
    println!("priorities carry larger constants.");

    if rsched_obs::ENABLED {
        // The same counters a live `--metrics` snapshot reads mid-run must
        // land exactly on the framework's end-of-run totals.
        let snap = rsched_obs::snapshot();
        let d = |name: &str| snap.counter_delta(&obs_base, name);
        let t = ledger.borrow();
        assert_eq!(d(r#"seq_pop_total{outcome="success"}"#), t.processed);
        assert_eq!(d(r#"seq_pop_total{outcome="blocked"}"#), t.wasted);
        assert_eq!(d(r#"seq_pop_total{outcome="obsolete"}"#), t.obsolete);
        println!(
            "\nobs: seq_pop_total counters reconcile with framework totals \
             ({} processed, {} wasted, {} obsolete)",
            t.processed, t.wasted, t.obsolete
        );
    }

    rsched_bench::obs::emit(&args);
}
