//! Validates **Definition 1** empirically: every scheduler model's rank and
//! inversion distributions have exponential tails.
//!
//! For each scheduler we prefill `n` elements, pop to empty through the
//! [`rsched_queues::instrument::Instrumented`] wrapper, and print
//! `Pr[rank ≥ ℓ]` at doubling ℓ together with the implied relaxation
//! parameter `k̂ = −ℓ / ln Pr[rank ≥ ℓ]` (which is ≈ constant iff the tail
//! is exponential). The adversarial top-k row shows a scheduler that is
//! rank-bounded but *unfair* — the regime where the paper's theorems do not
//! apply (and the framework can in fact livelock; see
//! `AdversarialTopK`'s docs).
//!
//! The sharded rows measure the relaxation sharding buys: `s` hash-routed
//! `SimMultiQueue(k)` shards drained round-robin behave like one
//! `O(k·s)`-relaxed scheduler (DESIGN.md "Sharding semantics"), so their
//! fitted `k̂` must track `k·s` — the run *asserts* the fit stays inside a
//! band linear in `s`, i.e. sharding degrades the tail exponent no worse
//! than linearly in the shard count.
//!
//! Usage: `rank_tails [--n N] [--k K] [--shards LIST] [--seed S]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{fit_tail_exponent, shard_seed, BenchCli, Table};
use rsched_queues::exact::BinaryHeapScheduler;
use rsched_queues::instrument::Instrumented;
use rsched_queues::relaxed::{AdversarialTopK, SimMultiQueue, SimSprayList, TopKUniform};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::PriorityScheduler;

fn drain_tails<S: PriorityScheduler<u32>>(sched: S, n: u64) -> (Vec<f64>, Vec<f64>, f64, usize) {
    let mut inst = Instrumented::new(sched);
    for p in 0..n {
        inst.insert(p, p as u32);
    }
    while inst.pop().is_some() {}
    (inst.rank_tail(), inst.inversion_tail(), inst.mean_rank(), inst.max_rank())
}

fn tail_at(tail: &[f64], l: usize) -> f64 {
    tail.get(l).copied().unwrap_or(0.0)
}

fn implied_k(tail: &[f64], l: usize) -> String {
    let p = tail_at(tail, l);
    if p <= 0.0 || p >= 1.0 {
        "-".to_string()
    } else {
        format!("{:.1}", -(l as f64) / p.ln())
    }
}

fn main() {
    let Some(cli) = BenchCli::parse(
        "rank_tails",
        "Validates Definition 1: empirical rank and fairness tail exponents per scheduler.",
        &[
            ("--n N", "elements drained per scheduler"),
            ("--k K", "nominal relaxation factor"),
            ("--shards LIST", "shard counts for the sharded sim-MultiQueue rows"),
            ("--seed S", "base RNG seed"),
        ],
    ) else {
        return;
    };
    let (args, quick) = (cli.args, cli.quick);
    let n = args.get_u64("n", if quick { 10_000 } else { 50_000 });
    let k = args.get_usize("k", 16);
    let seed = args.get_u64("seed", 3);
    let shard_counts = args.get_usize_list("shards", &[2, 4]);

    println!("Definition 1 validation: n = {n}, nominal k = {k}\n");

    // (rank tail, fairness tail, mean rank, max observed rank) per scheduler,
    // with the fitted-k̂ tolerance band as a fraction of the row's *nominal
    // relaxation* — `k` for the plain models, `k·s` for the sharded rows —
    // (`None` for the models Definition 1 does not promise a tail for).
    type TailRun = Box<dyn FnOnce() -> (Vec<f64>, Vec<f64>, f64, usize)>;
    type Band = Option<(f64, f64, f64)>;
    let mut schedulers: Vec<(String, Band, TailRun)> = vec![
        (
            "exact (binary heap)".into(),
            None,
            Box::new(move || drain_tails(BinaryHeapScheduler::new(), n)),
        ),
        (
            "top-k uniform".into(),
            Some((0.05, 2.0, k as f64)),
            Box::new(move || drain_tails(TopKUniform::new(k, StdRng::seed_from_u64(seed)), n)),
        ),
        (
            "sim MultiQueue (q=k)".into(),
            Some((0.1, 4.0, k as f64)),
            Box::new(move || drain_tails(SimMultiQueue::new(k, StdRng::seed_from_u64(seed)), n)),
        ),
        (
            "sim SprayList (p=k)".into(),
            Some((0.1, 8.0, k as f64)),
            Box::new(move || {
                drain_tails(SimSprayList::with_threads(k, StdRng::seed_from_u64(seed)), n)
            }),
        ),
        (
            "adversarial top-k".into(),
            None,
            Box::new(move || drain_tails(AdversarialTopK::new(k), n)),
        ),
    ];
    for &s in &shard_counts {
        // The tentpole measurement: the fitted k̂ of a sharded scheduler
        // must track k·s — no worse than linear degradation in the shard
        // count. The band is the sim-MultiQueue band around nominal k·s.
        schedulers.push((
            format!("sharded sim-MQ (q=k, s={s})"),
            Some((0.1, 4.0, (k * s) as f64)),
            Box::new(move || {
                let sched = ShardedScheduler::from_fn(s, |i| {
                    SimMultiQueue::new(k, StdRng::seed_from_u64(shard_seed(seed, i)))
                });
                drain_tails(sched, n)
            }),
        ));
    }

    let ls = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let mut header: Vec<String> = vec!["scheduler".into(), "meanR".into(), "maxR".into()];
    header.extend(ls.iter().map(|l| format!("P[r≥{l}]")));
    header.push("k̂@8".into());
    header.push("k̂fit".into());
    header.push("maxInv".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for (name, fitted_band, run) in schedulers {
        let (rank_tail, inv_tail, mean_rank, max_rank) = run();
        let fitted = fit_tail_exponent(&rank_tail);
        let mut cells: Vec<String> =
            vec![name.to_string(), format!("{mean_rank:.2}"), max_rank.to_string()];
        for &l in &ls {
            cells.push(format!("{:.4}", tail_at(&rank_tail, l)));
        }
        cells.push(implied_k(&rank_tail, 8));
        cells.push(match fitted {
            Some(lambda) if lambda > 0.0 => format!("{:.1}", 1.0 / lambda),
            _ => "-".to_string(),
        });
        cells.push((inv_tail.len().saturating_sub(1)).to_string());
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        table.row(&refs);
        // Definition 1 check (ROADMAP "Rank-tail validation sweep"): the
        // honest relaxed models must fit a decaying exponential whose
        // implied relaxation factor stays within a (generous) band around
        // the row's nominal relaxation — k, or k·s for the sharded rows
        // (sharding must degrade the exponent no worse than linearly in
        // s). The exact queue has no tail to fit, the adversarial
        // scheduler is the deliberate counterexample, and edge parameters
        // (tiny --k or --n, where the models degenerate to near-exact and
        // the tail has too few informative points) skip the check rather
        // than abort — the CI test `rank_tail_fit.rs` pins the fit hard
        // at the calibrated defaults.
        if let (Some((lo_frac, hi_frac, nominal)), Some(lambda)) = (fitted_band, fitted) {
            assert!(lambda > 0.0, "{name}: rank tail does not decay (λ̂ = {lambda})");
            let k_hat = 1.0 / lambda;
            let (lo, hi) = (lo_frac * nominal, hi_frac * nominal);
            assert!(
                (lo..=hi).contains(&k_hat),
                "{name}: fitted k̂ = {k_hat:.1} outside tolerance band [{lo:.1}, {hi:.1}]"
            );
        }
    }
    println!("{table}");
    println!("Expected: exact has max rank 1; the three relaxed models decay exponentially");
    println!("(k̂ roughly constant in ℓ, k̂fit within a small factor of nominal k); the");
    println!("sharded rows' k̂fit tracks k·s (linear degradation in shard count); the");
    println!("adversarial scheduler shows a rank *cliff* at k and an inversion tail that");
    println!("scales with n instead of k (unfairness).");
}
