//! CI enforcement of the ROADMAP "Rank-tail validation sweep": each honest
//! relaxed scheduler model must present an (approximately) exponential rank
//! tail whose fitted decay exponent implies a relaxation factor within a
//! tolerance band around the nominal `k` — the empirical side of
//! Definition 1. Parameters are pinned and every RNG is seeded, so the
//! fitted exponents are deterministic; a band violation means a scheduler's
//! relaxation behavior actually changed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{fit_tail_exponent, shard_seed};
use rsched_queues::instrument::Instrumented;
use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::PriorityScheduler;

const N: u64 = 20_000;
const K: usize = 16;
const SEED: u64 = 3;

fn rank_tail<S: PriorityScheduler<u32>>(sched: S) -> Vec<f64> {
    let mut inst = Instrumented::new(sched);
    for p in 0..N {
        inst.insert(p, p as u32);
    }
    while inst.pop().is_some() {}
    inst.rank_tail()
}

/// Asserts the fitted `k̂ = 1/λ̂` lies in `[lo_frac·K, hi_frac·K]`.
fn assert_band(name: &str, tail: &[f64], lo_frac: f64, hi_frac: f64) {
    let lambda = fit_tail_exponent(tail)
        .unwrap_or_else(|| panic!("{name}: rank tail has too few informative points to fit"));
    assert!(lambda > 0.0, "{name}: rank tail does not decay (λ̂ = {lambda})");
    let k_hat = 1.0 / lambda;
    let (lo, hi) = (lo_frac * K as f64, hi_frac * K as f64);
    assert!(
        (lo..=hi).contains(&k_hat),
        "{name}: fitted k̂ = {k_hat:.2} outside tolerance band [{lo:.1}, {hi:.1}]"
    );
}

#[test]
fn top_k_uniform_tail_exponent_in_band() {
    // Observed k̂ ≈ 6.1 at these parameters (the uniform rank distribution
    // is lighter than exponential, so k̂ < k); band leaves a ~2× margin on
    // each side.
    let tail = rank_tail(TopKUniform::new(K, StdRng::seed_from_u64(SEED)));
    assert_band("top-k uniform", &tail, 0.2, 0.8);
}

#[test]
fn sim_multiqueue_tail_exponent_in_band() {
    // Observed k̂ ≈ 11.9: the two-choice MultiQueue's tail tracks the
    // nominal q = k closely.
    let tail = rank_tail(SimMultiQueue::new(K, StdRng::seed_from_u64(SEED)));
    assert_band("sim MultiQueue", &tail, 0.35, 1.6);
}

#[test]
fn sim_spraylist_tail_exponent_in_band() {
    // Observed k̂ ≈ 22.2: the spray walk over-shoots its nominal p = k by
    // the paper's O(p log³ p) factor.
    let tail = rank_tail(SimSprayList::with_threads(K, StdRng::seed_from_u64(SEED)));
    assert_band("sim SprayList", &tail, 0.6, 3.0);
}

#[test]
fn sharded_tail_exponent_degrades_linearly_in_shard_count() {
    // The sharding acceptance bar: a k-relaxed scheduler over s hash-routed
    // shards (round-robin drained — the sequential model of sharded
    // execution) behaves O(k·s)-relaxed, so the fitted k̂ must scale no
    // worse than linearly in s, and must genuinely grow (sharding is not
    // free). Observed at these parameters: scalar k̂ ≈ 11.9, s=2 ≈ 30.9,
    // s=4 ≈ 54.4 — ratios ≈ 2.6 and 4.6, tracking s closely. The bounds
    // demand ratio within [s/2, 4s].
    let scalar_tail = rank_tail(SimMultiQueue::new(K, StdRng::seed_from_u64(SEED)));
    let scalar_k = 1.0 / fit_tail_exponent(&scalar_tail).expect("scalar fit");
    for s in [2usize, 4] {
        let sched = ShardedScheduler::from_fn(s, |i| {
            SimMultiQueue::new(K, StdRng::seed_from_u64(shard_seed(SEED, i)))
        });
        let tail = rank_tail(sched);
        let lambda = fit_tail_exponent(&tail)
            .unwrap_or_else(|| panic!("sharded s={s}: tail has too few points to fit"));
        assert!(lambda > 0.0, "sharded s={s}: rank tail does not decay");
        let k_hat = 1.0 / lambda;
        let ratio = k_hat / scalar_k;
        assert!(
            ratio >= s as f64 / 2.0 && ratio <= 4.0 * s as f64,
            "sharded s={s}: k̂ = {k_hat:.1} is {ratio:.2}x the scalar k̂ = {scalar_k:.1}, \
             outside the linear band [{}, {}]",
            s as f64 / 2.0,
            4.0 * s as f64
        );
    }
}
