//! Statistical bound checks: the *shapes* of Theorems 1 and 2, with
//! generous margins so the suite stays deterministic-in-practice under
//! seeded randomness.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::coloring::ConcurrentColoring;
use rsched::core::algorithms::mis::ConcurrentMis;
use rsched::core::framework::run_relaxed;
use rsched::graph::{gen, Permutation};
use rsched::queues::relaxed::{SimMultiQueue, TopKUniform};

fn mis_extra(n: usize, m: usize, k: usize, seed: u64, reps: usize) -> f64 {
    let mut total = 0u64;
    for r in 0..reps {
        let s = seed + r as u64;
        let mut rng = StdRng::seed_from_u64(s);
        let g = gen::gnm(n, m, &mut rng);
        let pi = Permutation::random(n, &mut rng);
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(s ^ 0xA5A5));
        let stats = run_relaxed(&ConcurrentMis::new(&g, &pi), &pi, sched);
        total += stats.extra_iterations();
    }
    total as f64 / reps as f64
}

#[test]
fn theorem2_mis_extra_does_not_grow_with_n() {
    // 16x growth in n at fixed k: extra iterations should stay within a
    // small constant factor (the theorem says they are independent of n).
    let k = 8;
    let small = mis_extra(2_000, 20_000, k, 100, 4);
    let large = mis_extra(32_000, 320_000, k, 200, 4);
    assert!(large < 6.0 * small.max(16.0), "extra grew with n: {small:.1} -> {large:.1}");
}

#[test]
fn theorem2_mis_extra_grows_with_k() {
    let lo = mis_extra(8_000, 80_000, 4, 300, 3);
    let hi = mis_extra(8_000, 80_000, 64, 300, 3);
    assert!(hi > 4.0 * lo.max(1.0), "extra should grow with k: {lo:.1} vs {hi:.1}");
}

#[test]
fn exact_scheduler_wastes_nothing() {
    let mut rng = StdRng::seed_from_u64(400);
    let g = gen::gnm(3_000, 30_000, &mut rng);
    let pi = Permutation::random(3_000, &mut rng);
    let sched = TopKUniform::new(1, StdRng::seed_from_u64(1)); // k = 1 ≡ exact
    let stats = run_relaxed(&ConcurrentMis::new(&g, &pi), &pi, sched);
    assert_eq!(stats.wasted, 0);
    assert_eq!(stats.total_pops, 3_000);
}

#[test]
fn theorem1_coloring_extra_scales_with_density() {
    // Fixed n and k, 16x edge growth: extra iterations should grow roughly
    // linearly in m (within loose factors).
    let n = 4_000;
    let k = 16;
    let run = |m: usize, seed: u64| -> f64 {
        let mut total = 0u64;
        for r in 0..3 {
            let s = seed + r;
            let mut rng = StdRng::seed_from_u64(s);
            let g = gen::gnm(n, m, &mut rng);
            let pi = Permutation::random(n, &mut rng);
            let sched = TopKUniform::new(k, StdRng::seed_from_u64(s ^ 0x5A5A));
            let stats = run_relaxed(&ConcurrentColoring::new(&g, &pi), &pi, sched);
            total += stats.extra_iterations();
        }
        total as f64 / 3.0
    };
    let sparse = run(n, 500);
    let dense = run(16 * n, 600);
    let ratio = dense / sparse.max(1.0);
    assert!(
        (4.0..80.0).contains(&ratio),
        "expected ≈16x growth for 16x density, got {ratio:.1}x ({sparse:.1} -> {dense:.1})"
    );
}

#[test]
fn clique_coloring_extra_is_order_nk() {
    // The paper's tightness example: only the top task is ever ready, so a
    // k-relaxed queue pays ≈ (k-ish) failed deletes per processed vertex.
    let n = 150;
    let g = gen::complete(n);
    let pi = Permutation::random(n, &mut StdRng::seed_from_u64(700));
    for k in [4usize, 16] {
        let sched = TopKUniform::new(k, StdRng::seed_from_u64(701));
        let stats = run_relaxed(&ConcurrentColoring::new(&g, &pi), &pi, sched);
        let extra = stats.extra_iterations() as f64;
        let nk = (n * k) as f64;
        assert!(
            extra > 0.2 * nk && extra < 3.0 * nk,
            "clique extra {extra} not within [0.2, 3]×nk (nk = {nk})"
        );
    }
}

#[test]
fn waste_is_monotone_in_relaxation_on_average() {
    // Averaged over several seeds, more relaxation never helps the waste.
    let n = 5_000;
    let mut rng = StdRng::seed_from_u64(800);
    let g = gen::gnm(n, 50_000, &mut rng);
    let pi = Permutation::random(n, &mut rng);
    let avg = |k: usize| -> f64 {
        (0..5)
            .map(|s| {
                let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(900 + s));
                run_relaxed(&ConcurrentMis::new(&g, &pi), &pi, sched).extra_iterations() as f64
            })
            .sum::<f64>()
            / 5.0
    };
    let e2 = avg(2);
    let e16 = avg(16);
    let e64 = avg(64);
    assert!(e2 <= e16 && e16 <= e64, "waste not monotone: {e2:.1}, {e16:.1}, {e64:.1}");
}
