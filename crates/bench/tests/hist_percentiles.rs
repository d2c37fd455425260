//! Pins [`LogHistogram`] quantiles against exact percentiles of the
//! sorted samples.
//!
//! Both sides use the same nearest-rank definition, so the histogram may
//! only err by rounding the rank-th sample up to its bucket's upper
//! bound: `exact <= hist <= exact + max(1, exact/16)` (16 sub-buckets
//! per octave; values below 16 are exact).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsched_obs::hist::LogHistogram;

/// The `(p50, p95, p99)` of `samples`: nearest rank on the sorted order,
/// the rank computed as [`LogHistogram::quantile`] computes it.
fn percentiles(samples: &[u64]) -> (u64, u64, u64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let at =
        |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1];
    (at(0.50), at(0.95), at(0.99))
}

fn check(samples: &[u64], what: &str) {
    let h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    let exact = percentiles(samples);
    let hist = h.percentiles();
    for (q, ex, hv) in
        [("p50", exact.0, hist.0), ("p95", exact.1, hist.1), ("p99", exact.2, hist.2)]
    {
        assert!(hv >= ex, "{what} {q}: hist {hv} below exact {ex}");
        let slack = (ex / 16).max(1);
        assert!(hv - ex <= slack, "{what} {q}: hist {hv} vs exact {ex} (slack {slack})");
    }
}

#[test]
fn uniform_latencies_within_bucket_resolution() {
    let mut rng = StdRng::seed_from_u64(11);
    for scale in [100u64, 10_000, 1_000_000, 500_000_000] {
        let samples: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..scale)).collect();
        check(&samples, "uniform");
    }
}

#[test]
fn skewed_latencies_within_bucket_resolution() {
    // Heavy-tailed: mostly fast decisions, a sprinkle of slow outliers —
    // the shape a real service latency distribution takes, and the one
    // where sorted-vector p99 and a coarse histogram disagree most.
    let mut rng = StdRng::seed_from_u64(12);
    let samples: Vec<u64> = (0..20_000)
        .map(|_| {
            let shift = rng.gen_range(0u32..30);
            rng.gen_range(0..(1u64 << shift).max(2))
        })
        .collect();
    check(&samples, "skewed");
}

#[test]
fn small_and_degenerate_inputs() {
    check(&[0], "single zero");
    check(&[7; 100], "constant small");
    check(&(0..16u64).collect::<Vec<_>>(), "sub-16 exact range");
    check(&[1, u32::MAX as u64, 1, 1], "outlier");
}
