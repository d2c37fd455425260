//! Sample bookkeeping: every metric is the median of the samples a run
//! recorded under its name, printed with the sample count beside it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of an ascending slice.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Runs `f`, returning its result and how long it took in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The measurement window of one run: reps continue until it has passed,
/// and at least `min_reps` are made however short it is.
pub struct Budget {
    start: Instant,
    window: Duration,
    min_reps: usize,
    reps: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        Budget {
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
            min_reps,
            reps: 0,
        }
    }

    /// Whether another rep should run; counts it if so.
    pub fn next_rep(&mut self) -> bool {
        let go = self.reps < self.min_reps || self.start.elapsed() < self.window;
        self.reps += go as usize;
        go
    }
}

/// One printed metric: the median of its samples, with the quartiles
/// (nearest rank) that say how far the reps of this run were apart.
#[derive(Clone, Debug)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

/// What a run collects: samples by metric name, and the verification tally.
#[derive(Default)]
pub struct Recorder {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Outputs checked against the sequential reference (prefill workloads)
    /// or requests streamed (service).
    pub attempted: u64,
    /// Of those, how many were wrong, undecided, decided twice or refused.
    pub failed: u64,
}

impl Recorder {
    /// Adds one sample of `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name}: sample {value} is not a number");
        self.samples.entry(name).or_default().push(value);
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Median and sample count of `name`, if it was recorded.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.samples.get(name).map(|xs| {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            Measured {
                value: median(xs),
                samples: xs.len(),
                q1: quantile_sorted(&sorted, 0.25),
                q3: quantile_sorted(&sorted, 0.75),
            }
        })
    }

    /// Every sample taken, by metric name, in the order taken.
    pub fn all_samples(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.samples.iter().map(|(&name, xs)| (name, xs.as_slice()))
    }

    /// Median of `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never sampled: a workload forgot a metric.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).unwrap_or_else(|| panic!("metric {name} was not recorded")).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn budget_makes_min_reps() {
        let mut b = Budget::new(0.0, 3);
        assert_eq!((0..10).filter(|_| b.next_rep()).count(), 3);
    }
}
