//! Offline stand-in for the subset of the `criterion` 0.5 API used by the
//! workspace's benches: [`Criterion`], benchmark groups,
//! [`criterion_group!`]/[`criterion_main!`], [`BenchmarkId`] and
//! [`black_box`].
//!
//! Statistical machinery (outlier rejection, HTML reports, regression
//! detection) is **not** reproduced. Each benchmark runs a short warm-up
//! followed by `sample_size` timed samples and prints min/median/mean and
//! a 10%-trimmed mean wall-clock per iteration — enough to compare
//! schedulers on one machine
//! and to keep `cargo bench` compiling and running offline. Honour
//! `RSCHED_BENCH_FAST=1` to collapse every benchmark to a single sample
//! (used by smoke tests).

#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The benchmark driver handed to `criterion_group!` target functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== group: {name}");
        BenchmarkGroup { _criterion: self, name, sample_size: 20 }
    }

    /// Registers and immediately runs a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_benchmark(&id, 20, f);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs `f` as a benchmark named `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        run_benchmark(&id, self.sample_size, f);
        self
    }

    /// Runs `f` with `input` as a benchmark identified by `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.0);
        run_benchmark(&id, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (upstream finalises reports here; we do nothing).
    pub fn finish(self) {}
}

/// A benchmark identifier, optionally parameterised.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id carrying a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{parameter}", name.into()))
    }

    /// An id that is just the parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Times closures handed to it by a benchmark body.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` repeatedly, timing each batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn fast_mode() -> bool {
    std::env::var_os("RSCHED_BENCH_FAST").is_some_and(|v| v == "1")
}

/// Untimed warm-up runs before sampling (full mode). One was not enough:
/// the first warm-up itself *creates* one-time work — growing allocator
/// arenas, faulting in freshly mapped pages, spawning lazy worker state —
/// that then landed in the first timed sample and dragged the mean far off
/// the median (`lock_ops/handoff_mcs/4` once read mean 2.24ms against a
/// 231µs median). A second warm-up absorbs those knock-on costs.
const WARMUP_RUNS: usize = 2;

/// Mean over `sorted` with the fastest and slowest ~10% (at least one
/// sample each side, when there are enough to spare) dropped. The plain
/// mean of a 20-sample run is at the mercy of a single descheduling stall;
/// the trimmed mean is the honest "typical cost" companion to the median.
fn trimmed_mean(sorted: &[Duration]) -> Duration {
    let trim = if sorted.len() >= 5 { (sorted.len() / 10).max(1) } else { 0 };
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<Duration>() / kept.len() as u32
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    let (samples, warmups) = if fast_mode() { (1, 1) } else { (sample_size, WARMUP_RUNS) };
    let mut per_iter: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..warmups {
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
    }
    for _ in 0..samples {
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        per_iter.push(b.elapsed);
    }
    per_iter.sort_unstable();
    let min = per_iter[0];
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<Duration>() / per_iter.len() as u32;
    let trimmed = trimmed_mean(&per_iter);
    println!(
        "{id:<50} min {min:>12.3?}  median {median:>12.3?}  mean {mean:>12.3?}  trimmed {trimmed:>12.3?}"
    );
}

/// Declares a group of benchmark functions, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark entry point, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_body() {
        let mut c = Criterion::default();
        let mut calls = 0u32;
        {
            let mut group = c.benchmark_group("test");
            group.sample_size(3);
            group.bench_function("count", |b| {
                b.iter(|| calls += 1);
            });
            group.finish();
        }
        // warm-ups + 3 samples
        assert_eq!(calls, WARMUP_RUNS as u32 + 3);
    }

    #[test]
    fn trimmed_mean_sheds_outliers() {
        let mut samples: Vec<Duration> = (0..19).map(|_| Duration::from_micros(100)).collect();
        samples.push(Duration::from_millis(50)); // one descheduling stall
        samples.sort_unstable();
        let plain = samples.iter().sum::<Duration>() / samples.len() as u32;
        let trimmed = trimmed_mean(&samples);
        assert!(plain > Duration::from_millis(2), "stall must dominate the plain mean");
        assert_eq!(trimmed, Duration::from_micros(100), "trimmed mean must shed the stall");
    }

    #[test]
    fn trimmed_mean_degenerates_to_mean_when_tiny() {
        let samples =
            vec![Duration::from_nanos(10), Duration::from_nanos(20), Duration::from_nanos(30)];
        assert_eq!(trimmed_mean(&samples), Duration::from_nanos(20));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(8).0, "8");
        assert_eq!(BenchmarkId::new("mis", 16).0, "mis/16");
    }
}
