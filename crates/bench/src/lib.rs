//! # rsched-bench — harness utilities for regenerating the paper's tables
//! and figures.
//!
//! The binaries in `src/bin/` map one-to-one onto the experiment index in
//! `DESIGN.md` at the workspace root (which also records the reproduction's
//! deliberate substitutions):
//!
//! | binary              | regenerates                                   |
//! |---------------------|-----------------------------------------------|
//! | `table1`            | Table 1 (MIS extra iterations vs `k, n, m`)    |
//! | `figure2`           | Figure 2 (concurrent MIS time vs threads)      |
//! | `rank_tails`        | Definition 1 validation (rank/inversion tails) |
//! | `theorem1_sweep`    | §3.1 (generic framework, incl. clique bound)   |
//! | `theorem2_sweep`    | §3.2 headline claim (MIS cost flat in `n`)     |
//! | `workloads`         | §4 synthetic tests on all four workloads       |
//! | `incremental_algos` | incremental connectivity + Delaunay waste and dependency depth (arXiv 2003.09363) |
//!
//! Of the binaries only `figure2` reports wall-clock time; the streaming
//! service and the incremental workloads are timed by `benchmark/` at the
//! workspace root.
//! This library holds the shared bits: aligned table printing, a
//! dependency-free CLI argument parser and the `--trace` / `--metrics`
//! plumbing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt::Display;

/// A simple aligned-text table printer.
///
/// # Examples
///
/// ```
/// use rsched_bench::Table;
///
/// let mut t = Table::new(&["k", "extra"]);
/// t.row(&[&4, &12.8]);
/// t.row(&[&8, &56.8]);
/// let s = t.to_string();
/// assert!(s.contains("extra"));
/// ```
#[derive(Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row; each cell is rendered with `Display`.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Renders the table with aligned columns.
    fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cell, width = widths[c]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

impl Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Minimal `--key value` / `--flag` argument parser (no external deps).
///
/// # Examples
///
/// ```
/// use rsched_bench::Args;
///
/// let args = Args::parse_from(["--reps", "5", "--quick"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("reps", 2), 5);
/// assert!(args.has_flag("quick"));
/// assert_eq!(args.get_u64("seed", 42), 42);
/// ```
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process's command-line arguments.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (used by tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(items: I) -> Self {
        let mut pairs = Vec::new();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(key) = item.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next(),
                    _ => None,
                };
                pairs.push((key.to_string(), value));
            } else {
                eprintln!("warning: ignoring positional argument {item:?}");
            }
        }
        Args { pairs }
    }

    fn lookup(&self, key: &str) -> Option<&Option<String>> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `--key` was present (with or without a value).
    pub fn has_flag(&self, key: &str) -> bool {
        self.lookup(key).is_some()
    }

    /// The value of `--key` as `usize`, or `default` if `--key` is absent.
    ///
    /// # Panics
    ///
    /// Panics with a clear message if `--key` is present but its value is
    /// missing or unparsable.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get_int(key).unwrap_or(default)
    }

    /// The value of `--key` as `u64`, or `default` if `--key` is absent.
    ///
    /// # Panics
    ///
    /// As [`Args::get_usize`].
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_int(key).unwrap_or(default)
    }

    /// The value of `--key` as an integer, `None` if `--key` is absent. A
    /// bare `--key` reads as the empty value and panics: it must not run
    /// with the default.
    fn get_int<N: std::str::FromStr>(&self, key: &str) -> Option<N> {
        let v = self.lookup(key)?.as_deref().unwrap_or_default();
        Some(v.parse().unwrap_or_else(|_| panic!("--{key} expects an integer, got {v:?}")))
    }

    /// The raw string value of `--key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.lookup(key).and_then(|v| v.as_deref())
    }

    /// Prints a usage message and returns `true` when `--help` was passed.
    ///
    /// Experiment binaries call this first thing in `main` and return
    /// early on `true`, so `binary --help` never starts a workload (the
    /// smoke tests rely on this).
    ///
    /// # Examples
    ///
    /// ```
    /// use rsched_bench::Args;
    ///
    /// let args = Args::parse_from(["--help"].iter().map(|s| s.to_string()));
    /// assert!(args.help("demo", "Does demo things.", &[("--reps N", "repetitions")]));
    ///
    /// let args = Args::parse_from(std::iter::empty());
    /// assert!(!args.help("demo", "Does demo things.", &[]));
    /// ```
    pub fn help(&self, binary: &str, purpose: &str, options: &[(&str, &str)]) -> bool {
        if !self.has_flag("help") {
            return false;
        }
        print!("{}", usage(binary, purpose, options));
        true
    }

    /// Whether fast mode is on: the `--quick` flag or `RSCHED_BENCH_FAST=1`
    /// in the environment (what CI smoke runs set; any other value is off).
    pub fn quick(&self) -> bool {
        self.has_flag("quick") || std::env::var("RSCHED_BENCH_FAST").is_ok_and(|v| v == "1")
    }

    /// Comma-separated list of `usize` for `--key`, or `default` if `--key`
    /// is absent.
    ///
    /// # Panics
    ///
    /// Panics if `--key` is present but its value is missing or holds a
    /// non-integer.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.lookup(key) {
            Some(s) => s
                .as_deref()
                .unwrap_or_default()
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects comma-separated integers"))
                })
                .collect(),
            None => default.to_vec(),
        }
    }
}

/// The text `--help` prints (and an unknown flag prints to stderr).
fn usage(binary: &str, purpose: &str, options: &[(&str, &str)]) -> String {
    let mut out = format!("{binary} — {purpose}\n\nUsage: {binary} [OPTIONS]\n\nOptions:\n");
    let width = options.iter().map(|(flag, _)| flag.len()).max().unwrap_or(0).max(6);
    for (flag, desc) in options {
        out.push_str(&format!("  {flag:<width$}  {desc}\n"));
    }
    out.push_str(&format!("  {:<width$}  print this message and exit\n", "--help"));
    out
}

/// The standard experiment-binary preamble, hoisted out of the individual
/// `main`s: parse the command line, answer `--help` (every binary gets the
/// `--quick` row appended automatically), reject any flag the binary's
/// option table does not list, and resolve fast mode from `--quick` /
/// `RSCHED_BENCH_FAST=1`.
///
/// Returns `None` when `--help` was printed — the binary returns
/// immediately, so `binary --help` never starts a workload (the smoke
/// tests rely on this).
///
/// # Examples
///
/// ```
/// use rsched_bench::BenchCli;
///
/// // In an experiment binary:
/// // let Some(cli) = BenchCli::parse("demo", "Does demo things.", &[("--reps N", "reps")])
/// //     else { return };
/// // let reps = cli.args.get_usize("reps", if cli.quick { 1 } else { 5 });
/// ```
#[derive(Debug)]
pub struct BenchCli {
    /// The parsed arguments, for binary-specific options.
    pub args: Args,
    /// Fast mode: `--quick` or `RSCHED_BENCH_FAST=1`. Binaries shrink
    /// instance sizes and repetitions to seconds-long smoke scale.
    pub quick: bool,
}

impl BenchCli {
    /// Parses the process arguments; prints usage and returns `None` on
    /// `--help`. A flag that is not the first token of an `options` row (nor
    /// `--quick` / `--help`) prints the usage to stderr and exits with
    /// status 2, so a misspelt or retired option never runs a workload that
    /// silently ignores it.
    pub fn parse(binary: &str, purpose: &str, options: &[(&str, &str)]) -> Option<Self> {
        Self::from_args(Args::parse(), binary, purpose, options).unwrap_or_else(|message| {
            eprint!("{message}");
            std::process::exit(2)
        })
    }

    /// `Err` names the first flag `options` does not list, followed by the
    /// usage text.
    fn from_args(
        args: Args,
        binary: &str,
        purpose: &str,
        options: &[(&str, &str)],
    ) -> Result<Option<Self>, String> {
        let mut opts: Vec<(&str, &str)> = options.to_vec();
        opts.push(("--quick", "seconds-long smoke sizes (also via RSCHED_BENCH_FAST=1)"));
        if args.help(binary, purpose, &opts) {
            return Ok(None);
        }
        let listed = |key: &str| {
            opts.iter().any(|(row, _)| {
                row.split_whitespace().next().and_then(|f| f.strip_prefix("--")) == Some(key)
            })
        };
        if let Some((key, _)) = args.pairs.iter().find(|(key, _)| !listed(key)) {
            return Err(format!(
                "error: unknown option --{key}\n\n{}",
                usage(binary, purpose, &opts)
            ));
        }
        let quick = args.quick();
        Ok(Some(BenchCli { args, quick }))
    }
}

/// Shared observability plumbing for the experiment binaries: the `--trace
/// <path>` / `--metrics [path]` flags.
///
/// Everything here degrades gracefully when the workspace is built without
/// `--features obs`: the snapshot is empty and the trace JSON is the empty
/// string, so the flags print a one-line note instead of empty artifacts —
/// and when neither flag is passed, nothing is printed at all (default
/// output stays byte-identical).
pub mod obs {
    use crate::Args;

    /// Help rows for the shared flags; append to each binary's option list.
    pub const OPTIONS: [(&str, &str); 2] = [
        ("--trace PATH", "write a chrome://tracing JSON of the run to PATH (build with --features obs)"),
        ("--metrics [PATH]", "print (or write to PATH) a Prometheus-style metrics snapshot (build with --features obs)"),
    ];

    /// Handles `--trace`/`--metrics` at the end of a run. Call last, after
    /// all instrumented work (the trace flush is tear-free only once worker
    /// threads have joined).
    ///
    /// # Panics
    ///
    /// Panics if a requested output file cannot be written.
    pub fn emit(args: &Args) {
        if let Some(path) = args.get_str("trace") {
            let json = rsched_obs::chrome_trace_json();
            if json.is_empty() {
                eprintln!(
                    "note: --trace ignored — observability is compiled out \
                     (rebuild with --features obs)"
                );
            } else {
                std::fs::write(path, json)
                    .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
                eprintln!("trace: wrote chrome://tracing JSON to {path}");
            }
        }
        if args.has_flag("metrics") {
            let snap = rsched_obs::snapshot();
            if snap.is_empty() {
                eprintln!(
                    "note: --metrics ignored — observability is compiled out \
                     (rebuild with --features obs)"
                );
            } else {
                match args.get_str("metrics") {
                    Some(path) => std::fs::write(path, snap.text())
                        .unwrap_or_else(|e| panic!("cannot write metrics {path}: {e}")),
                    None => print!("{}", snap.text()),
                }
            }
        }
    }
}

/// Table 1 regeneration machinery, shared by the `table1` binary and the
/// golden-file regression test (`tests/golden_table1.rs`).
pub mod table1 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_core::algorithms::mis::ConcurrentMis;
    use rsched_core::framework::run_relaxed;
    use rsched_core::TaskId;
    use rsched_graph::{gen, Permutation};
    use rsched_queues::relaxed::{SimMultiQueue, TopKUniform};
    use rsched_queues::PriorityScheduler;

    /// Average extra iterations of relaxed MIS on `reps` fresh `G(n, m)`
    /// instances, one scheduler per rep from `make_sched(rep_seed)`.
    pub fn extra_iterations<S, F>(n: usize, m: usize, reps: usize, seed: u64, make_sched: F) -> f64
    where
        S: PriorityScheduler<TaskId>,
        F: Fn(u64) -> S,
    {
        let mut total = 0u64;
        for rep in 0..reps {
            let rep_seed = seed.wrapping_add(rep as u64 * 1_000_003);
            let mut rng = StdRng::seed_from_u64(rep_seed);
            let g = gen::gnm(n, m, &mut rng);
            let pi = Permutation::random(n, &mut rng);
            let stats =
                run_relaxed(&ConcurrentMis::new(&g, &pi), &pi, make_sched(rep_seed ^ 0xABCD));
            total += stats.extra_iterations();
        }
        total as f64 / reps as f64
    }

    /// Renders the Table 1 sweep as CSV (`scheduler,n,m,k,extra`), fully
    /// deterministic for fixed inputs: the seeds derive from `seed` and
    /// every RNG in the pipeline is explicitly seeded. The committed golden
    /// file under `golden/` is this function's output at the parameters
    /// pinned in the regression test; a waste regression in the framework,
    /// the schedulers, or the graph generator shows up as a diff.
    pub fn golden_csv(ns: &[usize], ms: &[usize], ks: &[usize], reps: usize, seed: u64) -> String {
        let mut out = String::from("scheduler,n,m,k,extra\n");
        for (name, which) in [("sim-multiqueue", 0usize), ("top-k-uniform", 1)] {
            for &n in ns {
                for &m in ms {
                    if m > n * (n - 1) / 2 {
                        continue;
                    }
                    for &k in ks {
                        let avg = if which == 0 {
                            extra_iterations(n, m, reps, seed, |s| {
                                SimMultiQueue::new(k, StdRng::seed_from_u64(s))
                            })
                        } else {
                            extra_iterations(n, m, reps, seed, |s| {
                                TopKUniform::new(k, StdRng::seed_from_u64(s))
                            })
                        };
                        out.push_str(&format!("{name},{n},{m},{k},{avg:.1}\n"));
                    }
                }
            }
        }
        out
    }
}

/// The RNG seed for shard `shard` of a sharded scheduler derived from a
/// base `seed`: a golden-ratio stride keeps the per-shard streams decorrelated
/// while shard 0 keeps `seed` itself, so a one-shard configuration consumes
/// the RNG exactly like the unsharded scheduler (the `--shards 1`
/// bit-for-bit guarantee). Shared by the `workloads`/`rank_tails` binaries
/// and the `rank_tail_fit` CI pin — they must agree for the pin to pin the
/// binaries' configuration.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Least-squares fit of an exponential tail `Pr[X ≥ ℓ] ≈ C·e^(−λℓ)`.
///
/// `tail[ℓ]` is the empirical `Pr[X ≥ ℓ]` (as produced by
/// `rsched_queues::instrument::Instrumented::rank_tail`). The fit regresses
/// `ln Pr[X ≥ ℓ]` on `ℓ` over the informative points (`0 < p < 1`, which
/// drops the degenerate `Pr[X ≥ 1] = 1` head and the empty tail) and
/// returns the decay rate `λ` (positive for a decaying tail), or `None`
/// with fewer than three informative points. `1/λ` estimates the relaxation
/// factor `k` of Definition 1.
pub fn fit_tail_exponent(tail: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = tail
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > 0.0 && p < 1.0)
        .map(|(l, &p)| (l as f64, p.ln()))
        .collect();
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return None;
    }
    Some(-(n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&[&100, &1]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&[&1, &2]);
    }

    #[test]
    fn args_last_value_wins() {
        let a = Args::parse_from(["--k", "4", "--k", "9"].iter().map(|s| s.to_string()));
        assert_eq!(a.get_usize("k", 0), 9);
    }

    /// The message `f` panics with.
    fn panic_message<R>(f: impl FnOnce() -> R) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err().expect("ran");
        err.downcast::<String>().map(|m| *m).unwrap_or_default()
    }

    /// A value option given without its value panics instead of running
    /// with the default; `--trace` / `--metrics` style options, read by
    /// `get_str`, keep their optional value.
    #[test]
    fn bare_value_options_panic() {
        let a = Args::parse_from(["--threads", "--quick", "--seed", "--ks"].map(String::from));
        let threads = panic_message(|| a.get_usize("threads", 1));
        assert!(threads.contains("--threads expects an integer"), "{threads}");
        assert!(panic_message(|| a.get_u64("seed", 1)).contains("--seed expects an integer"));
        assert!(panic_message(|| a.get_usize_list("ks", &[1])).contains("--ks expects comma"));
        assert!(a.has_flag("quick") && a.get_str("seed").is_none());
    }

    #[test]
    fn args_lists() {
        let a = Args::parse_from(["--ks", "4, 8,16"].iter().map(|s| s.to_string()));
        assert_eq!(a.get_usize_list("ks", &[1]), vec![4, 8, 16]);
        assert_eq!(a.get_usize_list("other", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn fit_recovers_known_exponent() {
        // A perfect exponential tail: Pr[X ≥ ℓ] = e^(−0.25(ℓ−1)).
        let lambda = 0.25f64;
        let tail: Vec<f64> =
            (0..40).map(|l| (-(lambda) * (l as f64 - 1.0)).exp().min(1.0)).collect();
        let fitted = fit_tail_exponent(&tail).expect("enough points");
        assert!((fitted - lambda).abs() < 1e-9, "fitted {fitted}, want {lambda}");
    }

    #[test]
    fn fit_rejects_degenerate_tails() {
        assert_eq!(fit_tail_exponent(&[]), None);
        // An exact scheduler: Pr[rank ≥ 1] = 1, then nothing — no
        // informative points.
        assert_eq!(fit_tail_exponent(&[1.0, 1.0]), None);
        assert_eq!(fit_tail_exponent(&[1.0, 1.0, 0.5]), None);
    }

    #[test]
    fn bench_cli_help_short_circuits_and_quick_folds() {
        let help = Args::parse_from(["--help"].iter().map(|s| s.to_string()));
        assert!(BenchCli::from_args(help, "demo", "Demo.", &[]).unwrap().is_none());
        let quick = Args::parse_from(["--quick"].iter().map(|s| s.to_string()));
        let cli = BenchCli::from_args(quick, "demo", "Demo.", &[]).unwrap().unwrap();
        assert!(cli.quick);
        let plain = Args::parse_from(std::iter::empty());
        // Quick only if the ambient RSCHED_BENCH_FAST is exactly "1" (CI
        // smoke sets it); any other value, like the unset variable, is off.
        let cli = BenchCli::from_args(plain, "demo", "Demo.", &[]).unwrap().unwrap();
        assert_eq!(cli.quick, std::env::var("RSCHED_BENCH_FAST").as_deref() == Ok("1"));
    }

    #[test]
    fn bench_cli_rejects_unlisted_flags() {
        let options = [("--reps N", "repetitions"), ("--metrics [PATH]", "snapshot")];
        let parse = |items: &[&str]| {
            let args = Args::parse_from(items.iter().map(|s| s.to_string()));
            BenchCli::from_args(args, "demo", "Demo.", &options)
        };
        assert!(parse(&["--reps", "3", "--metrics", "--quick"]).is_ok());
        let rejected = |items: &[&str]| parse(items).unwrap_err();
        assert!(
            rejected(&["--reps", "3", "--json", "x"]).starts_with("error: unknown option --json\n")
        );
        assert!(rejected(&["--rep", "3"]).starts_with("error: unknown option --rep\n"));
        assert!(rejected(&["--rep", "3"]).contains("Usage: demo [OPTIONS]"));
        // `--help` wins over an unknown flag: usage is what the caller needs.
        assert!(parse(&["--nope", "--help"]).unwrap().is_none());
    }

    #[test]
    fn golden_csv_shape() {
        let csv = table1::golden_csv(&[50], &[100], &[4], 1, 1);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "scheduler,n,m,k,extra");
        assert_eq!(lines.len(), 3, "one row per scheduler: {csv}");
        assert!(lines[1].starts_with("sim-multiqueue,50,100,4,"));
        assert!(lines[2].starts_with("top-k-uniform,50,100,4,"));
        // Determinism: same inputs, same bytes.
        assert_eq!(csv, table1::golden_csv(&[50], &[100], &[4], 1, 1));
    }
}
