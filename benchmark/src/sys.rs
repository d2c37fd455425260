//! What the machine and the build are: the header every result carries
//! (ROADMAP open item 1: `BENCH_6`–`BENCH_10` record none of this), plus the
//! process's peak resident set.

use crate::json::Json;
use std::process::Command;

/// `std::thread::available_parallelism`, 1 if unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads of the prefill workloads: `min(nproc, 4)`.
pub fn prefill_threads() -> usize {
    nproc().min(4)
}

/// Workers of the service workload: `max(1, nproc - 1)`, so that the load
/// generator (one more thread of this process) keeps a core.
pub fn service_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`); `None` where the file or the field is missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First line of `program args` on success, `"unknown"` otherwise.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The result header. The driver's checkout is not a git repository, so the
/// sha reads `unknown` there; `rustc` is the one on `PATH` (the one `cargo
/// run` just built with).
pub fn header(workload: &str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Json {
    let service = workload == "service_conn";
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("quick", Json::Bool(quick)),
        ("git_sha", Json::str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc() as f64)),
        ("t", Json::Num(if service { service_workers() } else { prefill_threads() } as f64)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("features", Json::str(if rsched_obs::ENABLED { "obs" } else { "none (obs off)" })),
        ("reclaim", Json::str(if service { "ebr" } else { "n/a (lock-based scheduler)" })),
    ])
}
