//! The repo's benchmark: one command runs one workload from a seed, checks
//! every output against the sequential reference, and prints every metric by
//! name with its unit. See `README.md` beside this package for the workload
//! and metric tables; `spec` holds the declarations `BENCHMARK.json` is
//! generated from.
//!
//! The program under test is reached only through its public API
//! (`ConcurrentScheduler` / `SchedulerLoad`, `ConcurrentAlgorithm` /
//! `RequestHandler`, `run_concurrent_batched`, `run_exact_concurrent`,
//! `run_service`, `Producer::push`): the end-to-end run adds nothing around
//! those calls, and the traced run wraps them from this package's own files.

pub mod cli;
pub mod json;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
