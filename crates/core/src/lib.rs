//! # rsched-core — the relaxed scheduling framework
//!
//! The paper's contribution: execute *iterative algorithms with explicit
//! dependencies* through a relaxed priority scheduler while producing exactly
//! the output of the sequential algorithm.
//!
//! The moving parts:
//!
//! * [`framework`] — one task oracle, [`framework::ConcurrentAlgorithm`],
//!   and the executors that drive it. [`framework::run_exact`] is
//!   Algorithm 1 (the optimized sequential baseline),
//!   [`framework::run_relaxed`] is the unified Algorithm 2/4 loop (pop,
//!   re-insert on unprocessed predecessor, drop obsolete tasks) in the
//!   paper's sequential model, and [`framework::run_concurrent`] /
//!   [`framework::run_exact_concurrent`] run the same oracle on the shared
//!   memory the paper's §4 evaluates.
//! * [`algorithms`] — the paper's workloads as framework instances: greedy
//!   MIS (Algorithm 4), greedy maximal matching (direct and via line graph),
//!   greedy vertex coloring (Algorithm 3), list contraction, Knuth shuffle,
//!   the generic explicit DAG, and SSSP. Each has a plain sequential
//!   reference, one framework instance — thread-safe, so every executor
//!   takes it — and a verifier.
//! * [`algorithms::incremental`] — the follow-up papers' workload family
//!   (arXiv 2003.09363): incremental connectivity over a union-find and
//!   randomized incremental Delaunay triangulation, with conflict-retry
//!   semantics for out-of-order insertions.
//! * [`service`] — the streaming front-end: producers flush runs of tasks
//!   into a live scheduler while the same worker engine drains it, with
//!   shard-saturation backpressure and a
//!   graceful-drain, exactly-once shutdown protocol. The prefill executors
//!   above are its degenerate all-tasks-at-t=0 configuration.
//! * [`stats`] — the paper's cost measure: total pops split into processed /
//!   wasted (failed deletes) / obsolete.
//! * [`theory`] — the bound shapes of Theorems 1–2 for predicted-vs-measured
//!   reporting.
//!
//! # Examples
//!
//! ```
//! use rsched_core::algorithms::mis::{greedy_mis, ConcurrentMis};
//! use rsched_core::framework::run_relaxed;
//! use rsched_graph::{gen, Permutation};
//! use rsched_queues::relaxed::SimMultiQueue;
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = gen::gnm(500, 2_000, &mut rng);
//! let pi = Permutation::random(g.num_vertices(), &mut rng);
//!
//! let alg = ConcurrentMis::new(&g, &pi);
//! let sched = SimMultiQueue::new(8, StdRng::seed_from_u64(2));
//! let stats = run_relaxed(&alg, &pi, sched);
//!
//! assert_eq!(alg.into_output(), greedy_mis(&g, &pi)); // deterministic output
//! assert_eq!(stats.processed + stats.obsolete, 500); // every task decided once
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod framework;
pub mod service;
pub mod stats;
pub mod theory;

/// Dense task identifier: tasks are `0..n`.
pub type TaskId = u32;

/// Sentinel for "no task" in link arrays.
pub const NIL: TaskId = u32::MAX;
