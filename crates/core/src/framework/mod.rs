//! The scheduling framework: one task oracle, two kinds of executor.
//!
//! The paper states each algorithm once — a `Process(v)` plus a dependency
//! check (Algorithms 2 and 4) — analyses it in the sequential model and
//! runs it on threads. So does this crate: an algorithm is one
//! [`ConcurrentAlgorithm`], whose [`ConcurrentAlgorithm::try_process`]
//! answers with a [`TaskOutcome`], and every executor calls it.
//!
//! * **Sequential-model executors** — [`run_exact`] (Algorithm 1, no queue)
//!   and [`run_relaxed`] (Algorithms 2 and 4 over any
//!   [`rsched_queues::PriorityScheduler`], one pop per iteration) — call
//!   `try_process` from one thread, where it is the state check followed
//!   by the processing step, and count pops into
//!   [`crate::stats::ExecutionStats`]: the quantities Theorems 1–2 bound.
//! * **Thread executors** — [`run_concurrent`] / [`run_concurrent_batched`]
//!   (relaxed, over any [`rsched_queues::ConcurrentScheduler`]) and
//!   [`run_exact_concurrent`] (the §4 comparison framework: the same worker
//!   engine over an exact-order scheduler) — call it from many. A worker
//!   pops a run of up to `batch_size` tasks; that is the framework's only
//!   batching.
//!
//! One loop serves both Algorithm 2 (generic) and Algorithm 4 (MIS): the
//! difference is entirely in the oracle, which may report a task
//! [`TaskOutcome::Obsolete`] (Algorithm 4's dead vertices are dropped on
//! sight instead of re-inserted). Total iterations therefore decompose
//! exactly as in the paper: `n` first-touches plus one iteration per failed
//! delete.

pub(crate) mod concurrent;
mod exact_concurrent;
mod sequential;
#[cfg(test)]
pub(crate) mod testing;

pub use concurrent::{fill_scheduler, run_concurrent, run_concurrent_batched};
pub use exact_concurrent::run_exact_concurrent;
pub use sequential::{run_exact, run_relaxed};

use crate::TaskId;

/// Outcome of a processing attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task had no unprocessed predecessor and was processed by this
    /// call.
    Processed,
    /// An unprocessed predecessor was observed: processing now would break
    /// determinism; the executor re-inserts (a *failed delete*).
    Blocked,
    /// The task's outcome is already decided (e.g. a dead MIS vertex): drop
    /// without processing.
    Obsolete,
}

/// An iterative algorithm with explicit dependencies: the `Process(v)` of
/// the paper's Algorithms 2–4 plus the predecessor oracle, thread-safe.
///
/// `try_process` combines the state check and the processing step and must
/// be linearizable: the final output must equal the sequential algorithm's
/// for the same priority permutation, regardless of interleaving. It must
/// also be consistent with the priority order: in exact order a task is
/// never `Blocked`. The output is taken from the algorithm's own
/// `into_output` once the run returns.
///
/// The algorithm only decides; the executors count. Each task has exactly
/// one entry in the scheduler when the run starts, and every entry reaches
/// exactly one terminal outcome — `Processed` or `Obsolete` at its pop, or
/// a purge (see [`ConcurrentAlgorithm::is_obsolete`]) — so a run ends once
/// the executor has counted `num_tasks()` of them.
pub trait ConcurrentAlgorithm: Sync {
    /// Number of tasks, `n`.
    fn num_tasks(&self) -> usize;

    /// Read by no executor: runs end on the executor's own count of
    /// terminal outcomes. Kept, defaulted, only because the benchmark
    /// package's `NoopAlg`, `TracedAlg` and `DoneStamp` implement it; it
    /// goes when they stop.
    fn remaining(&self) -> usize {
        0
    }

    /// Attempts to process `task`.
    fn try_process(&self, task: TaskId) -> TaskOutcome;

    /// Whether the queued `task` is already decided, so that the scheduler
    /// may discard its entry without handing it over; the engine counts the
    /// discarded entry as the task's terminal outcome (DESIGN.md "Purging
    /// semantics"). The test must be cheap and read-only — it runs under a
    /// scheduler bucket's lock — and may answer `true` only if
    ///
    /// 1. the task's outcome is final: [`ConcurrentAlgorithm::try_process`]
    ///    would return [`TaskOutcome::Obsolete`] and change nothing;
    /// 2. the answer is monotone: once `true`, `true` for good.
    ///
    /// The default, `false`, is always correct; connectivity, Delaunay and
    /// the service's handlers keep it, deciding each obsolete task at its
    /// own pop.
    fn is_obsolete(&self, task: TaskId) -> bool {
        let _ = task;
        false
    }
}
