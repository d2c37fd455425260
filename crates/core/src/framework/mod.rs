//! The scheduling framework: one task oracle, two kinds of executor.
//!
//! The paper states each algorithm once — a `Process(v)` plus a dependency
//! check (Algorithms 2 and 4) — analyses it in the sequential model and
//! runs it on threads. So does this crate: an algorithm is one
//! [`ConcurrentAlgorithm`], whose [`ConcurrentAlgorithm::try_process`]
//! answers with a [`TaskOutcome`], and every executor calls it.
//!
//! * **Sequential-model executors** — [`run_exact`] (Algorithm 1, no queue)
//!   and [`run_relaxed`] / [`run_relaxed_batched`] (Algorithms 2 and 4 over
//!   any [`rsched_queues::PriorityScheduler`]) — call `try_process` from
//!   one thread, where it is the state check followed by the processing
//!   step, and count pops into [`crate::stats::ExecutionStats`]: the
//!   quantities Theorems 1–2 bound.
//! * **Thread executors** — [`run_concurrent`] / [`run_concurrent_batched`]
//!   (relaxed, over any [`rsched_queues::ConcurrentScheduler`]) and
//!   [`run_exact_concurrent`] (the §4 comparison framework) — call it from
//!   many.
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
pub use sequential::{run_exact, run_relaxed, run_relaxed_batched};

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
pub trait ConcurrentAlgorithm: Sync {
    /// Number of tasks, `n`.
    fn num_tasks(&self) -> usize;

    /// Tasks whose outcome is not yet decided. The executors terminate when
    /// this reaches zero.
    fn remaining(&self) -> usize;

    /// Attempts to process `task`.
    fn try_process(&self, task: TaskId) -> TaskOutcome;

    /// Whether the queued `task` is already decided, so that the scheduler
    /// may discard its entry without handing it over (DESIGN.md "Purging
    /// semantics"). The test must be cheap and read-only — it runs under a
    /// scheduler bucket's lock — and may answer `true` only if
    ///
    /// 1. the task's outcome is final: [`ConcurrentAlgorithm::try_process`]
    ///    would return [`TaskOutcome::Obsolete`] and change nothing;
    /// 2. whoever decided the task subtracts it from
    ///    [`ConcurrentAlgorithm::remaining`] — a discarded entry is never
    ///    passed to `try_process`, so nothing else will;
    /// 3. the answer is monotone: once `true`, `true` for good.
    ///
    /// The default, `false`, is always correct, and it is the only correct
    /// answer for an algorithm that decides *and counts* an obsolete task at
    /// the task's own pop (connectivity, Delaunay, the service's handlers).
    fn is_obsolete(&self, task: TaskId) -> bool {
        let _ = task;
        false
    }
}
