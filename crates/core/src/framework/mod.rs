//! The scheduling framework: task-state model and executors.
//!
//! One loop serves both Algorithm 2 (generic) and Algorithm 4 (MIS): the
//! difference is entirely in the algorithm's task-state oracle, which may
//! report a task [`TaskState::Obsolete`] (Algorithm 4's dead vertices are
//! dropped on sight instead of re-inserted). Total iterations therefore
//! decompose exactly as in the paper: `n` first-touches plus one iteration
//! per failed delete.

pub(crate) mod concurrent;
mod exact_concurrent;
mod sequential;

pub use concurrent::{fill_scheduler, run_concurrent, run_concurrent_batched};
pub use exact_concurrent::run_exact_concurrent;
pub use sequential::{run_exact, run_relaxed, run_relaxed_batched};

use crate::TaskId;

/// The scheduler-visible state of a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// No unprocessed predecessor: can be processed now.
    Ready,
    /// Some predecessor is unprocessed: processing now would break
    /// determinism; the executor re-inserts (a *failed delete*).
    Blocked,
    /// The task's outcome is already decided (e.g. a dead MIS vertex): drop
    /// without processing.
    Obsolete,
}

/// A sequential iterative algorithm with explicit dependencies.
///
/// Implementations provide the `Process(v)` of the paper's Algorithms 2–4
/// plus the predecessor oracle. The contract:
///
/// * [`IterativeAlgorithm::execute`] is only called on tasks reported
///   [`TaskState::Ready`], each at most once.
/// * `state` must be consistent with the priority order: with an exact
///   scheduler, a popped task is never `Blocked`.
pub trait IterativeAlgorithm {
    /// The algorithm's result (e.g. the MIS membership vector).
    type Output;

    /// Number of tasks, `n`. Tasks are `0..n`.
    fn num_tasks(&self) -> usize;

    /// The current state of `task`.
    fn state(&self, task: TaskId) -> TaskState;

    /// Processes `task`. Called exactly once per non-obsolete task, only
    /// when [`TaskState::Ready`].
    fn execute(&mut self, task: TaskId);

    /// Consumes the algorithm, returning its output.
    fn into_output(self) -> Self::Output;
}

/// Outcome of a concurrent processing attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The task was processed by this call.
    Processed,
    /// An unprocessed predecessor was observed: re-insert.
    Blocked,
    /// The task was already decided: drop.
    Obsolete,
}

/// A thread-safe iterative algorithm.
///
/// `try_process` combines the state check and the processing step and must
/// be linearizable: the final output must equal the sequential algorithm's
/// for the same priority permutation, regardless of interleaving.
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
