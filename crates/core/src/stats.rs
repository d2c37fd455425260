//! Execution statistics: the paper's cost measure.
//!
//! The paper counts work as *scheduler queries*: `n` of them are inevitable
//! (each task is processed once), the interesting quantity is the number of
//! extra iterations — failed deletes that re-insert a blocked task. Obsolete
//! pops (dead MIS vertices dropped on sight) are counted separately; they are
//! also extra iterations but cost no re-insertion.

use std::fmt;
use std::time::Duration;

/// Counters from a sequential framework run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Number of tasks in the instance (`n`).
    pub tasks: usize,
    /// Total `ApproxGetMin` calls that returned a task.
    pub total_pops: u64,
    /// Pops that processed their task.
    pub processed: u64,
    /// Failed deletes: pops of a blocked task, re-inserted (the paper's
    /// "wasted steps").
    pub wasted: u64,
    /// Pops of obsolete tasks (e.g. dead MIS vertices), dropped.
    pub obsolete: u64,
}

impl ExecutionStats {
    /// Creates zeroed stats for an instance of `tasks` tasks.
    pub fn new(tasks: usize) -> Self {
        ExecutionStats { tasks, ..Default::default() }
    }

    /// Iterations beyond the unavoidable `n` — the paper's "cost of
    /// relaxation" (failed deletes plus obsolete pops beyond first-touch).
    pub fn extra_iterations(&self) -> u64 {
        self.total_pops.saturating_sub(self.tasks as u64)
    }
}

impl fmt::Display for ExecutionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pops={} (processed={} wasted={} obsolete={}) extra={}",
            self.total_pops,
            self.processed,
            self.wasted,
            self.obsolete,
            self.extra_iterations()
        )
    }
}

/// Counters from a concurrent run, aggregated over all worker threads.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentStats {
    /// Number of tasks in the instance.
    pub tasks: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Total tasks taken out of the scheduler across threads, whether handed
    /// to a worker or purged by the scheduler itself: always
    /// `processed + wasted + obsolete`, for the exact executor too (its
    /// retries are pops).
    pub total_pops: u64,
    /// Tasks processed.
    pub processed: u64,
    /// Failed deletes (blocked task popped, re-inserted).
    pub wasted: u64,
    /// Obsolete tasks dropped, by a worker that popped one or by the
    /// scheduler's purge (`purged` of them).
    pub obsolete: u64,
    /// The part of `obsolete` the scheduler discarded itself, told by
    /// `ConcurrentAlgorithm::is_obsolete` that the task was already decided;
    /// no worker saw these tasks.
    pub purged: u64,
    /// Scheduler calls that found it (transiently) empty.
    pub empty_pops: u64,
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
}

impl ConcurrentStats {
    /// Iterations beyond the unavoidable `n`.
    pub fn extra_iterations(&self) -> u64 {
        self.total_pops.saturating_sub(self.tasks as u64)
    }
}

impl fmt::Display for ConcurrentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "threads={} elapsed={:?} pops={} (processed={} wasted={} obsolete={}, {} purged) extra={}",
            self.threads,
            self.elapsed,
            self.total_pops,
            self.processed,
            self.wasted,
            self.obsolete,
            self.purged,
            self.extra_iterations()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_iterations_math() {
        let s = ExecutionStats { tasks: 10, total_pops: 14, processed: 10, wasted: 3, obsolete: 1 };
        assert_eq!(s.extra_iterations(), 4);
    }

    #[test]
    fn zero_stats_are_safe() {
        let s = ExecutionStats::new(5);
        assert_eq!(s.extra_iterations(), 0);
        assert!(!s.to_string().is_empty());
        let c = ConcurrentStats::default();
        assert!(!c.to_string().is_empty());
    }
}
