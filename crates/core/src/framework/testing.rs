//! Test-only algorithm shared by the executors' unit tests.

use super::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use rsched_graph::Permutation;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A permutation-chain algorithm: the task at label `i` depends on the task
/// at label `i − 1`, forcing retries under any relaxed order — and forcing
/// the processing order, which `log` records, to be the label order.
pub(crate) struct Chain<'p> {
    pi: &'p Permutation,
    done: Vec<AtomicBool>,
    log: Mutex<Vec<TaskId>>,
}

impl<'p> Chain<'p> {
    pub(crate) fn new(pi: &'p Permutation) -> Self {
        Chain {
            pi,
            done: (0..pi.len()).map(|_| AtomicBool::new(false)).collect(),
            log: Mutex::new(Vec::new()),
        }
    }

    /// The tasks in the order they were processed.
    pub(crate) fn into_log(self) -> Vec<TaskId> {
        self.log.into_inner().unwrap()
    }
}

impl ConcurrentAlgorithm for Chain<'_> {
    fn num_tasks(&self) -> usize {
        self.done.len()
    }
    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let pos = self.pi.label(task);
        if pos > 0 && !self.done[self.pi.task_at(pos - 1) as usize].load(Ordering::Acquire) {
            return TaskOutcome::Blocked;
        }
        self.log.lock().unwrap().push(task);
        self.done[task as usize].store(true, Ordering::Release);
        TaskOutcome::Processed
    }
}
