//! A task that panics must end the run, not hang it. The panicking task is
//! never decided, so neither the ledger nor a dependant waiting on it can
//! reach the state that stops the other workers; the executors' poison
//! flag has to. Every case runs under a watchdog: without the flag the
//! surviving worker spins forever and the run never returns.

use rsched_core::algorithms::sssp::concurrent_sssp;
use rsched_core::framework::{
    fill_scheduler, run_concurrent, run_exact_concurrent, ConcurrentAlgorithm, TaskOutcome,
};
use rsched_core::service::{
    run_service, Producer, ProducerFn, RequestHandler, ServiceConfig, SubmitCtx,
};
use rsched_core::TaskId;
use rsched_graph::{Permutation, WeightedCsr};
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::ConcurrentScheduler;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

const TASKS: u32 = 10_000;
const BAD_TASK: TaskId = TASKS / 2;

/// Runs `run` on a thread of its own and requires it to panic — with the
/// task's own message — within the watchdog's window.
fn assert_panics_promptly(what: &str, run: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Err(panic)) => {
            let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(message, "task failed", "{what}: the task's own panic must propagate");
        }
        Ok(Ok(())) => panic!("{what}: returned as if the task had not panicked"),
        Err(_) => panic!("{what}: still running — the surviving workers never left the engine"),
    }
}

/// Independent tasks; one of them panics.
struct OneBadTask;

impl ConcurrentAlgorithm for OneBadTask {
    fn num_tasks(&self) -> usize {
        TASKS as usize
    }
    fn try_process(&self, task: TaskId) -> TaskOutcome {
        assert!(task != BAD_TASK, "task failed");
        TaskOutcome::Processed
    }
}

impl RequestHandler for OneBadTask {
    fn handle(&self, _priority: u64, task: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        self.try_process(task)
    }
}

/// A chain — task `i` waits for task `i − 1` — whose sixth link panics, so
/// every later task stays blocked on a task nobody will decide.
struct BrokenChain(Vec<AtomicBool>);

impl ConcurrentAlgorithm for BrokenChain {
    fn num_tasks(&self) -> usize {
        self.0.len()
    }
    fn try_process(&self, task: TaskId) -> TaskOutcome {
        assert!(task != 5, "task failed");
        if task > 0 && !self.0[task as usize - 1].load(Ordering::Acquire) {
            return TaskOutcome::Blocked;
        }
        self.0[task as usize].store(true, Ordering::Release);
        TaskOutcome::Processed
    }
}

/// A MultiQueue whose hundredth scalar insert panics: a follow-up submit
/// that fails inside `handle`.
struct BadInsert {
    inner: MultiQueue<TaskId>,
    inserts: AtomicUsize,
}

impl ConcurrentScheduler<TaskId> for BadInsert {
    fn insert(&self, priority: u64, item: TaskId) {
        assert!(self.inserts.fetch_add(1, Ordering::Relaxed) != 100, "task failed");
        self.inner.insert(priority, item);
    }
    fn pop(&self) -> Option<(u64, TaskId)> {
        self.inner.pop()
    }
}

#[test]
fn panicking_task_ends_a_prefill_run() {
    assert_panics_promptly("run_concurrent", || {
        let pi = Permutation::identity(TASKS as usize);
        let sched: MultiQueue<TaskId> = MultiQueue::new(4);
        fill_scheduler(&sched, &pi);
        run_concurrent(&OneBadTask, &pi, &sched, 2);
    });
}

#[test]
fn panicking_task_ends_an_exact_concurrent_run() {
    assert_panics_promptly("run_exact_concurrent", || {
        let chain = BrokenChain((0..64).map(|_| AtomicBool::new(false)).collect());
        run_exact_concurrent(&chain, &Permutation::identity(64), 2);
    });
}

#[test]
fn panicking_submit_ends_concurrent_sssp() {
    assert_panics_promptly("concurrent_sssp", || {
        let g = WeightedCsr::from_weighted_edges(TASKS as usize, (1..TASKS).map(|v| (v - 1, v, 1)));
        let sched = BadInsert { inner: MultiQueue::new(4), inserts: AtomicUsize::new(0) };
        concurrent_sssp(&g, 0, &sched, 2);
    });
}

#[test]
fn panicking_handler_ends_a_watermark_off_service_run() {
    assert_panics_promptly("run_service", || {
        let sched: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(2, |_| MultiQueue::new(2));
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(|prod: Producer<'_>| {
            for t in 0..TASKS {
                prod.push(u64::from(t), t).unwrap();
            }
        })];
        let handler = OneBadTask;
        run_service(&handler, &sched, &ServiceConfig::default(), producers);
    });
}

/// The watermark on: when the workers die the producers are parked in
/// `CapacityWaiters` (or about to be), their flushes held at a watermark
/// only the dead workers could lower — so `run_service` has to release
/// them itself before it can re-raise.
#[test]
fn panicking_handler_ends_a_watermarked_service_run() {
    assert_panics_promptly("run_service, watermark on", || {
        let sched: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(2, |_| MultiQueue::new(2));
        let config = ServiceConfig { shard_watermark: 4, flush_batch: 8, ..Default::default() };
        let producers: Vec<ProducerFn<'_>> = (0..2u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    // Stops at the first `Sealed`: the abort's answer to a
                    // parked push.
                    let _ = (p..TASKS).step_by(2).try_for_each(|t| prod.push(u64::from(t), t));
                }) as ProducerFn<'_>
            })
            .collect();
        let handler = OneBadTask;
        run_service(&handler, &sched, &config, producers);
    });
}
