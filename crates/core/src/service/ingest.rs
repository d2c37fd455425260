//! Ingestion side of the streaming service: producer handles, which flush
//! their own runs into the scheduler (see the [service docs](super)), and
//! the exactly-once completion ledger.

use super::{CapacityWaiters, ServiceConfig};
use crate::TaskId;
use crossbeam::utils::CachePadded;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use rsched_sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::cell::RefCell;
use std::fmt;
use std::thread;

/// The exactly-once completion ledger: two monotone counters whose equality
/// (once producers are sealed) is the service's termination condition.
///
/// `accepted` counts every task admitted into the system — producer pushes
/// (one `accept(n)` per flushed run, **before** the `insert_batch` that
/// makes it poppable) and handler follow-up submits (one `accept(n)` per
/// worker run, likewise before its `insert_batch`). `decided` counts
/// terminal outcomes (`Processed` or `Obsolete`; a `Blocked` re-insert is
/// not a decision), one `decide(n)` per run, after that run's accept. A
/// follow-up only exists while the parent that submitted it is still
/// unbooked, a pushed task only while its producer's handle is alive (and
/// the ledger unsealed), and nobody can pop — let alone decide — a task
/// before it is accepted, so `decided == accepted` once sealed implies no
/// task is in flight *and* no future accept can occur — the condition is
/// stable, so workers may exit the moment they observe it. Publishing a
/// follow-up before accepting it breaks exactly this: another worker pops
/// and decides the child, the books read 1 == 1 with the parent still in
/// hand (`tests/model_service.rs` finds the interleaving, and the one where
/// the ledger seals with a pushed run still buffered).
///
/// The two sides write different lines: `accepted` (producers' flushes) has
/// one to itself, and `decided` shares the other only with `sealed`, which
/// the workers read beside it in every [`Ledger::drained`].
#[derive(Debug, Default)]
#[doc(hidden)] // public only so the model-checker suite can drive it
pub struct Ledger {
    accepted: CachePadded<AtomicU64>,
    books: CachePadded<Books>,
}

/// The workers' half of the [`Ledger`].
// lint:allow(hot-counter-padded) held only as `CachePadded<Books>`
#[derive(Debug, Default)]
struct Books {
    decided: AtomicU64,
    sealed: AtomicBool,
}

impl Ledger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` tasks admitted into the system.
    pub fn accept(&self, n: usize) {
        self.accepted.fetch_add(n as u64, Ordering::SeqCst);
    }

    /// Records `n` terminal outcomes.
    pub fn decide(&self, n: usize) {
        self.books.decided.fetch_add(n as u64, Ordering::SeqCst);
    }

    /// Marks the producer side closed for good (idempotent, sticky).
    pub fn seal(&self) {
        if !self.books.sealed.swap(true, Ordering::SeqCst) {
            rsched_obs::instant!("ledger_seal");
        }
    }

    pub fn is_sealed(&self) -> bool {
        self.books.sealed.load(Ordering::SeqCst)
    }

    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    pub fn decided(&self) -> u64 {
        self.books.decided.load(Ordering::SeqCst)
    }

    /// The termination predicate: sealed and balanced. Read order matters —
    /// `decided` before `accepted`. Both are monotone and `decided ≤
    /// accepted` always holds, so if the earlier `decided` read equals the
    /// later `accepted` read, both counters held that common value at the
    /// instant of the `accepted` read: the books balanced at a real moment
    /// in time, and (sealed being sticky) stay balanced forever.
    pub fn drained(&self) -> bool {
        self.is_sealed() && self.decided() == self.accepted()
    }
}

/// Error returned by [`Producer::push`] once the service stopped accepting
/// new work (a [`Producer::seal_all`] from any producer, or the workers
/// died). The rejected task is **not** accepted: it never counts against
/// the ledger and will not be processed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The ingestion side is sealed; no further pushes will be accepted.
    Sealed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Sealed => write!(f, "service ingestion is sealed"),
        }
    }
}

impl std::error::Error for PushError {}

/// Shared state of one service run: the scheduler producers flush into,
/// the ledger, the watermark waiters, and the seal state.
pub(super) struct ServiceCore<'a> {
    sched: &'a dyn ConcurrentScheduler<TaskId>,
    load: &'a (dyn SchedulerLoad + Sync),
    flush_batch: usize,
    watermark: usize,
    pub(super) ledger: Ledger,
    capacity: CapacityWaiters,
    /// Handles not yet dropped; the last one out seals the ledger.
    open_producers: AtomicUsize, // lint:allow(hot-counter-padded) written once per handle, at drop
    /// Set by `seal_all` (or an abort): later pushes are refused.
    closed: AtomicBool,
}

impl<'a> ServiceCore<'a> {
    /// The state of a run with `producers` handles; with none, the ledger
    /// is sealed from the start.
    pub(super) fn new<S>(sched: &'a S, config: &ServiceConfig, producers: usize) -> Self
    where
        S: ConcurrentScheduler<TaskId> + SchedulerLoad,
    {
        let core = ServiceCore {
            sched,
            load: sched,
            flush_batch: config.flush_batch,
            watermark: config.shard_watermark,
            ledger: Ledger::new(),
            capacity: CapacityWaiters::default(),
            open_producers: AtomicUsize::new(producers),
            closed: AtomicBool::new(false),
        };
        if producers == 0 {
            core.ledger.seal();
        }
        core
    }

    /// Whether a flush must wait: the watermark is enabled, the fullest
    /// shard is at it, and the ledger is open. While any handle is alive
    /// only an abort seals it, so a sealed ledger here means nobody is left
    /// to drain the shard.
    fn stalled(&self) -> bool {
        self.watermark != usize::MAX
            && self.load.max_partition_load() >= self.watermark
            && !self.ledger.is_sealed()
    }

    /// What workers wake as they drain: `None` with the watermark disabled
    /// (`usize::MAX`), where no producer ever parks.
    pub(super) fn waiters(&self) -> Option<&CapacityWaiters> {
        (self.watermark != usize::MAX).then_some(&self.capacity)
    }

    /// Parks the calling producer until [`Self::stalled`] reads false.
    /// Register first, re-check second: a worker draining (or an abort)
    /// between the two unparks the thread instead of being missed.
    fn await_capacity(&self) {
        while self.stalled() {
            self.capacity.register(thread::current());
            if self.stalled() {
                thread::park();
            }
        }
    }

    /// The workers are gone and nothing will be popped again: refuses
    /// later pushes and releases parked producers. The seal store precedes
    /// `wake_all`'s fence and a producer re-checks the seal after
    /// `register`'s, so a parked producer either sees the seal or is woken.
    pub(super) fn abort(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.ledger.seal();
        self.capacity.wake_all();
    }
}

/// A producer-side handle: push requests, optionally seal the service.
///
/// The handle buffers its pushes in a run of its own and flushes it itself
/// (see the [module docs](crate::service)); a handle that goes idle without
/// dropping must call [`Producer::flush`]. Dropping the handle flushes and
/// retires it; when the last handle drops, the ledger seals and the drain
/// begins. The handle is `Send` (producers run on their own threads) but
/// deliberately not `Clone` — the seal protocol counts handles.
pub struct Producer<'s> {
    core: &'s ServiceCore<'s>,
    /// Pushes that returned `Ok` and are not yet accepted.
    run: RefCell<Vec<(u64, TaskId)>>,
}

impl fmt::Debug for Producer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Producer")
            .field("buffered", &self.run.borrow().len())
            .finish_non_exhaustive()
    }
}

impl<'s> Producer<'s> {
    pub(super) fn new(core: &'s ServiceCore<'s>) -> Self {
        Producer { core, run: RefCell::default() }
    }

    /// Pushes one request into the handle's run, flushing the run when it
    /// is full or the scheduler reads empty (otherwise the request waits in
    /// the run: see [`Producer::flush`]). Waits while a flush is held
    /// at the shard watermark (backpressure); returns
    /// [`PushError::Sealed`] — without accepting the task — once the
    /// service stopped taking new work.
    pub fn push(&self, priority: u64, task: TaskId) -> Result<(), PushError> {
        // Relaxed: a push that misses a concurrent close is ordered before
        // it, and its run is still booked before the ledger seals.
        if self.core.closed.load(Ordering::Relaxed) {
            self.flush();
            return Err(PushError::Sealed);
        }
        let full = {
            let mut run = self.run.borrow_mut();
            run.push((priority, task));
            run.len() >= self.core.flush_batch
        };
        if full || self.core.load.total_load() == 0 {
            self.flush();
        }
        Ok(())
    }

    /// Initiates graceful shutdown: flushes this handle's run and closes
    /// ingestion (every producer's subsequent pushes are rejected). Pushes
    /// already answered `Ok` — other producers' buffered runs included —
    /// still complete exactly once.
    pub fn seal_all(&self) {
        self.flush();
        self.core.closed.store(true, Ordering::Relaxed);
    }

    /// Inserts the buffered run now instead of at the next automatic flush
    /// (run full, scheduler empty, `seal_all`, drop). A push that returned
    /// `Ok` is only buffered: while other traffic keeps the scheduler
    /// non-empty it stays in the run until one of those happens. A handle
    /// that stays alive while its producer waits — on a result, an event,
    /// or another producer's task that depends on what it pushed — must
    /// call this first (or drop). Waits at the shard watermark like any
    /// flush.
    pub fn flush(&self) {
        let mut run = self.run.borrow_mut();
        if run.is_empty() {
            return;
        }
        self.core.await_capacity();
        // Book, then publish: no worker can decide a task the ledger has
        // not counted.
        self.core.ledger.accept(run.len());
        self.core.sched.insert_batch(&run);
        run.clear();
    }
}

impl Drop for Producer<'_> {
    fn drop(&mut self) {
        self.flush();
        if self.core.open_producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.core.ledger.seal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_drained_requires_seal_and_balance() {
        let ledger = Ledger::new();
        assert!(!ledger.drained(), "unsealed ledger is never drained");
        ledger.accept(1);
        ledger.seal();
        assert!(!ledger.drained(), "one task in flight");
        ledger.decide(1);
        assert!(ledger.drained());
    }
}
