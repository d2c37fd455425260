//! Ingestion side of the streaming service: bounded MPMC queues, producer
//! handles, and the exactly-once completion ledger.
//!
//! A [`Producer`] pushes `(priority, task)` requests into its assigned
//! [`IngestQueue`]; an async *pump* (one per queue, see the module docs of
//! [`crate::service`]) drains the queue in batches into the shared
//! scheduler. The queue is the backpressure boundary: `push` blocks while
//! the queue is at capacity, so a stalled pump (shard high watermark) backs
//! up into the producers. Sealing is sticky and layered — a queue seals when
//! its last producer drops or on an explicit [`Producer::seal_all`]; the
//! [`Ledger`] seals when every queue has sealed.

use crate::TaskId;
use rsched_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::task::Waker;

/// The exactly-once completion ledger: two monotone counters whose equality
/// (once producers are sealed) is the service's termination condition.
///
/// `accepted` counts every task admitted into the system — producer pushes
/// (incremented inside the queue's critical section, so acceptance and
/// enqueue are atomic with respect to the pump) and handler follow-up
/// submits (one `accept(n)` per worker run, **before** the `insert_batch`
/// that makes the run's follow-ups poppable). `decided` counts terminal
/// outcomes (`Processed` or `Obsolete`; a `Blocked` re-insert is not a
/// decision), one `decide(n)` per run, after that run's accept. A follow-up
/// only exists while the parent that submitted it is still unbooked, and
/// nobody can pop — let alone decide — a follow-up before it is accepted, so
/// `decided == accepted` implies no task is in flight *and* no future
/// accept can occur once sealed — the condition is stable, so workers may
/// exit the moment they observe it. Publishing a follow-up before accepting
/// it breaks exactly this: another worker pops and decides the child, the
/// books read 1 == 1 with the parent still in hand
/// (`tests/model_service.rs` finds the interleaving).
#[derive(Debug, Default)]
#[doc(hidden)] // public only so the model-checker suite can drive it
pub struct Ledger {
    accepted: AtomicU64,
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
        self.decided.fetch_add(n as u64, Ordering::SeqCst);
    }

    /// Marks the producer side closed for good (idempotent, sticky).
    pub fn seal(&self) {
        if !self.sealed.swap(true, Ordering::SeqCst) {
            // Seal-wave timeline: the ledger seals once, after every queue.
            rsched_obs::instant!("ledger_seal");
        }
    }

    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    pub fn decided(&self) -> u64 {
        self.decided.load(Ordering::SeqCst)
    }

    /// The termination predicate: sealed and balanced. Read order matters —
    /// `decided` before `accepted`. Both are monotone and `decided ≤
    /// accepted` always holds, so if the earlier `decided` read equals the
    /// later `accepted` read, both counters held that common value at the
    /// instant of the `accepted` read: the books balanced at a real moment
    /// in time, and (sealed being sticky) stay balanced forever.
    pub fn drained(&self) -> bool {
        self.sealed.load(Ordering::SeqCst) && self.decided() == self.accepted()
    }
}

/// Error returned by [`Producer::push`] once the service stopped accepting
/// new work (explicit [`Producer::seal_all`], or the producer's queue was
/// sealed). The rejected task is **not** accepted: it never counts against
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

struct QueueInner {
    entries: VecDeque<(u64, TaskId)>,
    /// Producers currently assigned to this queue and not yet dropped.
    open_producers: usize,
    /// Sticky: set when the last producer drops or on explicit seal.
    sealed: bool,
    /// The pump's waker, registered when it observed the queue empty.
    pump: Option<Waker>,
}

/// What [`IngestQueue::take_batch`] observed.
pub(crate) enum TakeStatus {
    /// At least one entry was moved into the caller's buffer.
    Took,
    /// Empty but not sealed; the pump's waker was registered.
    Pending,
    /// Empty and sealed: no entry will ever arrive again.
    Drained,
}

/// One bounded MPMC ingestion queue (mutex + condvar for the blocking
/// producer side, a registered [`Waker`] for the async pump side).
#[derive(Debug)]
pub(crate) struct IngestQueue {
    inner: Mutex<QueueInner>,
    /// Signaled when entries leave the queue or the queue seals — what
    /// producers blocked on a full queue wait on.
    space: Condvar,
    capacity: usize,
    /// Live buffered-entry gauge (`service_ingest_depth{queue="i"}`); a ZST
    /// unless the `obs` feature is on.
    depth: rsched_obs::Gauge,
}

impl fmt::Debug for QueueInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueInner")
            .field("len", &self.entries.len())
            .field("open_producers", &self.open_producers)
            .field("sealed", &self.sealed)
            .finish()
    }
}

impl IngestQueue {
    /// A queue with room for `capacity` buffered entries, expecting
    /// `producers` handles (zero producers seals it immediately). `index`
    /// names the queue's depth gauge in the metrics registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize, producers: usize, index: usize) -> Self {
        assert!(capacity >= 1, "need a positive ingestion capacity");
        // `ENABLED` is const, so the name `format!` folds away by default.
        let depth = if rsched_obs::ENABLED {
            rsched_obs::gauge(&format!(r#"service_ingest_depth{{queue="{index}"}}"#))
        } else {
            rsched_obs::gauge("")
        };
        IngestQueue {
            inner: Mutex::new(QueueInner {
                entries: VecDeque::new(),
                open_producers: producers,
                sealed: producers == 0,
                pump: None,
            }),
            space: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// Blocking bounded push; the ledger accept happens inside the critical
    /// section, so the pump can never flush a task the ledger has not yet
    /// counted.
    pub(crate) fn push(
        &self,
        priority: u64,
        task: TaskId,
        ledger: &Ledger,
    ) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.sealed {
                return Err(PushError::Sealed);
            }
            if inner.entries.len() < self.capacity {
                break;
            }
            inner = self.space.wait(inner).unwrap();
        }
        inner.entries.push_back((priority, task));
        ledger.accept(1);
        self.depth.add(1);
        let waker = inner.pump.take();
        drop(inner);
        if let Some(w) = waker {
            w.wake();
        }
        Ok(())
    }

    /// Moves up to `max` entries into `out` (FIFO — arrival order is
    /// preserved through to the scheduler insert). On an empty-but-open
    /// queue, registers `waker` so the next push or seal re-polls the pump;
    /// the register-then-report-pending order plus wake-on-push makes lost
    /// wakeups impossible.
    pub(crate) fn take_batch(
        &self,
        out: &mut Vec<(u64, TaskId)>,
        max: usize,
        waker: &Waker,
    ) -> TakeStatus {
        let mut inner = self.inner.lock().unwrap();
        if inner.entries.is_empty() {
            if inner.sealed {
                return TakeStatus::Drained;
            }
            inner.pump = Some(waker.clone());
            return TakeStatus::Pending;
        }
        let n = inner.entries.len().min(max);
        out.extend(inner.entries.drain(..n));
        drop(inner);
        self.depth.sub(n as i64);
        // Room just opened up: release producers blocked on capacity.
        self.space.notify_all();
        TakeStatus::Took
    }

    /// Sticky seal: rejects future pushes, releases blocked pushers, and
    /// wakes the pump so it can run its drain to completion.
    pub(crate) fn seal(&self) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.sealed {
            rsched_obs::instant!("queue_seal");
            rsched_obs::counter!("service_queue_seal_total").inc();
        }
        inner.sealed = true;
        let waker = inner.pump.take();
        drop(inner);
        self.space.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// One producer handle dropped; the last one out seals the queue.
    /// Returns whether this call sealed it.
    pub(crate) fn release_producer(&self) -> bool {
        let sealed_now = {
            let mut inner = self.inner.lock().unwrap();
            inner.open_producers -= 1;
            if inner.open_producers == 0 && !inner.sealed {
                inner.sealed = true;
                rsched_obs::instant!("queue_seal");
                rsched_obs::counter!("service_queue_seal_total").inc();
                true
            } else {
                false
            }
        };
        if sealed_now {
            // Re-lock briefly to grab the waker; cheaper than holding the
            // lock across the wake.
            let waker = self.inner.lock().unwrap().pump.take();
            self.space.notify_all();
            if let Some(w) = waker {
                w.wake();
            }
        }
        sealed_now
    }

    /// Current buffered entry count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::task::Wake;

    struct Flag(AtomicBool);
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn flag_waker() -> (Waker, Arc<Flag>) {
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        (Waker::from(flag.clone()), flag)
    }

    #[test]
    fn push_take_roundtrip_preserves_fifo() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(8, 1, 0);
        for i in 0..5u32 {
            q.push(i as u64, i, &ledger).unwrap();
        }
        assert_eq!(ledger.accepted(), 5);
        let (waker, _) = flag_waker();
        let mut out = Vec::new();
        assert!(matches!(q.take_batch(&mut out, 3, &waker), TakeStatus::Took));
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn sealed_queue_rejects_push_without_accepting() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(4, 1, 0);
        q.seal();
        assert_eq!(q.push(1, 1, &ledger), Err(PushError::Sealed));
        assert_eq!(ledger.accepted(), 0, "rejected push must not count");
    }

    #[test]
    fn empty_open_queue_registers_waker_and_push_wakes() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(4, 1, 0);
        let (waker, flag) = flag_waker();
        let mut out = Vec::new();
        assert!(matches!(q.take_batch(&mut out, 4, &waker), TakeStatus::Pending));
        assert!(!flag.0.load(Ordering::SeqCst));
        q.push(7, 7, &ledger).unwrap();
        assert!(flag.0.load(Ordering::SeqCst), "push must wake the registered pump");
    }

    #[test]
    fn last_producer_release_seals_and_wakes() {
        let q = IngestQueue::new(4, 2, 0);
        let (waker, flag) = flag_waker();
        let mut out = Vec::new();
        assert!(matches!(q.take_batch(&mut out, 4, &waker), TakeStatus::Pending));
        assert!(!q.release_producer());
        assert!(!flag.0.load(Ordering::SeqCst));
        assert!(q.release_producer());
        assert!(flag.0.load(Ordering::SeqCst), "seal must wake the pump");
        assert!(matches!(q.take_batch(&mut out, 4, &waker), TakeStatus::Drained));
    }

    #[test]
    fn full_queue_blocks_until_drained() {
        let ledger = Ledger::new();
        let q = IngestQueue::new(2, 1, 0);
        q.push(0, 0, &ledger).unwrap();
        q.push(1, 1, &ledger).unwrap();
        std::thread::scope(|s| {
            let pusher = s.spawn(|| q.push(2, 2, &ledger));
            // Give the pusher time to block on the full queue, then drain.
            std::thread::sleep(std::time::Duration::from_millis(20));
            let (waker, _) = flag_waker();
            let mut out = Vec::new();
            assert!(matches!(q.take_batch(&mut out, 1, &waker), TakeStatus::Took));
            assert_eq!(out.len(), 1);
            assert_eq!(pusher.join().unwrap(), Ok(()));
        });
        assert_eq!(q.len(), 2);
        assert_eq!(ledger.accepted(), 3);
    }

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
