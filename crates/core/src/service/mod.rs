//! The streaming service front-end: live task ingestion over the sharded
//! scheduler substrate.
//!
//! Everything before this module is prefill-then-drain: the full task set is
//! bulk-loaded, workers race the scheduler to empty, the clock stops. The
//! paper's guarantees are stated *per pop*, so nothing about them requires
//! the task set to be closed — and the incremental-algorithms line assumes
//! tasks arrive over time. [`run_service`] is that shape:
//!
//! ```text
//!  N producers (each buffers a run, books it, insert_batch) ──►
//!      ShardedScheduler (live) ◄──► M workers (the same worker engine
//!      that runs the prefill executors)
//! ```
//!
//! The scheduler is the only concurrency boundary, and a run is the unit of
//! traffic through it in both directions.
//!
//! * **Producers** ([`Producer`]) are plain closures on their own threads
//!   and are their own pumps: [`Producer::push`] appends to a run the
//!   handle owns, and the producer accepts the run with the ledger and
//!   calls [`ConcurrentScheduler::insert_batch`] itself once the run holds
//!   [`ServiceConfig::flush_batch`] entries, or as soon as the scheduler's
//!   [`total_load`](SchedulerLoad::total_load) reads 0 (the workers are
//!   hungry — this is what keeps latency low at low rates), on
//!   [`Producer::seal_all`] or [`Producer::flush`], and when the handle
//!   drops. Nothing else moves a buffered run, so a handle that stays
//!   alive while its producer waits must call [`Producer::flush`]. Before
//!   it inserts, a flush waits while
//!   [`max_partition_load`](SchedulerLoad::max_partition_load) is at or
//!   above [`ServiceConfig::shard_watermark`], its thread parked on a
//!   waker that workers signal as they retire occupancy — the backpressure
//!   boundary: a saturated scheduler stalls its producers instead of
//!   ballooning.
//! * **Workers** run the exact engine of
//!   [`run_concurrent_batched`](crate::framework::run_concurrent_batched) —
//!   same pop and flush path, same counters, same affinity drift — with a
//!   streaming driver: tasks are dispatched to a [`RequestHandler`], whose
//!   follow-up submits join the run's failed deletes in the engine's one
//!   `insert_batch` per run, and termination is the ledger condition
//!   below. The prefill executors are the degenerate configuration of this
//!   engine (every task present at t = 0, producers sealed before the
//!   first pop), and
//!   [`concurrent_sssp`](crate::algorithms::sssp::concurrent_sssp) is this
//!   driver on a request set sealed before the first pop: no producer
//!   thread.
//!
//! # Graceful drain and exactly-once completion
//!
//! Shutdown is a wave: producers finish (or [`Producer::seal_all`] closes
//! ingestion and they see [`PushError::Sealed`]) → each handle flushes its
//! run as it drops → the last drop **seals** the ledger → workers drain
//! the scheduler → everyone joins. Termination is decided by the
//! [ledger](Ledger): `accepted` counts every task admitted (flushed
//! producer runs and handler follow-up submits), `decided` counts terminal
//! outcomes. Both sides accept a run strictly before the `insert_batch`
//! that makes it poppable; a worker decides after that accept. Because the
//! ledger seals only after the last flush, every push that returned `Ok`
//! is accepted before the books can balance. Once sealed and `decided ==
//! accepted`, no task is buffered, scheduled, or in a worker's hands, and
//! no future submit can occur — the condition is stable and the workers
//! exit. [`ServiceStats::exactly_once`] checks the books.
//!
//! # Liveness contract for blocking handlers
//!
//! A handler returning [`TaskOutcome::Blocked`] re-inserts; the blocked
//! task's dependency must itself reach the scheduler. Follow-up submits
//! bypass the watermark precisely so handler-created dependencies cannot
//! deadlock behind it. A producer-created dependency is safe when it comes
//! from the same producer no later than its dependents (its runs reach the
//! scheduler in push order). One that another producer pushes reaches the
//! scheduler only when that producer's run is flushed — and a re-inserted
//! dependent keeps the scheduler non-empty, so the hungry rule will not do
//! it. That producer must call [`Producer::flush`] (or drop its handle)
//! after the push, and the watermark must be left disabled (the default),
//! or the flush can park behind the blocked dependents; see DESIGN.md
//! "Service semantics".

mod handler;
mod ingest;

pub use crate::algorithms::sssp::SsspHandler;
pub use handler::{AlgorithmHandler, ConnectivityHandler, RequestHandler, SubmitCtx};
pub use ingest::{Ledger, Producer, PushError};

use crate::framework::concurrent::{run_engine, EngineDriver};
use crate::framework::TaskOutcome;
use crate::TaskId;
use ingest::ServiceCore;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use rsched_sync::atomic::{fence, AtomicBool, Ordering};
use rsched_sync::sync::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Tuning knobs of one [`run_service`] run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the scheduler (the `M` of N×M).
    pub workers: usize,
    /// Worker pop batch size; 1 is the scalar engine (see
    /// [`run_concurrent_batched`](crate::framework::run_concurrent_batched)
    /// for the batching-relaxation trade).
    pub batch_size: usize,
    /// Ignored; removed by ROADMAP queue entry (vii).
    pub ingest_queues: usize,
    /// Ignored; removed by ROADMAP queue entry (vii).
    pub queue_capacity: usize,
    /// Longest run a producer buffers before it inserts the run itself; it
    /// flushes sooner whenever the scheduler reads empty.
    pub flush_batch: usize,
    /// A flushing producer parks while any shard holds at least this many
    /// tasks; `usize::MAX` (the default) disables the watermark.
    pub shard_watermark: usize,
    /// Ignored; removed by ROADMAP queue entry (vii).
    pub pump_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            batch_size: 1,
            ingest_queues: 1,
            queue_capacity: 1024,
            flush_batch: 256,
            shard_watermark: usize::MAX,
            pump_threads: 1,
        }
    }
}

/// Outcome accounting of one [`run_service`] run ([`ConcurrentStats`]'s
/// streaming sibling — same pop taxonomy, plus the ledger).
///
/// [`ConcurrentStats`]: crate::stats::ConcurrentStats
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Tasks admitted: producer pushes plus handler follow-up submits.
    pub accepted: u64,
    /// Terminal outcomes (`Processed` + `Obsolete`).
    pub decided: u64,
    /// Pops that processed their task.
    pub processed: u64,
    /// Failed deletes: pops whose task was blocked and re-inserted.
    pub wasted: u64,
    /// Pops whose task was already decided.
    pub obsolete: u64,
    /// Total popped elements.
    pub total_pops: u64,
    /// Pops (or batch pops) that observed an empty scheduler.
    pub empty_pops: u64,
    /// Worker threads.
    pub workers: usize,
    /// Wall-clock time from service start to full drain.
    pub elapsed: Duration,
}

impl ServiceStats {
    /// Whether the ledger balances: every accepted task decided exactly
    /// once, and the decisions are exactly the processed + obsolete pops.
    pub fn exactly_once(&self) -> bool {
        self.decided == self.accepted && self.processed + self.obsolete == self.decided
    }
}

/// A producer body: receives its handle, pushes requests, returns when done
/// (dropping the handle flushes its run and retires it).
pub type ProducerFn<'env> = Box<dyn for<'p> FnOnce(Producer<'p>) + Send + 'env>;

/// Threads of producers parked on the shard watermark. `armed` is the
/// workers' fast path: they skip the mutex entirely until some producer has
/// registered. The SeqCst fences pair the producer's register→re-check with
/// the worker's drain→check (store-buffering shape): at least one side must
/// see the other, so a producer can never park against an already-drained
/// scheduler with nobody left to wake it.
#[derive(Debug, Default)]
#[doc(hidden)] // public only so the model-checker suite can drive it
pub struct CapacityWaiters {
    armed: AtomicBool,
    waiters: Mutex<Vec<Thread>>,
}

/// One side of the register→re-check / drain→check fence pair. The model
/// checker's seeded `capacity-weaken` mutation removes both fences *and*
/// drops the `armed` accesses to `Relaxed` (see
/// [`capacity_armed_ordering`]) — the no-lost-wakeup model test must then
/// find the parked-forever interleaving.
fn capacity_fence() {
    #[cfg(rsched_model)]
    if rsched_sync::model::mutation_enabled("capacity-weaken") {
        return;
    }
    // Store-buffering pair: register→re-check vs drain→check (see the
    // `CapacityWaiters` doc comment for the full argument).
    fence(Ordering::SeqCst);
}

/// Ordering of the `armed` flag accesses; `SeqCst` normally, `Relaxed`
/// under the `capacity-weaken` mutation. The downgrade matters because the
/// model gives SeqCst *accesses* the full fence-like strength of its
/// global SC view — armed alone at SeqCst would mask the fence removal.
fn capacity_armed_ordering() -> Ordering {
    #[cfg(rsched_model)]
    if rsched_sync::model::mutation_enabled("capacity-weaken") {
        return Ordering::Relaxed;
    }
    Ordering::SeqCst
}

impl CapacityWaiters {
    /// Registers `thread` for the next capacity wake. The caller must
    /// re-check its stall condition *after* this returns and only then
    /// park. A thread registered twice (a spurious wakeup before the next
    /// wake) is unparked twice, which is harmless.
    pub fn register(&self, thread: Thread) {
        rsched_obs::counter!("service_producer_park_total").inc();
        rsched_obs::instant!("producer_park");
        let mut ws = self.waiters.lock().unwrap();
        ws.push(thread);
        self.armed.store(true, capacity_armed_ordering());
        drop(ws);
        capacity_fence();
    }

    /// Unparks every registered producer (workers call this after runs that
    /// retired scheduler occupancy); returns how many it unparked.
    pub fn wake_all(&self) -> usize {
        capacity_fence();
        if !self.armed.load(capacity_armed_ordering()) {
            return 0;
        }
        let drained: Vec<Thread> = {
            let mut ws = self.waiters.lock().unwrap();
            self.armed.store(false, capacity_armed_ordering());
            std::mem::take(&mut *ws)
        };
        rsched_obs::counter!("service_producer_unpark_total").add(drained.len() as u64);
        drained.iter().for_each(Thread::unpark);
        drained.len()
    }
}

/// The streaming [`EngineDriver`]: dispatch goes to the request handler
/// (its submit capability wraps the worker's outgoing buffer), the ledger
/// moves once per run, termination is the ledger condition, and runs that
/// retire occupancy wake watermark-parked producers — `capacity` is `None`
/// on a sealed run or with the watermark disabled, where no producer can
/// park, so the runs skip `wake_all`'s fence.
struct ServiceDriver<'a, H> {
    handler: &'a H,
    ledger: &'a Ledger,
    capacity: Option<&'a CapacityWaiters>,
}

impl<H: RequestHandler> EngineDriver for ServiceDriver<'_, H> {
    fn keep_running(&self) -> bool {
        !self.ledger.drained()
    }

    fn dispatch(&self, priority: u64, task: TaskId, out: &mut Vec<(u64, TaskId)>) -> TaskOutcome {
        self.handler.handle(priority, task, &mut SubmitCtx { out })
    }

    fn book_run(&self, spawned: usize, decided: usize) {
        // Accept strictly before the engine's flush makes the follow-ups
        // poppable, decide strictly after the accept: `decided == accepted`
        // can then never be observed with work still in flight (see
        // [`Ledger`]). A zero is not worth the RMW on the line every
        // worker's `keep_running` reads.
        if spawned > 0 {
            self.ledger.accept(spawned);
        }
        if decided > 0 {
            self.ledger.decide(decided);
        }
    }

    fn after_run(&self, net_drained: usize) {
        match self.capacity {
            Some(capacity) if net_drained > 0 => {
                capacity.wake_all();
            }
            _ => {}
        }
    }
}

/// Run length of [`run_sealed`]'s workers: a constant, because its one
/// caller has one value. The sweep on `sssp_gnm`'s graph (G(n, m),
/// n = 300 000, m = 1 500 000, `t` = 2 on 2 vCPUs, `MultiQueue::new(8)`;
/// seconds per solve, and vertices processed per reachable vertex — what
/// the `O(k·s)` relaxation costs in re-expansions):
///
/// | `s` | solve, s | processed / reachable |
/// |---|---|---|
/// | 1 | 0.266–0.276 | 1.000 |
/// | 8 | 0.166–0.184 | 1.000–1.003 |
/// | 16 | 0.151–0.161 | 1.000–1.001 |
/// | 32 | 0.138–0.159 | 1.001–1.004 |
/// | 64 | 0.127–0.139 | 1.001–1.005 |
/// | 128 | 0.130–0.137 | 1.013–1.028 |
///
/// The time falls steeply to 32 and flattens after it; 64 doubles `k·s`
/// for a single-digit gain and at 128 the re-expansions start to climb
/// (DESIGN.md "Batching semantics").
const SEALED_RUN: usize = 32;

/// Drains a closed request set on the worker engine: `requests` are
/// accepted and inserted, the ledger is sealed, and `workers` engine
/// workers run the [`run_service`] driver in runs of [`SEALED_RUN`] pops
/// until every request and every follow-up it submitted is decided. The
/// streaming pipeline with nothing upstream of the scheduler — what a
/// task-spawning algorithm with a known seed set (e.g.
/// [`concurrent_sssp`](crate::algorithms::sssp::concurrent_sssp)) runs on.
/// The exactly-once audit after the join is an `assert!`: the builds anyone
/// times are release builds, and a worker that left early would hand back
/// wrong results silently.
///
/// # Panics
///
/// Panics if `workers == 0`, if `handler` panics, or if the ledger does not
/// balance after the drain.
pub(crate) fn run_sealed<H, S>(handler: &H, sched: &S, requests: &[(u64, TaskId)], workers: usize)
where
    H: RequestHandler,
    S: ConcurrentScheduler<TaskId>,
{
    let ledger = Ledger::new();
    ledger.accept(requests.len());
    sched.insert_batch(requests);
    ledger.seal();
    let driver = ServiceDriver { handler, ledger: &ledger, capacity: None };
    let totals = run_engine(&driver, sched, workers, SEALED_RUN);
    assert!(
        ledger.decided() == ledger.accepted()
            && totals.processed + totals.obsolete == ledger.decided(),
        "sealed run ledger out of balance: {totals:?}"
    );
}

/// Runs a streaming service to drain: spawns one thread per producer
/// closure and `config.workers` engine workers — producers flush their own
/// runs, so nothing else runs between them and the scheduler — and returns
/// when the last producer is done, its run flushed, the scheduler is
/// drained, and every thread has joined. See the [module docs](self) for
/// the architecture and the drain protocol.
///
/// The scheduler may be non-empty at start (pre-seeded state is fine); it
/// must however not contain tasks the ledger has not accepted — seed
/// through a producer instead.
///
/// # Panics
///
/// Panics if `workers`, `batch_size` or `flush_batch` is zero, or if a
/// producer closure or the handler panics. A handler panic stops every
/// worker, closes ingestion (later pushes return [`PushError::Sealed`]),
/// releases producers parked on the watermark, and is re-raised once the
/// producers have finished (DESIGN.md "Service semantics").
pub fn run_service<H, S>(
    handler: &H,
    sched: &S,
    config: &ServiceConfig,
    producers: Vec<ProducerFn<'_>>,
) -> ServiceStats
where
    H: RequestHandler,
    S: ConcurrentScheduler<TaskId> + SchedulerLoad,
{
    assert!(config.workers >= 1, "need at least one worker");
    assert!(config.batch_size >= 1, "need a positive batch size");
    assert!(config.flush_batch >= 1, "need a positive flush batch");
    let core = ServiceCore::new(sched, config, producers.len());
    let start = Instant::now();
    let totals = std::thread::scope(|scope| {
        for body in producers {
            let producer = Producer::new(&core);
            scope.spawn(move || body(producer));
        }
        let driver = ServiceDriver { handler, ledger: &core.ledger, capacity: core.waiters() };
        let engine =
            AssertUnwindSafe(|| run_engine(&driver, sched, config.workers, config.batch_size));
        // Inside the scope: it joins the producers before returning, and a
        // producer parked on the watermark waits on workers that no longer
        // exist.
        catch_unwind(engine).unwrap_or_else(|panic| {
            core.abort();
            resume_unwind(panic)
        })
    });
    rsched_obs::instant!("service_drained");
    let stats = ServiceStats {
        accepted: core.ledger.accepted(),
        decided: core.ledger.decided(),
        processed: totals.processed,
        wasted: totals.wasted,
        obsolete: totals.obsolete,
        total_pops: totals.pops,
        empty_pops: totals.empty,
        workers: config.workers,
        elapsed: start.elapsed(),
    };
    assert!(stats.exactly_once(), "service ledger out of balance: {stats:?}");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_queues::concurrent::MultiQueue;
    use rsched_queues::sharded::ShardedScheduler;
    use rsched_sync::atomic::{AtomicU32, AtomicU64};
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, HashSet};
    use std::sync::mpsc;
    use std::thread::ThreadId;

    /// Marks each task's completion count; `Processed` always.
    struct CountingHandler {
        hits: Vec<AtomicU32>,
    }

    impl CountingHandler {
        fn new(n: usize) -> Self {
            CountingHandler { hits: (0..n).map(|_| AtomicU32::new(0)).collect() }
        }
    }

    impl RequestHandler for CountingHandler {
        fn handle(&self, _priority: u64, task: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
            self.hits[task as usize].fetch_add(1, Ordering::SeqCst);
            TaskOutcome::Processed
        }
    }

    fn sched(shards: usize) -> ShardedScheduler<MultiQueue<TaskId>> {
        ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2))
    }

    #[test]
    fn streams_every_task_exactly_once() {
        let n = 2_000u32;
        let handler = CountingHandler::new(n as usize);
        let q = sched(3);
        let config = ServiceConfig { workers: 3, flush_batch: 64, ..Default::default() };
        let producers: Vec<ProducerFn<'_>> = (0..4u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    for t in (p..n).step_by(4) {
                        prod.push(t as u64, t).unwrap();
                    }
                }) as ProducerFn<'_>
            })
            .collect();
        let stats = run_service(&handler, &q, &config, producers);
        assert!(stats.exactly_once(), "{stats:?}");
        assert_eq!(stats.accepted, n as u64);
        assert!(handler.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_producers_drains_immediately() {
        let handler = CountingHandler::new(1);
        let q = sched(2);
        let stats = run_service(&handler, &q, &ServiceConfig::default(), Vec::new());
        assert!(stats.exactly_once());
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.total_pops, 0);
    }

    #[test]
    fn seal_all_rejects_later_pushes_but_completes_accepted_work() {
        let handler = CountingHandler::new(10);
        let q = sched(1);
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(|prod: Producer<'_>| {
            for t in 0..5u32 {
                prod.push(t as u64, t).unwrap();
            }
            prod.seal_all();
            assert_eq!(prod.push(5, 5), Err(PushError::Sealed));
        })];
        let stats = run_service(&handler, &q, &ServiceConfig::default(), producers);
        assert!(stats.exactly_once());
        assert_eq!(stats.accepted, 5, "sealed push must not be accepted");
        assert!((0..5).all(|t| handler.hits[t].load(Ordering::SeqCst) == 1));
        assert_eq!(handler.hits[5].load(Ordering::SeqCst), 0);
    }

    #[test]
    fn watermark_backpressure_still_drains() {
        // Short runs + a 4-task shard watermark force constant producer
        // parks; everything must still complete.
        let n = 1_000u32;
        let handler = CountingHandler::new(n as usize);
        let q = sched(2);
        let config =
            ServiceConfig { workers: 2, flush_batch: 4, shard_watermark: 4, ..Default::default() };
        let producers: Vec<ProducerFn<'_>> = (0..2u32)
            .map(|p| {
                Box::new(move |prod: Producer<'_>| {
                    for t in (p..n).step_by(2) {
                        prod.push(t as u64, t).unwrap();
                    }
                }) as ProducerFn<'_>
            })
            .collect();
        let stats = run_service(&handler, &q, &config, producers);
        assert!(stats.exactly_once(), "{stats:?}");
        assert_eq!(stats.accepted, n as u64);
        assert!(handler.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn handler_follow_up_submits_are_drained() {
        /// Each seed task `t < n/2` submits follow-up `t + n/2`.
        struct Chaining {
            n: u32,
            hits: Vec<AtomicU32>,
        }
        impl RequestHandler for Chaining {
            fn handle(&self, _p: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
                self.hits[task as usize].fetch_add(1, Ordering::SeqCst);
                if task < self.n / 2 {
                    ctx.submit(u64::from(task), task + self.n / 2);
                }
                TaskOutcome::Processed
            }
        }
        let n = 500u32;
        let handler = Chaining { n, hits: (0..n).map(|_| AtomicU32::new(0)).collect() };
        let q = sched(2);
        let producers: Vec<ProducerFn<'_>> = vec![Box::new(move |prod: Producer<'_>| {
            for t in 0..n / 2 {
                prod.push(t as u64, t).unwrap();
            }
        })];
        let stats = run_service(&handler, &q, &ServiceConfig::default(), producers);
        assert!(stats.exactly_once(), "{stats:?}");
        assert_eq!(stats.accepted, n as u64, "250 pushes + 250 follow-ups");
        assert!(handler.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    /// Runs `test` on a thread of its own and fails unless it returns
    /// within 30 s: the bugs these cases catch are hangs.
    fn within_watchdog(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        finished.recv_timeout(Duration::from_secs(30)).expect("panicked, or hung past 30 s");
    }

    /// One request in a run of 256 that never fills, from a producer that
    /// does not return — so its drop cannot flush — until the handler has
    /// seen the request: only the hungry scheduler's empty read flushes it.
    #[test]
    fn a_hungry_scheduler_flushes_a_short_run() {
        within_watchdog(|| {
            let handler = CountingHandler::new(1);
            let q = sched(2);
            let config = ServiceConfig { flush_batch: 256, ..Default::default() };
            let producers: Vec<ProducerFn<'_>> = vec![Box::new(|prod: Producer<'_>| {
                prod.push(0, 0).unwrap();
                while handler.hits[0].load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            })];
            let stats = run_service(&handler, &q, &config, producers);
            assert_eq!(stats.accepted, 1);
        });
    }

    /// One mutexed heap whose load never reads 0: producers never see
    /// hungry workers, so a run stays buffered until it fills, is sealed,
    /// or its handle drops. Counts the pops that found it empty.
    #[derive(Default)]
    struct NeverHungry {
        heap: std::sync::Mutex<BinaryHeap<Reverse<(u64, TaskId)>>>,
        empty_pops: AtomicU64,
    }

    impl ConcurrentScheduler<TaskId> for NeverHungry {
        fn insert(&self, priority: u64, task: TaskId) {
            self.heap.lock().unwrap().push(Reverse((priority, task)));
        }
        fn pop(&self) -> Option<(u64, TaskId)> {
            let popped = self.heap.lock().unwrap().pop().map(|Reverse(e)| e);
            self.empty_pops.fetch_add(u64::from(popped.is_none()), Ordering::SeqCst);
            popped
        }
    }

    impl SchedulerLoad for NeverHungry {
        fn total_load(&self) -> usize {
            self.heap.lock().unwrap().len() + 1
        }
        fn max_partition_load(&self) -> usize {
            self.heap.lock().unwrap().len()
        }
    }

    /// Producer A holds ten unflushed pushes while producer B pushes ten
    /// and seals: every `Ok` push is decided exactly once, every later push
    /// is refused, and `accepted` counts exactly the `Ok`s. A keeps its run
    /// until the workers, done with B's run, have come back empty-handed
    /// 64 times: had `seal_all` sealed the ledger, it would read drained
    /// with A's run unaccepted, the workers would leave, and the wait would
    /// hang.
    #[test]
    fn seal_all_keeps_another_producers_buffered_run() {
        within_watchdog(|| {
            let handler = CountingHandler::new(40);
            let q = NeverHungry::default();
            let (buffered, a_buffered) = mpsc::channel();
            let (sealed, b_sealed) = mpsc::channel();
            let oks = AtomicU64::new(0);
            let push = |prod: &Producer<'_>, t: TaskId| {
                let ok = prod.push(u64::from(t), t).is_ok();
                oks.fetch_add(u64::from(ok), Ordering::SeqCst);
                ok
            };
            let (push, hits, q_ref) = (&push, &handler.hits, &q);
            let producers: Vec<ProducerFn<'_>> = vec![
                Box::new(move |prod: Producer<'_>| {
                    assert!((0..10).all(|t| push(&prod, t)));
                    buffered.send(()).unwrap();
                    b_sealed.recv().unwrap();
                    while hits[20..30].iter().any(|h| h.load(Ordering::SeqCst) == 0) {
                        std::thread::yield_now();
                    }
                    let seen = q_ref.empty_pops.load(Ordering::SeqCst);
                    while q_ref.empty_pops.load(Ordering::SeqCst) < seen + 64 {
                        std::thread::yield_now();
                    }
                    assert!((10..20).all(|t| !push(&prod, t)));
                }),
                Box::new(move |prod: Producer<'_>| {
                    a_buffered.recv().unwrap();
                    assert!((20..30).all(|t| push(&prod, t)));
                    prod.seal_all();
                    sealed.send(()).unwrap();
                    assert!((30..40).all(|t| !push(&prod, t)));
                }),
            ];
            let stats = run_service(&handler, &q, &ServiceConfig::default(), producers);
            assert!(stats.exactly_once(), "{stats:?}");
            assert_eq!((stats.accepted, oks.load(Ordering::SeqCst)), (20, 20));
            for (t, hits) in handler.hits.iter().enumerate() {
                let ok = (0..10).contains(&t) || (20..30).contains(&t);
                assert_eq!(hits.load(Ordering::SeqCst), u32::from(ok), "task {t}");
            }
        });
    }

    /// Task 1 is `Blocked` until task 0 has been handled.
    struct OneWaitsForZero {
        hits: [AtomicU32; 2],
        blocked: AtomicU32,
    }

    impl RequestHandler for OneWaitsForZero {
        fn handle(&self, _p: u64, task: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
            if task == 1 && self.hits[0].load(Ordering::SeqCst) == 0 {
                self.blocked.fetch_add(1, Ordering::SeqCst);
                return TaskOutcome::Blocked;
            }
            self.hits[task as usize].fetch_add(1, Ordering::SeqCst);
            TaskOutcome::Processed
        }
    }

    /// Producer B's task 1 depends on producer A's task 0 and is already
    /// bouncing off the scheduler as `Blocked` when A pushes 0 and waits
    /// for it to be handled. A re-inserted dependent keeps the load off 0
    /// (here the load never reads 0), so no automatic flush moves A's run:
    /// without A's explicit `flush` the wait hangs.
    #[test]
    fn a_waiting_producer_flushes_a_dependency_itself() {
        within_watchdog(|| {
            let handler = OneWaitsForZero {
                hits: [AtomicU32::new(0), AtomicU32::new(0)],
                blocked: AtomicU32::new(0),
            };
            let q = NeverHungry::default();
            let h = &handler;
            let producers: Vec<ProducerFn<'_>> = vec![
                Box::new(move |prod: Producer<'_>| {
                    while h.blocked.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    prod.push(0, 0).unwrap();
                    prod.flush();
                    while h.hits[0].load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                }),
                Box::new(|prod: Producer<'_>| prod.push(1, 1).unwrap()),
            ];
            let stats = run_service(&handler, &q, &ServiceConfig::default(), producers);
            assert!(stats.exactly_once(), "{stats:?}");
            assert_eq!((stats.accepted, stats.processed), (2, 2));
            assert!(stats.wasted >= 1, "{stats:?}");
        });
    }

    /// One logged call, in the calling thread's own sequence.
    #[derive(Debug, PartialEq)]
    enum Ev {
        /// One `pop_batch` and the tasks it returned (none: an empty
        /// observation).
        Pop(Vec<TaskId>),
        /// One `handle`: what it submitted and whether it blocked.
        Handled { task: TaskId, blocked: bool, spawned: Vec<TaskId> },
        /// One `insert_batch` and the tasks it carried.
        Insert(Vec<TaskId>),
    }

    #[derive(Default)]
    struct OpLog(std::sync::Mutex<HashMap<ThreadId, Vec<Ev>>>);

    impl OpLog {
        fn push(&self, ev: Ev) {
            self.0.lock().unwrap().entry(std::thread::current().id()).or_default().push(ev);
        }
    }

    /// An exact heap that logs every call, refuses the scalar `insert`, and
    /// checks at every `insert_batch` that the ledger has already accepted
    /// every distinct task ever inserted, this batch included — a failed
    /// delete coming back is not a new accept.
    struct AuditedHeap<'a> {
        ledger: &'a Ledger,
        log: &'a OpLog,
        heap: std::sync::Mutex<BinaryHeap<Reverse<(u64, TaskId)>>>,
        inserted: std::sync::Mutex<HashSet<TaskId>>,
    }

    impl ConcurrentScheduler<TaskId> for AuditedHeap<'_> {
        fn insert(&self, _priority: u64, task: TaskId) {
            panic!("scalar insert of task {task} on the engine path");
        }
        fn insert_batch(&self, entries: &[(u64, TaskId)]) {
            self.log.push(Ev::Insert(entries.iter().map(|e| e.1).collect()));
            let mut inserted = self.inserted.lock().unwrap();
            inserted.extend(entries.iter().map(|e| e.1));
            assert!(
                self.ledger.accepted() >= inserted.len() as u64,
                "{} tasks poppable, {} accepted",
                inserted.len(),
                self.ledger.accepted()
            );
            self.heap.lock().unwrap().extend(entries.iter().copied().map(Reverse));
        }
        fn pop(&self) -> Option<(u64, TaskId)> {
            let mut out = Vec::new();
            self.pop_batch(&mut out, 1);
            out.pop()
        }
        fn pop_batch(&self, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
            let mut heap = self.heap.lock().unwrap();
            let before = out.len();
            out.extend(std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e)).take(max));
            self.log.push(Ev::Pop(out[before..].iter().map(|e| e.1).collect()));
            out.len() - before
        }
    }

    /// A complete binary tree of `size` tasks: task `t` spawns `2t + 1` and
    /// `2t + 2`. A task divisible by 7 submits its first child and blocks,
    /// and submits the rest when it is popped again.
    struct TreeHandler<'a> {
        size: u32,
        visits: Vec<AtomicU32>,
        terminal: Vec<AtomicU32>,
        log: &'a OpLog,
    }

    impl RequestHandler for TreeHandler<'_> {
        fn handle(&self, _p: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
            let visit = self.visits[task as usize].fetch_add(1, Ordering::SeqCst);
            let kids: Vec<TaskId> =
                [2 * task + 1, 2 * task + 2].into_iter().filter(|&k| k < self.size).collect();
            let (first, rest) = kids.split_at(kids.len().min(1));
            let (spawned, blocked) = match (task.is_multiple_of(7), visit) {
                (true, 0) => (first, true),
                (true, _) => (rest, false),
                (false, _) => (&kids[..], false),
            };
            for &kid in spawned {
                ctx.submit(u64::from(kid), kid);
            }
            self.log.push(Ev::Handled { task, blocked, spawned: spawned.to_vec() });
            if blocked {
                return TaskOutcome::Blocked;
            }
            self.terminal[task as usize].fetch_add(1, Ordering::SeqCst);
            TaskOutcome::Processed
        }
    }

    /// The real engine under the real driver, op by op: every worker's
    /// sequence is (pop a run, handle each task, at most one `insert_batch`
    /// carrying exactly what the run submitted and blocked on), the ledger
    /// is ahead of the scheduler at every insert, and the books close on
    /// the tree size.
    #[test]
    fn a_run_goes_back_in_one_insert_batch_after_its_accept() {
        let size = 511u32;
        for (threads, batch) in [(1, 1), (1, 8), (1, 32), (4, 1), (4, 8), (4, 32)] {
            let (ledger, log) = (Ledger::new(), OpLog::default());
            let q = AuditedHeap {
                ledger: &ledger,
                log: &log,
                heap: Default::default(),
                inserted: Default::default(),
            };
            let handler = TreeHandler {
                size,
                visits: (0..size).map(|_| AtomicU32::new(0)).collect(),
                terminal: (0..size).map(|_| AtomicU32::new(0)).collect(),
                log: &log,
            };
            ledger.accept(1);
            q.insert_batch(&[(0, 0)]);
            ledger.seal();
            let driver = ServiceDriver { handler: &handler, ledger: &ledger, capacity: None };
            let totals = run_engine(&driver, &q, threads, batch);

            let at = format!("threads={threads} batch={batch}");
            let blockers = (0..size).filter(|t| t.is_multiple_of(7)).count() as u64;
            assert_eq!((ledger.accepted(), ledger.decided()), (size as u64, size as u64), "{at}");
            assert_eq!((totals.processed, totals.wasted), (size as u64, blockers), "{at}");
            assert!(handler.terminal.iter().all(|t| t.load(Ordering::SeqCst) == 1), "{at}");
            assert!(q.heap.lock().unwrap().is_empty(), "{at}");

            let mut log = log.0.lock().unwrap();
            let seed = log.remove(&std::thread::current().id());
            assert_eq!(seed, Some(vec![Ev::Insert(vec![0])]), "{at}");
            assert!(log.len() <= threads, "{at}");
            let mut longest = 0;
            for evs in log.values() {
                let mut evs = evs.iter();
                while let Some(ev) = evs.next() {
                    let Ev::Pop(run) = ev else { panic!("{at}: {ev:?} outside a run") };
                    assert!(run.len() <= batch, "{at}");
                    longest = longest.max(run.len());
                    let mut outgoing = Vec::new();
                    for popped in run {
                        match evs.next() {
                            Some(Ev::Handled { task, blocked, spawned }) if task == popped => {
                                outgoing.extend(spawned);
                                outgoing.extend(blocked.then_some(*task));
                            }
                            other => panic!("{at}: popped {popped}, then {other:?}"),
                        }
                    }
                    if !outgoing.is_empty() {
                        assert_eq!(evs.next(), Some(&Ev::Insert(outgoing)), "{at}");
                    }
                }
            }
            assert!(batch == 1 || longest > 1, "{at}: no run ever held two tasks");
        }
    }
}
