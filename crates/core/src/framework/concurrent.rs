//! The concurrent relaxed executor: worker threads share a relaxed
//! scheduler, re-inserting blocked tasks and dropping obsolete ones.
//!
//! One worker **engine** ([`worker_loop`]) drives every configuration: it
//! pops a run of up to `batch_size` tasks, processes them, and returns the
//! run's failed deletes — and whatever tasks the run spawned — in one
//! `insert_batch`; the scalar executor is the `batch_size == 1` case. Each
//! worker carries a stable `worker_id` that is passed to the scheduler's
//! [`ConcurrentScheduler::pop_purging_for`], so
//! partitioned schedulers (e.g. `rsched_queues::sharded::ShardedScheduler`)
//! can pin the worker to an affinity shard; monolithic schedulers ignore
//! the hint by default. The same call hands the scheduler
//! [`ConcurrentAlgorithm::is_obsolete`], so a scheduler that can purge
//! drops already-decided tasks where it finds them instead of returning
//! each through a pop of its own (DESIGN.md "Purging semantics").

use super::{ConcurrentAlgorithm, TaskOutcome};
use crate::stats::ConcurrentStats;
use crate::TaskId;
use crossbeam::utils::Backoff;
use rsched_graph::Permutation;
use rsched_queues::ConcurrentScheduler;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Chunk size used by [`fill_scheduler`]'s bulk load: large enough to
/// amortize per-batch synchronization, small enough that the staging buffer
/// stays cache-resident.
const FILL_CHUNK: usize = 1024;

/// Loads every task into `sched` with its permutation label as priority,
/// bulk-loading through [`ConcurrentScheduler::insert_batch`] in chunks of
/// [`FILL_CHUNK`].
///
/// Schedulers with a bulk-load constructor (e.g.
/// `LockFreeMultiQueue::prefilled`) can be filled at construction instead;
/// [`run_concurrent`] only requires that all `n` tasks are in the scheduler
/// when it starts.
pub fn fill_scheduler<S>(sched: &S, pi: &Permutation)
where
    S: ConcurrentScheduler<TaskId>,
{
    let n = pi.len() as u32;
    let mut buf: Vec<(u64, TaskId)> = Vec::with_capacity(FILL_CHUNK.min(n as usize));
    for v in 0..n {
        buf.push((pi.label(v) as u64, v));
        if buf.len() == FILL_CHUNK {
            sched.insert_batch(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        sched.insert_batch(&buf);
    }
}

/// Engine counters: each worker counts into its own copy and returns it
/// from its join handle; [`run_workers`] sums them. The shared core of
/// [`ConcurrentStats`] and the service's stats.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EngineTotals {
    pub pops: u64,
    pub processed: u64,
    pub wasted: u64,
    pub obsolete: u64,
    pub purged: u64,
    pub empty: u64,
}

impl std::ops::AddAssign for EngineTotals {
    fn add_assign(&mut self, c: Self) {
        self.pops += c.pops;
        self.processed += c.processed;
        self.wasted += c.wasted;
        self.obsolete += c.obsolete;
        self.purged += c.purged;
        self.empty += c.empty;
    }
}

/// Set when a worker of [`run_workers`] unwinds. A task whose processing
/// step panicked is never decided, so nothing its dependants or a driver's
/// [`EngineDriver::keep_running`] wait for would ever happen: the surviving
/// workers read this flag where they would otherwise wait and leave, and
/// [`run_workers`] re-raises the panic once all of them have joined.
/// `Relaxed` both ways — the flag publishes nothing but itself.
struct PoisonOnUnwind<'a>(&'a AtomicBool);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// What a worker does between pops: the *workload half* of the engine.
///
/// [`worker_loop`] owns popping, the one outgoing buffer a run fills
/// (spawned tasks and failed deletes) and its flush, backoff, counters, and
/// affinity drift; the driver supplies termination, the per-task processing
/// step and the per-run bookkeeping. Two drivers exist: [`PrefillDriver`]
/// (the classic run-to-empty executors — terminate when the algorithm's
/// remaining-task counter hits zero) and the service's driver in
/// `crate::service` (terminate when the request set is sealed and the
/// completion ledger balances — streaming runs and sealed ones alike).
pub(crate) trait EngineDriver: Sync {
    /// Whether workers should keep popping. Checked before every run; must
    /// eventually become `false` and, once `false`, stay `false` (workers
    /// race through it independently).
    fn keep_running(&self) -> bool;

    /// Processes one popped task. Tasks it spawns are pushed onto `out`,
    /// the worker's outgoing buffer: the engine inserts them with the run's
    /// failed deletes when the run ends, whatever the outcome returned. A
    /// [`TaskOutcome::Blocked`] return makes the engine hand the task back
    /// to the scheduler at its original priority; the driver must not
    /// re-insert it itself.
    fn dispatch(&self, priority: u64, task: TaskId, out: &mut Vec<(u64, TaskId)>) -> TaskOutcome;

    /// Whether the scheduler may discard `task`'s entry unseen; the
    /// contract is [`ConcurrentAlgorithm::is_obsolete`]'s. A driver that
    /// accounts for a task in [`EngineDriver::dispatch`] keeps the default.
    fn is_obsolete(&self, task: TaskId) -> bool {
        let _ = task;
        false
    }

    /// Called once per nonempty run, **before** the run's outgoing buffer
    /// is flushed: `spawned` tasks were pushed by the run's dispatches and
    /// `decided` dispatches returned a terminal outcome. The order is the
    /// driver's to rely on — no spawned task is poppable until this
    /// returns (DESIGN.md "Service semantics", graceful drain).
    fn book_run(&self, spawned: usize, decided: usize) {
        let _ = (spawned, decided);
    }

    /// Called once per nonempty run, after the run's outgoing buffer is
    /// flushed. `net_drained` is pops and purges minus inserts — how much
    /// scheduler occupancy the run retired, 0 for a run that spawned more
    /// than it retired. The service driver uses it to wake producers parked
    /// on the shard high watermark.
    fn after_run(&self, net_drained: usize) {
        let _ = net_drained;
    }
}

/// The run-to-empty driver: dispatch is the algorithm's `try_process`,
/// termination its remaining-task counter.
pub(crate) struct PrefillDriver<'a, A>(pub &'a A);

impl<A: ConcurrentAlgorithm> EngineDriver for PrefillDriver<'_, A> {
    fn keep_running(&self) -> bool {
        self.0.remaining() > 0
    }

    fn dispatch(&self, _priority: u64, task: TaskId, _out: &mut Vec<(u64, TaskId)>) -> TaskOutcome {
        self.0.try_process(task)
    }

    fn is_obsolete(&self, task: TaskId) -> bool {
        self.0.is_obsolete(task)
    }
}

/// The worker engine: pops a run of up to `batch_size` tasks with one
/// `pop_purging_for`, dispatches each task to the `driver`, and returns
/// the run's outgoing buffer — the tasks the run spawned and its failed
/// deletes — in one `insert_batch` (at `batch_size == 1` that is the scalar
/// executor's op order: pop, process, conditional insert; the engine never
/// calls the scalar `insert`). Everything the driver hears about a run it
/// hears once: [`EngineDriver::book_run`] before the flush,
/// [`EngineDriver::after_run`] after it; outcome counters and the obs
/// probes are tallied in the run's locals and land once per run too. The
/// worker spins briefly on empty observations (a blocked task may be in
/// another worker's hands, about to be re-inserted). Tasks the scheduler
/// purged on the way count as obsolete pops, and a call that only purged is
/// a run like any other: progress, not an empty observation. Termination is by
/// [`EngineDriver::keep_running`], never scheduler emptiness — dead MIS
/// vertices may still sit in the queue when a prefill run completes, and a
/// streaming scheduler is *expected* to sit empty between arrivals. A
/// panicking `dispatch` drops the run's buffer with the run: nothing in it
/// was booked or inserted.
fn worker_loop<D, S>(
    driver: &D,
    sched: &S,
    worker: usize,
    batch_size: usize,
    poisoned: &AtomicBool,
) -> EngineTotals
where
    D: EngineDriver,
    S: ConcurrentScheduler<TaskId>,
{
    let mut c = EngineTotals::default();
    let backoff = Backoff::new();
    let mut run: Vec<(u64, TaskId)> = Vec::with_capacity(batch_size);
    let mut out: Vec<(u64, TaskId)> = Vec::with_capacity(batch_size);
    // Adaptive affinity: a run with zero progress (every popped task
    // blocked) means this worker is ahead of the dependency frontier — the
    // tasks its scheduler partition serves are waiting on tasks housed
    // elsewhere. The hint drifts one partition forward per stuck run and
    // *stays* wherever runs make progress (sticky — deliberately never
    // snapping back to `worker`, which re-blocks immediately when the home
    // shard is ahead; on the 1-CPU figure2 quick/sparse MIS at s=4, t=1,
    // extra iterations measured ~691k with no drift, ~131k with snap-back
    // drift, ~1.4k with sticky drift). Workers chase the frontier
    // instead of churning failed deletes in place; for monolithic
    // schedulers the hint is ignored and the drift is free.
    let mut hint = worker;
    while !poisoned.load(Ordering::Relaxed) && driver.keep_running() {
        run.clear();
        let (got, purged) =
            sched.pop_purging_for(hint, &mut run, batch_size, |_, &task| driver.is_obsolete(task));
        if got + purged == 0 {
            c.empty += 1;
            rsched_obs::counter!(r#"engine_pop_total{outcome="empty"}"#).inc();
            backoff.snooze();
            continue;
        }
        backoff.reset();
        let _run_span = rsched_obs::span!("engine_run");
        rsched_obs::hist!("engine_run_batch_size").record(got as u64);
        let t0 = rsched_obs::now_ns();
        let (mut processed, mut blocked) = (0usize, 0usize);
        for &(priority, v) in &run {
            match driver.dispatch(priority, v, &mut out) {
                TaskOutcome::Processed => processed += 1,
                TaskOutcome::Blocked => {
                    blocked += 1;
                    out.push((priority, v));
                }
                TaskOutcome::Obsolete => {}
            }
        }
        rsched_obs::hist!("engine_run_service_ns").record(rsched_obs::now_ns().saturating_sub(t0));
        let obsolete = got - processed - blocked;
        c.pops += (got + purged) as u64;
        c.processed += processed as u64;
        c.wasted += blocked as u64;
        c.obsolete += (obsolete + purged) as u64;
        c.purged += purged as u64;
        // A zero `add` is still an RMW when the probes are compiled in.
        if processed > 0 {
            rsched_obs::counter!(r#"engine_pop_total{outcome="success"}"#).add(processed as u64);
        }
        if blocked > 0 {
            rsched_obs::counter!(r#"engine_pop_total{outcome="blocked"}"#).add(blocked as u64);
        }
        if obsolete + purged > 0 {
            rsched_obs::counter!(r#"engine_pop_total{outcome="obsolete"}"#)
                .add((obsolete + purged) as u64);
        }
        // Purged tasks were decided and counted by whoever made them
        // obsolete (`ConcurrentAlgorithm::is_obsolete`); the run decided
        // only what it dispatched.
        driver.book_run(out.len() - blocked, processed + obsolete);
        if !out.is_empty() {
            // Everything the run sends back goes in one synchronization
            // round-trip.
            sched.insert_batch(&out);
        }
        driver.after_run((got + purged).saturating_sub(out.len()));
        if got > 0 && blocked == got {
            hint = hint.wrapping_add(1);
            rsched_obs::counter!("engine_affinity_drift_total").inc();
        }
        out.clear();
    }
    c
}

/// Spawns `threads` scoped workers running `work(index, poisoned)`, joins
/// them all and sums the counters they return. `poisoned` turns true when
/// any worker unwinds ([`PoisonOnUnwind`]); `work` must read it wherever it
/// waits on another worker's progress. The thread scaffolding shared by
/// [`run_engine`] and [`run_exact_concurrent`](super::run_exact_concurrent).
///
/// # Panics
///
/// Panics if `threads == 0`, and re-raises a worker's panic after every
/// other worker has returned.
pub(crate) fn run_workers<W>(threads: usize, work: W) -> EngineTotals
where
    W: Fn(usize, &AtomicBool) -> EngineTotals + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    let poisoned = &AtomicBool::new(false);
    let work = &work;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let _poison = PoisonOnUnwind(poisoned);
                    work(w, poisoned)
                })
            })
            .collect();
        let mut totals = EngineTotals::default();
        for worker in workers {
            match worker.join() {
                Ok(c) => totals += c,
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        totals
    })
}

/// Runs [`worker_loop`] at `batch_size` on `threads` workers over `sched`,
/// and blocks until every worker's [`EngineDriver::keep_running`] goes
/// false. This is the one engine behind every relaxed entry point:
/// [`run_concurrent_batched`] (prefill), `crate::service::run_service`
/// (streaming) and `crate::service::run_sealed` (a closed request set that
/// spawns its own follow-ups —
/// [`concurrent_sssp`](crate::algorithms::sssp::concurrent_sssp)).
///
/// # Panics
///
/// Panics if `threads == 0` or `batch_size == 0`, and re-raises a worker's
/// panic (a panicking `dispatch`) after every other worker has left its
/// loop.
pub(crate) fn run_engine<D, S>(
    driver: &D,
    sched: &S,
    threads: usize,
    batch_size: usize,
) -> EngineTotals
where
    D: EngineDriver,
    S: ConcurrentScheduler<TaskId>,
{
    assert!(batch_size >= 1, "need a positive batch size");
    run_workers(threads, |w, poisoned| worker_loop(driver, sched, w, batch_size, poisoned))
}

/// Runs `alg` to completion on `threads` workers sharing `sched`.
///
/// Workers pop, call [`ConcurrentAlgorithm::try_process`], re-insert blocked
/// tasks with their original priority, and spin briefly when the scheduler
/// looks empty (see [`worker_loop`]).
///
/// # Panics
///
/// Panics if `threads == 0` or `pi.len() != alg.num_tasks()`.
pub fn run_concurrent<A, S>(alg: &A, pi: &Permutation, sched: &S, threads: usize) -> ConcurrentStats
where
    A: ConcurrentAlgorithm,
    S: ConcurrentScheduler<TaskId>,
{
    run_concurrent_batched(alg, pi, sched, threads, 1)
}

/// [`run_concurrent`] with a worker batch size: workers pop a batch of up
/// to `batch_size` tasks, process them locally, and re-insert every blocked
/// task of the batch in one [`ConcurrentScheduler::insert_batch`].
///
/// At `batch_size == 1` the scheduler op sequence is the scalar executor's:
/// pop, process, conditional re-insert. Larger batches amortize scheduler
/// synchronization at the price of extra relaxation: a
/// batch is popped in full before any of its tasks is processed, so a
/// `k`-relaxed scheduler drives the algorithm like an
/// `O(k·batch_size)`-relaxed one and Theorem 2's waste bound degrades
/// accordingly (gracefully — waste stays `poly(k·batch_size)`, independent
/// of `n`).
///
/// Every worker passes its index and the algorithm's
/// [`ConcurrentAlgorithm::is_obsolete`] to the scheduler through
/// [`ConcurrentScheduler::pop_purging_for`]: sharded schedulers use the
/// index to pin the worker to an affinity shard (relaxation then grows with
/// the shard count instead: `O(k·s)` — see DESIGN.md "Sharding
/// semantics"), and the MultiQueue family drops decided tasks at the head
/// of the bucket the pop opened (DESIGN.md "Purging semantics").
///
/// Counter semantics across batch sizes: `total_pops` counts popped
/// *elements*; `empty_pops` counts empty *observations* — a `pop_batch`
/// that returns 0 is one empty observation regardless of `batch_size`, so
/// `empty_pops` stays comparable across batch sizes.
///
/// # Panics
///
/// Panics if `threads == 0`, `batch_size == 0`, or
/// `pi.len() != alg.num_tasks()`.
pub fn run_concurrent_batched<A, S>(
    alg: &A,
    pi: &Permutation,
    sched: &S,
    threads: usize,
    batch_size: usize,
) -> ConcurrentStats
where
    A: ConcurrentAlgorithm,
    S: ConcurrentScheduler<TaskId>,
{
    assert_eq!(alg.num_tasks(), pi.len(), "permutation size must match task count");
    let start = Instant::now();
    // The prefill path is the degenerate streaming configuration: every task
    // is already in the scheduler "at t = 0" and the producers are sealed
    // before the first pop, so the driver reduces to the algorithm's own
    // remaining-task counter.
    let t = run_engine(&PrefillDriver(alg), sched, threads, batch_size);
    ConcurrentStats {
        tasks: alg.num_tasks(),
        threads,
        total_pops: t.pops,
        processed: t.processed,
        wasted: t.wasted,
        obsolete: t.obsolete,
        purged: t.purged,
        empty_pops: t.empty,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::testing::Chain;
    use rsched_queues::sharded::ShardedScheduler;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// One logged scheduler call: the priority a `pop` returned, or the
    /// priorities one `insert_batch` carried.
    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Pop(Option<u64>),
        InsertBatch(Vec<u64>),
    }

    /// A deterministic concurrent scheduler (one mutex-guarded heap) that
    /// logs every call, for op-sequence tests. Exact by default; `relaxed`
    /// makes every other pop return the second-smallest entry when there
    /// is one, so a dependency chain blocks and still terminates.
    #[derive(Debug, Default)]
    struct LoggedHeap {
        relaxed: bool,
        pops: AtomicU64,
        heap: Mutex<BinaryHeap<Reverse<(u64, TaskId)>>>,
        log: Mutex<Vec<Op>>,
    }

    impl ConcurrentScheduler<TaskId> for LoggedHeap {
        fn insert(&self, priority: u64, item: TaskId) {
            self.insert_batch(&[(priority, item)]);
        }
        fn insert_batch(&self, entries: &[(u64, TaskId)]) {
            self.log.lock().unwrap().push(Op::InsertBatch(entries.iter().map(|e| e.0).collect()));
            self.heap.lock().unwrap().extend(entries.iter().copied().map(Reverse));
        }
        fn pop(&self) -> Option<(u64, TaskId)> {
            let mut heap = self.heap.lock().unwrap();
            let second_turn = self.pops.fetch_add(1, Ordering::Relaxed) % 2 == 1;
            let min = heap.pop();
            let out = match heap.pop() {
                Some(second) if self.relaxed && second_turn => {
                    heap.extend(min);
                    Some(second)
                }
                second => {
                    heap.extend(second);
                    min
                }
            };
            let out = out.map(|Reverse(e)| e);
            self.log.lock().unwrap().push(Op::Pop(out.map(|e| e.0)));
            out
        }
    }

    /// One thread over the relaxed `LoggedHeap`, whose default
    /// `pop_batch` logs one `Pop` per element. Every re-insert must sit
    /// between the run that popped it and the next pop — at batch 1 directly
    /// after its own pop, one entry at most; at batch 8 as the run's single
    /// `insert_batch`.
    #[test]
    fn failed_deletes_return_in_one_insert_batch_before_the_next_run() {
        use rand::{rngs::StdRng, SeedableRng};
        let pi = Permutation::random(30, &mut StdRng::seed_from_u64(3));
        for batch in [1usize, 8] {
            let sched = LoggedHeap { relaxed: true, ..Default::default() };
            fill_scheduler(&sched, &pi);
            sched.log.lock().unwrap().clear();
            let alg = Chain::new(&pi);
            let stats = run_concurrent_batched(&alg, &pi, &sched, 1, batch);
            assert_eq!(stats.processed, 30);
            assert!(stats.wasted > 0, "batch={batch}: the relaxed heap must block the chain");
            let log = sched.log.lock().unwrap().clone();
            let (mut reinserted, mut largest) = (0, 0);
            for (at, op) in log.iter().enumerate() {
                let Op::InsertBatch(back) = op else { continue };
                // The run: the pops since the previous insert_batch.
                let run: Vec<u64> = log[..at]
                    .iter()
                    .rev()
                    .map_while(|op| if let Op::Pop(p) = op { Some(*p) } else { None })
                    .flatten()
                    .collect();
                assert!(!back.is_empty() && back.len() <= run.len().min(batch), "batch={batch}");
                // In pop order, and nothing a later run popped.
                let mut popped = run.iter().rev();
                assert!(back.iter().all(|p| popped.any(|q| q == p)), "batch={batch}: {log:?}");
                if batch == 1 {
                    assert_eq!(log[at - 1], Op::Pop(Some(back[0])));
                }
                reinserted += back.len() as u64;
                largest = largest.max(back.len());
            }
            assert_eq!(reinserted, stats.wasted, "batch={batch}");
            assert!(batch == 1 || largest > 1, "batch 8 never buffered two failed deletes");
            // At batch 1 a run is one scheduler pop, hit or miss.
            let pops = log.iter().filter(|op| matches!(op, Op::Pop(_))).count() as u64;
            assert!(batch > 1 || pops == stats.total_pops + stats.empty_pops);
        }
    }

    /// One shard must behave exactly like the bare inner scheduler under
    /// the engine (same stats on a deterministic single-thread run).
    #[test]
    fn sharded_one_is_engine_equivalent_to_bare_inner() {
        use rand::{rngs::StdRng, SeedableRng};
        let pi = Permutation::random(200, &mut StdRng::seed_from_u64(9));
        let bare = LoggedHeap::default();
        fill_scheduler(&bare, &pi);
        let alg = Chain::new(&pi);
        let bare_stats = run_concurrent(&alg, &pi, &bare, 1);

        let sharded = ShardedScheduler::from_fn(1, |_| LoggedHeap::default());
        fill_scheduler(&sharded, &pi);
        let alg = Chain::new(&pi);
        let sharded_stats = run_concurrent(&alg, &pi, &sharded, 1);

        assert_eq!(bare_stats.total_pops, sharded_stats.total_pops);
        assert_eq!(bare_stats.processed, sharded_stats.processed);
        assert_eq!(bare_stats.wasted, sharded_stats.wasted);
        assert_eq!(*bare.log.lock().unwrap(), *sharded.shards()[0].log.lock().unwrap());
    }

    /// A star whose centre has the smallest label, then two isolated
    /// vertices at the largest: once the centre is in, the queue is dead
    /// leaves with `remaining()` held above zero by the two at the tails.
    /// The buckets that end in leaves yield calls that purge and return
    /// nothing; those are runs, not empty observations.
    #[test]
    fn dead_queue_tail_is_purged_without_an_empty_pop() {
        use crate::algorithms::mis::ConcurrentMis;
        use rsched_graph::CsrGraph;
        use rsched_queues::concurrent::BulkMultiQueue;
        let leaves = 2_000u32;
        let n = leaves as usize + 3;
        let g = CsrGraph::from_edges(n, (1..=leaves).map(|v| (0, v)));
        let pi = Permutation::identity(n);
        for batch in [1usize, 8] {
            let alg = ConcurrentMis::new(&g, &pi);
            let sched = BulkMultiQueue::prefilled(8, (0..n as TaskId).map(|v| (v as u64, v)));
            let stats = run_concurrent_batched(&alg, &pi, &sched, 1, batch);
            assert_eq!((alg.remaining(), stats.processed), (0, 3), "batch={batch}");
            assert_eq!(stats.empty_pops, 0, "batch={batch}: a purge was taken for emptiness");
            assert_eq!(stats.total_pops, stats.processed + stats.wasted + stats.obsolete);
            assert!(0 < stats.purged && stats.purged <= stats.obsolete, "batch={batch}: {stats}");
            assert!(stats.obsolete <= leaves as u64, "batch={batch}: {stats}");
        }
    }

    #[test]
    fn engine_runs_chain_on_sharded_scheduler_all_batch_sizes() {
        use rand::{rngs::StdRng, SeedableRng};
        use rsched_queues::concurrent::MultiQueue;
        let pi = Permutation::random(500, &mut StdRng::seed_from_u64(12));
        for shards in [1usize, 3] {
            for batch in [1usize, 8] {
                for threads in [1usize, 4] {
                    let sched: ShardedScheduler<MultiQueue<TaskId>> =
                        ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2));
                    fill_scheduler(&sched, &pi);
                    let alg = Chain::new(&pi);
                    let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                    assert_eq!(alg.remaining(), 0, "s={shards} b={batch} t={threads}");
                    assert_eq!(stats.processed, 500);
                    assert_eq!(stats.total_pops, stats.processed + stats.wasted + stats.obsolete);
                }
            }
        }
    }
}
