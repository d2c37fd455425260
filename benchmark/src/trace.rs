//! Tracing from outside the program: wrappers around the calls into each
//! layer's public functions, and the in-memory span store behind them.
//!
//! * [`TracedSched`] wraps any `ConcurrentScheduler<TaskId>` and keeps, per
//!   operation and per thread slot, the calls, the elements moved and the
//!   busy time; [`TracedAlg`] does the same around `try_process`. Every call
//!   is timed, less the calibrated cost of the clock read itself, so on one
//!   thread the intervals are disjoint and the busy times of a run can never
//!   add up to more than `threads × wall`. (Timing one call in 16 and
//!   scaling was tried first: one preempted sample then counts 16 times, and
//!   `mis_sparse` reported shares above 1.)
//! * [`Tracer`] keeps spans in memory — one per rep per phase from the
//!   workload code, plus one sampled call in [`SPAN_EVERY`] carrying the
//!   phase span as its parent — and writes them as chrome-trace JSON when
//!   the run ends.

use crate::json::Json;
use rsched_core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched_core::TaskId;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One call in this many leaves a span in the trace.
pub const SPAN_EVERY: u32 = 1024;
/// Accumulator slots per wrapper; threads map to `thread number % SLOTS`.
const SLOTS: usize = 16;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's number (assigned on first traced call; threads spawned
    /// together get consecutive numbers, so concurrent workers land in
    /// distinct slots) and its call counter.
    static THREAD: (usize, Cell<u32>) =
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), Cell::new(0));
}

/// `(thread number, this call's tick)`.
fn tick() -> (usize, u32) {
    THREAD.with(|(id, n)| {
        let t = n.get().wrapping_add(1);
        n.set(t);
        (*id, t)
    })
}

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub thread: usize,
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
}

/// Nanoseconds since the clock was made: the one time base of a run's
/// stamps and spans.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Default for Clock {
    fn default() -> Self {
        Clock(Instant::now())
    }
}

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The run's span store and clock.
pub struct Tracer {
    pub clock: Clock,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Id of the phase span currently open on the main thread: the parent of
    /// every sampled call span recorded meanwhile.
    open_phase: AtomicU64,
    /// Median cost of one back-to-back clock-read pair, subtracted from
    /// every timed interval.
    pub clock_cost_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        let clock = Clock::default();
        let mut pairs: Vec<u64> = (0..2001)
            .map(|_| {
                let a = clock.now_ns();
                clock.now_ns() - a
            })
            .collect();
        pairs.sort_unstable();
        Tracer {
            clock,
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            open_phase: AtomicU64::new(0),
            clock_cost_ns: pairs[pairs.len() / 2],
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Runs `f` as one phase span (`fill`, `run`, `verify`, `push`, ...),
    /// returning its result and its duration in seconds.
    pub fn phase<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open_phase.swap(id, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f();
        let dur_ns = self.now_ns() - start_ns;
        self.open_phase.store(parent, Ordering::Relaxed);
        self.push(Span { name, layer, start_ns, dur_ns, thread: 0, id, parent });
        (out, dur_ns as f64 / 1e9)
    }

    /// Records a span whose interval the caller measured itself (a phase
    /// that runs on another thread, e.g. the service's `push`).
    pub fn record(&self, name: &'static str, layer: &'static str, start_ns: u64, end_ns: u64) {
        self.child_span(name, layer, 0, start_ns, end_ns.saturating_sub(start_ns));
    }

    /// Records a span under the phase span that is open right now.
    fn child_span(
        &self,
        name: &'static str,
        layer: &'static str,
        thread: usize,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open_phase.load(Ordering::Relaxed);
        self.push(Span { name, layer, start_ns, dur_ns, thread, id, parent });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a traced thread panicked").push(span);
    }

    /// The trace in the chrome `traceEvents` format: complete (`"X"`)
    /// events, microsecond timestamps, span id and parent under `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .lock()
            .expect("a traced thread panicked")
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.thread as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }
}

/// Per-thread-slot accumulators of one operation kind, on their own cache
/// lines so that counting does not make workers share a line.
#[derive(Default)]
#[repr(align(128))]
struct OpCell {
    calls: AtomicU64,
    elements: AtomicU64,
    busy_ns: AtomicU64,
    /// Calls by the tag the wrapped call returned (an outcome, or empty /
    /// non-empty for a pop).
    tagged: [AtomicU64; 3],
}

/// Totals of one operation kind over all threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTotals {
    pub calls: u64,
    pub elements: u64,
    pub busy_ns: u64,
    pub tagged: [u64; 3],
}

impl OpTotals {
    fn add(self, o: OpTotals) -> OpTotals {
        OpTotals {
            calls: self.calls + o.calls,
            elements: self.elements + o.elements,
            busy_ns: self.busy_ns + o.busy_ns,
            tagged: std::array::from_fn(|i| self.tagged[i] + o.tagged[i]),
        }
    }
}

struct OpCells(Box<[OpCell]>);

impl OpCells {
    fn new() -> Self {
        OpCells((0..SLOTS).map(|_| OpCell::default()).collect())
    }

    /// Runs `f` as one counted call; `f` returns `(result, elements moved,
    /// tag)` with `tag < 3`.
    fn call<R>(
        &self,
        tracer: &Tracer,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> (R, u64, usize),
    ) -> R {
        let (thread, t) = tick();
        let cell = &self.0[thread % SLOTS];
        let start = tracer.now_ns();
        let (out, elements, tag) = f();
        let dur = (tracer.now_ns() - start).saturating_sub(tracer.clock_cost_ns);
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.elements.fetch_add(elements, Ordering::Relaxed);
        cell.busy_ns.fetch_add(dur, Ordering::Relaxed);
        cell.tagged[tag].fetch_add(1, Ordering::Relaxed);
        if t.is_multiple_of(SPAN_EVERY) {
            tracer.child_span(name, layer, thread + 1, start, dur);
        }
        out
    }

    fn totals(&self) -> OpTotals {
        self.0.iter().fold(OpTotals::default(), |acc, c| {
            acc.add(OpTotals {
                calls: c.calls.load(Ordering::Relaxed),
                elements: c.elements.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
                tagged: std::array::from_fn(|i| c.tagged[i].load(Ordering::Relaxed)),
            })
        })
    }
}

/// Per-task instants of one service rep, in ns on the tracer's clock: when
/// the pump inserted the task into the scheduler and when a worker popped
/// it. Preallocated; written with relaxed stores (each task is inserted and
/// popped once — connectivity never blocks).
pub struct Stamps {
    pub insert_ns: Box<[AtomicU64]>,
    pub pop_ns: Box<[AtomicU64]>,
}

impl Stamps {
    pub fn new(tasks: usize) -> Self {
        let zeroed = || (0..tasks).map(|_| AtomicU64::new(0)).collect();
        Stamps { insert_ns: zeroed(), pop_ns: zeroed() }
    }
}

/// What a [`TracedSched`] saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedTotals {
    /// `insert` and `insert_batch` together.
    pub insert: OpTotals,
    /// `pop`, `pop_for`, `pop_batch` and `pop_batch_for` together.
    pub pop: OpTotals,
}

impl SchedTotals {
    /// Pop calls that returned nothing.
    pub fn empty_pops(&self) -> u64 {
        self.pop.tagged[EMPTY]
    }

    pub fn busy_ns(&self) -> u64 {
        self.insert.busy_ns + self.pop.busy_ns
    }
}

/// Tag of a pop call that returned nothing (0 for every other call).
const EMPTY: usize = 1;

/// A scheduler wrapper that counts and times every call. With `stamps` it
/// also records each task's insert and pop instants (one clock read per
/// call, shared by the batch).
pub struct TracedSched<'a, S> {
    inner: S,
    tracer: &'a Tracer,
    stamps: Option<&'a Stamps>,
    insert: OpCells,
    pop: OpCells,
}

impl<'a, S> TracedSched<'a, S> {
    pub fn new(inner: S, tracer: &'a Tracer, stamps: Option<&'a Stamps>) -> Self {
        TracedSched { inner, tracer, stamps, insert: OpCells::new(), pop: OpCells::new() }
    }

    pub fn totals(&self) -> SchedTotals {
        SchedTotals { insert: self.insert.totals(), pop: self.pop.totals() }
    }

    fn stamp(&self, pick: impl Fn(&Stamps) -> &[AtomicU64], entries: &[(u64, TaskId)]) {
        if let (Some(s), false) = (self.stamps, entries.is_empty()) {
            let now = self.tracer.now_ns();
            for &(_, task) in entries {
                pick(s)[task as usize].store(now, Ordering::Relaxed);
            }
        }
    }

    fn traced_insert(&self, name: &'static str, entries: &[(u64, TaskId)], f: impl FnOnce()) {
        self.stamp(|s| &s.insert_ns, entries);
        self.insert.call(self.tracer, name, "queues", || (f(), entries.len() as u64, 0));
    }

    fn traced_pop(
        &self,
        name: &'static str,
        f: impl FnOnce() -> Option<(u64, TaskId)>,
    ) -> Option<(u64, TaskId)> {
        let out = self.pop.call(self.tracer, name, "queues", || {
            let e = f();
            (e, e.is_some() as u64, e.is_none() as usize)
        });
        self.stamp(|s| &s.pop_ns, out.as_slice());
        out
    }

    fn traced_pop_batch(
        &self,
        name: &'static str,
        out: &mut Vec<(u64, TaskId)>,
        f: impl FnOnce(&mut Vec<(u64, TaskId)>) -> usize,
    ) -> usize {
        let before = out.len();
        let got = self.pop.call(self.tracer, name, "queues", || {
            let got = f(out);
            (got, got as u64, (got == 0) as usize)
        });
        self.stamp(|s| &s.pop_ns, &out[before..]);
        got
    }
}

impl<S: ConcurrentScheduler<TaskId>> ConcurrentScheduler<TaskId> for TracedSched<'_, S> {
    fn insert(&self, priority: u64, item: TaskId) {
        self.traced_insert("insert", &[(priority, item)], || self.inner.insert(priority, item));
    }

    fn pop(&self) -> Option<(u64, TaskId)> {
        self.traced_pop("pop", || self.inner.pop())
    }

    fn insert_batch(&self, entries: &[(u64, TaskId)]) {
        self.traced_insert("insert_batch", entries, || self.inner.insert_batch(entries));
    }

    fn pop_batch(&self, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
        self.traced_pop_batch("pop_batch", out, |out| self.inner.pop_batch(out, max))
    }

    fn pop_for(&self, worker: usize) -> Option<(u64, TaskId)> {
        self.traced_pop("pop_for", || self.inner.pop_for(worker))
    }

    fn pop_batch_for(&self, worker: usize, out: &mut Vec<(u64, TaskId)>, max: usize) -> usize {
        self.traced_pop_batch("pop_batch_for", out, |out| {
            self.inner.pop_batch_for(worker, out, max)
        })
    }
}

impl<S: SchedulerLoad> SchedulerLoad for TracedSched<'_, S> {
    fn total_load(&self) -> usize {
        self.inner.total_load()
    }

    fn max_partition_load(&self) -> usize {
        self.inner.max_partition_load()
    }
}

/// What a [`TracedAlg`] saw; `calls.tagged` counts outcomes in the order
/// processed, blocked, obsolete.
pub type AlgTotals = OpTotals;

/// An algorithm wrapper that counts outcomes and times `try_process`. `remaining()` is forwarded untimed: polling it is the
/// engine's cost, not the algorithm's.
pub struct TracedAlg<'a, A> {
    inner: &'a A,
    tracer: &'a Tracer,
    calls: OpCells,
}

impl<'a, A> TracedAlg<'a, A> {
    pub fn new(inner: &'a A, tracer: &'a Tracer) -> Self {
        TracedAlg { inner, tracer, calls: OpCells::new() }
    }

    pub fn totals(&self) -> AlgTotals {
        self.calls.totals()
    }
}

impl<A: ConcurrentAlgorithm> ConcurrentAlgorithm for TracedAlg<'_, A> {
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        self.calls.call(self.tracer, "try_process", "core.algorithms", || {
            let outcome = self.inner.try_process(task);
            let tag = match outcome {
                TaskOutcome::Processed => 0,
                TaskOutcome::Blocked => 1,
                TaskOutcome::Obsolete => 2,
            };
            (outcome, 1, tag)
        })
    }
}
