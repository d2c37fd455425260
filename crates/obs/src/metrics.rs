//! Live metrics: striped counters, gauges, and the named registry.
//!
//! Compiled only with the `obs` feature; `noop.rs` mirrors every public
//! item as a ZST no-op. Registration (name lookup) takes a mutex but is
//! cold — the `counter!`/`gauge!`/`hist!` macros cache the returned handle
//! in a per-call-site `OnceLock`, so the hot path is a `Relaxed` fetch_add
//! on a cache-padded cell.

use crate::hist::LogHistogram;
use crate::{HistSummary, Snapshot};
use crossbeam::utils::CachePadded;
use rsched_sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Number of independent counter cells per counter. Each thread hashes to
/// one stripe (assigned round-robin at first touch), so with up to 32
/// concurrent recorders no two workers contend on a cache line.
const STRIPES: usize = 32;

/// Backing storage of a [`Counter`]: cache-padded per-worker cells summed
/// on read.
pub(crate) struct CounterCells {
    cells: Box<[CachePadded<AtomicU64>]>,
}

impl CounterCells {
    fn new() -> Self {
        CounterCells { cells: (0..STRIPES).map(|_| CachePadded::new(AtomicU64::new(0))).collect() }
    }

    fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Relaxed)).sum()
    }
}

/// The calling thread's stripe, assigned round-robin on first use.
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A monotone event counter. Copy handle; obtain via [`crate::counter`] or
/// the caching [`counter!`](crate::counter) macro.
#[derive(Clone, Copy)]
pub struct Counter(pub(crate) &'static CounterCells);

impl Counter {
    /// Adds `n`. Wait-free: one `Relaxed` fetch_add on this thread's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.cells[stripe()].fetch_add(n, Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (sum over stripes; racy snapshot while writers run).
    pub fn value(&self) -> u64 {
        self.0.value()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// Backing storage of a [`Gauge`]. A single padded cell: gauges track
/// small signed levels (queue depth, shard load) where the read side wants
/// an exact instantaneous value, so striping would be counterproductive.
pub(crate) struct GaugeCell {
    // `AtomicIsize`: the model façade deliberately exports no AtomicI64.
    cell: CachePadded<AtomicIsize>,
}

/// An instantaneous signed level. Copy handle; obtain via [`crate::gauge`]
/// or the caching [`gauge!`](crate::gauge) macro. Named gauges are global:
/// two call sites registering the same name share the cell.
#[derive(Clone, Copy)]
pub struct Gauge(pub(crate) &'static GaugeCell);

impl Gauge {
    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.cell.fetch_add(n as isize, Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, n: i64) {
        self.0.cell.store(n as isize, Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.0.cell.load(Relaxed) as i64
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// A registered log-bucketed histogram. Copy handle; obtain via
/// [`crate::histogram`] or the caching [`hist!`](crate::hist) macro.
#[derive(Clone, Copy)]
pub struct Histogram(pub(crate) &'static LogHistogram);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// The underlying histogram, for direct quantile queries.
    pub fn inner(&self) -> &'static LogHistogram {
        self.0
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Histogram").field(&self.0.count()).finish()
    }
}

/// The global name → instrument registry. Maps are keyed by the full
/// Prometheus-style name (labels embedded in the string); instruments are
/// leaked so handles are `'static` and hot paths never reacquire the lock.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static CounterCells>>,
    gauges: Mutex<BTreeMap<String, &'static GaugeCell>>,
    hists: Mutex<BTreeMap<String, &'static LogHistogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Registers (or looks up) the counter `name`. Cold path; cache the handle.
pub fn counter(name: &str) -> Counter {
    let mut map = registry().counters.lock().unwrap();
    if let Some(c) = map.get(name) {
        return Counter(c);
    }
    let cells: &'static CounterCells = Box::leak(Box::new(CounterCells::new()));
    map.insert(name.to_owned(), cells);
    Counter(cells)
}

/// Registers (or looks up) the gauge `name`. Cold path; cache the handle.
pub fn gauge(name: &str) -> Gauge {
    let mut map = registry().gauges.lock().unwrap();
    if let Some(g) = map.get(name) {
        return Gauge(g);
    }
    let cell: &'static GaugeCell =
        Box::leak(Box::new(GaugeCell { cell: CachePadded::new(AtomicIsize::new(0)) }));
    map.insert(name.to_owned(), cell);
    Gauge(cell)
}

/// Registers (or looks up) the histogram `name`. Cold path; cache the
/// handle.
pub fn histogram(name: &str) -> Histogram {
    let mut map = registry().hists.lock().unwrap();
    if let Some(h) = map.get(name) {
        return Histogram(h);
    }
    let hist: &'static LogHistogram = Box::leak(Box::new(LogHistogram::new()));
    map.insert(name.to_owned(), hist);
    Histogram(hist)
}

/// A point-in-time copy of every registered instrument, sorted by name.
/// Counters/gauges only ever accumulate globally, so callers comparing a
/// single run take a snapshot before and after and diff (see
/// [`Snapshot::counter_delta`](crate::Snapshot::counter_delta)).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters =
        reg.counters.lock().unwrap().iter().map(|(n, c)| (n.clone(), c.value())).collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(n, g)| (n.clone(), g.cell.load(Relaxed) as i64))
        .collect();
    let hists = reg
        .hists
        .lock()
        .unwrap()
        .iter()
        .map(|(n, h)| {
            let (p50, p95, p99) = h.percentiles();
            (n.clone(), HistSummary { count: h.count(), sum: h.sum(), p50, p95, p99 })
        })
        .collect();
    Snapshot { counters, gauges, hists }
}
