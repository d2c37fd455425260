//! End-to-end observability smoke: runs every executor in-process — the
//! prefill engine over a `MultiQueue` (batch 1 and 8), the sequential
//! framework over a `SimMultiQueue`, and a streamed connectivity service
//! and an SSSP flood over the sharded lock-free MultiQueue — and checks
//! that each publishes exactly its own totals to the `engine_pop_total` /
//! `seq_pop_total` counters. It then validates that the chrome://tracing
//! JSON actually parses (a hand-rolled recursive-descent validator, no
//! serde) and that the metrics snapshot carries the counter families every
//! layer of the stack is supposed to feed.
//!
//! Built only with `--features obs` (see `Cargo.toml`); CI runs it as the
//! observability gate.

#![cfg(not(rsched_model))]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::mis::ConcurrentMis;
use rsched_core::algorithms::sssp::dijkstra;
use rsched_core::framework::{fill_scheduler, run_concurrent_batched, run_relaxed};
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, RequestHandler, ServiceConfig,
    ServiceStats, SsspHandler,
};
use rsched_core::TaskId;
use rsched_graph::{gen, Permutation, WeightedCsr};
use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::reclaim::Ebr;
use rsched_queues::relaxed::SimMultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

const N: usize = 5_000;
const M: usize = 20_000;
const PRODUCERS: u32 = 4;
const SHARDS: usize = 3;
const SEED: u64 = 23;
const OUTCOMES: [&str; 4] = ["success", "blocked", "obsolete", "empty"];

/// Validates `s` is one complete JSON value. Returns the rest on success.
fn json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    match s.chars().next() {
        Some('{') => json_seq(&s[1..], '}', true),
        Some('[') => json_seq(&s[1..], ']', false),
        Some('"') => json_string(s),
        Some('t') => s.strip_prefix("true").ok_or_else(|| bad(s)),
        Some('f') => s.strip_prefix("false").ok_or_else(|| bad(s)),
        Some('n') => s.strip_prefix("null").ok_or_else(|| bad(s)),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end =
                s.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(s.len());
            s[..end].parse::<f64>().map_err(|e| format!("bad number {:?}: {e}", &s[..end]))?;
            Ok(&s[end..])
        }
        other => Err(format!("unexpected start of value: {other:?}")),
    }
}

fn bad(s: &str) -> String {
    format!("malformed literal at {:?}", &s[..s.len().min(20)])
}

/// Parses `"..."` (with escapes), returning the rest.
fn json_string(s: &str) -> Result<&str, String> {
    debug_assert!(s.starts_with('"'));
    let bytes = s.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Ok(&s[i + 1..]),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

/// Parses the members of an object (`keyed`) or array after the opener.
fn json_seq(mut s: &str, close: char, keyed: bool) -> Result<&str, String> {
    s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Ok(rest);
    }
    loop {
        if keyed {
            s = s.trim_start();
            if !s.starts_with('"') {
                return Err("object key must be a string".into());
            }
            s = json_string(s)?;
            s = s.trim_start();
            s = s.strip_prefix(':').ok_or("missing ':' after object key")?;
        }
        s = json_value(s)?;
        s = s.trim_start();
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else {
            return s
                .strip_prefix(close)
                .ok_or_else(|| format!("expected {close:?} at {:?}", &s[..s.len().min(20)]));
        }
    }
}

fn assert_valid_json(text: &str, what: &str) {
    match json_value(text) {
        Ok(rest) => assert!(
            rest.trim().is_empty(),
            "{what}: trailing garbage after JSON value: {:?}",
            &rest[..rest.len().min(40)]
        ),
        Err(e) => panic!("{what}: invalid JSON: {e}"),
    }
}

/// How far each `family{outcome=…}` counter grew while `run` ran, in
/// `OUTCOMES` order, beside what `run` returned.
fn published<R>(family: &str, run: impl FnOnce() -> R) -> ([u64; 4], R) {
    let base = rsched_obs::snapshot();
    let r = run();
    let end = rsched_obs::snapshot();
    (OUTCOMES.map(|o| end.counter_delta(&base, &format!(r#"{family}{{outcome="{o}"}}"#))), r)
}

/// MIS on `G(N, M)` by the prefill engine: 2 workers over a filled
/// 4-queue `MultiQueue`. MIS purges, so `obsolete` carries purged entries.
fn prefill_run(batch: usize) -> [u64; 4] {
    let g = gen::gnm(N, M, &mut StdRng::seed_from_u64(SEED));
    let pi = Permutation::random(N, &mut StdRng::seed_from_u64(SEED ^ 1));
    let sched = MultiQueue::new(4);
    fill_scheduler(&sched, &pi);
    let s = run_concurrent_batched(&ConcurrentMis::new(&g, &pi), &pi, &sched, 2, batch);
    [s.processed, s.wasted, s.obsolete, s.empty_pops]
}

/// MIS on `G(N, M)` by the sequential framework over a `SimMultiQueue(8)`,
/// which never observes an empty scheduler.
fn sequential_run() -> [u64; 4] {
    let g = gen::gnm(N, M, &mut StdRng::seed_from_u64(SEED));
    let pi = Permutation::random(N, &mut StdRng::seed_from_u64(SEED ^ 1));
    let sched = SimMultiQueue::new(8, StdRng::seed_from_u64(SEED ^ 2));
    let s = run_relaxed(&ConcurrentMis::new(&g, &pi), &pi, sched);
    [s.processed, s.wasted, s.obsolete, 0]
}

/// A `ShardedScheduler` of EBR lock-free MultiQueues that notes when a pop
/// has observed it empty.
struct Watched {
    inner: ShardedScheduler<LockFreeMultiQueue<TaskId, Ebr>>,
    seen_empty: AtomicBool,
}

impl Watched {
    fn new() -> Self {
        let inner = ShardedScheduler::from_fn(SHARDS, |_| LockFreeMultiQueue::new_in(4));
        Watched { inner, seen_empty: AtomicBool::new(false) }
    }
}

impl ConcurrentScheduler<TaskId> for Watched {
    fn insert(&self, priority: u64, item: TaskId) {
        self.inner.insert(priority, item);
    }
    fn insert_batch(&self, entries: &[(u64, TaskId)]) {
        self.inner.insert_batch(entries);
    }
    fn pop(&self) -> Option<(u64, TaskId)> {
        self.inner.pop()
    }
    fn pop_purging_for<F>(
        &self,
        worker: usize,
        out: &mut Vec<(u64, TaskId)>,
        max: usize,
        obsolete: F,
    ) -> (usize, usize)
    where
        F: Fn(u64, &TaskId) -> bool,
    {
        let got = self.inner.pop_purging_for(worker, out, max, obsolete);
        if got == (0, 0) {
            self.seen_empty.store(true, Relaxed);
        }
        got
    }
}

impl SchedulerLoad for Watched {
    fn total_load(&self) -> usize {
        self.inner.total_load()
    }
    fn max_partition_load(&self) -> usize {
        self.inner.max_partition_load()
    }
}

/// One service run over `sched`, 4 workers popping batches of 8; asserts
/// the ledger.
fn serve(
    handler: &impl RequestHandler,
    sched: &Watched,
    producers: Vec<ProducerFn<'_>>,
) -> ServiceStats {
    let config = ServiceConfig { workers: 4, batch_size: 8, ..Default::default() };
    let stats = run_service(handler, sched, &config, producers);
    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    stats
}

/// Producers stream every edge id of a `G(N, M)` into the live scheduler.
fn connectivity_run() -> ServiceStats {
    let edges = gen::gnm(N, M, &mut StdRng::seed_from_u64(SEED)).edge_list();
    let m = edges.len() as u32;
    let alg = ConcurrentConnectivity::new(N, &edges);
    let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS)
        .map(|p| {
            Box::new(move |prod: Producer<'_>| {
                for e in (p..m).step_by(PRODUCERS as usize) {
                    prod.push(u64::from(e), e).unwrap();
                }
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = serve(&AlgorithmHandler(&alg), &Watched::new(), producers);
    assert_eq!(stats.accepted, u64::from(m));
    assert_eq!(alg.into_labels(), components(N, &edges), "streamed connectivity diverged");
    stats
}

/// Every producer seeds the same source; the whole wavefront arrives as
/// handler follow-up submits. The seeds wait until a worker has popped the
/// empty scheduler, so the `empty` outcome is fed on every run rather than
/// when the threads happen to interleave that way.
fn sssp_run() -> ServiceStats {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x55);
    let g = gen::gnm(N / 2, M / 2, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let handler = SsspHandler::new(&g);
    let (seed_priority, seed_task) = handler.request(0, 0);
    let sched = Watched::new();
    let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS)
        .map(|_| {
            let seen_empty = &sched.seen_empty;
            Box::new(move |prod: Producer<'_>| {
                while !seen_empty.load(Relaxed) {
                    std::thread::yield_now();
                }
                prod.push(seed_priority, seed_task).unwrap();
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = serve(&handler, &sched, producers);
    assert_eq!(handler.into_dist(), dijkstra(&g, 0), "streamed SSSP diverged from Dijkstra");
    stats
}

/// One test, so no other run's counts land between its snapshots: the
/// registry is process-global and the harness runs tests concurrently.
#[test]
fn executor_runs_emit_trace_and_metrics() {
    // Each executor publishes its own stats once per call, so every
    // counter grows by exactly what the call returned.
    for batch in [1, 8] {
        let (got, stats) = published("engine_pop_total", || prefill_run(batch));
        assert_eq!(got, stats, "prefill, batch {batch}");
    }
    let (got, stats) = published("seq_pop_total", sequential_run);
    assert_eq!(got, stats, "sequential");
    let (got, runs) = published("engine_pop_total", || [connectivity_run(), sssp_run()]);
    let total = |field: fn(&ServiceStats) -> u64| runs.iter().map(field).sum::<u64>();
    let stats = [
        total(|s| s.processed),
        total(|s| s.wasted),
        total(|s| s.obsolete),
        total(|s| s.empty_pops),
    ];
    assert_eq!(got, stats, "service");
    assert!(got[3] > 0, "the SSSP seeds wait for an empty pop");

    let trace = rsched_obs::chrome_trace_json();
    assert_valid_json(&trace, "chrome trace");
    assert!(trace.starts_with(r#"{"traceEvents":["#), "not a chrome trace container");
    for needle in [r#""ph":"X""#, r#""name":"engine_run""#, r#""ph":"M""#] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }

    let metrics = rsched_obs::snapshot().text();
    // One probe family per instrumented layer: worker engine (pops,
    // batches, service times), sequential framework (pops), sharded
    // scheduler (steals, fairness probes) and the reclamation backend.
    // Counters that need backpressure to fire
    // (service_producer_park_total / service_producer_unpark_total) are
    // deliberately absent: these runs never park.
    for family in [
        r#"engine_pop_total{outcome="success"}"#,
        r#"engine_pop_total{outcome="empty"}"#,
        r#"seq_pop_total{outcome="success"}"#,
        "engine_run_batch_size_count",
        "engine_run_service_ns_count",
        "sharded_steal_total",
        "sharded_fairness_probe_total",
        r#"reclaim_retire_total{backend="ebr"}"#,
        r#"reclaim_dealloc_total{backend="ebr"}"#,
    ] {
        assert!(metrics.contains(family), "metrics snapshot missing {family}:\n{metrics}");
    }
}

#[test]
fn json_validator_rejects_garbage() {
    // The validator itself must have teeth, or the smoke test is theatre.
    for garbage in [
        r#"{"traceEvents":["#,
        r#"{"a" 1}"#,
        "[1, 2,",
        r#"{"a": 01x}"#,
        r#""unterminated"#,
        "{1: 2}",
    ] {
        assert!(
            json_value(garbage).map(|rest| !rest.trim().is_empty()).unwrap_or(true),
            "validator accepted {garbage:?}"
        );
    }
    assert_valid_json(r#"{"traceEvents":[{"ph":"X","ts":1.5,"args":{"k":null}}],"n":-2e3}"#, "ok");
}
