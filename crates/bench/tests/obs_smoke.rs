//! End-to-end observability smoke: runs a streamed connectivity service
//! and an SSSP flood in-process over the sharded lock-free MultiQueue,
//! checks that the `engine_pop_total` counters reconcile with the
//! exactly-once ledgers, then validates that the chrome://tracing JSON
//! actually parses (a hand-rolled recursive-descent validator, no serde)
//! and that the metrics snapshot carries the counter families every layer
//! of the stack is supposed to feed.
//!
//! Built only with `--features obs` (see `Cargo.toml`); CI runs it as the
//! observability gate.

#![cfg(not(rsched_model))]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::sssp::dijkstra;
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, RequestHandler, ServiceConfig,
    ServiceStats, SsspHandler,
};
use rsched_core::TaskId;
use rsched_graph::{gen, WeightedCsr};
use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::reclaim::Ebr;
use rsched_queues::sharded::ShardedScheduler;

const N: usize = 5_000;
const M: usize = 20_000;
const PRODUCERS: u32 = 4;
const SHARDS: usize = 3;
const SEED: u64 = 23;
const EMPTY: &str = r#"engine_pop_total{outcome="empty"}"#;

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

/// One service run over a fresh `ShardedScheduler` of EBR lock-free
/// MultiQueues, 4 workers popping batches of 8; asserts the ledger.
fn serve(handler: &impl RequestHandler, producers: Vec<ProducerFn<'_>>) -> ServiceStats {
    let sched: ShardedScheduler<LockFreeMultiQueue<TaskId, Ebr>> =
        ShardedScheduler::from_fn(SHARDS, |_| LockFreeMultiQueue::new_in(4));
    let config = ServiceConfig { workers: 4, batch_size: 8, ..Default::default() };
    let stats = run_service(handler, &sched, &config, producers);
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
    let stats = serve(&AlgorithmHandler(&alg), producers);
    assert_eq!(stats.accepted, u64::from(m));
    assert_eq!(alg.into_labels(), components(N, &edges), "streamed connectivity diverged");
    stats
}

/// Every producer seeds the same source; the whole wavefront arrives as
/// handler follow-up submits. The seeds wait until a worker has counted a
/// pop of the empty scheduler, so the `empty` outcome is fed on every run
/// rather than when the threads happen to interleave that way.
fn sssp_run() -> ServiceStats {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x55);
    let g = gen::gnm(N / 2, M / 2, &mut rng);
    let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
    let handler = SsspHandler::new(&g);
    let (seed_priority, seed_task) = handler.request(0, 0);
    let base = rsched_obs::snapshot();
    let producers: Vec<ProducerFn<'_>> = (0..PRODUCERS)
        .map(|_| {
            let base = &base;
            Box::new(move |prod: Producer<'_>| {
                while rsched_obs::snapshot().counter_delta(base, EMPTY) == 0 {
                    std::thread::yield_now();
                }
                prod.push(seed_priority, seed_task).unwrap();
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = serve(&handler, producers);
    assert_eq!(handler.into_dist(), dijkstra(&g, 0), "streamed SSSP diverged from Dijkstra");
    stats
}

#[test]
fn service_runs_emit_trace_and_metrics() {
    let base = rsched_obs::snapshot();
    let runs = [connectivity_run(), sssp_run()];

    // The metrics layer keeps its own books; they must agree with the
    // exactly-once ledgers bit for bit, or one of the two is lying.
    let snap = rsched_obs::snapshot();
    let delta = |outcome: &str| {
        snap.counter_delta(&base, &format!(r#"engine_pop_total{{outcome="{outcome}"}}"#))
    };
    let total = |field: fn(&ServiceStats) -> u64| runs.iter().map(field).sum::<u64>();
    assert_eq!(delta("success"), total(|s| s.processed));
    assert_eq!(delta("blocked"), total(|s| s.wasted));
    assert_eq!(delta("obsolete"), total(|s| s.obsolete));
    assert_eq!(delta("empty"), total(|s| s.empty_pops));

    let trace = rsched_obs::chrome_trace_json();
    assert_valid_json(&trace, "chrome trace");
    assert!(trace.starts_with(r#"{"traceEvents":["#), "not a chrome trace container");
    for needle in [r#""ph":"X""#, r#""name":"engine_run""#, r#""ph":"M""#] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }

    let metrics = snap.text();
    // One probe family per instrumented layer: worker engine (pops,
    // batches, service times), sharded scheduler (steals, fairness probes)
    // and the reclamation backend. Counters that need backpressure to
    // fire (service_producer_park_total / service_producer_unpark_total)
    // are deliberately absent: these runs never park.
    for family in [
        r#"engine_pop_total{outcome="success"}"#,
        r#"engine_pop_total{outcome="empty"}"#,
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
