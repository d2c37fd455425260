//! Conservation law of the observability layer: the per-worker
//! `engine_pop_total` / `seq_pop_total` counter cells, summed at snapshot
//! time, must land exactly on the executors' own ledgers
//! ([`ConcurrentStats`] / [`ExecutionStats`] / [`ServiceStats`]) under
//! arbitrary schedules — thread counts, batch sizes, shard counts, and
//! instance sizes are all proptest-driven.
//!
//! The metrics registry is process-global and monotone, so every check is
//! a snapshot *diff* around the run; a mutex serialises the runs because
//! the test harness is multi-threaded and a concurrent run would bleed
//! into another test's delta.
//!
//! Built only with `--features obs` (see `Cargo.toml`); the disabled
//! half of the gate is pinned by `rsched-obs/tests/zero_cost.rs`.
//!
//! [`ConcurrentStats`]: rsched_core::stats::ConcurrentStats
//! [`ExecutionStats`]: rsched_core::stats::ExecutionStats
//! [`ServiceStats`]: rsched_core::service::ServiceStats

#![cfg(not(rsched_model))]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::ConcurrentConnectivity;
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::algorithms::mis::ConcurrentMis;
use rsched_core::framework::{
    fill_scheduler, run_concurrent_batched, run_relaxed_batched, TaskOutcome,
};
use rsched_core::service::{
    run_service, Producer, ProducerFn, RequestHandler, ServiceConfig, SubmitCtx,
};
use rsched_core::TaskId;
use rsched_graph::{gen, Permutation};
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::relaxed::SimMultiQueue;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::PriorityScheduler;
use std::sync::Mutex;

/// Serialises every counter-diffing test body; the registry is global.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn delta(
    end: &rsched_obs::Snapshot,
    base: &rsched_obs::Snapshot,
    outcome: &str,
    family: &str,
) -> u64 {
    end.counter_delta(base, &format!(r#"{family}{{outcome="{outcome}"}}"#))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent engine: counter deltas equal the run's ledger exactly,
    /// for every pop outcome, under arbitrary (threads, batch, shards, n).
    #[test]
    fn engine_counters_conserve(
        threads in 1usize..=4,
        batch in 1usize..=8,
        shards in 1usize..=3,
        n in 64usize..=400,
        seed in 0u64..1000,
    ) {
        let _guard = locked();
        let m = n * 3;
        let edges = gen::gnm(n, m, &mut StdRng::seed_from_u64(seed)).edge_list();
        let pi = insertion_order(edges.len(), seed ^ 0x9E37);
        let alg = ConcurrentConnectivity::new(n, &edges);
        let sched: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2));
        fill_scheduler(&sched, &pi);

        let base = rsched_obs::snapshot();
        let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
        let end = rsched_obs::snapshot();

        prop_assert_eq!(delta(&end, &base, "success", "engine_pop_total"), stats.processed);
        prop_assert_eq!(delta(&end, &base, "blocked", "engine_pop_total"), stats.wasted);
        prop_assert_eq!(delta(&end, &base, "obsolete", "engine_pop_total"), stats.obsolete);
        prop_assert_eq!(delta(&end, &base, "empty", "engine_pop_total"), stats.empty_pops);
        // And the ledger itself must balance, or the equalities above are
        // agreeing on nonsense.
        prop_assert_eq!(stats.processed + stats.obsolete, edges.len() as u64);

        // MIS answers `is_obsolete`, so its run purges: the obsolete counter
        // takes purged entries by the call, and must still land on a ledger
        // whose `obsolete` includes them.
        let g = gen::gnm(n, m, &mut StdRng::seed_from_u64(seed ^ 1));
        let pi = Permutation::random(n, &mut StdRng::seed_from_u64(seed ^ 2));
        let alg = ConcurrentMis::new(&g, &pi);
        let sched: ShardedScheduler<MultiQueue<TaskId>> =
            ShardedScheduler::from_fn(shards, |_| MultiQueue::new(2));
        fill_scheduler(&sched, &pi);

        let base = rsched_obs::snapshot();
        let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
        let end = rsched_obs::snapshot();

        prop_assert_eq!(delta(&end, &base, "success", "engine_pop_total"), stats.processed);
        prop_assert_eq!(delta(&end, &base, "blocked", "engine_pop_total"), stats.wasted);
        prop_assert_eq!(delta(&end, &base, "obsolete", "engine_pop_total"), stats.obsolete);
        prop_assert_eq!(delta(&end, &base, "empty", "engine_pop_total"), stats.empty_pops);
        prop_assert_eq!(stats.total_pops, stats.processed + stats.wasted + stats.obsolete);
        prop_assert!(0 < stats.purged && stats.purged <= stats.obsolete, "{}", stats);
    }

    /// Sequential framework: `seq_pop_total` deltas equal the
    /// `ExecutionStats` ledger for arbitrary (k, batch, n).
    #[test]
    fn sequential_counters_conserve(
        k in 1usize..=16,
        batch in 1usize..=8,
        n in 32usize..=300,
        seed in 0u64..1000,
    ) {
        let _guard = locked();
        let g = gen::gnm(n, n * 2, &mut StdRng::seed_from_u64(seed));
        let pi = Permutation::random(n, &mut StdRng::seed_from_u64(seed ^ 1));
        let sched = SimMultiQueue::new(k, StdRng::seed_from_u64(seed ^ 2));

        let base = rsched_obs::snapshot();
        let stats = run_relaxed_batched(&ConcurrentMis::new(&g, &pi), &pi, sched, batch);
        let end = rsched_obs::snapshot();

        prop_assert_eq!(delta(&end, &base, "success", "seq_pop_total"), stats.processed);
        prop_assert_eq!(delta(&end, &base, "blocked", "seq_pop_total"), stats.wasted);
        prop_assert_eq!(delta(&end, &base, "obsolete", "seq_pop_total"), stats.obsolete);
    }
}

/// Sequential sharded scheduler: every insert path credits the
/// `sharded_shard_load` gauges every pop debits — a batch longer than the
/// shard count takes the scatter path, which once skipped the credit.
#[test]
fn sequential_sharded_load_gauge_conserves() {
    let _guard = locked();
    let load = |snap: &rsched_obs::Snapshot| -> i64 {
        (0..2).map(|shard| snap.gauge(&format!(r#"sharded_shard_load{{shard="{shard}"}}"#))).sum()
    };
    let mut sched: ShardedScheduler<SimMultiQueue<TaskId, StdRng>> =
        ShardedScheduler::from_fn(2, |i| SimMultiQueue::new(2, StdRng::seed_from_u64(i as u64)));
    let entries: Vec<(u64, TaskId)> = (0..100).map(|t| (u64::from(t), t)).collect();

    let base = rsched_obs::snapshot();
    sched.insert_batch(&entries);
    assert_eq!(load(&rsched_obs::snapshot()) - load(&base), 100);
    while sched.pop().is_some() {}
    assert_eq!(load(&rsched_obs::snapshot()) - load(&base), 0);
}

/// An always-`Processed` handler that chains one follow-up submit per
/// seed task, so accepted > pushed and the ledger's submit half is live.
struct ChainingHandler {
    span: u32,
}

impl RequestHandler for ChainingHandler {
    fn handle(&self, _priority: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        if task < self.span {
            ctx.submit(u64::from(task), task + self.span);
        }
        TaskOutcome::Processed
    }
}

/// Streaming service: the engine drives the drain, so its counters must
/// conserve against `ServiceStats` — the same exactly-once ledger the
/// service already asserts internally.
#[test]
fn service_counters_conserve() {
    let _guard = locked();
    let span = 500u32;
    let handler = ChainingHandler { span };
    let q: ShardedScheduler<MultiQueue<TaskId>> =
        ShardedScheduler::from_fn(2, |_| MultiQueue::new(2));
    let config = ServiceConfig {
        workers: 3,
        batch_size: 4,
        flush_batch: 16,
        shard_watermark: usize::MAX,
        ..Default::default()
    };
    let producers: Vec<ProducerFn<'_>> = (0..2u32)
        .map(|p| {
            Box::new(move |prod: Producer<'_>| {
                for t in (p..span).step_by(2) {
                    prod.push(u64::from(t), t).unwrap();
                }
            }) as ProducerFn<'_>
        })
        .collect();

    let base = rsched_obs::snapshot();
    let stats = run_service(&handler, &q, &config, producers);
    let end = rsched_obs::snapshot();

    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    assert_eq!(stats.accepted, u64::from(span) * 2, "each seed chains one follow-up");
    assert_eq!(delta(&end, &base, "success", "engine_pop_total"), stats.processed);
    assert_eq!(delta(&end, &base, "blocked", "engine_pop_total"), stats.wasted);
    assert_eq!(delta(&end, &base, "obsolete", "engine_pop_total"), stats.obsolete);
    assert_eq!(delta(&end, &base, "empty", "engine_pop_total"), stats.empty_pops);
}
