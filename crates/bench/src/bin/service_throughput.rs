//! Streaming-service throughput: live producers feeding the sharded
//! scheduler while the worker engine drains it (`rsched_core::service`).
//!
//! Unlike every other binary in this crate, nothing is prefilled — the
//! point is steady-state behaviour with ingestion and draining running
//! concurrently:
//!
//! * **connectivity** — producers stream edge ids into the live
//!   scheduler; a latency-recording handler wraps the CAS union-find.
//!   Per-task latency runs from the moment the producer *offers* the task
//!   (before it waits in the producer's run or on the watermark) to the
//!   worker's terminal decision, so queueing delay is included — this is
//!   the service's latency, not the handler's. Reported: sustained ops/sec and
//!   p50/p95/p99 task latency.
//! * **sssp** — repeated single-source floods where the producers seed one
//!   request and the entire wavefront arrives as handler follow-up
//!   submits; each rep's distances are asserted against Dijkstra.
//!   Reported: median flood wall-clock and relaxation throughput.
//!
//! Every run asserts the exactly-once ledger
//! (`ServiceStats::exactly_once`) — a dropped or duplicated task fails
//! the bench, not just skews it.
//!
//! Latency percentiles are read from a log-bucketed histogram
//! ([`rsched_obs::hist::LogHistogram`], < 1/16 relative error) rather
//! than a sorted sample vector, so the offline report and the live
//! `--metrics` snapshot use the same machinery. When built with
//! `--features obs`, the run additionally cross-checks the observability
//! layer's `engine_pop_total` counters against the exactly-once ledger.
//!
//! Usage: `service_throughput [--workload all|connectivity|sssp] [--n N]
//! [--m M] [--producers P] [--workers W] [--flush-batch F] [--watermark H]
//! [--batch-size B] [--shards S]
//! [--reps R] [--seed S] [--reclaim ebr|vbr] [--trace PATH]
//! [--metrics [PATH]] [--quick]`
//!
//! `--reclaim vbr` swaps the shard queues' memory reclamation from the
//! default epoch scheme to version-based reclamation (no pin on the pop
//! path; see DESIGN.md "Reclamation semantics").

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_bench::{BenchCli, Table};
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::algorithms::sssp::dijkstra;
use rsched_core::framework::TaskOutcome;
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, RequestHandler, ServiceConfig,
    SsspHandler, SubmitCtx,
};
use rsched_core::TaskId;
use rsched_graph::{gen, WeightedCsr};
use rsched_obs::hist::LogHistogram;
use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched_queues::sharded::ShardedScheduler;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wraps any handler, stamping each task's terminal decision time against
/// a shared clock; the producer side stamps the offer time into
/// `push_ns` before pushing.
struct TimedHandler<'a, H> {
    inner: &'a H,
    clock: &'a Instant,
    done_ns: &'a [AtomicU64],
}

impl<H: RequestHandler> RequestHandler for TimedHandler<'_, H> {
    fn handle(&self, priority: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        let outcome = self.inner.handle(priority, task, ctx);
        if outcome != TaskOutcome::Blocked {
            self.done_ns[task as usize]
                .store(self.clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        outcome
    }
}

struct Knobs {
    producers: usize,
    reps: usize,
    seed: u64,
    config: ServiceConfig,
    shards: usize,
    /// The backend's [`Reclaim::name`].
    reclaim: &'static str,
}

/// `--reclaim`'s value matched case-insensitively against each backend's
/// [`Reclaim::name`]; absent means EBR.
fn reclaim_name(arg: Option<&str>) -> &'static str {
    let Some(arg) = arg else { return Ebr::name() };
    [Ebr::name(), Vbr::name()]
        .into_iter()
        .find(|name| arg.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            panic!(
                "--reclaim: unknown reclamation backend {arg:?} (expected {}|{})",
                Ebr::name(),
                Vbr::name()
            )
        })
}

fn sched<R: Reclaim>(shards: usize) -> ShardedScheduler<LockFreeMultiQueue<TaskId, R>> {
    ShardedScheduler::from_fn(shards, |_| LockFreeMultiQueue::new_in(4))
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    xs[xs.len() / 2]
}

/// Running pop-outcome totals across every rep of the process, matched
/// against the observability layer's `engine_pop_total` counters (which
/// are global and monotone, so they aggregate the same way) at exit.
#[derive(Default)]
struct LedgerTotals {
    processed: u64,
    wasted: u64,
    obsolete: u64,
    empty: u64,
}

impl LedgerTotals {
    fn absorb(&mut self, stats: &rsched_core::service::ServiceStats) {
        self.processed += stats.processed;
        self.wasted += stats.wasted;
        self.obsolete += stats.obsolete;
        self.empty += stats.empty_pops;
    }
}

/// One connectivity rep: live-stream `edges.len()` edge ids through the
/// service, returning `(ops/sec, (p50, p95, p99) latency in µs)`.
///
/// Latency percentiles come from a log-bucketed [`LogHistogram`] (shared
/// with the observability layer's `service_request_latency_ns`), not a
/// sorted sample vector — identical machinery online and offline, with
/// bounded relative error instead of an O(m log m) sort per rep.
fn connectivity_rep<R: Reclaim>(
    n: usize,
    edges: &[(u32, u32)],
    expected: &[u32],
    knobs: &Knobs,
    totals: &mut LedgerTotals,
) -> (f64, (f64, f64, f64)) {
    let m = edges.len() as u32;
    let alg = ConcurrentConnectivity::new(n, edges);
    let handler = AlgorithmHandler(&alg);
    let clock = Instant::now();
    let push_ns: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(0)).collect();
    let done_ns: Vec<AtomicU64> = (0..m).map(|_| AtomicU64::new(0)).collect();
    let timed = TimedHandler { inner: &handler, clock: &clock, done_ns: &done_ns };
    let q = sched::<R>(knobs.shards);
    let np = knobs.producers as u32;
    let producers: Vec<ProducerFn<'_>> = (0..np)
        .map(|p| {
            let push_ns = &push_ns;
            Box::new(move |prod: Producer<'_>| {
                for e in (p..m).step_by(np as usize) {
                    push_ns[e as usize].store(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    prod.push(u64::from(e), e).unwrap();
                }
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&timed, &q, &knobs.config, producers);
    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    assert_eq!(stats.accepted, u64::from(m));
    assert_eq!(alg.into_labels(), expected, "streamed connectivity diverged");
    totals.absorb(&stats);
    let lat = LogHistogram::new();
    for e in 0..m as usize {
        let d = done_ns[e].load(Ordering::Relaxed);
        let p = push_ns[e].load(Ordering::Relaxed);
        assert!(d >= p, "task decided before it was offered");
        lat.record(d - p);
        rsched_obs::hist!("service_request_latency_ns").record(d - p);
    }
    let (p50, p95, p99) = lat.percentiles();
    let us = |ns: u64| ns as f64 / 1_000.0;
    (stats.accepted as f64 / stats.elapsed.as_secs_f64(), (us(p50), us(p95), us(p99)))
}

/// One SSSP rep: a single seeded flood; returns `(flood seconds,
/// relaxations/sec)` where a "relaxation" is one accepted wavefront task.
fn sssp_rep<R: Reclaim>(
    g: &WeightedCsr,
    expected: &[u64],
    knobs: &Knobs,
    totals: &mut LedgerTotals,
) -> (f64, f64) {
    let handler = SsspHandler::new(g);
    let q = sched::<R>(knobs.shards);
    let (seed_priority, seed_task) = handler.request(0, 0);
    let producers: Vec<ProducerFn<'_>> = (0..knobs.producers)
        .map(|_| {
            Box::new(move |prod: Producer<'_>| {
                prod.push(seed_priority, seed_task).unwrap();
            }) as ProducerFn<'_>
        })
        .collect();
    let stats = run_service(&handler, &q, &knobs.config, producers);
    assert!(stats.exactly_once(), "ledger out of balance: {stats:?}");
    assert_eq!(handler.into_dist(), expected, "streamed SSSP diverged from Dijkstra");
    totals.absorb(&stats);
    (stats.elapsed.as_secs_f64(), stats.accepted as f64 / stats.elapsed.as_secs_f64())
}

fn main() {
    let mut options = vec![
        ("--workload W", "all | connectivity | sssp (default all)"),
        ("--n N", "vertex count"),
        ("--m M", "edge count"),
        ("--producers P", "producer threads (default 4)"),
        ("--workers W", "worker threads (default 4)"),
        ("--flush-batch F", "longest producer run before it is flushed (default 256)"),
        ("--watermark H", "per-shard high watermark; 0 disables (default 0)"),
        ("--batch-size B", "worker pop batch size (default 8)"),
        ("--shards S", "scheduler shards (default 3)"),
        ("--reps R", "repetitions per workload"),
        ("--seed S", "base RNG seed"),
        ("--reclaim R", "scheduler memory reclamation: ebr | vbr (default ebr)"),
    ];
    options.extend_from_slice(&rsched_bench::obs::OPTIONS);
    let Some(cli) = BenchCli::parse(
        "service_throughput",
        "Streaming-service throughput: live producers over the sharded scheduler.",
        &options,
    ) else {
        return;
    };
    let (args, quick) = (cli.args, cli.quick);
    let obs_base = rsched_obs::snapshot();
    let mut totals = LedgerTotals::default();
    let workload = args.get_str("workload").unwrap_or("all");
    assert!(
        matches!(workload, "all" | "connectivity" | "sssp"),
        "--workload expects all, connectivity, or sssp"
    );
    let n = args.get_usize("n", if quick { 5_000 } else { 50_000 });
    let m = args.get_usize("m", if quick { 20_000 } else { 200_000 });
    let watermark = args.get_usize("watermark", 0);
    let knobs = Knobs {
        producers: args.get_usize("producers", 4),
        reps: args.get_usize("reps", if quick { 1 } else { 3 }),
        seed: args.get_u64("seed", 23),
        config: ServiceConfig {
            workers: args.get_usize("workers", 4),
            batch_size: args.get_usize("batch-size", 8),
            flush_batch: args.get_usize("flush-batch", 256),
            shard_watermark: if watermark == 0 { usize::MAX } else { watermark },
            ..Default::default()
        },
        shards: args.get_usize("shards", 3),
        reclaim: reclaim_name(args.get_str("reclaim")),
    };
    assert!(knobs.producers >= 1, "--producers must be positive");
    assert!(knobs.reps >= 1, "--reps must be positive");
    assert!(knobs.shards >= 1, "--shards must be positive");

    println!(
        "streaming service: {} producers -> {} shards -> {} workers (batch {}, reclaim {})\n",
        knobs.producers, knobs.shards, knobs.config.workers, knobs.config.batch_size, knobs.reclaim
    );

    if workload != "sssp" {
        let edges = gen::gnm(n, m, &mut StdRng::seed_from_u64(knobs.seed)).edge_list();
        let expected = components(n, &edges);
        let mut ops = Vec::new();
        let (mut p50s, mut p95s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..knobs.reps {
            let (o, (p50, p95, p99)) = if knobs.reclaim == Vbr::name() {
                connectivity_rep::<Vbr>(n, &edges, &expected, &knobs, &mut totals)
            } else {
                connectivity_rep::<Ebr>(n, &edges, &expected, &knobs, &mut totals)
            };
            ops.push(o);
            p50s.push(p50);
            p95s.push(p95);
            p99s.push(p99);
        }
        let row = (median_f64(ops), median_f64(p50s), median_f64(p95s), median_f64(p99s));
        let mut t = Table::new(&["connectivity", "ops/sec", "p50 µs", "p95 µs", "p99 µs"]);
        t.row(&[
            &format!("{} edges", edges.len()),
            &format!("{:.0}", row.0),
            &format!("{:.1}", row.1),
            &format!("{:.1}", row.2),
            &format!("{:.1}", row.3),
        ]);
        println!("{t}");
        println!(
            "latency = producer offer -> worker decision (medians over {} reps)\n",
            knobs.reps
        );
    }
    if workload != "connectivity" {
        let mut rng = StdRng::seed_from_u64(knobs.seed ^ 0x55);
        let g = gen::gnm(n / 2, m / 2, &mut rng);
        let g = WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng);
        let expected = dijkstra(&g, 0);
        let mut floods = Vec::new();
        let mut relax = Vec::new();
        for _ in 0..knobs.reps {
            let (secs, rps) = if knobs.reclaim == Vbr::name() {
                sssp_rep::<Vbr>(&g, &expected, &knobs, &mut totals)
            } else {
                sssp_rep::<Ebr>(&g, &expected, &knobs, &mut totals)
            };
            floods.push(secs);
            relax.push(rps);
        }
        let row = (median_f64(floods), median_f64(relax));
        let mut t = Table::new(&["sssp", "flood ms", "relaxations/sec"]);
        t.row(&[
            &format!("{} vertices", g.num_vertices()),
            &format!("{:.2}", row.0 * 1_000.0),
            &format!("{:.0}", row.1),
        ]);
        println!("{t}");
        println!("each flood seeded live, wavefront entirely handler-submitted\n");
    }

    if rsched_obs::ENABLED {
        // The metrics layer keeps its own books; they must agree with the
        // exactly-once ledger bit for bit, or one of the two is lying.
        let snap = rsched_obs::snapshot();
        let d = |name: &str| snap.counter_delta(&obs_base, name);
        assert_eq!(d(r#"engine_pop_total{outcome="success"}"#), totals.processed);
        assert_eq!(d(r#"engine_pop_total{outcome="blocked"}"#), totals.wasted);
        assert_eq!(d(r#"engine_pop_total{outcome="obsolete"}"#), totals.obsolete);
        assert_eq!(d(r#"engine_pop_total{outcome="empty"}"#), totals.empty);
        println!("obs: engine_pop_total counters reconcile with the exactly-once ledger\n");
    }

    rsched_bench::obs::emit(&args);
}
