//! `service_conn`: incremental connectivity behind the streaming service —
//! the only path through `core::service` (ingest queue → pump →
//! `insert_batch` → engine → handler), the lock-free MultiQueue and
//! reclamation.
//!
//! One producer (the load generator), one pump thread and
//! `max(1, nproc − 1)` workers. Two kinds of load:
//!
//! * **saturation** — a closed loop on the ingest queue: the producer pushes
//!   as fast as `Producer::push` accepts. This is the end-to-end solve.
//! * **fixed rate** (`r500k`, `r1m`; traced run only) — an open loop:
//!   callers are independent, so request *i* is due at *i*/rate whatever the
//!   system does, a spin-paced producer issues it then, and latency runs
//!   **from the due instant** to the handler's terminal decision. The
//!   generator's own lateness is reported beside it.

use super::{
    record_engine, record_layer_probes, record_overhead, record_sched, record_shares,
    sample_rss_once, set_up, Ctx, MIN_REPS, TRACED_REPS,
};
use crate::probes::{self, NoopAlg};
use crate::stats::{ms, quantile_sorted, timed, Budget, Recorder};
use crate::sys::service_workers;
use crate::trace::{Clock, Stamps, TracedAlg, TracedSched, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched_core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched_core::service::{
    run_service, AlgorithmHandler, Producer, ProducerFn, ServiceConfig, ServiceStats,
};
use rsched_core::TaskId;
use rsched_graph::gen;
use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::reclaim::Ebr;
use rsched_queues::sharded::ShardedScheduler;
use rsched_queues::{ConcurrentScheduler, SchedulerLoad};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A push that takes longer than this waited on a full ingest queue.
const PUSH_BLOCKED_NS: u64 = 10_000;
/// The latency limit of `core.service.slo_miss_share`.
const SLO_NS: u64 = 25_000_000;

type Relaxed = ShardedScheduler<LockFreeMultiQueue<TaskId, Ebr>>;

/// The service's scheduler: one shard per worker, four Harris lists each.
/// Tasks reach it only through the pump's `insert_batch`, so its queues stay
/// short (scalar `insert` into a long list is the README's first trap).
fn relaxed_sched(workers: usize) -> Relaxed {
    ShardedScheduler::from_fn(workers, |_| LockFreeMultiQueue::new_in(4))
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        batch_size: 8,
        ingest_queues: 1,
        queue_capacity: 1024,
        flush_batch: 256,
        shard_watermark: usize::MAX,
        pump_threads: 1,
    }
}

struct Service {
    vertices: usize,
    edges: Vec<(u32, u32)>,
    /// `components` over all of `edges`.
    reference: Vec<u32>,
}

#[derive(Clone, Copy)]
enum Load {
    /// Push as fast as `push` accepts.
    Saturate,
    /// As `Saturate`, timing every push (traced run).
    SaturateTimed,
    /// Issue request `i` at `i / per_s` seconds.
    Paced { per_s: f64 },
}

/// What the producer saw.
#[derive(Default)]
struct PushLog {
    first_push_ns: u64,
    last_push_ns: u64,
    refused: u64,
    /// `SaturateTimed`: time inside `push`, and the part of it in pushes
    /// longer than [`PUSH_BLOCKED_NS`].
    push_ns: u64,
    blocked_ns: u64,
    /// `Paced`: how late each request was issued.
    late_ns: Vec<u64>,
}

/// One streamed rep.
struct Streamed {
    stats: ServiceStats,
    log: PushLog,
    /// First push → `run_service` returned.
    wall_s: f64,
    end_ns: u64,
}

/// Streams requests `0..requests` (request `i` = edge `i`, priority `i`)
/// through `run_service` over `sched` and `alg`.
fn stream<S, A>(
    alg: &A,
    sched: &S,
    workers: usize,
    requests: u32,
    load: Load,
    clock: &Clock,
) -> Streamed
where
    S: ConcurrentScheduler<TaskId> + SchedulerLoad,
    A: ConcurrentAlgorithm,
{
    let slot: Mutex<PushLog> = Mutex::default();
    let producer: ProducerFn<'_> = Box::new(|prod: Producer<'_>| {
        let mut log = PushLog::default();
        if let Load::Paced { .. } = load {
            // Real writes, so the pages are mapped before the clock starts.
            log.late_ns = vec![u64::MAX; requests as usize];
        }
        let start = clock.now_ns();
        log.first_push_ns = start;
        for i in 0..requests {
            let pushed = match load {
                Load::Saturate => prod.push(u64::from(i), i),
                Load::SaturateTimed => {
                    let t0 = clock.now_ns();
                    let pushed = prod.push(u64::from(i), i);
                    let spent = clock.now_ns() - t0;
                    log.push_ns += spent;
                    if spent > PUSH_BLOCKED_NS {
                        log.blocked_ns += spent;
                    }
                    pushed
                }
                Load::Paced { per_s } => {
                    let due = start + due_offset_ns(i, per_s);
                    let mut now = clock.now_ns();
                    while now < due {
                        std::hint::spin_loop();
                        now = clock.now_ns();
                    }
                    log.late_ns[i as usize] = now - due;
                    prod.push(u64::from(i), i)
                }
            };
            log.refused += pushed.is_err() as u64;
        }
        log.last_push_ns = clock.now_ns();
        *slot.lock().expect("producer slot") = log;
    });
    let stats = run_service(&AlgorithmHandler(alg), sched, &config(workers), vec![producer]);
    let end_ns = clock.now_ns();
    let log = slot.into_inner().expect("producer slot");
    let wall_s = (end_ns - log.first_push_ns) as f64 / 1e9;
    Streamed { stats, log, wall_s, end_ns }
}

/// When request `i` of a `per_s` stream is due, in ns after the first.
fn due_offset_ns(i: u32, per_s: f64) -> u64 {
    (f64::from(i) * 1e9 / per_s) as u64
}

/// Stamps each task's terminal decision (the end of its latency).
struct DoneStamp<'a, A> {
    inner: &'a A,
    clock: &'a Clock,
    done_ns: &'a [AtomicU64],
}

impl<A: ConcurrentAlgorithm> ConcurrentAlgorithm for DoneStamp<'_, A> {
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }

    fn remaining(&self) -> usize {
        self.inner.remaining()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let outcome = self.inner.try_process(task);
        if outcome != TaskOutcome::Blocked {
            self.done_ns[task as usize].store(self.clock.now_ns(), Ordering::Relaxed);
        }
        outcome
    }
}

fn zeroed(len: usize) -> Vec<AtomicU64> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl Service {
    /// Counts `requests` streamed requests as attempted and every way they
    /// can have gone wrong as failed: refused pushes, requests not decided
    /// exactly once, vertices whose label differs from `components`.
    fn check(
        &self,
        rec: &mut Recorder,
        requests: u32,
        alg: ConcurrentConnectivity<'_>,
        s: &Streamed,
    ) {
        let reference;
        let expected = if requests as usize == self.edges.len() {
            &self.reference
        } else {
            reference = components(self.vertices, &self.edges[..requests as usize]);
            &reference
        };
        let undecided = s.stats.accepted.abs_diff(s.stats.decided)
            + (s.stats.processed + s.stats.obsolete).abs_diff(s.stats.decided)
            + u64::from(requests).abs_diff(s.stats.accepted + s.log.refused);
        let labels = alg.into_labels();
        let mislabeled = labels.iter().zip(expected).filter(|(a, b)| a != b).count() as u64;
        debug_assert!(s.stats.exactly_once() || undecided > 0);
        rec.attempted += u64::from(requests);
        rec.failed += (s.log.refused + undecided + mislabeled).min(u64::from(requests));
    }

    fn conn(&self, requests: u32) -> ConcurrentConnectivity<'_> {
        ConcurrentConnectivity::new(self.vertices, &self.edges[..requests as usize])
    }

    /// One untraced saturation rep over `sched`, checked.
    fn saturate<S>(&self, rec: &mut Recorder, sched: &S, workers: usize) -> Streamed
    where
        S: ConcurrentScheduler<TaskId> + SchedulerLoad,
    {
        let requests = self.edges.len() as u32;
        let alg = self.conn(requests);
        let s = stream(&alg, sched, workers, requests, Load::Saturate, &Clock::default());
        self.check(rec, requests, alg, &s);
        s
    }

    fn end_to_end(&self, ctx: &mut Ctx<'_>) {
        let (workers, rec) = (service_workers(), &mut *ctx.rec);
        let mut budget = Budget::new(ctx.seconds, MIN_REPS);
        while budget.next_rep() {
            let relaxed = self.saturate(rec, &relaxed_sched(workers), workers);
            rec.sample("solve_s", relaxed.wall_s);

            let (labels, secs) = timed(|| components(self.vertices, &self.edges));
            rec.sample("seq_s", secs);
            rec.check(labels == self.reference);

            // Exact order: the same pipeline over one heap behind one lock.
            let exact = ShardedScheduler::from_fn(1, |_| MultiQueue::<TaskId>::new(1));
            let exact = self.saturate(rec, &exact, workers);
            rec.sample("exact_s", exact.wall_s);
            sample_rss_once(rec);
        }
    }

    /// One fixed-rate rep, untraced (`stamps` absent) or traced. Records
    /// the latency percentiles under `names`, the generator's lateness,
    /// and with stamps the three-stage split.
    fn paced(
        &self,
        rec: &mut Recorder,
        per_s: f64,
        secs: f64,
        tracer: Option<&Tracer>,
        names: &PacedNames,
    ) {
        let workers = service_workers();
        let requests = ((per_s * secs) as usize).clamp(1, self.edges.len()) as u32;
        let plain = self.conn(requests);
        let done = zeroed(requests as usize);
        let s;
        let stamps = tracer.map(|_| Stamps::new(requests as usize));
        if let Some(tracer) = tracer {
            let traced = TracedAlg::new(&plain, tracer);
            let alg = DoneStamp { inner: &traced, clock: &tracer.clock, done_ns: &done };
            let sched = TracedSched::new(relaxed_sched(workers), tracer, stamps.as_ref());
            (s, _) = tracer.phase("run", "core.service", || {
                stream(&alg, &sched, workers, requests, Load::Paced { per_s }, &tracer.clock)
            });
        } else {
            let clock = Clock::default();
            let alg = DoneStamp { inner: &plain, clock: &clock, done_ns: &done };
            s = stream(
                &alg,
                &relaxed_sched(workers),
                workers,
                requests,
                Load::Paced { per_s },
                &clock,
            );
        }
        self.check(rec, requests, plain, &s);

        let due = |i: usize| s.log.first_push_ns + due_offset_ns(i as u32, per_s);
        let at = |stamps: &[AtomicU64], i: usize| stamps[i].load(Ordering::Relaxed);
        let mut lat: Vec<u64> =
            (0..requests as usize).map(|i| at(&done, i).saturating_sub(due(i))).collect();
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        rec.sample(names.mean, ms(mean(&lat)));
        lat.sort_unstable();
        rec.sample(names.p50, ms(quantile_sorted(&lat, 0.50) as f64));
        rec.sample(names.p99, ms(quantile_sorted(&lat, 0.99) as f64));
        if let Some(slo) = names.slo_miss {
            let missed = lat.len() - lat.partition_point(|&l| l <= SLO_NS);
            rec.sample(slo, missed as f64 / lat.len() as f64);
        }
        let mut late = s.log.late_ns.clone();
        late.sort_unstable();
        rec.sample("bench.gen_late_ms_p99", ms(quantile_sorted(&late, 0.99) as f64));

        if let Some(stamps) = &stamps {
            // due → scheduler insert → pop → decision; the three stage
            // means telescope to the mean latency.
            let n = requests as usize;
            let mut stage = |name: [&'static str; 3],
                             from: &dyn Fn(usize) -> u64,
                             to: &dyn Fn(usize) -> u64| {
                let mut xs: Vec<u64> = (0..n).map(|i| to(i).saturating_sub(from(i))).collect();
                rec.sample(name[2], ms(mean(&xs)));
                xs.sort_unstable();
                rec.sample(name[0], ms(quantile_sorted(&xs, 0.50) as f64));
                rec.sample(name[1], ms(quantile_sorted(&xs, 0.99) as f64));
            };
            let inserted = |i: usize| at(&stamps.insert_ns, i);
            let popped = |i: usize| at(&stamps.pop_ns, i);
            stage(
                [
                    "core.service.ingest_ms_p50",
                    "core.service.ingest_ms_p99",
                    "core.service.ingest_ms_mean",
                ],
                &due,
                &inserted,
            );
            stage(
                ["queues.sojourn_ms_p50", "queues.sojourn_ms_p99", "queues.sojourn_ms_mean"],
                &inserted,
                &popped,
            );
            stage(
                [
                    "core.framework.dispatch_ms_p50",
                    "core.framework.dispatch_ms_p99",
                    "core.framework.dispatch_ms_mean",
                ],
                &popped,
                &|i| at(&done, i),
            );
        }
    }

    fn traced(&self, ctx: &mut Ctx<'_>, tracer: &Tracer) {
        let (workers, rec) = (service_workers(), &mut *ctx.rec);
        let reps = if ctx.quick { 1 } else { TRACED_REPS };
        let requests = self.edges.len() as u32;
        let m = f64::from(requests);

        for _ in 0..reps {
            let s = self.saturate(rec, &relaxed_sched(workers), workers);
            rec.sample("bench.untraced_solve_s", s.wall_s);
            rec.sample("core.service.sat_ops_per_s", s.stats.accepted as f64 / s.wall_s);
        }
        for _ in 0..reps {
            let plain = self.conn(requests);
            let alg = TracedAlg::new(&plain, tracer);
            let (sched, fill_s) = tracer
                .phase("fill", "queues", || TracedSched::new(relaxed_sched(workers), tracer, None));
            let (s, _) = tracer.phase("run", "core.service", || {
                let s = stream(&alg, &sched, workers, requests, Load::SaturateTimed, &tracer.clock);
                tracer.record("push", "core.service", s.log.first_push_ns, s.log.last_push_ns);
                tracer.record("drain", "core.service", s.log.last_push_ns, s.end_ns);
                s
            });
            rec.sample("queues.fill_s", fill_s);
            rec.sample("core.framework.run_s", s.stats.elapsed.as_secs_f64());
            rec.sample("bench.traced_solve_s", s.wall_s);
            let (q, a) = (sched.totals(), alg.totals());
            // The pump is a thread of the run too: its `insert_batch` time
            // is scheduler time, its waiting is the engine's.
            record_shares(rec, &q, &a, workers + 1, s.stats.elapsed.as_secs_f64());
            record_sched(rec, &q, requests as usize);
            let st = &s.stats;
            record_engine(
                rec,
                st.total_pops,
                st.wasted,
                st.obsolete,
                st.empty_pops,
                requests as usize,
            );
            rec.sample("core.algorithms.try_process_ns", a.busy_ns as f64 / a.calls.max(1) as f64);
            rec.sample("core.algorithms.cas_retries_per_op", plain.retries() as f64 / m);
            rec.sample("core.service.push_ns", s.log.push_ns as f64 / m);
            let pushing = (s.log.last_push_ns - s.log.first_push_ns).max(1) as f64;
            rec.sample("core.service.push_block_share", s.log.blocked_ns as f64 / pushing);
            rec.sample("core.service.drain_tail_ms", ms((s.end_ns - s.log.last_push_ns) as f64));
            let ((), _) = tracer.phase("verify", "bench", || self.check(rec, requests, plain, &s));
        }
        record_overhead(rec);

        // Fixed-rate phases: latency with tracing off, then the r500k
        // split with stamps on.
        let secs = if ctx.quick { 0.1 } else { (ctx.seconds / 10.0).clamp(0.5, 3.0) };
        for _ in 0..reps {
            self.paced(rec, 500_000.0, secs, None, &R500K);
            self.paced(rec, 1_000_000.0, secs, None, &R1M);
            self.paced(rec, 500_000.0, secs, Some(tracer), &R500K_TRACED);
        }

        // One layer at a time.
        let s = self.saturate(rec, &relaxed_sched(1), 1);
        rec.sample("core.framework.t1_run_s", s.stats.elapsed.as_secs_f64());

        let noop = NoopAlg::new(requests as usize);
        let s = stream(
            &noop,
            &relaxed_sched(workers),
            workers,
            requests,
            Load::Saturate,
            &tracer.clock,
        );
        rec.sample("core.framework.noop_ns", s.wall_s * 1e9 / m);

        let alg = self.conn(requests);
        let ((), solo) = timed(|| {
            for task in 0..requests {
                std::hint::black_box(alg.try_process(task));
            }
        });
        rec.sample("core.algorithms.solo_ns", solo * 1e9 / m);
        rec.check(alg.into_labels() == self.reference);
        let (_, seq) = timed(|| components(self.vertices, &self.edges));
        rec.sample("core.algorithms.seq_ns", seq * 1e9 / m);

        let probe = ShardedScheduler::prefilled_with(
            workers,
            probes::identity_entries(probes::RANK_PROBE_TASKS),
            |_, group| LockFreeMultiQueue::<TaskId, Ebr>::prefilled_in(4, group),
        );
        let (mean, p99) = probes::rank_error(&probe);
        rec.sample("queues.rank_err_mean", mean);
        rec.sample("queues.rank_err_p99", p99);
        record_layer_probes(rec);
    }
}

/// Metric names of one fixed-rate phase.
struct PacedNames {
    p50: &'static str,
    p99: &'static str,
    mean: &'static str,
    slo_miss: Option<&'static str>,
}

const R500K: PacedNames = PacedNames {
    p50: "core.service.lat_p50_ms_r500k",
    p99: "core.service.lat_p99_ms_r500k",
    mean: "core.service.lat_mean_ms_r500k",
    slo_miss: None,
};
const R1M: PacedNames = PacedNames {
    p50: "core.service.lat_p50_ms_r1m",
    p99: "core.service.lat_p99_ms_r1m",
    mean: "core.service.lat_mean_ms_r1m",
    slo_miss: Some("core.service.slo_miss_share"),
};
const R500K_TRACED: PacedNames = PacedNames {
    p50: "core.service.traced_lat_p50_ms_r500k",
    p99: "core.service.traced_lat_p99_ms_r500k",
    mean: "core.service.traced_lat_mean_ms_r500k",
    slo_miss: None,
};

pub fn run(ctx: &mut Ctx<'_>, tracer: Option<&Tracer>) {
    let m = if ctx.quick { 40_000 } else { 2_000_000 };
    let seed = ctx.seed;
    let input = set_up(ctx, tracer.is_some(), |rec| {
        let (edges, gen_s) =
            timed(|| gen::gnm(m / 4, m, &mut StdRng::seed_from_u64(seed)).edge_list());
        rec.sample("graph.gen_s", gen_s);
        rec.sample(
            "graph.input_mib",
            (edges.len() * size_of::<(u32, u32)>()) as f64 / (1 << 20) as f64,
        );
        let reference = components(m / 4, &edges);
        Service { vertices: m / 4, edges, reference }
    });
    match tracer {
        None => input.end_to_end(ctx),
        Some(tracer) => input.traced(ctx, tracer),
    }
}
