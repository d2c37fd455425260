//! The four workloads. Each module builds its input from the seed, then
//! either measures end to end (`--trace 0`: no wrapper anywhere near the
//! program) or runs the traced decomposition (`--trace 1`).
//!
//! `mis_sparse` and `delaunay_uniform` share one shape — prefill a
//! `BulkMultiQueue`, run the relaxed executor, compare with the sequential
//! output — so they share the code in this file through [`Prefill`].

pub mod delaunay;
pub mod mis;
pub mod service;
pub mod sssp;

use crate::probes::{self, NoopAlg};
use crate::stats::{timed, Budget, Recorder};
use crate::sys::{peak_rss_mib, prefill_threads};
use crate::trace::{AlgTotals, SchedTotals, TracedAlg, TracedSched, Tracer};
use rsched_core::framework::{run_concurrent_batched, run_exact_concurrent, ConcurrentAlgorithm};
use rsched_core::TaskId;
use rsched_graph::Permutation;
use rsched_queues::concurrent::BulkMultiQueue;
use rsched_queues::reclaim::{Ebr, Vbr};

/// What every workload is handed.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Length of the measurement window (`--seconds`).
    pub seconds: f64,
    pub quick: bool,
    pub rec: &'a mut Recorder,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reps an end-to-end run makes however short its window is.
const MIN_REPS: usize = 3;
/// Untraced and traced reps of a traced run.
const TRACED_REPS: usize = 3;

/// Builds the workload's input [`SETUPS`] times (once when `traced`),
/// sampling `setup_s` each time, and returns the last one. Each input is
/// dropped before the next is built, so the peak resident set is that of
/// one input.
fn set_up<I>(ctx: &mut Ctx<'_>, traced: bool, build: impl Fn(&mut Recorder) -> I) -> I {
    let rounds = if traced { 1 } else { SETUPS };
    let mut input = None;
    for _ in 0..rounds {
        drop(input.take());
        let (built, secs) = timed(|| build(ctx.rec));
        ctx.rec.sample("setup_s", secs);
        input = Some(built);
    }
    input.expect("at least one set-up")
}

/// Samples `peak_rss_mib` at the end of the first rep: the peak of the
/// set-up and one solve of each kind. Later reps add only what the allocator
/// keeps of their short-lived worker threads' arenas (`delaunay_uniform`
/// creeps from ~134 to 155–165 MiB over 13 reps, differently every run),
/// which is a tail statistic of the run length, not the cost of a solve.
pub fn sample_rss_once(rec: &mut Recorder) {
    if rec.get("peak_rss_mib").is_none() {
        rec.sample("peak_rss_mib", peak_rss_mib().expect("VmHWM in /proc/self/status"));
    }
}

/// A workload whose whole task set is in the scheduler before the run.
pub trait Prefill {
    type Alg<'a>: ConcurrentAlgorithm
    where
        Self: 'a;
    type Output;

    fn pi(&self) -> &Permutation;
    /// A fresh concurrent instance (built outside every timed region).
    fn alg(&self) -> Self::Alg<'_>;
    fn finish(&self, alg: Self::Alg<'_>) -> Self::Output;
    /// The plain sequential baseline.
    fn sequential(&self) -> Self::Output;
    /// Whether `out` is the sequential reference output.
    fn correct(&self, out: &Self::Output) -> bool;
    /// Workload-specific per-layer metrics read off a relaxed run's output.
    fn layer_metrics(&self, _out: &Self::Output, _rec: &mut Recorder) {}
}

/// The workload's scheduler, loaded: Figure 2's configuration (four sorted
/// runs per thread), every task at its permutation label.
fn prefilled(pi: &Permutation, threads: usize) -> BulkMultiQueue<TaskId> {
    BulkMultiQueue::prefilled_for_threads(
        threads,
        (0..pi.len() as TaskId).map(|v| (u64::from(pi.label(v)), v)),
    )
}

/// One untraced relaxed solve on `t` threads, its output checked: the time
/// of scheduler fill + parallel run (the scheduler is dropped off the clock).
fn relaxed_solve<W: Prefill>(w: &W, t: usize, rec: &mut Recorder) -> f64 {
    let alg = w.alg();
    let (sched, secs) = timed(|| {
        let sched = prefilled(w.pi(), t);
        run_concurrent_batched(&alg, w.pi(), &sched, t, 1);
        sched
    });
    drop(sched);
    rec.check(w.correct(&w.finish(alg)));
    secs
}

/// Runs a prefill workload in the mode the command line chose.
pub fn run_prefill<W: Prefill>(w: &W, ctx: &mut Ctx<'_>, tracer: Option<&Tracer>) {
    match tracer {
        None => prefill_end_to_end(w, ctx),
        Some(tracer) => prefill_traced(w, ctx, tracer),
    }
}

/// End-to-end reps of a prefill workload: relaxed solve, sequential
/// baseline and exact executor interleaved, every output checked.
fn prefill_end_to_end<W: Prefill>(w: &W, ctx: &mut Ctx<'_>) {
    let (pi, t) = (w.pi(), prefill_threads());
    let mut budget = Budget::new(ctx.seconds, MIN_REPS);
    while budget.next_rep() {
        let solve = relaxed_solve(w, t, ctx.rec);
        ctx.rec.sample("solve_s", solve);

        let (out, seq) = timed(|| w.sequential());
        ctx.rec.sample("seq_s", seq);
        ctx.rec.check(w.correct(&out));

        let alg = w.alg();
        let (_, exact) = timed(|| run_exact_concurrent(&alg, pi, t));
        ctx.rec.sample("exact_s", exact);
        ctx.rec.check(w.correct(&w.finish(alg)));
        sample_rss_once(ctx.rec);
    }
}

/// Records the three shares of a traced run of `threads` threads lasting
/// `wall_s`: scheduler busy, algorithm busy, and the rest (engine loop,
/// `remaining()` polling, backoff, idle). They sum to 1 by construction.
pub fn record_shares(
    rec: &mut Recorder,
    sched: &SchedTotals,
    alg: &AlgTotals,
    threads: usize,
    wall_s: f64,
) {
    let base_ns = threads as f64 * wall_s * 1e9;
    let queues = sched.busy_ns() as f64 / base_ns;
    let algorithms = alg.busy_ns as f64 / base_ns;
    rec.sample("queues.busy_share", queues);
    rec.sample("core.algorithms.busy_share", algorithms);
    rec.sample("core.framework.self_share", 1.0 - queues - algorithms);
}

/// Records the scheduler's per-element costs and traffic ratios over
/// `tasks` tasks.
pub fn record_sched(rec: &mut Recorder, s: &SchedTotals, tasks: usize) {
    if s.pop.elements > 0 {
        rec.sample("queues.pop_ns", s.pop.busy_ns as f64 / s.pop.elements as f64);
    }
    if s.insert.elements > 0 {
        rec.sample("queues.insert_ns", s.insert.busy_ns as f64 / s.insert.elements as f64);
    }
    rec.sample("queues.ops_per_task", (s.pop.calls + s.insert.calls) as f64 / tasks as f64);
    rec.sample("queues.empty_pop_share", s.empty_pops() as f64 / s.pop.calls.max(1) as f64);
}

/// Records the engine's useful-to-attempted ratios.
pub fn record_engine(
    rec: &mut Recorder,
    pops: u64,
    wasted: u64,
    obsolete: u64,
    empty: u64,
    tasks: usize,
) {
    let n = tasks as f64;
    rec.sample("core.framework.extra_pops_per_task", pops.saturating_sub(tasks as u64) as f64 / n);
    rec.sample("core.framework.wasted_share", wasted as f64 / pops.max(1) as f64);
    rec.sample("core.framework.obsolete_share", obsolete as f64 / pops.max(1) as f64);
    rec.sample("core.framework.empty_per_task", empty as f64 / n);
}

/// The probes that measure a layer, not a workload: they read the same on
/// every workload up to noise and are cheap, so every traced run takes them.
pub fn record_layer_probes(rec: &mut Recorder) {
    rec.sample("queues.reclaim.pop_ns_ebr", probes::reclaim_pop_ns::<Ebr>());
    rec.sample("queues.reclaim.pop_ns_vbr", probes::reclaim_pop_ns::<Vbr>());
    rec.sample("queues.lock.mcs_uncontended_ns", probes::mcs_uncontended_ns());
}

/// Records `bench.trace_overhead_share` from the untraced and traced solve
/// samples already taken.
pub fn record_overhead(rec: &mut Recorder) {
    let (plain, traced) = (rec.value("bench.untraced_solve_s"), rec.value("bench.traced_solve_s"));
    rec.sample("bench.trace_overhead_share", (traced - plain) / plain);
}

/// The traced decomposition of a prefill workload.
fn prefill_traced<W: Prefill>(w: &W, ctx: &mut Ctx<'_>, tracer: &Tracer) {
    let (pi, t, n) = (w.pi(), prefill_threads(), w.pi().len());
    let reps = if ctx.quick { 1 } else { TRACED_REPS };
    let rec = &mut *ctx.rec;

    // Untraced solves first: the base of `bench.trace_overhead_share`.
    for _ in 0..reps {
        let solve = relaxed_solve(w, t, rec);
        rec.sample("bench.untraced_solve_s", solve);
    }

    for _ in 0..reps {
        let plain = w.alg();
        let alg = TracedAlg::new(&plain, tracer);
        let (sched, fill_s) =
            tracer.phase("fill", "queues", || TracedSched::new(prefilled(pi, t), tracer, None));
        let (stats, run_s) = tracer
            .phase("run", "core.framework", || run_concurrent_batched(&alg, pi, &sched, t, 1));
        rec.sample("queues.fill_s", fill_s);
        rec.sample("core.framework.run_s", stats.elapsed.as_secs_f64());
        rec.sample("bench.traced_solve_s", fill_s + run_s);
        let (s, a) = (sched.totals(), alg.totals());
        record_shares(rec, &s, &a, t, stats.elapsed.as_secs_f64());
        record_sched(rec, &s, n);
        record_engine(rec, stats.total_pops, stats.wasted, stats.obsolete, stats.empty_pops, n);
        rec.sample("core.algorithms.try_process_ns", a.busy_ns as f64 / a.calls.max(1) as f64);
        let (out, _) = tracer.phase("verify", "bench", || w.finish(plain));
        rec.check(w.correct(&out));
        w.layer_metrics(&out, rec);
    }
    record_overhead(rec);

    // One layer at a time, everything else held still.
    let alg = w.alg();
    let sched = prefilled(pi, 1);
    let stats = run_concurrent_batched(&alg, pi, &sched, 1, 1);
    rec.sample("core.framework.t1_run_s", stats.elapsed.as_secs_f64());
    rec.check(w.correct(&w.finish(alg)));

    let noop = NoopAlg::new(n);
    let sched = prefilled(pi, t);
    let stats = run_concurrent_batched(&noop, pi, &sched, t, 1);
    rec.sample("core.framework.noop_ns", stats.elapsed.as_secs_f64() * 1e9 / n as f64);

    let alg = w.alg();
    let ((), solo) = timed(|| {
        for pos in 0..n as u32 {
            std::hint::black_box(alg.try_process(pi.task_at(pos)));
        }
    });
    rec.sample("core.algorithms.solo_ns", solo * 1e9 / n as f64);
    rec.check(w.correct(&w.finish(alg)));

    let (out, seq) = timed(|| w.sequential());
    rec.sample("core.algorithms.seq_ns", seq * 1e9 / n as f64);
    rec.check(w.correct(&out));

    let alg = w.alg();
    let stats = run_exact_concurrent(&alg, pi, t);
    rec.sample("core.framework.exact_retry_per_task", stats.wasted as f64 / n as f64);
    rec.check(w.correct(&w.finish(alg)));

    let probe = BulkMultiQueue::prefilled_for_threads(
        t,
        probes::identity_entries(probes::RANK_PROBE_TASKS),
    );
    let (mean, p99) = probes::rank_error(&probe);
    rec.sample("queues.rank_err_mean", mean);
    rec.sample("queues.rank_err_p99", p99);
    record_layer_probes(rec);
}
