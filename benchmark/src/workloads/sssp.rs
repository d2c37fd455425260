//! `sssp_gnm`: label-correcting single-source shortest paths. The same
//! scheduler layer used the other way round: nothing is prefilled and every
//! pop is followed by inserts at fresh priorities — the heap-bucket
//! `MultiQueue` insert path `mis_sparse` never touches — so a pop gain
//! bought with insert cost shows as a loss here.
//!
//! The worker loop lives inside `concurrent_sssp`, so from outside only the
//! scheduler can be wrapped: the traced run reports `queues.*`, takes
//! `core.algorithms.busy_share` as `1 − queues.busy_share` and has no
//! `core.framework` shares.

use super::{
    record_layer_probes, record_overhead, record_sched, sample_rss_once, set_up, Ctx, MIN_REPS,
    TRACED_REPS,
};
use crate::probes;
use crate::stats::{timed, Budget};
use crate::sys::prefill_threads;
use crate::trace::{TracedSched, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::sssp::{concurrent_sssp, dijkstra};
use rsched_core::TaskId;
use rsched_graph::{gen, WeightedCsr};
use rsched_queues::concurrent::MultiQueue;
use rsched_queues::ConcurrentScheduler;

const SOURCE: u32 = 0;

struct Sssp {
    g: WeightedCsr,
    reference: Vec<u64>,
}

/// One relaxed solve: build the paper-sized MultiQueue (four heaps per
/// thread), flood from the source. Returns the distances and the wall time.
fn solve(g: &WeightedCsr, queues: usize, threads: usize) -> (Vec<u64>, f64) {
    timed(|| {
        let sched: MultiQueue<TaskId> = MultiQueue::new(queues);
        concurrent_sssp(g, SOURCE, &sched, threads)
    })
}

pub fn run(ctx: &mut Ctx<'_>, tracer: Option<&Tracer>) {
    let (n, m) = if ctx.quick { (10_000, 50_000) } else { (300_000, 1_500_000) };
    let seed = ctx.seed;
    let input = set_up(ctx, tracer.is_some(), |rec| {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, gen_s) = timed(|| {
            let g = gen::gnm(n, m, &mut rng);
            WeightedCsr::with_uniform_weights(&g, 1, 100, &mut rng)
        });
        rec.sample("graph.gen_s", gen_s);
        // Computed from the array sizes: CSR offsets + adjacency, plus the
        // weighted mirror's offsets and one u32 weight per half-edge.
        let bytes = g.graph().memory_bytes() + 8 * (n + 1) + 4 * 2 * g.num_edges();
        rec.sample("graph.input_mib", bytes as f64 / (1 << 20) as f64);
        let reference = dijkstra(&g, SOURCE);
        Sssp { g, reference }
    });
    let (g, t, rec) = (&input.g, prefill_threads(), &mut *ctx.rec);

    let Some(tracer) = tracer else {
        let mut budget = Budget::new(ctx.seconds, MIN_REPS);
        while budget.next_rep() {
            let (dist, secs) = solve(g, 4 * t, t);
            rec.sample("solve_s", secs);
            rec.check(dist == input.reference);

            let (dist, secs) = timed(|| dijkstra(g, SOURCE));
            rec.sample("seq_s", secs);
            rec.check(dist == input.reference);

            // Exact order at the same t: one heap behind one lock.
            let (dist, secs) = solve(g, 1, t);
            rec.sample("exact_s", secs);
            rec.check(dist == input.reference);
            sample_rss_once(rec);
        }
        return;
    };

    let reps = if ctx.quick { 1 } else { TRACED_REPS };
    for _ in 0..reps {
        let (dist, secs) = solve(g, 4 * t, t);
        rec.sample("bench.untraced_solve_s", secs);
        rec.check(dist == input.reference);
    }
    for _ in 0..reps {
        let (sched, fill_s) = tracer.phase("fill", "queues", || {
            TracedSched::new(MultiQueue::<TaskId>::for_threads(t), tracer, None)
        });
        let (dist, run_s) =
            tracer.phase("run", "core.algorithms", || concurrent_sssp(g, SOURCE, &sched, t));
        rec.sample("queues.fill_s", fill_s);
        rec.sample("core.framework.run_s", run_s);
        rec.sample("bench.traced_solve_s", fill_s + run_s);
        let s = sched.totals();
        let queues = s.busy_ns() as f64 / (t as f64 * run_s * 1e9);
        rec.sample("queues.busy_share", queues);
        rec.sample("core.algorithms.busy_share", 1.0 - queues);
        record_sched(rec, &s, n);
        let (ok, _) = tracer.phase("verify", "bench", || dist == input.reference);
        rec.check(ok);
    }
    record_overhead(rec);

    let (dist, secs) = solve(g, 4, 1);
    rec.sample("core.framework.t1_run_s", secs);
    rec.check(dist == input.reference);
    let (_, secs) = timed(|| dijkstra(g, SOURCE));
    rec.sample("core.algorithms.seq_ns", secs * 1e9 / n as f64);

    let probe: MultiQueue<TaskId> = MultiQueue::for_threads(t);
    for (p, task) in probes::identity_entries(probes::RANK_PROBE_TASKS) {
        probe.insert(p, task);
    }
    let (mean, p99) = probes::rank_error(&probe);
    rec.sample("queues.rank_err_mean", mean);
    rec.sample("queues.rank_err_p99", p99);
    record_layer_probes(rec);
}
