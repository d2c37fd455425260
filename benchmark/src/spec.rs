//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo root is
//! generated from these tables (`--emit-spec`) and the package's test fails
//! if the two ever disagree, so the numbers a run prints and the numbers the
//! driver gates on cannot drift apart.

use crate::json::Json;

/// How long one run measures, in seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// One workload: its fixed name and the reason it is in the set.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "mis_sparse",
        why: "Figure 2's sparse G(n,m) MIS: ~30 ns tasks, so scheduler pop + engine loop + try_process are the whole cost",
    },
    WorkloadDef {
        name: "delaunay_uniform",
        why: "~6 us of algorithm per task under per-cell locks: a pop-path change must show nothing here, blocked re-inserts only here",
    },
    WorkloadDef {
        name: "sssp_gnm",
        why: "nothing prefilled, every pop followed by heap inserts at fresh priorities: a pop gain bought with insert cost loses here",
    },
    WorkloadDef {
        name: "service_conn",
        why: "the only path through core::service: ingest queue, pump, insert_batch, engine, handler, lock-free MultiQueue + reclamation",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric. `bound` is the share of the parent's median by
/// which the metric may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload prints every one of these (the driver's contract), so the
/// set is the metrics that mean something on all four workloads. What the
/// service alone has (fixed-rate latency) is measured untraced inside the
/// `--trace 1` run and listed under `core.service.*` below; failures are
/// the `attempted` / `failed` keys of the result line.
pub const END_TO_END: [EndToEnd; 6] = [
    // Input generation + sequential reference output, median of 3 set-ups.
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // Scheduler build/fill + relaxed parallel run to completion; service:
    // first push -> run_service returns for the saturation batch.
    EndToEnd { name: "solve_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // The plain sequential baseline (greedy_mis / delaunay_reference /
    // dijkstra / components), interleaved with the relaxed reps.
    EndToEnd { name: "seq_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // The same solve in exact priority order at the same t
    // (run_exact_concurrent, or the same path over a one-heap MultiQueue).
    EndToEnd { name: "exact_s", unit: "s", better: Better::Lower, bound: 0.25 },
    // seq_s / solve_s (base seq_s), the paper's y-axis; seq_s is gated
    // separately so slowing the baseline cannot raise it.
    EndToEnd { name: "speedup_vs_seq", unit: "ratio", better: Better::Higher, bound: 0.25 },
    // VmHWM of the workload's process after the set-ups and the first rep (one
    // solve of each kind).
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.05 },
];

/// One per-layer metric (no bound: these explain, they do not gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher }
}

/// Layers are the repo's modules. A metric that does not exist on a workload
/// (README, "which metric on which workload") prints 0 there.
pub const PER_LAYER: [PerLayer; 55] = [
    lo("graph.gen_s", "s"),
    lo("graph.input_mib", "MiB"),
    lo("queues.fill_s", "s"),
    lo("queues.pop_ns", "ns/element"),
    lo("queues.insert_ns", "ns/element"),
    lo("queues.busy_share", "ratio"),
    lo("queues.ops_per_task", "ratio"),
    lo("queues.empty_pop_share", "ratio"),
    lo("queues.rank_err_mean", "ranks"),
    lo("queues.rank_err_p99", "ranks"),
    lo("queues.reclaim.pop_ns_ebr", "ns/pop"),
    lo("queues.reclaim.pop_ns_vbr", "ns/pop"),
    lo("queues.lock.mcs_uncontended_ns", "ns"),
    lo("queues.sojourn_ms_p50", "ms"),
    lo("queues.sojourn_ms_p99", "ms"),
    lo("queues.sojourn_ms_mean", "ms"),
    lo("core.framework.run_s", "s"),
    lo("core.framework.t1_run_s", "s"),
    lo("core.framework.noop_ns", "ns/task"),
    lo("core.framework.self_share", "ratio"),
    lo("core.framework.extra_pops_per_task", "ratio"),
    lo("core.framework.wasted_share", "ratio"),
    lo("core.framework.obsolete_share", "ratio"),
    lo("core.framework.empty_per_task", "ratio"),
    lo("core.framework.exact_retry_per_task", "ratio"),
    lo("core.framework.dispatch_ms_p50", "ms"),
    lo("core.framework.dispatch_ms_p99", "ms"),
    lo("core.framework.dispatch_ms_mean", "ms"),
    lo("core.algorithms.try_process_ns", "ns/call"),
    hi("core.algorithms.busy_share", "ratio"),
    lo("core.algorithms.solo_ns", "ns/task"),
    lo("core.algorithms.seq_ns", "ns/task"),
    lo("core.algorithms.cells_per_insert", "count"),
    lo("core.algorithms.cas_retries_per_op", "count"),
    hi("core.service.sat_ops_per_s", "1/s"),
    lo("core.service.lat_p50_ms_r500k", "ms"),
    lo("core.service.lat_p99_ms_r500k", "ms"),
    lo("core.service.lat_mean_ms_r500k", "ms"),
    lo("core.service.lat_p50_ms_r1m", "ms"),
    lo("core.service.lat_p99_ms_r1m", "ms"),
    lo("core.service.lat_mean_ms_r1m", "ms"),
    lo("core.service.push_ns", "ns"),
    lo("core.service.push_block_share", "ratio"),
    lo("core.service.ingest_ms_p50", "ms"),
    lo("core.service.ingest_ms_p99", "ms"),
    lo("core.service.ingest_ms_mean", "ms"),
    lo("core.service.drain_tail_ms", "ms"),
    lo("core.service.slo_miss_share", "ratio"),
    lo("core.service.traced_lat_p50_ms_r500k", "ms"),
    lo("core.service.traced_lat_p99_ms_r500k", "ms"),
    lo("core.service.traced_lat_mean_ms_r500k", "ms"),
    lo("bench.gen_late_ms_p99", "ms"),
    lo("bench.trace_overhead_share", "ratio"),
    lo("bench.untraced_solve_s", "s"),
    lo("bench.traced_solve_s", "s"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path"]
        .into_iter()
        .chain(["benchmark/Cargo.toml", "--"])
        .map(Json::str)
        .collect();
    Json::obj([
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declarations_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }
}
