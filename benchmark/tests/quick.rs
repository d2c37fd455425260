//! Runs every workload at `--quick` size, end to end and traced, and checks
//! what it prints against `BENCHMARK.json`.

use rsched_benchmark::json::{self, Json};
use rsched_benchmark::spec;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

/// `(name, unit)` of every metric declared under `section`.
fn declared(spec: &Json, section: &str) -> Vec<(String, String)> {
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap().to_owned();
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

struct Run {
    result: Json,
    stdout: String,
    out_dir: PathBuf,
}

/// Runs one workload; `tag` keeps the output directories of concurrently
/// running tests apart.
fn quick_run(workload: &str, trace: &str, tag: &str) -> Run {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{tag}"));
    let out = Command::new(env!("CARGO_BIN_EXE_rsched-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let result = json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");
    Run { result, stdout, out_dir }
}

fn metric(run: &Run, name: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

/// The result line has exactly the contract's keys, no failures, and every
/// metric of `section` by name with its declared unit — and nothing else.
fn check_result(run: &Run, spec: &Json, section: &str) {
    let keys: Vec<&str> = run.result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(run.result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(run.result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let printed = run.result.get("metrics").and_then(Json::as_obj).unwrap();
    let want = declared(spec, section);
    assert_eq!(printed.len(), want.len(), "metric count");
    for (name, unit) in &want {
        assert!(name_ok(name), "bad metric name {name}");
        let m = run
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{name}: unit");
        assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite(), "{name}: value");
    }
    let summary = run.stdout.lines().rev().nth(1).unwrap();
    assert!(summary.starts_with("summary {") && summary.ends_with("\"claim\":null}"), "{summary}");
    assert!(run.stdout.starts_with("header {"), "no header line");
}

#[test]
fn benchmark_json_is_generated_from_the_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, spec::benchmark_json().render_pretty(), "regenerate with --emit-spec");
}

#[test]
fn end_to_end_runs_print_every_end_to_end_metric() {
    let spec = benchmark_json();
    for w in &spec::WORKLOADS {
        let run = quick_run(w.name, "0", "end-to-end");
        check_result(&run, &spec, "end_to_end");
        for (name, _) in declared(&spec, "end_to_end") {
            assert!(metric(&run, &name) > 0.0, "{}: {name} is not positive", w.name);
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_a_valid_trace() {
    let spec = benchmark_json();
    for w in &spec::WORKLOADS {
        let run = quick_run(w.name, "1", "traced");
        check_result(&run, &spec, "per_layer");

        // The three shares partition the run's thread-time. `sssp_gnm` has
        // no engine to wrap, so its framework share is absent (0).
        let shares =
            ["queues.busy_share", "core.algorithms.busy_share", "core.framework.self_share"];
        let sum: f64 = shares.iter().map(|s| metric(&run, s)).sum();
        let tolerance = metric(&run, "bench.trace_overhead_share").abs().max(1e-9);
        assert!((sum - 1.0).abs() <= tolerance, "{}: shares sum to {sum}", w.name);

        let trace_path = run.out_dir.join(format!("{}.trace.json", w.name));
        let trace =
            json::parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("valid JSON");
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let id = |e: &Json, key: &str| {
            e.get("args").and_then(|a| a.get(key)).and_then(Json::as_f64).unwrap()
        };
        let ids: Vec<f64> = events.iter().map(|e| id(e, "id")).collect();
        for phase in ["fill", "run", "verify"] {
            assert!(
                events.iter().any(|e| e.get("name").and_then(Json::as_str) == Some(phase)),
                "no {phase} span"
            );
        }
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
            assert!(
                e.get("ts").and_then(Json::as_f64).is_some()
                    && e.get("dur").and_then(Json::as_f64).is_some()
            );
            let parent = id(e, "parent");
            assert!(parent == 0.0 || ids.contains(&parent), "span with an unknown parent");
        }
    }
}

#[test]
fn the_service_stage_means_add_up_to_the_latency() {
    let run = quick_run("service_conn", "1", "stages");
    let stages = [
        "core.service.ingest_ms_mean",
        "queues.sojourn_ms_mean",
        "core.framework.dispatch_ms_mean",
    ];
    let sum: f64 = stages.iter().map(|s| metric(&run, s)).sum();
    let whole = metric(&run, "core.service.traced_lat_mean_ms_r500k");
    assert!(
        whole > 0.0 && (sum - whole).abs() <= 0.02 * whole,
        "stages {sum} ms vs latency {whole} ms"
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--bogus"],
        &["--workload", "mis_sparse", "--trace", "2"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rsched-benchmark")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
