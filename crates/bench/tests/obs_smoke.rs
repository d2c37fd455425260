//! End-to-end observability smoke: runs the `service_throughput` binary
//! in quick mode with `--trace` + `--metrics`, then validates that the
//! emitted chrome://tracing JSON actually parses (a hand-rolled
//! recursive-descent validator — no serde in the offline container) and
//! that the metrics snapshot carries the counter families every layer of
//! the stack is supposed to feed.
//!
//! Built only with `--features obs` (see `Cargo.toml`); CI runs it as the
//! observability gate.

#![cfg(not(rsched_model))]

use std::path::PathBuf;
use std::process::Command;

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

#[test]
fn service_throughput_emits_trace_and_metrics() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path: PathBuf = dir.join(format!("rsched_obs_smoke_{pid}.trace.json"));
    let metrics_path: PathBuf = dir.join(format!("rsched_obs_smoke_{pid}.metrics"));

    let out = Command::new(env!("CARGO_BIN_EXE_service_throughput"))
        .args(["--quick", "--reps", "1", "--trace"])
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("failed to spawn service_throughput");
    assert!(
        out.status.success(),
        "service_throughput failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("counters reconcile with the exactly-once ledger"),
        "ledger reconciliation line missing:\n{stdout}"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace file not written");
    assert_valid_json(&trace, "chrome trace");
    assert!(trace.starts_with(r#"{"traceEvents":["#), "not a chrome trace container");
    for needle in [r#""ph":"X""#, r#""name":"engine_run""#, r#""ph":"M""#] {
        assert!(trace.contains(needle), "trace missing {needle}");
    }

    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file not written");
    // One probe family per instrumented layer: worker engine (pops,
    // batches, service times), sharded scheduler (steals, shard loads),
    // service front-end (request latency), and the reclamation backend.
    // Counters that need backpressure to fire (service_producer_park_total
    // / service_producer_unpark_total) are deliberately absent: a quick run
    // never parks.
    for family in [
        r#"engine_pop_total{outcome="success"}"#,
        r#"engine_pop_total{outcome="empty"}"#,
        "engine_run_batch_size_count",
        "engine_run_service_ns_count",
        "sharded_steal_total",
        "sharded_fairness_probe_total",
        r#"sharded_shard_load{shard="0"}"#,
        "service_request_latency_ns_count",
        r#"reclaim_retire_total{backend="ebr"}"#,
        r#"reclaim_dealloc_total{backend="ebr"}"#,
    ] {
        assert!(metrics.contains(family), "metrics snapshot missing {family}:\n{metrics}");
    }

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
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
