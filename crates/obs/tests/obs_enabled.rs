//! Behavior of the **live** (`--features obs`) build: counters stripe and
//! sum correctly across threads, gauges track levels, histograms register,
//! spans and instants land in the chrome-trace JSON. All per-test numbers
//! use snapshot deltas (the registry is process-global) and test-unique
//! names (tests in one binary run concurrently).

use rsched_obs as obs;
use std::thread;

#[test]
#[allow(clippy::assertions_on_constants)] // pinning the const is the point
fn feature_gate_reports_enabled() {
    assert!(obs::ENABLED);
}

#[test]
fn counter_sums_across_threads() {
    const NAME: &str = r#"t_counter_total{case="threads"}"#;
    let base = obs::snapshot();
    thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..1000 {
                    obs::counter!(NAME).inc();
                }
            });
        }
    });
    let snap = obs::snapshot();
    assert_eq!(snap.counter_delta(&base, NAME), 8 * 1000);
    // Handles are Copy and map to the same cells per name.
    assert_eq!(obs::counter(NAME).value(), snap.counter(NAME));
}

#[test]
fn gauge_tracks_level_and_is_shared_by_name() {
    const NAME: &str = r#"t_gauge{case="level"}"#;
    let g1 = obs::gauge(NAME);
    let g2 = obs::gauge(NAME);
    g1.set(0);
    g1.add(10);
    g2.sub(4);
    assert_eq!(g1.value(), 6);
    assert_eq!(obs::snapshot().gauge(NAME), 6);
}

#[test]
fn histogram_registers_and_summarizes() {
    const NAME: &str = "t_hist_ns";
    let h = obs::hist!(NAME);
    for v in 1..=100u64 {
        h.record(v * 10);
    }
    let snap = obs::snapshot();
    let sum = snap.hist(NAME).expect("histogram registered");
    assert!(sum.count >= 100);
    assert!(sum.p50 >= 500 && sum.p99 >= 900);
    let text = snap.text();
    assert!(text.contains("t_hist_ns_count "), "{text}");
    assert!(text.contains(r#"t_hist_ns{q="0.99"}"#), "{text}");
}

#[test]
fn spans_and_instants_reach_chrome_trace() {
    {
        let _span = obs::span!("t_region");
        obs::instant!("t_marker");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let json = obs::chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    assert!(json.contains(r#""name":"t_region","cat":"rsched","ph":"X""#), "{json}");
    assert!(json.contains(r#""name":"t_marker","cat":"rsched","ph":"i""#), "{json}");
    assert!(json.contains(r#""ph":"M""#), "thread metadata event missing: {json}");
}

#[test]
fn ring_wrap_keeps_most_recent() {
    // Dedicated thread => dedicated ring; overflow it and check the
    // survivors are the most recent events (the overflow policy).
    thread::Builder::new()
        .name("wrap-probe".into())
        .spawn(|| {
            for _ in 0..6000 {
                obs::instant!("t_wrap_old");
            }
            for _ in 0..10 {
                obs::instant!("t_wrap_new");
            }
        })
        .unwrap()
        .join()
        .unwrap();
    let json = obs::chrome_trace_json();
    assert!(json.contains("t_wrap_new"), "recent events must survive a wrap");
    // The capacity is 4096: 6010 events in means the earliest were
    // overwritten; the ring never grows.
    assert!(json.matches("t_wrap_old").count() < 6000);
}

#[test]
fn now_ns_is_monotone() {
    let a = obs::now_ns();
    let b = obs::now_ns();
    assert!(b >= a);
}
