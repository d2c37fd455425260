//! Pins the zero-cost contract of the **feature-off** build: every probe
//! handle is a ZST, every query returns its inert default, and the macros
//! compile (and type-check names) without registering anything. Style
//! follows `crates/queues/tests/facade_zero_cost.rs` — layout/TypeId pins
//! rather than codegen inspection.
//!
//! Compiled away entirely when `--features obs` is active (the live build
//! has its own suite, `obs_enabled.rs`).
#![cfg(all(not(feature = "obs"), not(rsched_model)))]

use rsched_obs as obs;
use std::mem::{align_of, size_of};

#[test]
#[allow(clippy::assertions_on_constants)] // pinning the const is the point
fn feature_gate_reports_disabled() {
    assert!(!obs::ENABLED);
}

#[test]
fn handles_are_zero_sized() {
    assert_eq!(size_of::<obs::Counter>(), 0);
    assert_eq!(size_of::<obs::Histogram>(), 0);
    assert_eq!(size_of::<obs::Span>(), 0);
    assert_eq!(align_of::<obs::Span>(), 1);
    // No `Drop` glue on the no-op span: dropping it must be a true no-op.
    assert!(!std::mem::needs_drop::<obs::Span>());
}

#[test]
fn probes_are_inert() {
    let c = obs::counter!("zc_counter_total");
    c.add(41);
    c.inc();
    assert_eq!(c.value(), 0);

    let h = obs::hist!("zc_hist_ns");
    h.record(123);

    {
        let _span = obs::span!("zc_span");
        obs::instant!("zc_instant");
    }

    assert_eq!(obs::now_ns(), 0);
    assert!(obs::snapshot().is_empty());
    assert_eq!(obs::snapshot().counter("zc_counter_total"), 0);
    assert!(obs::chrome_trace_json().is_empty());
}
