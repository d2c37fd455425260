//! Feature-off mirror of the live API: every handle is a ZST, every probe
//! an `#[inline(always)]` empty body, so instrumented code compiles to
//! exactly what it was before instrumentation (pinned by
//! `tests/zero_cost.rs`). Method and function signatures match
//! `metrics.rs`/`trace.rs` one-for-one — call sites are oblivious to which
//! variant they compiled against.

use crate::Snapshot;

/// No-op counter handle (ZST).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter;

impl Counter {
    #[inline(always)]
    pub fn add(&self, _n: u64) {}
    #[inline(always)]
    pub fn inc(&self) {}
    pub fn value(&self) -> u64 {
        0
    }
}

/// No-op gauge handle (ZST).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge;

impl Gauge {
    #[inline(always)]
    pub fn add(&self, _n: i64) {}
    #[inline(always)]
    pub fn sub(&self, _n: i64) {}
    #[inline(always)]
    pub fn set(&self, _n: i64) {}
    pub fn value(&self) -> i64 {
        0
    }
}

/// No-op histogram handle (ZST).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram;

impl Histogram {
    #[inline(always)]
    pub fn record(&self, _value: u64) {}
}

/// No-op span guard (ZST, no `Drop`).
#[derive(Debug, Default)]
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span;

impl Span {
    #[inline(always)]
    pub fn enter(_name_id: u32) -> Span {
        Span
    }
}

#[inline(always)]
pub fn counter(_name: &str) -> Counter {
    Counter
}

#[inline(always)]
pub fn gauge(_name: &str) -> Gauge {
    Gauge
}

#[inline(always)]
pub fn histogram(_name: &str) -> Histogram {
    Histogram
}

#[inline(always)]
pub fn intern(_name: &str) -> u32 {
    0
}

#[inline(always)]
pub fn instant_event(_name_id: u32) {}

/// Always 0 with probes compiled out — `end - start` timing code folds away.
#[inline(always)]
pub fn now_ns() -> u64 {
    0
}

/// An empty snapshot: nothing is ever registered.
#[inline(always)]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// The empty string: callers treat it as "tracing compiled out".
#[inline(always)]
pub fn chrome_trace_json() -> String {
    String::new()
}
