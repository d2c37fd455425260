//! # rsched-obs — runtime observability for the relaxed-scheduler stack
//!
//! Everything the paper reasons about offline — rank error (Definition 1),
//! wasted work, queue occupancy — plus the engineering quantities around it
//! (pop outcomes, batch sizes, service times, reclamation traffic) becomes
//! observable *while the system runs*:
//!
//! * **Metrics** — a lock-free named registry of [`Counter`]s (cache-padded
//!   per-worker cells summed on read), [`Gauge`]s, and log-bucketed
//!   [`Histogram`]s; exported as a [`Snapshot`] with a Prometheus-style
//!   [`Snapshot::text`] rendering.
//! * **Tracing** — per-thread fixed-capacity ring buffers of span
//!   enter/exit and point events, no allocation on the hot path, flushed on
//!   demand by [`chrome_trace_json`] (load the file in `chrome://tracing`
//!   or Perfetto).
//! * **Compile-time gating** — in the style of the `rsched_sync` model
//!   façade: with the `obs` feature *off* (the default), every probe macro
//!   expands to a ZST no-op pinned by `tests/zero_cost.rs`; instrumented
//!   crates are bit-for-bit the uninstrumented ones.
//!
//! ## Probing code
//!
//! ```
//! use rsched_obs as obs;
//!
//! fn pop_one(worked: bool) {
//!     let _span = obs::span!("pop_one");               // timed region
//!     if worked {
//!         obs::counter!(r#"pops_total{outcome="success"}"#).inc();
//!     }
//!     obs::hist!("pop_batch_size").record(1);
//! }
//!
//! pop_one(true);
//! let snap = obs::snapshot();
//! // Feature off: the snapshot is empty and the probes cost nothing.
//! assert_eq!(snap.is_empty(), !obs::ENABLED);
//! ```
//!
//! The macros cache their registry handle in a per-call-site `OnceLock`, so
//! steady-state cost is one `Relaxed` load plus one `Relaxed` `fetch_add`.
//! Counters only accumulate (the registry is process-global); anything
//! comparing "this run" takes a snapshot before and after and uses
//! [`Snapshot::counter_delta`].

pub mod hist;

#[cfg(feature = "obs")]
mod metrics;
#[cfg(feature = "obs")]
mod trace;

#[cfg(feature = "obs")]
pub use metrics::{counter, gauge, histogram, snapshot, Counter, Gauge, Histogram};
#[cfg(feature = "obs")]
pub use trace::{chrome_trace_json, instant_event, intern, now_ns, Span};

#[cfg(not(feature = "obs"))]
mod noop;

#[cfg(not(feature = "obs"))]
pub use noop::{
    chrome_trace_json, counter, gauge, histogram, instant_event, intern, now_ns, snapshot, Counter,
    Gauge, Histogram, Span,
};

/// `true` iff the `obs` feature compiled the live probes in. Lets callers
/// `const`-gate work that only makes sense with real metrics (e.g. building
/// per-shard gauge names) without `cfg` in downstream crates.
#[cfg(feature = "obs")]
pub const ENABLED: bool = true;
/// `true` iff the `obs` feature compiled the live probes in.
#[cfg(not(feature = "obs"))]
pub const ENABLED: bool = false;

/// Not public API: re-exports used by the probe macros' expansions.
#[doc(hidden)]
pub mod __private {
    pub use std::sync::OnceLock;
}

/// Summary statistics of one histogram inside a [`Snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// 50th/95th/99th percentile (bucket upper bounds, < 1/16 relative
    /// error — see [`hist::LogHistogram`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of the whole metrics registry, sorted by name.
/// Always available (empty when the `obs` feature is off).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every registered histogram.
    pub hists: Vec<(String, HistSummary)>,
}

impl Snapshot {
    /// Whether nothing is registered (always true with the feature off).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// The named counter's total (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The named gauge's level (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// The named histogram's summary, if registered.
    pub fn hist(&self, name: &str) -> Option<HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| *h)
    }

    /// How much the named counter grew since `base` was taken (counters are
    /// process-global and monotone; per-run numbers are always deltas).
    pub fn counter_delta(&self, base: &Snapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(base.counter(name))
    }

    /// Prometheus-style text exposition: one `name{label="v"} value` line
    /// per instrument (labels are embedded in the registered names), sorted;
    /// histograms render `_count`/`_sum` plus `{q="…"}` percentile lines.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name} {v}\n"));
        }
        for (name, h) in &self.hists {
            let (base, labels) = match name.find('{') {
                Some(i) => (&name[..i], &name[i..]),
                None => (name.as_str(), ""),
            };
            out.push_str(&format!("{base}_count{labels} {}\n", h.count));
            out.push_str(&format!("{base}_sum{labels} {}\n", h.sum));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!("{base}{{q=\"{q}\"}} {v}\n"));
            }
        }
        out
    }
}

/// Registers (feature on) or discards (feature off) a counter, caching the
/// handle per call site. `counter!("pops_total{outcome=\"success\"}").inc()`.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: $crate::__private::OnceLock<$crate::Counter> =
            $crate::__private::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Feature-off variant: a ZST whose methods are empty inline bodies.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        let _ = $name;
        $crate::Counter
    }};
}

/// Registers (feature on) or discards (feature off) a gauge, caching the
/// handle per call site.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: $crate::__private::OnceLock<$crate::Gauge> =
            $crate::__private::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Feature-off variant: a ZST whose methods are empty inline bodies.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        let _ = $name;
        $crate::Gauge
    }};
}

/// Registers (feature on) or discards (feature off) a histogram, caching
/// the handle per call site.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! hist {
    ($name:expr) => {{
        static HANDLE: $crate::__private::OnceLock<$crate::Histogram> =
            $crate::__private::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

/// Feature-off variant: a ZST whose methods are empty inline bodies.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! hist {
    ($name:expr) => {{
        let _ = $name;
        $crate::Histogram
    }};
}

/// Opens a tracing span; bind the guard (`let _span = span!("run");`) — the
/// event is recorded when it drops. Feature off: a ZST with no `Drop`.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static ID: $crate::__private::OnceLock<u32> = $crate::__private::OnceLock::new();
        $crate::Span::enter(*ID.get_or_init(|| $crate::intern($name)))
    }};
}

/// Feature-off variant: a ZST guard with no `Drop`.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        let _ = $name;
        $crate::Span
    }};
}

/// Records a point event on the calling thread's timeline.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! instant {
    ($name:expr) => {{
        static ID: $crate::__private::OnceLock<u32> = $crate::__private::OnceLock::new();
        $crate::instant_event(*ID.get_or_init(|| $crate::intern($name)));
    }};
}

/// Feature-off variant: discards the name.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! instant {
    ($name:expr) => {{
        let _ = $name;
    }};
}

#[cfg(all(test, not(rsched_model)))]
mod tests {
    use super::*;

    #[test]
    fn snapshot_text_renders_all_kinds() {
        let h = HistSummary { count: 2, sum: 30, p50: 10, p95: 20, p99: 20 };
        let snap = Snapshot {
            counters: vec![(r#"pops_total{outcome="success"}"#.into(), 7)],
            gauges: vec![("depth".into(), -3)],
            hists: vec![(r#"lat_ns{queue="0"}"#.into(), h)],
        };
        let text = snap.text();
        assert!(text.contains(r#"pops_total{outcome="success"} 7"#), "{text}");
        assert!(text.contains("depth -3"), "{text}");
        assert!(text.contains(r#"lat_ns_count{queue="0"} 2"#), "{text}");
        assert!(text.contains(r#"lat_ns_sum{queue="0"} 30"#), "{text}");
        assert!(text.contains(r#"lat_ns{q="0.95"} 20"#), "{text}");
        assert_eq!(snap.counter(r#"pops_total{outcome="success"}"#), 7);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("depth"), -3);
        assert!(!snap.is_empty());
    }

    #[test]
    fn counter_delta_saturates() {
        let base = Snapshot { counters: vec![("c".into(), 10)], ..Default::default() };
        let later = Snapshot { counters: vec![("c".into(), 25)], ..Default::default() };
        assert_eq!(later.counter_delta(&base, "c"), 15);
        assert_eq!(base.counter_delta(&later, "c"), 0);
    }
}
