//! Span tracing: per-thread fixed-capacity ring buffers flushed on demand
//! to chrome://tracing JSON.
//!
//! Each thread lazily registers one ring of 4096 slots. Recording a span
//! or instant is allocation-free: claim the next slot (`head` counter,
//! thread-local so uncontended), store three `Relaxed` words. When the ring
//! wraps, the oldest events are overwritten — the policy is *keep most
//! recent* (the tail of a run is what post-mortems want).
//!
//! Spans are emitted as chrome "X" (complete) events, written once at span
//! *exit* with the recorded start and duration. This sidesteps the classic
//! B/E pairing breakage when a wrap drops a begin but keeps its end.
//!
//! Flushing (`chrome_trace_json`) walks every ring while writers may still
//! be running. Slots are atomic words, so a torn event (meta from one
//! event, timestamps from another) is *possible* mid-run and renders as a
//! nonsensical but harmless span; flush after joining writers for exact
//! traces. This is a deliberate monitoring-grade trade — see DESIGN.md,
//! "Observability semantics".

use rsched_sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::cell::Cell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity (slots per thread).
const RING_CAP: usize = 4096;

/// Event kinds packed into the low bits of `Slot::meta`.
const KIND_EMPTY: u64 = 0;
const KIND_SPAN: u64 = 1;
const KIND_INSTANT: u64 = 2;

/// One recorded event: `meta = name_id << 2 | kind`, `start`/`dur` in ns
/// relative to the process [`epoch`]. Fields are atomics purely so a
/// concurrent flush is race-free Rust; single-writer per ring.
struct Slot {
    meta: AtomicU64,
    start: AtomicU64,
    dur: AtomicU64,
}

/// A per-thread event ring, leaked at registration so flushers can hold
/// `'static` references without keeping a lock across the walk.
struct Ring {
    /// Chrome `tid` (registration order, 1-based).
    tid: u64,
    /// Thread name at registration, for the chrome metadata event.
    name: String,
    /// Monotone slot counter; slot = `head % slots.len()`.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn push(&self, kind: u64, name_id: u32, start: u64, dur: u64) {
        let h = self.head.load(Relaxed);
        let slot = &self.slots[h as usize % self.slots.len()];
        slot.start.store(start, Relaxed);
        slot.dur.store(dur, Relaxed);
        slot.meta.store(((name_id as u64) << 2) | kind, Relaxed);
        self.head.store(h + 1, Relaxed);
    }
}

/// All rings ever registered (threads may exit; their rings remain
/// flushable). Also the interned span-name table.
struct TraceState {
    rings: Mutex<Vec<&'static Ring>>,
    names: Mutex<Vec<String>>,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE
        .get_or_init(|| TraceState { rings: Mutex::new(Vec::new()), names: Mutex::new(Vec::new()) })
}

/// The process time origin; all event timestamps are ns since this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Interns `name`, returning the id used in ring slots. Cold path — the
/// `span!`/`instant!` macros cache the id per call site.
pub fn intern(name: &str) -> u32 {
    let mut names = state().names.lock().unwrap();
    if let Some(pos) = names.iter().position(|n| n == name) {
        return pos as u32;
    }
    names.push(name.to_owned());
    (names.len() - 1) as u32
}

/// The calling thread's ring, registering (and leaking) it on first use.
fn ring() -> &'static Ring {
    thread_local! {
        static RING: Cell<Option<&'static Ring>> = const { Cell::new(None) };
    }
    RING.with(|r| {
        if let Some(ring) = r.get() {
            return ring;
        }
        let mut rings = state().rings.lock().unwrap();
        let ring: &'static Ring = Box::leak(Box::new(Ring {
            tid: rings.len() as u64 + 1,
            name: std::thread::current().name().unwrap_or("worker").to_owned(),
            head: AtomicU64::new(0),
            slots: (0..RING_CAP)
                .map(|_| Slot {
                    meta: AtomicU64::new(KIND_EMPTY),
                    start: AtomicU64::new(0),
                    dur: AtomicU64::new(0),
                })
                .collect(),
        }));
        rings.push(ring);
        r.set(Some(ring));
        ring
    })
}

/// An open tracing span; records a chrome "X" complete event on drop.
/// Create via the [`span!`](crate::span) macro and bind it:
/// `let _span = span!("worker_run");`.
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span {
    name_id: u32,
    start: u64,
}

impl Span {
    /// Enters a span for the interned `name_id` (macro-facing).
    #[inline]
    pub fn enter(name_id: u32) -> Span {
        Span { name_id, start: now_ns() }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let end = now_ns();
        ring().push(KIND_SPAN, self.name_id, self.start, end.saturating_sub(self.start));
    }
}

/// Records a point event for the interned `name_id` (macro-facing; use the
/// [`instant!`](crate::instant) macro).
#[inline]
pub fn instant_event(name_id: u32) {
    ring().push(KIND_INSTANT, name_id, now_ns(), 0);
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes every ring to a chrome://tracing "trace event format" JSON
/// document (timestamps in µs). Valid JSON even with zero events; flush
/// after joining instrumented threads for a tear-free trace.
pub fn chrome_trace_json() -> String {
    let names = state().names.lock().unwrap().clone();
    let rings: Vec<&'static Ring> = state().rings.lock().unwrap().clone();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for ring in &rings {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                ring.tid,
                escape_json(&ring.name)
            ),
            &mut first,
        );
        let head = ring.head.load(Relaxed);
        let cap = ring.slots.len() as u64;
        let lo = head.saturating_sub(cap);
        for i in lo..head {
            let slot = &ring.slots[i as usize % cap as usize];
            let meta = slot.meta.load(Relaxed);
            let (kind, name_id) = (meta & 0b11, (meta >> 2) as usize);
            if kind == KIND_EMPTY || name_id >= names.len() {
                continue;
            }
            let name = escape_json(&names[name_id]);
            let ts = slot.start.load(Relaxed) as f64 / 1_000.0;
            let ev = if kind == KIND_SPAN {
                let dur = slot.dur.load(Relaxed) as f64 / 1_000.0;
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"rsched\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{}}}",
                    ring.tid
                )
            } else {
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"rsched\",\"ph\":\"i\",\"ts\":{ts:.3},\"s\":\"t\",\"pid\":1,\"tid\":{}}}",
                    ring.tid
                )
            };
            emit(ev, &mut first);
        }
    }
    out.push_str("]}");
    out
}
