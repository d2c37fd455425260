//! Deterministic model-checking runtime (compiled only under `--cfg rsched_model`).
//!
//! One *execution* runs the scenario's threads as real OS threads, but only
//! one at a time: every instrumented operation (atomic access, fence,
//! `RaceCell` access, spin wait, yield point) parks the calling thread and
//! hands control to the controller, which decides which thread's pending
//! operation runs next. Each such decision — and, for atomic loads, the
//! decision *which* store in the location's history to read from — is a
//! choice point recorded on a trail. After an execution finishes, the
//! controller backtracks DFS-style: it flips the deepest choice with an
//! untried alternative and replays the prefix, exhaustively enumerating
//! interleavings up to a preemption bound.
//!
//! Weak memory is modeled C11-style with per-location store histories and
//! per-thread views (vector clock + per-location "newest store known"
//! index):
//!
//! * a `Release` store publishes the storing thread's view as the store's
//!   message; an `Acquire` load joins the message it reads into the
//!   reader's view; `Relaxed` loads park messages in a pending view that a
//!   later `Acquire` fence merges (C11 fence semantics);
//! * a `Release` fence snapshots the view so later `Relaxed` stores publish
//!   it;
//! * RMWs always read the newest store (modification order) and join the
//!   predecessor store's message into their own (release sequences);
//! * `SeqCst` operations are modeled as fence-bracketed acquire/release
//!   operations, and `SeqCst` fences merge bidirectionally with a global SC
//!   view. This restores the store-buffering guarantee the real protocols
//!   rely on. It is *stronger* than C11 SC accesses (an SC access here acts
//!   like an adjacent SC fence), an over-approximation that can hide bugs
//!   relying on that distinction — acceptable because every audited protocol
//!   uses explicit SC fences for its cross-location agreements.
//!
//! Data races on non-atomic data are detected via [`RaceCell`], which
//! checks happens-before (vector clocks) between conflicting accesses —
//! this is what catches "mutual exclusion still holds but the
//! synchronization edge is gone" mutants such as a `Release→Relaxed`
//! unlock publish.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// A thread's (or message's) knowledge: per-thread event counters plus, per
/// atomic location, the newest store index it is aware of (loads must not
/// read anything older — coherence).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct View {
    clock: Vec<u32>,
    seen: HashMap<usize, usize>,
}

impl View {
    fn new(threads: usize) -> View {
        View { clock: vec![0; threads], seen: HashMap::new() }
    }

    fn join(&mut self, other: &View) {
        if self.clock.len() < other.clock.len() {
            self.clock.resize(other.clock.len(), 0);
        }
        for (i, c) in other.clock.iter().enumerate() {
            if self.clock[i] < *c {
                self.clock[i] = *c;
            }
        }
        for (loc, idx) in &other.seen {
            let e = self.seen.entry(*loc).or_insert(0);
            if *e < *idx {
                *e = *idx;
            }
        }
    }

    fn sees(&self, loc: usize) -> usize {
        self.seen.get(&loc).copied().unwrap_or(0)
    }

    fn bump_seen(&mut self, loc: usize, idx: usize) {
        let e = self.seen.entry(loc).or_insert(0);
        if *e < idx {
            *e = idx;
        }
    }
}

// ---------------------------------------------------------------------------
// Operations shipped from instrumented threads to the controller
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) enum RmwKind {
    Swap(u64),
    Add(u64),
    Sub(u64),
    Cas { expect: u64, new: u64 },
}

#[derive(Debug)]
pub(crate) enum Op {
    Load { loc: usize, init: u64, ord: Ordering },
    Store { loc: usize, init: u64, ord: Ordering, val: u64 },
    Rmw { loc: usize, init: u64, ord: Ordering, ford: Ordering, kind: RmwKind, mask: u64 },
    Fence { ord: Ordering },
    NaRead { loc: usize, what: &'static str },
    NaWrite { loc: usize, what: &'static str },
    SpinWait,
    Yield,
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Resp {
    pub val: u64,
    pub ok: bool,
}

fn is_acq(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_rel(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_sc(ord: Ordering) -> bool {
    matches!(ord, Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Controller <-> thread handoff
// ---------------------------------------------------------------------------

struct ChanState {
    pending: Vec<Option<Op>>,
    resp: Vec<Option<Resp>>,
    finished: Vec<bool>,
    /// First genuine (non-abort) panic message out of any model thread.
    failure: Option<String>,
    /// Set on violation: parked threads unwind with `AbortToken` at their
    /// next scheduling point instead of waiting for a response.
    abort: bool,
    /// Set once the controller is done with the execution (final checks
    /// ran); model threads may exit their wrapper, which releases their TLS
    /// destructors to run in direct mode after the modeled part is over.
    exec_done: bool,
}

struct Chan {
    m: Mutex<ChanState>,
    cv: Condvar,
}

impl Chan {
    fn new(n: usize) -> Chan {
        Chan {
            m: Mutex::new(ChanState {
                pending: (0..n).map(|_| None).collect(),
                resp: vec![None; n],
                finished: vec![false; n],
                failure: None,
                abort: false,
                exec_done: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Sentinel panic payload used to unwind model threads on teardown.
struct AbortToken;

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Chan>, usize)>> = const { RefCell::new(None) };
    static ABORTING: Cell<bool> = const { Cell::new(false) };
}

/// Ship `op` to the controller and wait for its response. Returns `None`
/// when the calling thread is not a registered model thread (or is
/// unwinding from an abort), in which case the caller executes the
/// operation directly on the real primitive.
pub(crate) fn request(op: Op) -> Option<Resp> {
    let (chan, idx) = CURRENT.with(|c| c.borrow().as_ref().map(|(a, i)| (a.clone(), *i)))?;
    if ABORTING.with(Cell::get) {
        return None;
    }
    let mut st = lock_ignore_poison(&chan.m);
    if st.abort {
        drop(st);
        ABORTING.with(|a| a.set(true));
        panic::panic_any(AbortToken);
    }
    st.pending[idx] = Some(op);
    chan.cv.notify_all();
    loop {
        if let Some(r) = st.resp[idx].take() {
            return Some(r);
        }
        if st.abort {
            st.pending[idx] = None;
            drop(st);
            ABORTING.with(|a| a.set(true));
            panic::panic_any(AbortToken);
        }
        st = chan.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
}

pub(crate) fn yield_point_impl() {
    let _ = request(Op::Yield);
}

pub(crate) fn spin_wait_impl() {
    if request(Op::SpinWait).is_none() {
        std::hint::spin_loop();
    }
}

fn spawn_model_thread(
    chan: Arc<Chan>,
    idx: usize,
    f: Box<dyn FnOnce() + Send>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("rsched-model-{idx}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((chan.clone(), idx)));
            ABORTING.with(|a| a.set(false));
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            // Unregister before TLS destructors (e.g. epoch participant
            // retirement, lock node pools) run: they execute in direct mode
            // once the execution is over.
            CURRENT.with(|c| *c.borrow_mut() = None);
            let mut st = lock_ignore_poison(&chan.m);
            st.finished[idx] = true;
            st.pending[idx] = None;
            st.resp[idx] = None;
            if let Err(p) = r {
                if !p.is::<AbortToken>() && st.failure.is_none() {
                    st.failure = Some(panic_message(p.as_ref()));
                }
            }
            chan.cv.notify_all();
            // Keep the OS thread alive until the controller has run its
            // final checks, so thread-exit effects cannot interleave with
            // the modeled execution.
            while !st.exec_done {
                st = chan.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        })
        .expect("failed to spawn model thread")
}

// ---------------------------------------------------------------------------
// Per-execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct StoreRec {
    val: u64,
    msg: View,
}

#[derive(Default)]
struct NaState {
    write: Option<(usize, u32)>,
    reads: Vec<(usize, u32)>,
}

struct ThreadSt {
    view: View,
    /// View snapshot at the last release (or stronger) fence; published by
    /// subsequent `Relaxed` stores.
    fence_rel: View,
    /// Messages collected by `Relaxed` loads, merged into `view` by a later
    /// acquire (or stronger) fence.
    acq_pending: View,
}

#[derive(Clone, Copy)]
struct TrailEntry {
    chosen: usize,
    options: usize,
}

struct Exec {
    threads: Vec<ThreadSt>,
    locs: HashMap<usize, Vec<StoreRec>>,
    na: HashMap<usize, NaState>,
    sc: View,
    trail: Vec<TrailEntry>,
    replay: Vec<usize>,
    preemptions: usize,
    preemption_bound: usize,
    steps: usize,
    max_steps: usize,
    stores: u64,
    current: Option<usize>,
    blocked_at: Vec<Option<u64>>,
    /// Fairness endgame (see the scheduler loop): threads whose loads are
    /// temporarily pinned to the newest store, and threads that kept
    /// spinning even then.
    force_newest: Vec<bool>,
    truly_blocked: Vec<bool>,
}

impl Exec {
    fn new(n: usize, replay: Vec<usize>, preemption_bound: usize, max_steps: usize) -> Exec {
        Exec {
            threads: (0..n)
                .map(|_| ThreadSt {
                    view: View::new(n),
                    fence_rel: View::default(),
                    acq_pending: View::default(),
                })
                .collect(),
            locs: HashMap::new(),
            na: HashMap::new(),
            sc: View::default(),
            trail: Vec::new(),
            replay,
            preemptions: 0,
            preemption_bound,
            steps: 0,
            max_steps,
            stores: 0,
            current: None,
            blocked_at: vec![None; n],
            force_newest: vec![false; n],
            truly_blocked: vec![false; n],
        }
    }

    /// Record a choice point with `n` options and return the chosen option.
    /// Single-option points are not recorded (they cannot branch and the
    /// same decision is reproduced deterministically on replay).
    fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let d = self.trail.len();
        let c = if d < self.replay.len() { self.replay[d] } else { 0 };
        assert!(
            c < n,
            "model replay trace mismatch: choice {c} of {n} options at depth {d} \
             (was the scenario or a mutation changed since the trace was recorded?)"
        );
        self.trail.push(TrailEntry { chosen: c, options: n });
        c
    }

    fn register(&mut self, loc: usize, init: u64) {
        self.locs.entry(loc).or_insert_with(|| vec![StoreRec { val: init, msg: View::default() }]);
    }

    fn acq_fence(&mut self, t: usize) {
        let pending = mem::take(&mut self.threads[t].acq_pending);
        self.threads[t].view.join(&pending);
    }

    fn rel_fence(&mut self, t: usize) {
        self.threads[t].fence_rel = self.threads[t].view.clone();
    }

    fn sc_fence(&mut self, t: usize) {
        self.acq_fence(t);
        let sc = self.sc.clone();
        self.threads[t].view.join(&sc);
        self.sc.join(&self.threads[t].view);
        self.rel_fence(t);
    }

    fn fence(&mut self, t: usize, ord: Ordering) {
        match ord {
            Ordering::Acquire => self.acq_fence(t),
            Ordering::Release => self.rel_fence(t),
            Ordering::AcqRel => {
                self.acq_fence(t);
                self.rel_fence(t);
            }
            Ordering::SeqCst => self.sc_fence(t),
            _ => {}
        }
    }

    /// Pick which store a load reads from: any store from the newest one
    /// the thread's view knows about up to the end of the history.
    /// Candidates identical in value and message are collapsed (reading
    /// either is indistinguishable), newest first so choice 0 approximates
    /// sequential consistency.
    fn pick_read(&mut self, t: usize, loc: usize) -> usize {
        let lo = self.threads[t].view.sees(loc);
        let hist = &self.locs[&loc];
        let hi = hist.len() - 1;
        if self.force_newest[t] {
            // Fairness endgame: this thread is the last one able to make
            // progress; eventual visibility means its spin re-reads must
            // eventually observe the newest store, so stop branching on
            // staleness.
            return hi;
        }
        let mut cands: Vec<usize> = Vec::new();
        for i in (lo..=hi).rev() {
            if cands.iter().any(|&j| hist[j].val == hist[i].val && hist[j].msg == hist[i].msg) {
                continue;
            }
            cands.push(i);
        }
        let c = self.choose(cands.len());
        cands[c]
    }

    fn read_from(&mut self, t: usize, loc: usize, idx: usize, acquire: bool) -> u64 {
        let (val, msg) = {
            let r = &self.locs[&loc][idx];
            (r.val, r.msg.clone())
        };
        let th = &mut self.threads[t];
        th.view.bump_seen(loc, idx);
        if acquire {
            th.view.join(&msg);
        } else {
            th.acq_pending.join(&msg);
        }
        val
    }

    fn write(&mut self, t: usize, loc: usize, val: u64, release: bool, rmw_from: Option<usize>) {
        let mut msg =
            if release { self.threads[t].view.clone() } else { self.threads[t].fence_rel.clone() };
        if let Some(p) = rmw_from {
            // Release-sequence propagation: an acquire read of an RMW store
            // synchronizes with the release head it read from.
            let pm = self.locs[&loc][p].msg.clone();
            msg.join(&pm);
        }
        let hist = self.locs.get_mut(&loc).expect("write to unregistered location");
        let idx = hist.len();
        msg.bump_seen(loc, idx);
        self.threads[t].view.bump_seen(loc, idx);
        hist.push(StoreRec { val, msg });
        self.stores += 1;
        // Progress: spinners may wake and the fairness endgame restarts.
        self.force_newest[t] = false;
        self.truly_blocked.iter_mut().for_each(|b| *b = false);
    }

    fn na_access(
        &mut self,
        t: usize,
        loc: usize,
        what: &'static str,
        is_write: bool,
    ) -> Result<Resp, String> {
        let clock_of = |threads: &Vec<ThreadSt>, tid: usize, owner: usize| {
            threads[tid].view.clock.get(owner).copied().unwrap_or(0)
        };
        let ns = self.na.entry(loc).or_default();
        if let Some((wt, wc)) = ns.write {
            if wt != t && clock_of(&self.threads, t, wt) < wc {
                return Err(format!(
                    "data race on {what}: thread {t} {} unsynchronized with thread {wt}'s write",
                    if is_write { "write" } else { "read" }
                ));
            }
        }
        if is_write {
            for &(rt, rc) in &ns.reads {
                if rt != t && clock_of(&self.threads, t, rt) < rc {
                    return Err(format!(
                        "data race on {what}: thread {t} write unsynchronized with thread {rt}'s read"
                    ));
                }
            }
        }
        let c = self.threads[t].view.clock[t];
        if is_write {
            ns.reads.clear();
            ns.write = Some((t, c));
        } else {
            ns.reads.retain(|&(rt, _)| rt != t);
            ns.reads.push((t, c));
        }
        Ok(Resp::default())
    }

    fn exec_op(&mut self, t: usize, op: Op) -> Result<Resp, String> {
        self.threads[t].view.clock[t] += 1;
        match op {
            Op::Fence { ord } => {
                self.fence(t, ord);
                Ok(Resp::default())
            }
            Op::Yield | Op::SpinWait => Ok(Resp::default()),
            Op::Load { loc, init, ord } => {
                self.register(loc, init);
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                let idx = self.pick_read(t, loc);
                let val = self.read_from(t, loc, idx, is_acq(ord));
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                Ok(Resp { val, ok: true })
            }
            Op::Store { loc, init, ord, val } => {
                self.register(loc, init);
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                self.write(t, loc, val, is_rel(ord), None);
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                Ok(Resp { val: 0, ok: true })
            }
            Op::Rmw { loc, init, ord, ford, kind, mask } => {
                self.register(loc, init);
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                // RMWs read the newest store: modification order.
                let idx = self.locs[&loc].len() - 1;
                let old = self.locs[&loc][idx].val;
                let resp = match kind {
                    RmwKind::Swap(v) => {
                        self.read_from(t, loc, idx, is_acq(ord));
                        self.write(t, loc, v & mask, is_rel(ord), Some(idx));
                        Resp { val: old, ok: true }
                    }
                    RmwKind::Add(v) => {
                        self.read_from(t, loc, idx, is_acq(ord));
                        self.write(t, loc, old.wrapping_add(v) & mask, is_rel(ord), Some(idx));
                        Resp { val: old, ok: true }
                    }
                    RmwKind::Sub(v) => {
                        self.read_from(t, loc, idx, is_acq(ord));
                        self.write(t, loc, old.wrapping_sub(v) & mask, is_rel(ord), Some(idx));
                        Resp { val: old, ok: true }
                    }
                    RmwKind::Cas { expect, new } => {
                        if old == expect {
                            self.read_from(t, loc, idx, is_acq(ord));
                            self.write(t, loc, new & mask, is_rel(ord), Some(idx));
                            Resp { val: old, ok: true }
                        } else {
                            // A failed CAS is a load with the failure ordering.
                            self.read_from(t, loc, idx, is_acq(ford));
                            Resp { val: old, ok: false }
                        }
                    }
                };
                if is_sc(ord) {
                    self.sc_fence(t);
                }
                Ok(resp)
            }
            Op::NaRead { loc, what } => self.na_access(t, loc, what, false),
            Op::NaWrite { loc, what } => self.na_access(t, loc, what, true),
        }
    }
}

// ---------------------------------------------------------------------------
// Public API: Model / Sim / Report
// ---------------------------------------------------------------------------

/// Scenario under construction: one closure per model thread, plus final
/// checks the controller runs (in direct mode) after every thread finished.
#[derive(Default)]
pub struct Sim {
    threads: Vec<Box<dyn FnOnCeBox>>,
    finals: Vec<Box<dyn FnOnce()>>,
}

// Helper trait alias (FnOnce() + Send) for boxed thread bodies.
trait FnOnCeBox: Send {
    fn call(self: Box<Self>);
}
impl<F: FnOnce() + Send> FnOnCeBox for F {
    fn call(self: Box<Self>) {
        self()
    }
}

impl Sim {
    /// Register a model thread. All of its façade-routed operations become
    /// scheduling points.
    pub fn thread<F: FnOnce() + Send + 'static>(&mut self, f: F) {
        self.threads.push(Box::new(f));
    }

    /// Register a final check, run by the controller once every thread has
    /// finished. A panic here is reported as a violation of this execution.
    pub fn finally<F: FnOnce() + 'static>(&mut self, f: F) {
        self.finals.push(Box::new(f));
    }
}

#[derive(Clone, Debug)]
pub struct Violation {
    pub message: String,
    /// Comma-separated choice indices; feed to [`Model::replay`] to
    /// deterministically re-run the failing interleaving.
    pub trace: String,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub name: String,
    /// Number of distinct interleavings (DFS leaves) explored.
    pub executions: u64,
    /// True when the bounded search space was fully enumerated.
    pub exhausted: bool,
    pub violation: Option<Violation>,
    pub max_depth: usize,
}

impl Report {
    /// Assert no violation was found and at least `min_execs` interleavings
    /// were explored (or the space was exhausted earlier than that).
    pub fn assert_clean(&self, min_execs: u64) {
        if let Some(v) = &self.violation {
            panic!(
                "model '{}' found a violation after {} executions: {}\n  trace: {}",
                self.name, self.executions, v.message, v.trace
            );
        }
        assert!(
            self.exhausted || self.executions >= min_execs,
            "model '{}' explored only {} executions without exhausting (wanted >= {min_execs})",
            self.name,
            self.executions
        );
    }

    /// Assert a violation was found, and return it.
    pub fn expect_violation(&self) -> &Violation {
        self.violation.as_ref().unwrap_or_else(|| {
            panic!(
                "model '{}' expected a violation but explored {} executions clean (exhausted={})",
                self.name, self.executions, self.exhausted
            )
        })
    }
}

struct ExecOutcome {
    violation: Option<String>,
    trail: Vec<TrailEntry>,
}

/// Serialize model checks process-wide: model threads use process-global
/// TLS registration and the checked protocols may touch process-global
/// state (e.g. the epoch shim's `GLOBAL`), so two checks must never
/// interleave even when the test harness runs `#[test]`s in parallel.
static CHECK_LOCK: Mutex<()> = Mutex::new(());

static MUTATIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// True when the named seeded mutation is enabled for the current check.
/// Protocol code consults this (under `cfg(rsched_model)` only) to swap in
/// a deliberately broken variant the checker is expected to refute.
pub fn mutation_enabled(name: &str) -> bool {
    lock_ignore_poison(&MUTATIONS).iter().any(|m| m == name)
}

type PanicHook = Box<dyn Fn(&panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Restores the previous panic hook (and clears mutations) when a check
/// leaves scope, even if the controller itself panics.
struct CheckScope {
    prev_hook: Option<PanicHook>,
}

impl CheckScope {
    fn enter(mutations: &[String]) -> CheckScope {
        *lock_ignore_poison(&MUTATIONS) = mutations.to_vec();
        let prev = panic::take_hook();
        // Model threads communicate expected panics (assert violations,
        // abort unwinds) through `catch_unwind`; silence the default
        // backtrace spam while a check is running.
        panic::set_hook(Box::new(|_| {}));
        CheckScope { prev_hook: Some(prev) }
    }
}

impl Drop for CheckScope {
    fn drop(&mut self) {
        lock_ignore_poison(&MUTATIONS).clear();
        if let Some(h) = self.prev_hook.take() {
            panic::set_hook(h);
        }
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// Model-check builder. Defaults are env-tunable so CI can tighten or relax
/// the whole suite: `RSCHED_MODEL_PREEMPTIONS` (preemption bound, default
/// 2), `RSCHED_MODEL_MAX_EXECS` (execution budget, default 200k).
pub struct Model {
    name: String,
    preemption_bound: usize,
    max_executions: u64,
    max_steps: usize,
    replay_trace: Option<Vec<usize>>,
    mutations: Vec<String>,
    quiet: bool,
}

impl Model {
    pub fn new(name: &str) -> Model {
        Model {
            name: name.to_string(),
            preemption_bound: env_parse("RSCHED_MODEL_PREEMPTIONS").unwrap_or(2),
            max_executions: env_parse("RSCHED_MODEL_MAX_EXECS").unwrap_or(200_000),
            max_steps: 20_000,
            replay_trace: None,
            mutations: Vec::new(),
            quiet: false,
        }
    }

    pub fn max_executions(mut self, n: u64) -> Model {
        self.max_executions = n;
        self
    }

    pub fn max_steps(mut self, n: usize) -> Model {
        self.max_steps = n;
        self
    }

    /// Re-run a single execution following a failure trace from a previous
    /// report instead of searching.
    pub fn replay(mut self, trace: &str) -> Model {
        let parsed = trace
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("malformed replay trace"))
            .collect();
        self.replay_trace = Some(parsed);
        self
    }

    /// Enable a named seeded mutation (see [`mutation_enabled`]) for the
    /// duration of this check.
    pub fn mutation(mut self, name: &str) -> Model {
        self.mutations.push(name.to_string());
        self
    }

    pub fn quiet(mut self) -> Model {
        self.quiet = true;
        self
    }

    pub fn check<F: Fn(&mut Sim)>(self, scenario: F) -> Report {
        let _serial = lock_ignore_poison(&CHECK_LOCK);
        let _scope = CheckScope::enter(&self.mutations);

        let replay_only = self.replay_trace.is_some();
        let mut replay = self.replay_trace.clone().unwrap_or_default();
        let mut executions = 0u64;
        let mut exhausted = false;
        let mut violation = None;
        let mut max_depth = 0usize;

        loop {
            let out = self.run_execution(&scenario, replay.clone());
            executions += 1;
            max_depth = max_depth.max(out.trail.len());
            if let Some(msg) = out.violation {
                let trace =
                    out.trail.iter().map(|e| e.chosen.to_string()).collect::<Vec<_>>().join(",");
                violation = Some(Violation { message: msg, trace });
                break;
            }
            if replay_only {
                break;
            }
            // DFS backtrack: flip the deepest choice with an untried option.
            let mut next = None;
            for d in (0..out.trail.len()).rev() {
                if out.trail[d].chosen + 1 < out.trail[d].options {
                    let mut p: Vec<usize> = out.trail[..d].iter().map(|e| e.chosen).collect();
                    p.push(out.trail[d].chosen + 1);
                    next = Some(p);
                    break;
                }
            }
            match next {
                None => {
                    exhausted = true;
                    break;
                }
                Some(p) => replay = p,
            }
            if executions >= self.max_executions {
                break;
            }
        }

        let report =
            Report { name: self.name.clone(), executions, exhausted, violation, max_depth };
        if !self.quiet {
            eprintln!(
                "model '{}': {} interleavings explored (exhausted={}, max_depth={}, violation={})",
                report.name,
                report.executions,
                report.exhausted,
                report.max_depth,
                report.violation.as_ref().map(|v| v.message.as_str()).unwrap_or("none"),
            );
        }
        report
    }

    fn run_execution<F: Fn(&mut Sim)>(&self, scenario: &F, replay: Vec<usize>) -> ExecOutcome {
        let mut sim = Sim::default();
        scenario(&mut sim);
        let n = sim.threads.len();
        assert!((1..=8).contains(&n), "model scenarios need 1..=8 threads, got {n}");
        let chan = Arc::new(Chan::new(n));
        let handles: Vec<_> = sim
            .threads
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let chan = chan.clone();
                spawn_model_thread(chan, i, Box::new(move || f.call()))
            })
            .collect();

        let mut ex = Exec::new(n, replay, self.preemption_bound, self.max_steps);
        let mut violation: Option<String> = None;

        'sched: loop {
            let mut st = lock_ignore_poison(&chan.m);
            // Quiescence: every live thread parked at a pending op.
            loop {
                if st.failure.is_some() {
                    violation = st.failure.take();
                    break;
                }
                if (0..n).all(|i| st.finished[i] || st.pending[i].is_some()) {
                    break;
                }
                st = chan.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if violation.is_some() {
                break 'sched;
            }
            if (0..n).all(|i| st.finished[i]) {
                break 'sched;
            }

            let mut runnable: Vec<usize> = Vec::new();
            for i in 0..n {
                if st.finished[i] {
                    continue;
                }
                if matches!(st.pending[i], Some(Op::SpinWait)) {
                    if ex.force_newest[i] {
                        // Fairness endgame: this thread was woken with its
                        // loads pinned to the newest store and it *still*
                        // spins — it is genuinely blocked, not stale.
                        ex.force_newest[i] = false;
                        ex.truly_blocked[i] = true;
                        ex.blocked_at[i] = Some(ex.stores);
                        continue;
                    }
                    // Park spinners until some thread stores: re-running a
                    // side-effect-free spin iteration cannot change state.
                    match ex.blocked_at[i] {
                        None => {
                            ex.blocked_at[i] = Some(ex.stores);
                            continue;
                        }
                        Some(b) if b == ex.stores => continue,
                        _ => {}
                    }
                }
                runnable.push(i);
            }
            if runnable.is_empty() {
                // Candidate deadlock. Eventual visibility means a spinner
                // cannot re-read a stale value forever, so before reporting
                // we wake one parked thread with its loads pinned to the
                // newest store (see `pick_read`). Only when every spinner
                // keeps spinning after a newest-value read is the state a
                // genuine deadlock rather than an unfair stale-read branch.
                match (0..n).find(|&i| !st.finished[i] && !ex.truly_blocked[i]) {
                    Some(t) => {
                        ex.force_newest[t] = true;
                        runnable.push(t);
                    }
                    None => {
                        violation = Some(
                            "deadlock: every live thread is blocked in a spin/lock wait"
                                .to_string(),
                        );
                        break 'sched;
                    }
                }
            }

            let cur_ok = ex.current.map(|c| runnable.contains(&c)).unwrap_or(false);
            let options: Vec<usize> = if cur_ok && ex.preemptions >= ex.preemption_bound {
                vec![ex.current.expect("cur_ok implies current")]
            } else {
                let mut v = Vec::new();
                if cur_ok {
                    v.push(ex.current.expect("cur_ok implies current"));
                }
                v.extend(runnable.iter().copied().filter(|&i| Some(i) != ex.current));
                v
            };
            let ci = ex.choose(options.len());
            let t = options[ci];
            if cur_ok && Some(t) != ex.current {
                ex.preemptions += 1;
            }
            let op = st.pending[t].take().expect("chosen thread has a pending op");
            drop(st);

            ex.current = Some(t);
            ex.blocked_at[t] = None;
            ex.steps += 1;
            if ex.steps > ex.max_steps {
                violation = Some(format!(
                    "step budget exceeded ({} ops in one execution): livelock or runaway loop",
                    ex.max_steps
                ));
                break 'sched;
            }
            match ex.exec_op(t, op) {
                Ok(resp) => {
                    let mut st = lock_ignore_poison(&chan.m);
                    st.resp[t] = Some(resp);
                    chan.cv.notify_all();
                }
                Err(v) => {
                    violation = Some(v);
                    break 'sched;
                }
            }
        }

        if violation.is_none() {
            // All threads finished cleanly: run final checks on the
            // controller (direct mode — no scheduling, reads see the final
            // modification-order values).
            let finals = mem::take(&mut sim.finals);
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(move || {
                for f in finals {
                    f();
                }
            })) {
                violation = Some(panic_message(p.as_ref()));
            }
        }

        {
            let mut st = lock_ignore_poison(&chan.m);
            st.abort = true;
            st.exec_done = true;
            chan.cv.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }

        ExecOutcome { violation, trail: ex.trail }
    }
}

// ---------------------------------------------------------------------------
// RaceCell
// ---------------------------------------------------------------------------

/// Model-only analog of a plain (non-atomic) memory cell: every access is
/// checked for data races against all other threads' accesses using
/// happens-before vector clocks. Use it for the data a lock or publication
/// protocol is supposed to protect — a protocol that keeps threads out of
/// each other's way but loses the synchronization *edge* (e.g. a
/// `Release→Relaxed` mutant) is caught here, not by mutual-exclusion
/// tripwires.
pub struct RaceCell<T> {
    v: UnsafeCell<T>,
}

// SAFETY: accesses are serialized by the model scheduler (exactly one model
// thread runs at a time), and any unsynchronized pair of accesses is
// reported as a violation before the data could be meaningfully corrupted.
unsafe impl<T: Send> Send for RaceCell<T> {}
// SAFETY: see the `Send` justification above; `&RaceCell<T>` hands out
// values only by copy under the model scheduler's serialization.
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T: Copy> RaceCell<T> {
    pub fn new(v: T) -> RaceCell<T> {
        RaceCell { v: UnsafeCell::new(v) }
    }

    fn loc(&self) -> usize {
        self as *const RaceCell<T> as usize
    }

    pub fn get(&self) -> T {
        let _ = request(Op::NaRead { loc: self.loc(), what: "RaceCell" });
        // SAFETY: the controller serializes model threads, so no other
        // thread is concurrently writing; direct-mode callers (controller
        // finals, teardown) run after all model threads finished.
        unsafe { *self.v.get() }
    }

    pub fn set(&self, val: T) {
        let _ = request(Op::NaWrite { loc: self.loc(), what: "RaceCell" });
        // SAFETY: as in `get` — the scheduler guarantees exclusivity at
        // this point or has already flagged a race violation.
        unsafe { *self.v.get() = val }
    }
}
