//! Epoch-based memory reclamation, mirroring the slice of the
//! `crossbeam-epoch` API that the workspace's `Ebr` backend calls:
//! [`pin`]/[`Guard`] critical sections, [`Guard::defer_unchecked`] and
//! [`Guard::flush`].
//!
//! # Scheme
//!
//! Classic epoch-based reclamation in the upstream `crossbeam-epoch` shape:
//! all shared state on the defer/collect hot path is **thread-local**.
//!
//! * **Participants** are heap-allocated `Local` records linked into a
//!   lock-free, append-only registry (a Treiber-style push list). Records
//!   are never freed; a thread that exits marks its slot `FREE` and a later
//!   thread reuses it, so the registry length is bounded by the peak number
//!   of concurrently live threads. Registration happens once per thread and
//!   the record is cached in a thread-local, so [`pin`] is a counter bump
//!   plus one atomic store and one fence — no `Arc` clone, no lock.
//! * **Garbage** deferred by [`Guard::defer_unchecked`] goes into the
//!   pinning thread's own bag, stamped with the global epoch observed at
//!   defer time. It is freed by that same thread's later collections; only
//!   on thread exit does a non-empty bag migrate to a shared orphan list
//!   (drained opportunistically by any later collection). Defer and the
//!   common-case collect therefore take **zero** shared-lock acquisitions.
//!   An unpin collects once the bag has grown `COLLECT_THRESHOLD` items
//!   past what the last collection left in it, so a straggler pinned at an
//!   old epoch costs one rescan per threshold's worth of defers, not one
//!   per unpin.
//! * **Epoch advancement is garbage-driven**: a collection only attempts to
//!   advance the global epoch when it actually holds garbage that is too
//!   young to free (or orphans exist); an empty collect never touches the
//!   registry.
//!
//! # Epoch encoding and the pin handshake
//!
//! The global epoch is an even integer advancing by 2; a participant's
//! `epoch` word is `global_epoch | 1` while pinned and an even value while
//! not. Because the observed epoch and the pinned flag live in **one**
//! word written by **one** store, a collector can never observe the
//! "pinned but epoch not yet refreshed" window that a two-field handshake
//! has: a participant is either visibly unpinned or visibly pinned at the
//! epoch it actually observed.
//!
//! Orderings are Acquire/Release plus two paired `SeqCst` fences, argued as
//! follows:
//!
//! * [`pin`] stores the pinned word and then issues the module's `SeqCst`
//!   fence; `try_advance` issues its own `SeqCst` fence *before* scanning
//!   the registry. In the total order of `SeqCst` fences, either the
//!   pinning fence comes first — then the scan observes the pin and refuses
//!   to advance past it — or the advancing fence comes first, in which case
//!   the pinning thread's loads all happen after the unlinks that preceded
//!   the advance, so it can no longer reach objects whose reclamation that
//!   advance enabled. Either way a pinned thread never holds a reference to
//!   garbage the collector considers expired.
//! * A pinned participant at epoch `e` blocks advancement beyond `e + 2`
//!   (the advance from `e + 2` to `e + 4` would require its word to read
//!   `e + 2`). Hence, by coherence on the global-epoch cell, the stamp a
//!   deferring thread records is **at most one step stale**: it re-reads a
//!   cell it already read at pin time, and the cell cannot have advanced
//!   more than once while the thread stayed pinned.
//! * Garbage stamped `s` is freed only once the global epoch reaches
//!   `s + 6` — **three** advances, one more than the textbook two. The
//!   extra advance absorbs the one-step stamp staleness above: any thread
//!   that could hold a reference pinned at `e ≤ s + 2`, advancement stalls
//!   at `e + 2 ≤ s + 4 < s + 6` while it stays pinned, so the free cannot
//!   race a live reference. This trades one epoch of reclamation latency
//!   for an argument that needs no fence on the (hot) defer path.
//!
//! The caller contract is upstream's: only defer the freeing of objects
//! that are already unreachable to threads that pin *after* the call.

use rsched_sync::atomic::{fence, AtomicUsize, Ordering};
use std::cell::{Cell, UnsafeCell};
use std::mem::{align_of, size_of, MaybeUninit};

/// How many garbage items bagged since the last collection trigger a
/// collection attempt on unpin.
const COLLECT_THRESHOLD: usize = 64;

/// Low bit of a participant's epoch word: set while pinned.
const PINNED: usize = 1;

/// One global-epoch step (the low bit is reserved for [`PINNED`]).
const STEP: usize = 2;

/// Garbage stamped `s` is freed once `global - s >= EXPIRY` (3 advances;
/// see the module comment for why this is one more than the usual two).
const EXPIRY: usize = 3 * STEP;

/// Slot states of a registry record.
const IN_USE: usize = 1;
const FREE: usize = 0;

/// What a deferred closure may occupy: it is stored inline, never boxed.
type Data = [usize; 4];

/// A type-erased deferred function, the closure stored inline.
struct Deferred {
    call: unsafe fn(*mut u8),
    data: MaybeUninit<Data>,
}

// SAFETY: a deferred closure runs on whichever thread collects it, after
// the epoch scheme has proven that nothing it frees is still reachable;
// `Guard::defer_unchecked`'s contract makes the caller vouch that running
// it there is sound.
unsafe impl Send for Deferred {}

/// # Safety
///
/// `raw` must hold an `F` written by [`Deferred::new`], not yet read.
unsafe fn call<F: FnOnce()>(raw: *mut u8) {
    // SAFETY: caller contract; the read moves the closure out once.
    let f = unsafe { raw.cast::<F>().read() };
    f();
}

impl Deferred {
    fn new<F: FnOnce()>(f: F) -> Self {
        const {
            assert!(size_of::<F>() <= size_of::<Data>() && align_of::<F>() <= align_of::<Data>());
        }
        let mut data = MaybeUninit::<Data>::uninit();
        // SAFETY: `F` fits `Data` in size and alignment (asserted above).
        unsafe { data.as_mut_ptr().cast::<F>().write(f) };
        Deferred { call: call::<F>, data }
    }

    /// Runs the deferred function (consuming it, so it runs once).
    fn run(mut self) {
        // SAFETY: `data` holds what `new` wrote for `call`, and `self` is
        // consumed here, so it is read exactly once.
        unsafe { (self.call)(self.data.as_mut_ptr().cast()) }
    }
}

/// A participant record: registry node + per-thread garbage bag.
struct Local {
    /// `global_epoch | PINNED` while pinned, an even value otherwise.
    /// One word, one store: a collector can never see a pinned participant
    /// paired with an epoch it did not actually observe.
    epoch: AtomicUsize,
    /// Next registry record (`0` terminates); the list is append-only.
    next: AtomicUsize,
    /// [`FREE`]/[`IN_USE`] slot state; exiting threads release their slot
    /// for reuse instead of unlinking (records are never freed).
    state: AtomicUsize,
    /// Guard nesting depth. Owner-thread only.
    guard_count: Cell<usize>,
    /// Set when the thread's `Handle` was dropped while a `Guard` was still
    /// live (TLS destructor order is unspecified): the last `Guard::drop`
    /// finishes the retirement instead. Owner-thread only.
    retire_on_unpin: Cell<bool>,
    /// Deferred garbage, each item stamped with the global epoch at defer
    /// time. Owner-thread only while the slot is `IN_USE`; handed off via
    /// the `state` Release/Acquire edge on reuse.
    bag: UnsafeCell<Vec<(usize, Deferred)>>,
    /// The bag's length when the last collection finished: an unpin
    /// collects again only [`COLLECT_THRESHOLD`] items past it. Owner-thread
    /// only.
    collected: Cell<usize>,
}

/// A sealed bag from an exited thread, awaiting any thread's collection.
struct Orphan {
    /// Next orphan (`0` terminates). Plain because nodes are only read
    /// after an exclusive `swap` takeover of the whole stack.
    next: usize,
    items: Vec<(usize, Deferred)>,
}

struct Global {
    /// The global epoch: even, advances by [`STEP`].
    epoch: AtomicUsize,
    /// Registry head: `*const Local` as usize, `0` when empty.
    locals: AtomicUsize,
    /// Orphan stack head: `*mut Orphan` as usize, `0` when empty.
    orphans: AtomicUsize,
    /// The epoch at which the last orphan sweep freed nothing (odd sentinel
    /// `usize::MAX` = no such sweep). Purely a churn limiter: while the
    /// epoch has not advanced past a fruitless sweep, re-sweeping the stack
    /// would free nothing and only reallocate the kept bag.
    orphan_sweep: AtomicUsize,
}

static GLOBAL: Global = Global {
    epoch: AtomicUsize::new(0),
    locals: AtomicUsize::new(0),
    orphans: AtomicUsize::new(0),
    orphan_sweep: AtomicUsize::new(usize::MAX),
};

impl Local {
    /// Registers the calling thread: reuses a `FREE` slot if one exists,
    /// otherwise pushes a fresh record onto the registry. Lock-free.
    fn acquire() -> &'static Local {
        let mut p = GLOBAL.locals.load(Ordering::Acquire);
        while p != 0 {
            // SAFETY: registry records are leaked, never freed, so any
            // pointer once published in the list stays valid for 'static.
            let local = unsafe { &*(p as *const Local) };
            if local.state.load(Ordering::Relaxed) == FREE
                && local
                    .state
                    .compare_exchange(FREE, IN_USE, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                // The Acquire CAS pairs with the releasing store in
                // `retire`, handing the (emptied) bag to this thread.
                local.guard_count.set(0);
                local.retire_on_unpin.set(false);
                local.collected.set(0);
                return local;
            }
            p = local.next.load(Ordering::Acquire);
        }
        let local: &'static Local = Box::leak(Box::new(Local {
            epoch: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            state: AtomicUsize::new(IN_USE),
            guard_count: Cell::new(0),
            retire_on_unpin: Cell::new(false),
            bag: UnsafeCell::new(Vec::new()),
            collected: Cell::new(0),
        }));
        let mut head = GLOBAL.locals.load(Ordering::Relaxed);
        loop {
            local.next.store(head, Ordering::Relaxed);
            match GLOBAL.locals.compare_exchange_weak(
                head,
                local as *const Local as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return local,
                Err(h) => head = h,
            }
        }
    }

    /// Deregisters: migrates leftover garbage to the orphan stack and
    /// releases the slot for reuse by a later thread.
    ///
    /// If a `Guard` is still live (a guard stored in another thread-local
    /// whose destructor runs after `HANDLE`'s — TLS destructor order is
    /// unspecified), the slot must NOT be released out from under the pin:
    /// retirement is deferred to the last `Guard::drop` instead, which
    /// keeps the critical section sound and the owner-only fields
    /// single-threaded.
    fn retire(&self) {
        if self.guard_count.get() > 0 {
            self.retire_on_unpin.set(true);
            return;
        }
        self.retire_on_unpin.set(false);
        // SAFETY: the bag is only ever touched by its owning thread.
        let bag = unsafe { &mut *self.bag.get() };
        if !bag.is_empty() {
            push_orphan(std::mem::take(bag));
        }
        self.collected.set(0);
        self.epoch.store(0, Ordering::Release);
        self.state.store(FREE, Ordering::Release);
    }
}

/// Pushes a sealed bag onto the global orphan stack (lock-free).
fn push_orphan(items: Vec<(usize, Deferred)>) {
    let node = Box::into_raw(Box::new(Orphan { next: 0, items }));
    let mut head = GLOBAL.orphans.load(Ordering::Relaxed);
    loop {
        // SAFETY: `node` is ours alone until the CAS below publishes it.
        unsafe { (*node).next = head };
        match GLOBAL.orphans.compare_exchange_weak(
            head,
            node as usize,
            Ordering::Release,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(h) => head = h,
        }
    }
}

/// Takes over the whole orphan stack, moves expired items into `freeable`,
/// and pushes the still-young remainder back as a single bag.
fn collect_orphans(freeable: &mut Vec<Deferred>) {
    if GLOBAL.orphans.load(Ordering::Relaxed) == 0 {
        return;
    }
    // Skip the takeover while the epoch sits where a previous sweep already
    // found nothing expired — orphans only age when the epoch advances, and
    // `collect` keeps requesting advances while orphans exist, so this
    // marker goes stale quickly and never blocks progress (a mistaken skip
    // merely defers the sweep to the next advance).
    let snapshot = GLOBAL.epoch.load(Ordering::SeqCst);
    if GLOBAL.orphan_sweep.load(Ordering::Relaxed) == snapshot {
        return;
    }
    // The swap grants exclusive ownership of every node in the chain.
    let mut p = GLOBAL.orphans.swap(0, Ordering::Acquire);
    if p == 0 {
        return; // another collector took the stack first
    }
    // Orphan stamps were taken by *other* threads and can be ahead of any
    // epoch snapshot taken before the swap (the own-bag coherence argument
    // does not apply), which would underflow the unsigned age computation
    // below and free garbage instantly. Re-read the epoch after the swap:
    // each stamp load happens-before its bag's Release push, which the
    // Acquire swap observed, so by read-read coherence this load returns
    // a value ≥ every stamp in the taken chain.
    let global_epoch = GLOBAL.epoch.load(Ordering::SeqCst);
    let freed_before = freeable.len();
    let mut keep: Vec<(usize, Deferred)> = Vec::new();
    while p != 0 {
        // SAFETY: the swap above detached the whole chain; we are its sole
        // owner, and each node was allocated via Box::into_raw.
        let node = unsafe { Box::from_raw(p as *mut Orphan) };
        p = node.next;
        for (stamp, deferred) in node.items {
            if global_epoch.wrapping_sub(stamp) >= EXPIRY {
                freeable.push(deferred);
            } else {
                keep.push((stamp, deferred));
            }
        }
    }
    if !keep.is_empty() {
        push_orphan(keep);
        if freeable.len() == freed_before {
            // Fruitless sweep: nothing can expire until the epoch advances
            // past `global_epoch`, so let peers skip the churn until then.
            GLOBAL.orphan_sweep.store(global_epoch, Ordering::Relaxed);
        }
    }
}

/// Tries to advance the global epoch by one step; returns the epoch that is
/// current afterwards. Lock-free: one registry scan, no allocation.
#[cold]
fn try_advance() -> usize {
    let global_epoch = GLOBAL.epoch.load(Ordering::SeqCst);
    // Pairs with the fence in `pin`: scans ordered after this fence see
    // every pin whose fence preceded it (module comment, bullet one).
    fence(Ordering::SeqCst);
    let mut p = GLOBAL.locals.load(Ordering::Acquire);
    while p != 0 {
        // SAFETY: registry records are leaked, never freed ('static).
        let local = unsafe { &*(p as *const Local) };
        let word = local.epoch.load(Ordering::Relaxed);
        if word & PINNED != 0 && word & !PINNED != global_epoch {
            // A participant is pinned at an older epoch: cannot advance.
            return global_epoch;
        }
        p = local.next.load(Ordering::Acquire);
    }
    fence(Ordering::Acquire);
    match GLOBAL.epoch.compare_exchange(
        global_epoch,
        global_epoch.wrapping_add(STEP),
        Ordering::SeqCst,
        Ordering::SeqCst,
    ) {
        Ok(_) => global_epoch.wrapping_add(STEP),
        Err(current) => current,
    }
}

/// Frees this participant's expired garbage (plus any expired orphans),
/// advancing the epoch only if something is actually waiting on it.
fn collect(local: &Local) {
    #[cfg(test)]
    tests::COLLECTS.with(|c| c.set(c.get() + 1));
    let mut freeable: Vec<Deferred> = Vec::new();
    {
        // SAFETY: `local` is the calling thread's own record; nobody else
        // touches its bag.
        let bag = unsafe { &mut *local.bag.get() };
        let mut global_epoch = GLOBAL.epoch.load(Ordering::SeqCst);
        // Garbage-driven advancement: only scan the registry when this bag
        // (or the orphan stack) holds items still too young to free.
        let blocked = bag.iter().any(|(s, _)| global_epoch.wrapping_sub(*s) < EXPIRY)
            || GLOBAL.orphans.load(Ordering::Relaxed) != 0;
        if blocked {
            global_epoch = try_advance();
        }
        let mut i = 0;
        while i < bag.len() {
            if global_epoch.wrapping_sub(bag[i].0) >= EXPIRY {
                freeable.push(bag.swap_remove(i).1);
            } else {
                i += 1;
            }
        }
        local.collected.set(bag.len());
        collect_orphans(&mut freeable);
    }
    // Run with no outstanding borrows: a deferred function may legally pin,
    // defer, or collect again. The stamp check proved each deferral's epoch
    // expired, so no pin taken before the unlink can still be live; each
    // entry is drained from exactly one bag, so it runs exactly once.
    freeable.into_iter().for_each(Deferred::run);
}

/// Per-thread registration handle; releases the slot on thread exit.
struct Handle {
    local: &'static Local,
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.local.retire();
    }
}

thread_local! {
    static HANDLE: Handle = Handle { local: Local::acquire() };
}

/// Pins `local` (which must be unpinned): one store plus the handshake
/// fence. The stored epoch may be one step stale, which is safe — a stale
/// pin only delays advancement, never unblocks a free (module comment).
fn pin_slot(local: &Local) {
    let e = GLOBAL.epoch.load(Ordering::Relaxed);
    local.epoch.store(e | PINNED, Ordering::Relaxed);
    // Seeded mutation for the model checker: dropping the handshake fence
    // must let `try_advance` scan past a pin it never observed and reclaim
    // under a live reference (the `model_epoch` test demands this finding).
    #[cfg(rsched_model)]
    if rsched_sync::model::mutation_enabled("epoch-skip-pin-fence") {
        return;
    }
    // Pairs with the fence in `try_advance` (module comment, bullet one).
    fence(Ordering::SeqCst);
}

/// Rewinds the global epoch state between model-checker executions so each
/// explored interleaving starts from identical ground: drains every
/// leftover bag and orphan (running the deferred destructors directly) and
/// resets the epoch. Direct mode only — callers must guarantee no thread
/// is registered or pinned.
#[cfg(rsched_model)]
pub fn model_reset() {
    let mut p = GLOBAL.orphans.swap(0, Ordering::SeqCst);
    while p != 0 {
        // SAFETY: the swap took exclusive ownership of the whole stack and
        // every node was created by `Box::into_raw` in `push_orphan`.
        let node = unsafe { Box::from_raw(p as *mut Orphan) };
        p = node.next;
        // No thread is pinned (caller contract), so every deferred pointee
        // is unreachable and owned by us.
        node.items.into_iter().for_each(|(_, deferred)| deferred.run());
    }
    let mut p = GLOBAL.locals.load(Ordering::SeqCst);
    while p != 0 {
        // SAFETY: registry records are leaked and never freed; the pointer
        // chain is append-only.
        let local = unsafe { &*(p as *const Local) };
        local.epoch.store(0, Ordering::SeqCst);
        local.state.store(FREE, Ordering::SeqCst);
        // SAFETY: no registered threads (caller contract) means no owner
        // can touch this bag concurrently; its garbage is unreachable.
        let bag = std::mem::take(unsafe { &mut *local.bag.get() });
        bag.into_iter().for_each(|(_, deferred)| deferred.run());
        local.collected.set(0);
        p = local.next.load(Ordering::SeqCst);
    }
    GLOBAL.epoch.store(0, Ordering::SeqCst);
    GLOBAL.orphan_sweep.store(usize::MAX, Ordering::SeqCst);
}

/// Pins the current thread, returning a guard that keeps the epoch from
/// advancing past the point where this thread's loads remain safe.
pub fn pin() -> Guard {
    match HANDLE.try_with(|h| make_guard(h.local)) {
        Ok(guard) => guard,
        // Thread-local storage already torn down (a pin from another TLS
        // destructor): register an ephemeral participant that the guard
        // retires on drop.
        Err(_) => {
            #[cfg(test)]
            tests::EPHEMERAL_PINS.fetch_add(1, Ordering::Relaxed);
            let local = Local::acquire();
            local.guard_count.set(1);
            pin_slot(local);
            Guard { local, ephemeral: true }
        }
    }
}

/// Builds a guard for `local`, bumping the nesting depth and pinning on
/// the outermost entry.
fn make_guard(local: &'static Local) -> Guard {
    let count = local.guard_count.get();
    local.guard_count.set(count + 1);
    if count == 0 {
        pin_slot(local);
    }
    Guard { local, ephemeral: false }
}

/// A pinned critical section. Dropping the guard unpins the thread and
/// opportunistically collects this thread's expired garbage.
///
/// `Local` holds `Cell`s, so the participant reference makes
/// `Guard: !Send` — a guard must unpin on the thread that pinned.
pub struct Guard {
    local: &'static Local,
    /// Whether dropping this guard must also retire its participant slot
    /// (only for pins that raced thread-local teardown).
    ephemeral: bool,
}

impl Guard {
    /// Schedules `f` to run once no thread pinned now can still be inside
    /// its critical section (upstream's `defer_unchecked`). Lock-free: a
    /// push onto this thread's own garbage bag. `f` is stored inline in the
    /// bag entry, so deferring allocates nothing beyond the bag's own
    /// growth; a closure larger than four words does not compile.
    ///
    /// # Safety
    ///
    /// `f` may run on any thread, at any later unpin, flush or thread exit:
    /// whatever it captures must be safe to move and use there, and
    /// whatever it frees must already be unreachable to any thread that
    /// pins after this call.
    pub unsafe fn defer_unchecked<F: FnOnce()>(&self, f: F) {
        let deferred = Deferred::new(f);
        // At most one step stale (we are pinned, so the epoch can have
        // advanced at most once since our pin) — absorbed by the EXPIRY
        // margin.
        let stamp = GLOBAL.epoch.load(Ordering::SeqCst);
        // SAFETY: the bag belongs to this (pinned) thread alone.
        unsafe { &mut *self.local.bag.get() }.push((stamp, deferred));
    }

    /// Collects this thread's expired garbage now (and any expired orphan
    /// bags), advancing the epoch if needed. Matches upstream
    /// `Guard::flush` in role: call after large unlink phases to bound
    /// memory, instead of waiting for the unpin threshold.
    pub fn flush(&self) {
        collect(self.local);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let local = self.local;
        let count = local.guard_count.get();
        local.guard_count.set(count - 1);
        if count == 1 {
            local.epoch.store(0, Ordering::Release);
            // Only once the bag has grown a threshold past what the last
            // collection left: while a straggler pins an old epoch nothing
            // can expire, and rescanning on every unpin would be pure cost.
            // SAFETY: the bag belongs to this thread alone.
            if unsafe { &*local.bag.get() }.len() >= local.collected.get() + COLLECT_THRESHOLD {
                collect(local);
            }
            // Ephemeral pins always retire here; a regular pin retires only
            // when the thread's Handle was already torn down and deferred
            // its retirement to us (see `Local::retire`).
            if self.ephemeral || local.retire_on_unpin.get() {
                local.retire();
            }
        }
    }
}

impl std::fmt::Debug for Guard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_sync::atomic::Ordering::SeqCst;
    use std::sync::Barrier;

    thread_local! {
        /// Collections this thread has run: the collect-storm probe.
        pub(super) static COLLECTS: Cell<usize> = const { Cell::new(0) };
    }

    /// Pins that found `HANDLE` torn down and registered an ephemeral
    /// participant (process-wide: they run in TLS destructors).
    pub(super) static EPHEMERAL_PINS: AtomicUsize = AtomicUsize::new(0);

    /// Defers dropping a fresh heap probe whose Drop bumps `counter`.
    fn defer_probe(guard: &Guard, counter: &'static AtomicUsize) {
        struct Probe(&'static AtomicUsize);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let probe = Box::into_raw(Box::new(Probe(counter)));
        // SAFETY: no other thread ever saw `probe`, and only this closure
        // frees it, once; a `&'static` counter is usable on any thread.
        unsafe { guard.defer_unchecked(move || drop(Box::from_raw(probe))) };
    }

    /// Pin-flush-yield until `counter` reaches `target` or attempts run out.
    /// Garbage is thread-local, so unrelated tests running concurrently can
    /// only *delay* epoch advancement with their short-lived guards, never
    /// block it forever — hence the retry loop instead of a fixed count.
    fn drain_until(counter: &'static AtomicUsize, target: usize) {
        for _ in 0..100_000 {
            if counter.load(SeqCst) >= target {
                return;
            }
            pin().flush();
            std::thread::yield_now();
        }
    }

    #[test]
    fn deferred_destruction_runs() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        const N: usize = COLLECT_THRESHOLD * 8;
        // Each iteration defers one probe and unpins; garbage stays in this
        // thread's bag, so no other test can consume or inflate it.
        for _ in 0..N {
            defer_probe(&pin(), &DROPS);
        }
        drain_until(&DROPS, N);
        assert_eq!(DROPS.load(SeqCst), N, "every deferred probe dropped exactly once");
    }

    /// A straggler pinned at an old epoch keeps every defer of this thread
    /// from expiring. Each unpin past the threshold used to rescan the
    /// whole bag anyway; now one collection runs per threshold's worth of
    /// new garbage.
    #[test]
    fn a_pinned_straggler_costs_one_collect_per_threshold() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        const N: usize = COLLECT_THRESHOLD * 16;
        let (pinned, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _straggler = pin();
                pinned.wait();
                release.wait();
            });
            pinned.wait();
            let before = COLLECTS.get();
            for _ in 0..N {
                defer_probe(&pin(), &DROPS);
            }
            let collects = COLLECTS.get() - before;
            release.wait();
            assert_eq!(DROPS.load(SeqCst), 0, "a defer expired under the straggler's pin");
            assert!(collects <= N / COLLECT_THRESHOLD, "{collects} collects for {N} unpins");
        });
        drain_until(&DROPS, N);
        assert_eq!(DROPS.load(SeqCst), N, "every probe dropped once the straggler left");
    }

    #[test]
    fn flush_collects_below_threshold() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        // Far fewer than COLLECT_THRESHOLD: without flush() these would sit
        // in the bag until the threshold trips.
        const N: usize = 5;
        for _ in 0..N {
            defer_probe(&pin(), &DROPS);
        }
        drain_until(&DROPS, N);
        assert_eq!(DROPS.load(SeqCst), N);
    }

    #[test]
    fn orphaned_garbage_reclaimed_after_thread_exit() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        const N: usize = 7;
        // The thread exits with a non-empty bag (< threshold, never
        // flushed): retire() must migrate it to the orphan stack.
        std::thread::spawn(|| {
            for _ in 0..N {
                defer_probe(&pin(), &DROPS);
            }
        })
        .join()
        .unwrap();
        // Any other thread's collections must eventually free the orphans.
        drain_until(&DROPS, N);
        assert_eq!(DROPS.load(SeqCst), N, "orphaned bags freed by another thread");
    }

    /// A pin from a TLS destructor that runs after `HANDLE`'s registers an
    /// ephemeral participant; its guard retires the slot on drop, and the
    /// garbage deferred under it reaches the orphan stack.
    #[test]
    fn a_pin_after_thread_local_teardown_is_ephemeral() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct PinOnExit;
        impl Drop for PinOnExit {
            fn drop(&mut self) {
                defer_probe(&pin(), &DROPS);
            }
        }
        thread_local! {
            static PIN_ON_EXIT: PinOnExit = const { PinOnExit };
        }
        let before = EPHEMERAL_PINS.load(SeqCst);
        std::thread::spawn(|| {
            // Touched before the first pin: Linux runs TLS destructors in
            // reverse registration order, so this one runs after HANDLE's.
            PIN_ON_EXIT.with(|_| {});
            drop(pin());
        })
        .join()
        .unwrap();
        assert!(EPHEMERAL_PINS.load(SeqCst) > before, "the exit-time pin was not ephemeral");
        drain_until(&DROPS, 1);
        assert_eq!(DROPS.load(SeqCst), 1, "the exit-time probe dropped exactly once");
    }

    #[test]
    fn nested_guards_share_one_pin() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        let outer = pin();
        defer_probe(&pin(), &DROPS);
        // Dropping the inner guard must not unpin the outer one. While the
        // outer pin holds its epoch `e`, the global epoch is capped at
        // `e + STEP` and the probe (stamped >= e) expires only at
        // `e + EXPIRY`, so no flush can free it.
        for _ in 0..64 {
            outer.flush();
        }
        assert_eq!(DROPS.load(SeqCst), 0, "the inner unpin released the outer pin");
        drop(outer);
        drain_until(&DROPS, 1);
        assert_eq!(DROPS.load(SeqCst), 1);
    }
}
